"""Differential checks for the columnar TSV parser.

``ingest_lines_oracle`` is the per-row loop the columnar parser replaced,
kept as the reference: it builds one ``SegmentRating`` per rating and hands
the dict, as arrays, to ``RatingDataset``.  ``export_tsv_oracle`` is the
matching per-rating export.  Generated files, valid or with injected faults,
must give the same dataset or the same error from both, whether ingest
reads a file in blocks of its default size or of a few characters and the
rest of their last line.
"""

import hashlib
import io
import math
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabeval import corpus
from stabeval.corpus import (
    CANONICAL_COLUMNS,
    ColumnMapping,
    ErrorAnnotation,
    Severity,
    export_tsv,
    fingerprint,
    ingest,
    ingest_lines,
)
from stabeval.errors import InconsistentBuckets, ParseError, ScoreMismatch, StabevalError
from stabeval.scoring import WeightTable, segment_score

from conftest import (
    NO_DATA_FILES,
    SegmentRating,
    assert_same_buckets,
    assert_same_ratings,
    bucket_sets,
    build_buckets_oracle,
    build_dataset,
    make_layout_dataset,
    rating_dict,
    rating_fields,
    tiny_tsv_rows,
)

SCORE_TOLERANCE = 1e-9


def _int64(text):
    """int(text), failing beyond 64 bits as the columnar parser does."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{text!r} does not fit in 64 bits")
    return value


def _parse_optional_int(value, name, line):
    if value == "":
        return None
    try:
        return _int64(value)
    except ValueError:
        raise ParseError(f"invalid integer for {name}: {value!r}", line=line) from None


def ingest_lines_oracle(lines, mapping=None, weights=None):
    """The per-row ingest loop; returns the dataset and its ratings dict.

    Three rules are newer than the loop: a non-finite score, an integer
    beyond 64 bits and a gap in a document's seg_index values are parse errors.
    """
    if weights is None:
        weights = WeightTable.default()
    if mapping is None:
        mapping = ColumnMapping.identity()

    iterator = iter(lines)
    try:
        header_line = next(iterator)
    except StopIteration:
        raise ParseError("empty file", line=1) from None
    header = header_line.rstrip("\n").split("\t")
    index = mapping.resolve(header)

    def get(row, canonical, default=""):
        pos = index.get(canonical)
        if pos is None or pos >= len(row):
            return default
        return row[pos]

    groups = {}
    lang_pairs = set()
    explicit_buckets = {}
    bucket_cols_present = "bucket_id" in index

    for lineno, raw in enumerate(iterator, start=2):
        raw = raw.rstrip("\n")
        if not raw:
            continue
        row = raw.split("\t")
        doc_id = get(row, "doc_id")
        system_id = get(row, "system_id")
        rater_id = get(row, "rater_id")
        if not doc_id or not system_id or not rater_id:
            raise ParseError("empty doc/system/rater identifier", line=lineno)
        seg_text = get(row, "seg_index")
        try:
            seg_index = _int64(seg_text)
        except ValueError:
            raise ParseError(f"invalid seg_index: {seg_text!r}", line=lineno) from None
        if seg_index < 0:
            raise ParseError(f"negative seg_index: {seg_index}", line=lineno)

        lang = get(row, "lang_pair")
        if lang:
            lang_pairs.add(lang)
        if bucket_cols_present:
            bucket_id = get(row, "bucket_id")
            if bucket_id:
                previous = explicit_buckets.setdefault(doc_id, bucket_id)
                if previous != bucket_id:
                    raise InconsistentBuckets(
                        f"document {doc_id} listed in buckets {previous} and {bucket_id}"
                    )

        key = (doc_id, seg_index, system_id, rater_id)
        state = groups.setdefault(
            key, {"annotations": [], "has_error_rows": False, "scores": [], "lines": []}
        )
        state["lines"].append(lineno)

        severity_text = get(row, "severity")
        score_text = get(row, "score")
        if score_text != "":
            try:
                score = float(score_text)
            except ValueError:
                score = math.nan
            if not math.isfinite(score):
                raise ParseError(f"invalid score: {score_text!r}", line=lineno)
            state["scores"].append(score)
        if severity_text != "":
            try:
                severity = Severity(severity_text)
            except ValueError:
                raise ParseError(
                    f"invalid severity {severity_text!r} (expected Major or Minor)", line=lineno
                ) from None
            category = get(row, "category")
            start = _parse_optional_int(get(row, "span_start"), "span_start", lineno)
            end = _parse_optional_int(get(row, "span_end"), "span_end", lineno)
            span = None
            if start is not None or end is not None:
                if start is None or end is None:
                    raise ParseError("span_start and span_end must both be set", line=lineno)
                target = get(row, "target_text")
                if not (0 <= start <= end):
                    raise ParseError(f"invalid span ({start}, {end})", line=lineno)
                if target and end > len(target):
                    raise ParseError(
                        f"span end {end} exceeds target length {len(target)}", line=lineno
                    )
                span = (start, end)
            state["annotations"].append(ErrorAnnotation(category, severity, span))
            state["has_error_rows"] = True

    if not groups:
        raise ParseError("no data rows", line=2)

    doc_segs = {}
    for doc_id, seg_index, _, _ in groups:
        doc_segs.setdefault(doc_id, set()).add(seg_index)
    gaps = [(state["lines"][0], key) for key, state in groups.items()
            if key[1] >= len(doc_segs[key[0]])]
    if gaps:
        line, (doc_id, seg_index, _, _) = min(gaps)
        raise ParseError(
            f"seg_index {seg_index} leaves a gap: document {doc_id} "
            f"has {len(doc_segs[doc_id])} distinct seg_index values",
            line=line,
        )

    ratings = {}
    for key, state in sorted(groups.items()):
        doc_id, seg_index, system_id, rater_id = key
        scores = state["scores"]
        if scores and max(scores) - min(scores) > SCORE_TOLERANCE:
            raise ParseError(
                f"conflicting score values for doc={doc_id} seg={seg_index} "
                f"system={system_id} rater={rater_id}",
                line=state["lines"][0],
            )
        given_score = scores[0] if scores else None
        if state["has_error_rows"]:
            annotations = tuple(state["annotations"])
            computed = segment_score(annotations, weights)
            if given_score is not None and abs(given_score - computed) > SCORE_TOLERANCE:
                raise ScoreMismatch(
                    f"doc={doc_id} seg={seg_index} system={system_id} rater={rater_id}: "
                    f"file score {given_score} != recomputed {computed}"
                )
            ratings[key] = SegmentRating(doc_id, seg_index, system_id, rater_id, annotations, computed)
        elif given_score is None or given_score == 0.0:
            ratings[key] = SegmentRating(doc_id, seg_index, system_id, rater_id, (), 0.0)
        else:
            if given_score < 0:
                raise ParseError(
                    f"negative score for doc={doc_id} seg={seg_index}",
                    line=state["lines"][0],
                )
            ratings[key] = SegmentRating(doc_id, seg_index, system_id, rater_id, None, given_score)

    documents = {}
    doc_raters = {}
    systems = set()
    for (doc_id, seg_index, system_id, rater_id) in ratings:
        documents[doc_id] = max(documents.get(doc_id, 0), seg_index + 1)
        doc_raters.setdefault(doc_id, set()).add(rater_id)
        systems.add(system_id)

    buckets = build_buckets_oracle(documents, doc_raters, explicit_buckets)
    language_pair = sorted(lang_pairs)[0] if len(lang_pairs) == 1 else ",".join(sorted(lang_pairs))
    ds = build_dataset(language_pair or "unknown", systems, documents, buckets, ratings)
    return ds, ratings


def export_tsv_oracle(ds, ratings):
    """The per-rating export of a ratings dict."""
    out = io.StringIO()
    columns = [c for c in CANONICAL_COLUMNS if c != "target_text"]
    out.write("\t".join(columns) + "\n")
    bucket_of = {doc: bucket_id for bucket_id, (docs, _) in bucket_sets(ds).items() for doc in docs}
    for key in sorted(ratings):
        rating = ratings[key]
        base = [ds.language_pair, bucket_of[rating.doc_id], rating.doc_id, str(rating.seg_index),
                rating.system_id, rating.rater_id]
        score_text = repr(rating.score)
        if rating.annotations:
            for ann in rating.annotations:
                start = "" if ann.span is None else str(ann.span[0])
                end = "" if ann.span is None else str(ann.span[1])
                out.write(
                    "\t".join(base + [ann.severity.value, ann.category, start, end, score_text])
                    + "\n"
                )
        else:
            out.write("\t".join(base + ["", "", "", "", score_text]) + "\n")
    return out.getvalue()


def outcome(parse, text, mapping):
    return call_outcome(lambda: parse(io.StringIO(text), mapping=mapping))


def call_outcome(call):
    try:
        return call(), None
    except StabevalError as exc:
        return None, (type(exc), str(exc), getattr(exc, "line", None))


def assert_same_dataset(ds, want, ratings):
    assert (ds.system_axis, ds.doc_axis, ds.rater_axis) == (
        want.system_axis, want.doc_axis, want.rater_axis
    )
    assert ds.seg_counts.dtype == want.seg_counts.dtype
    assert np.array_equal(ds.seg_counts, want.seg_counts)
    assert_same_buckets(ds, want)
    assert ds.language_pair == want.language_pair
    assert_same_ratings(ds, want)
    assert list(rating_dict(ds)) == sorted(ratings)
    assert rating_dict(ds) == rating_dict(want) == ratings
    assert export_tsv(ds) == export_tsv(want) == export_tsv_oracle(ds, ratings)
    assert fingerprint(ds) == fingerprint(want)


CATEGORIES = ("Accuracy", "Accuracy/Omission", "Fluency/Punctuation", "Non-translation", "Style")
FAULTS = (
    "bad_seg", "negative_seg", "empty_id", "bad_severity", "bad_span_int", "half_span",
    "invalid_span", "span_past_target", "conflicting_scores", "score_mismatch",
    "negative_score", "two_buckets", "non_finite_score", "drop_row", "seg_gap",
)


@st.composite
def tsv_files(draw):
    """(text, mapping or None) of a 1-2 bucket file, with 0-2 injected faults."""
    n_buckets = draw(st.integers(1, 2))
    systems = ["sA", "sB"][: draw(st.integers(1, 2))]
    langs = draw(st.sampled_from([("xx-yy",), ("",), ("xx-yy", "zz"), ("xx-yy", "")]))
    bucket_mode = draw(st.sampled_from(["explicit", "empty", "partial"]))
    rows = []
    for b in range(n_buckets):
        raters = [f"r{b}{k}" for k in range(draw(st.integers(1, 2)))]
        for i in range(draw(st.integers(1, 2))):
            doc = f"d{b}{i}"
            bucket = {"explicit": f"b{b}", "empty": "",
                      "partial": draw(st.sampled_from([f"b{b}", ""]))}[bucket_mode]
            for seg in range(draw(st.integers(1, 2))):
                for system in systems:
                    for rater in raters:
                        base = dict(
                            lang_pair=draw(st.sampled_from(langs)), bucket_id=bucket, doc_id=doc,
                            seg_index=str(seg), system_id=system, rater_id=rater,
                            severity="", category="", span_start="", span_end="", score="",
                            target_text="",
                        )
                        rows += draw(rating_rows(base))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        inject(draw, rows, fault)

    present = {"doc_id", "seg_index", "system_id", "rater_id"}
    present |= {c for c in ("lang_pair", "bucket_id", "target_text") if draw(st.booleans())}
    present |= draw(st.sampled_from(  # mostly a valid choice of score and error columns
        [{"severity", "category", "score", "span_start", "span_end"}] * 3
        + [{"severity", "category", "span_start", "span_end"}, {"score"},
           {"severity", "category"}, {"severity", "category", "span_start"}, set()]
    ))
    present = sorted(present, key=CANONICAL_COLUMNS.index)
    order = draw(st.permutations(present + ["junk"] * draw(st.integers(0, 1))))
    renamed = draw(st.booleans())
    header = [c if c == "junk" or not renamed else f"c_{c}" for c in order]
    mapping = ColumnMapping({c: f"c_{c}" for c in CANONICAL_COLUMNS}) if renamed else None
    lines = []
    for row in draw(st.permutations(rows)):
        cells = ["j" if c == "junk" else row[c] for c in order]
        shape = draw(st.sampled_from(["full", "short", "extra"]))
        while shape == "short" and cells and cells[-1] == "":
            cells.pop()
        if shape == "extra":
            cells.append("x")
        lines.append("\t".join(cells))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    text = "\n".join(["\t".join(header)] + lines) + draw(st.sampled_from(["\n", ""]))
    return text, mapping


@st.composite
def rating_rows(draw, base):
    kind = draw(st.sampled_from(["score", "errors", "clean"]))
    if kind == "score":
        score = draw(st.sampled_from(["1.5", "2", "0.25", " 3", "1e1", "1_0"]))
        return [dict(base, score=score)] * draw(st.integers(1, 2))
    if kind == "clean":
        return [dict(base, score=draw(st.sampled_from(["", "0", "0.0", "-0.0"])))]
    errors = []
    for _ in range(draw(st.integers(1, 3))):
        target = "x" * draw(st.integers(0, 6))
        start = draw(st.integers(0, max(len(target), 3)))
        end = draw(st.integers(start, max(len(target), start)))
        span = draw(st.sampled_from([("", ""), (str(start), str(end))]))
        errors.append(dict(
            base, severity=draw(st.sampled_from(["Major", "Minor"])),
            category=draw(st.sampled_from(CATEGORIES)),
            span_start=span[0], span_end=span[1], target_text=target,
        ))
    score = segment_score(
        [ErrorAnnotation(e["category"], Severity(e["severity"])) for e in errors],
        WeightTable.default(),
    )
    marked = draw(st.sampled_from(["none", "all", "first"]))
    for i, row in enumerate(errors):
        if marked == "all" or (marked == "first" and i == 0):
            row["score"] = repr(score)
    return errors


def inject(draw, rows, fault):
    if not rows:
        return
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i] = dict(rows[i])
    if fault == "bad_seg":
        row["seg_index"] = draw(st.sampled_from(["x", "1.5", "", "99999999999999999999999"]))
    elif fault == "negative_seg":
        row["seg_index"] = "-1"
    elif fault == "empty_id":
        row[draw(st.sampled_from(["doc_id", "system_id", "rater_id"]))] = ""
    elif fault == "bad_severity":
        row["severity"] = "Critical"
    elif fault == "bad_span_int":
        row.update(severity="Minor", span_start="1", span_end="1")
        row[draw(st.sampled_from(["span_start", "span_end"]))] = draw(
            st.sampled_from(["a", "1.0", "99999999999999999999999"])
        )
    elif fault == "half_span":
        row.update(severity="Minor", span_start="1", span_end="")
    elif fault == "invalid_span":
        row.update(severity="Major", **draw(st.sampled_from(
            [dict(span_start="3", span_end="1"), dict(span_start="-1", span_end="1")]
        )))
    elif fault == "span_past_target":
        row.update(severity="Major", span_start="0", span_end="5", target_text="xx")
    elif fault == "conflicting_scores":
        rows.insert(i + 1, dict(row, score="7.5"))
        row["score"] = "7"
    elif fault == "score_mismatch":
        row.update(severity="Minor", score="12.5")
    elif fault == "negative_score":
        row.update(severity="", score="-2")
    elif fault == "two_buckets":
        row["bucket_id"] = "b9"
    elif fault == "non_finite_score":
        row["score"] = draw(st.sampled_from(["inf", "-inf", "1e309", "nan", "Infinity"]))
    elif fault == "drop_row":
        del rows[i]
    elif fault == "seg_gap":
        row["seg_index"] = draw(st.sampled_from(["2", "3", "1000000000000"]))


@settings(max_examples=400, deadline=None)
@given(case=tsv_files())
def test_columnar_ingest_matches_row_loop(case):
    text, mapping = case
    got, got_error = outcome(ingest_lines, text, mapping)
    want, want_error = outcome(ingest_lines_oracle, text, mapping)
    assert got_error == want_error
    if want is not None:
        assert_same_dataset(got, *want)


def ingest_in_chunks(data: bytes, mapping, read_chars: int):
    """``ingest`` of a file holding ``data``, read in blocks of ``read_chars``
    characters and the rest of their last line: (path, dataset, error)."""
    default = corpus._READ_CHARS
    with tempfile.TemporaryDirectory() as work:
        path = f"{work}/ratings.tsv"
        with open(path, "wb") as handle:
            handle.write(data)
        corpus._READ_CHARS = read_chars
        try:
            return (path, *call_outcome(lambda: ingest(path, mapping=mapping)))
        finally:
            corpus._READ_CHARS = default


# 2-, 3- and 4-byte UTF-8 characters in the system ids.
WIDE_IDS = {"sA": "s\u00c5", "sB": "s\u4e2d\U0001f600"}


@settings(max_examples=300, deadline=None)
@given(
    case=tsv_files(),
    read_chars=st.integers(1, 7),
    line_end=st.sampled_from(["\n", "\r\n", "\r"]),
    bom=st.booleans(),
    wide=st.booleans(),
)
def test_chunked_file_ingest_matches_row_loop(case, read_chars, line_end, bom, wide):
    """A file read a few characters and the rest of a line at a time, so that
    CRLF and CR line ends, multi-byte characters and rows straddle reads, with
    or without a byte order mark, blank lines and a final newline."""
    text, mapping = case
    if wide:
        for narrow, wide_id in WIDE_IDS.items():
            text = text.replace(narrow, wide_id)
    data = (b"\xef\xbb\xbf" if bom else b"") + text.replace("\n", line_end).encode("utf-8")
    _, got, got_error = ingest_in_chunks(data, mapping, read_chars)
    want, want_error = outcome(ingest_lines_oracle, text, mapping)
    assert got_error == want_error
    if want is not None:
        assert_same_dataset(got, *want)


@settings(max_examples=60, deadline=None)
@given(
    case=tsv_files(),
    read_chars=st.integers(1, 7),
    bad=st.sampled_from([
        (b"x\xffy\n", 0xFF, "invalid start byte"),
        (b"x\xc3(\n", 0xC3, "invalid continuation byte"),
        (b"x\xe4\xb8", 0xE4, "unexpected end of data"),
    ]),
    header_ok=st.booleans(),
)
def test_undecodable_byte_in_a_later_chunk(case, read_chars, bad, header_ok):
    """A byte that is not UTF-8, 10 KB into the file, is the error reported,
    even past a header that names no required column."""
    text, mapping = case
    if not header_ok:
        text = "junk" + text[text.index("\n"):]
    tail, byte, reason = bad
    data = text.encode("utf-8") + b"\n" * 10_000 + tail
    path, got, got_error = ingest_in_chunks(data, mapping, read_chars)
    assert got is None
    message = f"{path} is not UTF-8 text: byte 0x{byte:02x} ({reason})"
    assert got_error == (ParseError, message, None)


@pytest.mark.parametrize("name", NO_DATA_FILES)
def test_file_without_data_rows_rejected(tmp_path, name):
    """The header and the blocks after it are read from the stream, also
    where either is missing."""
    data, error, message = NO_DATA_FILES[name]
    path = tmp_path / "ratings.tsv"
    path.write_bytes(data)
    with pytest.raises(error) as exc:
        ingest(path)
    assert str(exc.value) == message


@settings(max_examples=100, deadline=None)
@given(case=tsv_files(), block_rows=st.sampled_from([1, 3, corpus._BLOCK_ROWS]))
def test_fingerprint_hashes_the_export(case, block_rows):
    text, mapping = case
    ds, _ = outcome(ingest_lines, text, mapping)
    if ds is None:
        return
    default, corpus._BLOCK_ROWS = corpus._BLOCK_ROWS, block_rows
    try:
        digest = fingerprint(ds)
    finally:
        corpus._BLOCK_ROWS = default
    assert digest == hashlib.sha256(export_tsv(ds).encode("utf-8")).hexdigest()


def test_tiny_fixture_fingerprint_pinned(tiny_tsv):
    assert fingerprint(ingest(tiny_tsv)) == (
        "b69083956487936b4b2356664f07ad8e409e344626dc8371c5764d96f84cbab6"
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rating_table_round_trips_a_ratings_dict(seed):
    """``rating_fields`` and ``rating_dict`` invert each other."""
    rng = np.random.default_rng(seed)
    ds = make_layout_dataset([2, 3], [("r1", "r2"), ("r3",)], n_systems=3, segs_per_doc=2,
                             score_fn=lambda *key: rng.random())
    ratings = rating_dict(ds)
    assert list(ratings) == sorted(ratings)
    annotated = {
        key: SegmentRating(*key, (ErrorAnnotation("Style", Severity.MINOR, (0, k)),) * k, 1.0 * k)
        for k, key in enumerate(ratings)
    }
    for source in (ratings, annotated):
        again = replace(ds, **rating_fields(dict(reversed(source.items())), ds))
        assert np.count_nonzero(~np.isnan(again.scores)) == len(source)
        assert rating_dict(again) == source
        assert_same_ratings(replace(ds, **rating_fields(rating_dict(again), ds)), again)


def test_crlf_file_loads_like_lf(tmp_path, tiny_tsv):
    crlf = tmp_path / "crlf.tsv"
    crlf.write_bytes(tiny_tsv.read_bytes().replace(b"\n", b"\r\n"))
    ds = ingest(crlf)
    assert ds.language_pair == "xx-yy"
    assert fingerprint(ds) == fingerprint(ingest(tiny_tsv))


@pytest.mark.parametrize("first_column", ["lang_pair", "doc_id"])
def test_byte_order_mark_is_dropped(tmp_path, first_column):
    rows = [row.split("\t") for row in tiny_tsv_rows()]
    first = rows[0].index(first_column)
    rows = ["\t".join([cells[first]] + cells[:first] + cells[first + 1:]) for cells in rows]
    plain, bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    plain.write_text("\n".join(rows) + "\n", encoding="utf-8")
    bom.write_text("\n".join(rows) + "\n", encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    ds = ingest(bom)
    assert ds.language_pair == "xx-yy"
    assert fingerprint(ds) == fingerprint(ingest(plain))


@pytest.mark.parametrize("score", ["inf", "-inf", "1e309", "-Infinity"])
def test_non_finite_score_rejected(score):
    rows = tiny_tsv_rows()
    rows[4] = rows[4].replace("\t\t\t\t\t\t", f"\t\t\t\t\t{score}\t")
    with pytest.raises(ParseError, match=f"line 5: invalid score: '{score}'"):
        ingest_lines(io.StringIO("\n".join(rows)))


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    n_raters=st.integers(1, 4),
    explicit=st.booleans(),
    data=st.data(),
)
def test_ingest_buckets_match_id_set_oracle(sizes, n_raters, explicit, data):
    """Ingest's bucket arrays against ``build_buckets_oracle``, with explicit
    bucket ids or no bucket column, shuffled document, rater and bucket ids,
    and at times documents short of one rater or one without a bucket id."""
    doc_ids = data.draw(st.permutations([f"d{i}" for i in range(sum(sizes))]))
    rater_ids = data.draw(st.permutations([f"r{i}" for i in range(n_raters)]))
    bucket_ids = data.draw(st.permutations([f"b{i}" for i in range(len(sizes))]))
    doc_raters, explicit_buckets, start = {}, {}, 0
    for bucket_id, size in zip(bucket_ids, sizes):
        raters = data.draw(st.sets(st.sampled_from(rater_ids), min_size=1))
        for doc in doc_ids[start:start + size]:
            doc_raters[doc], explicit_buckets[doc] = set(raters), bucket_id
        start += size
    for short in data.draw(st.lists(st.sampled_from(doc_ids), max_size=2, unique=True)):
        if len(doc_raters[short]) > 1:
            doc_raters[short].discard(min(doc_raters[short]))
    blank = data.draw(st.sampled_from([None, None, *doc_ids])) if explicit else None
    rows = [
        ("" if doc == blank else explicit_buckets[doc], doc, rater)
        for doc, raters in doc_raters.items() for rater in sorted(raters)
    ]
    lines = [f"{b}\t{d}\t0\tsA\t{r}\t1.5\n" for b, d, r in data.draw(st.permutations(rows))]
    header = "bucket_id\tdoc_id\tseg_index\tsystem_id\trater_id\tscore\n"
    if not explicit:
        header, lines = header.partition("\t")[2], [line.partition("\t")[2] for line in lines]

    documents = dict.fromkeys(sorted(doc_raters), 1)
    if blank is not None:
        del explicit_buckets[blank]
    ratings = {
        (doc, 0, "sA", rater): SegmentRating(doc, 0, "sA", rater, None, 1.5)
        for doc, doc_set in doc_raters.items() for rater in doc_set
    }

    def oracle():
        buckets = build_buckets_oracle(
            documents, doc_raters, explicit_buckets if explicit else {}
        )
        return build_dataset("unknown", {"sA"}, documents, buckets, ratings), buckets

    def errors(build):
        try:
            return build(), None
        except StabevalError as exc:
            return None, (type(exc), str(exc))

    got, got_error = errors(lambda: ingest_lines(io.StringIO("".join([header, *lines]))))
    want, want_error = errors(oracle)
    assert got_error == want_error
    if want is not None:
        want_ds, buckets = want
        assert_same_buckets(got, want_ds)
        assert bucket_sets(got) == buckets


def test_inferred_bucket_names_past_b999_sort_as_ids():
    """1,001 rater sets: b1000 sorts before b101, as the oracle's ids do."""
    raters = [f"r{i}" for i in range(10)]
    doc_raters = {
        f"d{n:04d}": {r for i, r in enumerate(raters) if n + 1 >> i & 1} for n in range(1001)
    }
    lines = ["doc_id\tseg_index\tsystem_id\trater_id\tscore\n"] + [
        f"{doc}\t0\tsA\t{r}\t1\n" for doc, doc_set in doc_raters.items() for r in sorted(doc_set)
    ]
    ds = ingest_lines(io.StringIO("".join(lines)))
    buckets = build_buckets_oracle(dict.fromkeys(doc_raters, 1), doc_raters, {})
    assert ds.bucket_axis[100:103] == ("b100", "b1000", "b101")
    assert list(ds.bucket_axis) == sorted(buckets)
    assert bucket_sets(ds) == buckets


def test_bucket_with_differing_rater_sets_rejected():
    rows = [r for r in tiny_tsv_rows() if "\tdoc2\t0\tsysA\tr3\t" not in r
            and "\tdoc2\t0\tsysB\tr3\t" not in r]
    with pytest.raises(InconsistentBuckets) as exc:
        ingest_lines(io.StringIO("\n".join(rows)))
    assert str(exc.value) == "bucket b1 contains documents with differing rater sets"


def test_lowest_bucket_id_with_differing_rater_sets_named():
    rater_sets = {
        ("b2", "d1"): "r1 r2", ("b2", "d2"): "r1", ("b1", "d3"): "r3", ("b1", "d4"): "r3 r4",
    }
    lines = ["bucket_id\tdoc_id\tseg_index\tsystem_id\trater_id\tscore\n"] + [
        f"{bucket}\t{doc}\t0\tsA\t{rater}\t1\n"
        for (bucket, doc), raters in rater_sets.items() for rater in raters.split()
    ]
    with pytest.raises(InconsistentBuckets) as exc:
        ingest_lines(io.StringIO("".join(lines)))
    assert str(exc.value) == "bucket b1 contains documents with differing rater sets"


def test_documents_without_a_bucket_id_rejected():
    rows = [r.replace("\tb1\tdoc2\t", "\t\tdoc2\t") for r in tiny_tsv_rows()]
    with pytest.raises(InconsistentBuckets) as exc:
        ingest_lines(io.StringIO("\n".join(rows)))
    assert str(exc.value) == "documents without a bucket id: ['doc2']"


def test_infinite_computed_score_rejected(tmp_path):
    """Two finite weights can sum to inf: the rating is named, not stored."""
    rows = tiny_tsv_rows()
    rows.insert(2, rows[1].replace("Accuracy/Mistranslation", "Fluency"))
    weights = tmp_path / "weights.cfg"
    weights.write_text("[weights]\nMajor: = 1e308\nMinor: = 1\n")
    with pytest.raises(ParseError) as exc:
        ingest_lines(io.StringIO("\n".join(rows)), weights=WeightTable.from_file(weights))
    assert str(exc.value) == (
        "line 2: error weights of doc=doc1 seg=0 system=sysA rater=r1 sum to inf"
    )
