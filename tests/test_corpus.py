import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabeval import corpus
from stabeval.corpus import (
    Annotations,
    ColumnMapping,
    RatingDataset,
    Severity,
    bucket_layout,
    ingest,
    ingest_lines,
    stats,
)
from stabeval.errors import (
    IncompleteRatings,
    InconsistentBuckets,
    MissingColumn,
    ParseError,
    ScoreMismatch,
    ScoreOutOfRange,
)
from stabeval.experiment import GeneratorSpec, StudyConfig, generate_synthetic, simulate_study
from stabeval.scoring import NormalizationScheme

from conftest import (
    DISJOINT_LAYOUT,
    ROTATION_LAYOUT,
    bucket_fields,
    bucket_sets,
    make_layout_dataset,
    rating_dict,
    rating_fields,
    tiny_tsv_rows,
)


def test_ingest_tiny_fixture(tiny_tsv):
    ds = ingest(tiny_tsv)
    assert ds.bucket_axis == ("b1",)
    ratings = rating_dict(ds)
    assert len(ratings) == 12
    assert ds.language_pair == "xx-yy"
    rated = ratings[("doc1", 0, "sysA", "r1")]
    assert rated.score == 5.0  # one Major error at default weight
    assert rated.annotations[0].severity is Severity.MAJOR
    assert rated.annotations[0].span == (0, 4)
    assert ratings[("doc2", 0, "sysB", "r3")].score == 0.0


def test_stats_tiny_fixture(tiny_tsv):
    s = stats(ingest(tiny_tsv))
    assert s.n_documents == 2
    assert s.n_systems == 2
    assert s.n_raters == 3
    assert s.n_segments == 2
    assert s.bucket_doc_counts == {"b1": 2}


def test_bucket_layout_single_bucket(tiny_tsv):
    layout = bucket_layout(ingest(tiny_tsv))
    assert layout == [("b1", ("r1", "r2", "r3"), 2)]


def assert_layout_follows_buckets(ds, buckets):
    """``bucket_axis``, ``bucket_raters``, ``doc_bucket`` and ``eligible``
    say in positions what ``buckets``, {bucket_id: (doc ids, rater ids)},
    says in ids."""
    assert list(ds.bucket_axis) == sorted(buckets)
    assert bucket_sets(ds) == {
        bucket_id: (frozenset(docs), frozenset(raters))
        for bucket_id, (docs, raters) in buckets.items()
    }
    for raters in ds.bucket_raters:
        assert raters.dtype == np.intp and raters.tolist() == sorted(raters.tolist())
    assert ds.doc_bucket.dtype == np.intp and ds.doc_bucket.shape == (len(ds.doc_axis),)
    doc_raters = {doc: raters for docs, raters in buckets.values() for doc in docs}
    want = [[r in doc_raters[doc] for r in ds.rater_axis] for doc in ds.doc_axis]
    assert ds.eligible.dtype == bool and ds.eligible.tolist() == want


def layout_buckets(bucket_sizes, bucket_raters, doc_name="d{:03d}"):
    """The {bucket_id: (doc ids, rater ids)} of ``make_layout_dataset``."""
    ends = np.cumsum(bucket_sizes).tolist()
    return {
        f"b{b:03d}": ([doc_name.format(d) for d in range(end - size, end)], raters)
        for b, (size, end, raters) in enumerate(zip(bucket_sizes, ends, bucket_raters))
    }


@pytest.mark.parametrize("layout", [ROTATION_LAYOUT, DISJOINT_LAYOUT, None],
                         ids=["rotation", "disjoint", "synthetic"])
def test_bucket_layout_arrays(layout):
    if layout is None:
        spec = GeneratorSpec(n_documents=11, n_buckets=3, segments_per_doc=1, n_systems=2)
        ds = generate_synthetic(spec, np.random.default_rng(0))
        raters = [[f"rater{r:02d}" for r in range(3 * b, 3 * b + 3)] for b in range(3)]
        buckets = layout_buckets([4, 4, 3], raters, doc_name="doc{:03d}")
    else:
        ds = make_layout_dataset(*layout)
        buckets = layout_buckets(*layout)
    assert_layout_follows_buckets(ds, buckets)
    assert bucket_layout(ds) == [
        (bucket_id, tuple(sorted(raters)), len(docs))
        for bucket_id, (docs, raters) in sorted(buckets.items())
    ]


def shuffled_buckets(data, sizes, n_raters) -> dict:
    """{bucket_id: (doc ids, rater ids)} with buckets listed out of id order,
    documents interleaved across buckets and rater ids out of insertion order."""
    doc_ids = data.draw(st.permutations([f"d{i:02d}" for i in range(sum(sizes))]))
    rater_ids = data.draw(st.permutations([f"r{i}" for i in range(n_raters)]))
    bucket_ids = data.draw(st.permutations([f"b{i}" for i in range(len(sizes))]))
    buckets, start = {}, 0
    for bucket_id, size in zip(bucket_ids, sizes):
        raters = data.draw(st.sets(st.sampled_from(rater_ids), min_size=1))
        buckets[bucket_id] = (doc_ids[start:start + size], raters)
        start += size
    return buckets


def empty_dataset(buckets, **fields) -> RatingDataset:
    """A dataset of two systems and one segment per document, without
    ratings, over ``buckets``; ``fields`` replace its bucket fields."""
    documents = dict.fromkeys((d for docs, _ in buckets.values() for d in docs), 1)
    raters = frozenset().union(*(raters for _, raters in buckets.values()))
    shape = (2, len(documents), 1, len(raters))
    return RatingDataset(
        "xx-yy", documents, frozenset({"s0", "s1"}), raters,
        **{**bucket_fields(buckets, documents, raters), **fields},
        scores=np.full(shape, np.nan), n_errors=np.full(shape, np.nan),
        annotations=Annotations((), *[np.zeros(0, dtype=np.intp)] * 5),
    )


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    n_raters=st.integers(3, 6),
    data=st.data(),
)
def test_bucket_layout_arrays_on_shuffled_ids(sizes, n_raters, data):
    buckets = shuffled_buckets(data, sizes, n_raters)
    assert_layout_follows_buckets(empty_dataset(buckets), buckets)


TWO_BUCKETS = {"b0": (["d0", "d1"], {"r0", "r1"}), "b1": (["d2"], {"r1", "r2"})}


@pytest.mark.parametrize("fields, message", [
    ({"bucket_axis": ("b1", "b0")}, "not sorted and distinct"),
    ({"bucket_axis": ("b0", "b0")}, "not sorted and distinct"),
    ({"bucket_raters": (np.array([0, 1]),)}, "1 rater arrays for 2 buckets"),
    ({"bucket_raters": (np.array([0, 1]), np.array([1, 3]))}, "not ascending positions < 3"),
    ({"bucket_raters": (np.array([-1, 1]), np.array([1, 2]))}, "not ascending positions < 3"),
    ({"bucket_raters": (np.array([1, 0]), np.array([1, 2]))}, "not ascending positions < 3"),
    ({"bucket_raters": (np.array([0, 0]), np.array([1, 2]))}, "not ascending positions < 3"),
    ({"doc_bucket": np.array([0, 0])}, "does not give each document a bucket"),
    ({"doc_bucket": np.array([0, 0, -1])}, "does not give each document a bucket"),
    ({"doc_bucket": np.array([0, 0, 2])}, "does not give each document a bucket"),
])
def test_bucket_arrays_that_do_not_fit_the_axes(fields, message):
    assert empty_dataset(TWO_BUCKETS).eligible.tolist() == [[1, 1, 0], [1, 1, 0], [0, 1, 1]]
    with pytest.raises(ValueError, match=message):
        empty_dataset(TWO_BUCKETS, **fields)


def test_invalid_severity_rejected(tiny_tsv):
    rows = tiny_tsv_rows()
    rows[1] = rows[1].replace("Major", "Critical")
    with pytest.raises(ParseError, match="severity"):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_lowercase_severity_message():
    rows = tiny_tsv_rows()
    rows[1] = rows[1].replace("Major", "major")
    with pytest.raises(ParseError) as exc:
        ingest_lines(io.StringIO("\n".join(rows)))
    assert str(exc.value) == "line 2: invalid severity 'major' (expected Major or Minor)"


def test_severity_error_carries_line_number():
    rows = tiny_tsv_rows()
    rows[4] = rows[4].replace("\t\t\t\t\t\t", "\tCritical\tFluency\t\t\t\t")
    with pytest.raises(ParseError, match="line 5"):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_incomplete_ratings_detected():
    rows = [r for r in tiny_tsv_rows() if "\tdoc2\t0\tsysB\tr3\t" not in r]
    with pytest.raises(IncompleteRatings, match="doc2"):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_incomplete_ratings_names_first_hole_in_document_order():
    ds = make_layout_dataset(
        [2, 2], [("r1", "r2", "r3"), ("r4", "r5", "r6")], n_systems=3, segs_per_doc=2
    )
    holes = {("d001", 0, "s01", "r2"), ("d001", 1, "s01", "r1"), ("d001", 0, "s02", "r1"),
             ("d003", 0, "s00", "r4"), ("d003", 1, "s00", "r4")}
    ratings = rating_fields(
        {k: v for k, v in rating_dict(ds).items() if k not in holes},
        ds.systems, ds.documents, ds.raters,
    )
    with pytest.raises(IncompleteRatings) as exc:
        replace(ds, **ratings).validate()
    # documents in insertion order, then system, rater, segment
    assert str(exc.value) == "missing rating for doc=d001 seg=1 system=s01 rater=r1"
    reordered = dict(reversed(list(ds.documents.items())))
    with pytest.raises(IncompleteRatings) as exc:
        replace(ds, documents=reordered, **ratings).validate()
    assert str(exc.value) == "missing rating for doc=d003 seg=0 system=s00 rater=r4"


def test_rating_outside_document_segments_rejected():
    ds = make_layout_dataset([2], [("r1", "r2", "r3")], segs_per_doc=2)
    # d000 keeps the scores of a second segment it no longer has.
    with pytest.raises(InconsistentBuckets) as exc:
        replace(ds, documents={"d000": 1, "d001": 2}).validate()
    assert str(exc.value) == (
        "rating outside its document's segments or bucket: doc=d000 seg=1 system=s00 rater=r1"
    )
    # A segment beyond the arrays' segment axis would have no cell at all.
    with pytest.raises(ValueError, match="do not fit axes"):
        replace(ds, documents={"d000": 3, "d001": 2})


def test_rating_by_rater_outside_bucket_rejected():
    ds = make_layout_dataset([1, 1], [("r1", "r2"), ("r3", "r4")], n_systems=3, segs_per_doc=2)
    scores = ds.scores.copy()
    scores[ds.system_pos["s02"], ds.doc_pos["d001"], 1, ds.rater_pos["r2"]] = 0.5
    with pytest.raises(InconsistentBuckets) as exc:
        replace(ds, scores=scores).validate()
    assert str(exc.value) == (
        "rating outside its document's segments or bucket: doc=d001 seg=1 system=s02 rater=r2"
    )


def test_nan_score_rejected():
    rows = tiny_tsv_rows()
    rows[4] = rows[4].replace("\t\t\t\t\t\t", "\t\t\t\t\tnan\t")
    with pytest.raises(ParseError, match="line 5: invalid score"):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_missing_required_column():
    with pytest.raises(MissingColumn, match="rater_id"):
        ingest_lines(io.StringIO("doc_id\tseg_index\tsystem_id\n"))


def test_score_mismatch_detected():
    rows = tiny_tsv_rows()
    # attach a wrong precomputed score to an error row
    rows[1] = rows[1].replace("\t0\t4\t\t", "\t0\t4\t3.0\t")
    with pytest.raises(ScoreMismatch):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_conflicting_explicit_buckets():
    rows = tiny_tsv_rows()
    rows[-1] = rows[-1].replace("\tb1\t", "\tb2\t")
    with pytest.raises(InconsistentBuckets):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_ingest_row_order_invariant(tiny_tsv):
    rows = tiny_tsv_rows()
    shuffled = [rows[0]] + list(reversed(rows[1:]))
    a = ingest(tiny_tsv)
    b = ingest_lines(io.StringIO("\n".join(shuffled)))
    assert corpus.fingerprint(a) == corpus.fingerprint(b)


def test_roundtrip_export_ingest(tiny_tsv):
    ds = ingest(tiny_tsv)
    again = ingest_lines(io.StringIO(corpus.export_tsv(ds)))
    assert corpus.fingerprint(ds) == corpus.fingerprint(again)


def test_bucket_inference_matches_explicit_column(tiny_tsv):
    rows = tiny_tsv_rows()
    header = rows[0].split("\t")
    bucket_col = header.index("bucket_id")
    stripped = [rows[0]]
    for row in rows[1:]:
        cells = row.split("\t")
        cells[bucket_col] = ""
        stripped.append("\t".join(cells))
    explicit = ingest(tiny_tsv)
    inferred = ingest_lines(io.StringIO("\n".join(stripped)))
    assert set(bucket_sets(explicit).values()) == set(bucket_sets(inferred).values())


def test_column_mapping_renames(tmp_path):
    rows = tiny_tsv_rows()
    header = rows[0].replace("doc_id", "document").replace("rater_id", "annotator")
    path = tmp_path / "renamed.tsv"
    path.write_text("\n".join([header] + rows[1:]) + "\n")
    mapping_path = tmp_path / "mapping.cfg"
    mapping_path.write_text(
        "[columns]\n"
        "doc_id = document\n"
        "seg_index = seg_index\n"
        "system_id = system_id\n"
        "rater_id = annotator\n"
        "severity = severity\n"
        "category = category\n"
        "bucket_id = bucket_id\n"
        "lang_pair = lang_pair\n"
        "score = score\n"
    )
    ds = ingest(path, mapping=ColumnMapping.from_file(mapping_path))
    assert len(rating_dict(ds)) == 12


def test_span_exceeding_target_rejected():
    rows = tiny_tsv_rows()
    rows[1] = rows[1].replace("\t0\t4\t", "\t0\t400\t")
    with pytest.raises(ParseError, match="span"):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_score_only_ingestion():
    lines = ["doc_id\tseg_index\tsystem_id\trater_id\tscore"]
    for doc in ("d1", "d2"):
        for system in ("a", "b"):
            for rater in ("r1", "r2"):
                lines.append(f"{doc}\t0\t{system}\t{rater}\t1.5")
    ds = ingest_lines(io.StringIO("\n".join(lines)))
    assert all(r.annotations is None for r in rating_dict(ds).values())
    assert all(r.score == 1.5 for r in rating_dict(ds).values())


def test_scores_up_to_the_range_bound_keep_zscore_finite():
    """A dataset accepts |score| up to sqrt(float max / (4 x rated cells)),
    where zscore's sum of squared deviations is still finite, and names the
    first rating past it."""
    bound = math.sqrt(np.finfo(np.float64).max / (4 * 16))  # 2 systems x 4 docs x 2 raters
    sign = {"d000": 1.0, "d001": -1.0, "d002": -1.0, "d003": -1.0}

    def dataset(top):
        return make_layout_dataset(
            [4], [("r1", "r2")], n_systems=2,
            score_fn=lambda doc, seg, sys, rater: top if doc == "d000" else sign[doc] * bound,
        )

    ds = dataset(bound)
    config = StudyConfig(n_documents=4, normalization=NormalizationScheme.ZSCORE,
                         n_permutations=20, n_simulations=2)
    study, matrix = simulate_study(ds, config, 0)
    assert np.isfinite(matrix.means).all()
    assert np.isfinite(study.scored.scores[study.scored.rated]).all()
    past = np.nextafter(bound, np.inf)
    with pytest.raises(ScoreOutOfRange) as exc:
        dataset(past)
    assert str(exc.value) == (
        f"score {past:g} for doc=d000 seg=0 system=s00 rater=r1 exceeds "
        f"{bound:.4g} = sqrt(float max / (4 x 16 rated cells))"
    )
