"""Data model, TSV ingestion, and structural validation for multi-rater rating datasets.

The canonical on-disk format is a UTF-8 TSV with a header row and one row per
(segment, rater, error), plus one row with an empty severity for every
error-free segment rating.  Column names can be remapped through a flat
key-value mapping config so externally released data can be adapted without
rewriting files.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np

from .errors import (
    ConfigError,
    IncompleteRatings,
    InconsistentBuckets,
    MissingColumn,
    ParseError,
    ScoreMismatch,
    ScoreOutOfRange,
)

# Canonical column names; mapping configs translate these to file columns.
CANONICAL_COLUMNS = (
    "lang_pair",
    "bucket_id",
    "doc_id",
    "seg_index",
    "system_id",
    "rater_id",
    "severity",
    "category",
    "span_start",
    "span_end",
    "score",
    "target_text",
)

REQUIRED_COLUMNS = ("doc_id", "seg_index", "system_id", "rater_id")

SCORE_TOLERANCE = 1e-9
_BLOCK_ROWS = 8192  # ratings that export writes at a time
_READ_CHARS = 1 << 19  # characters that ingest reads, then finishes their last line
# Columns whose cells are parsed, not ranked: their codes number the distinct
# cells in the order the blocks first show them, the empty cell always 0.
_PARSED_COLUMNS = ("seg_index", "span_start", "span_end", "score", "target_text")


class Severity(str, Enum):
    MAJOR = "Major"
    MINOR = "Minor"


SEVERITIES = tuple(Severity)  # Annotations.severity indexes this


@dataclass(frozen=True)
class ErrorAnnotation:
    """One annotated error: hierarchical category path, severity, optional span."""

    category: str
    severity: Severity
    span: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.span is not None:
            start, end = self.span
            if not (0 <= start <= end):
                raise ValueError(f"invalid span ({start}, {end})")


def _factorize(values: Sequence) -> tuple[tuple, np.ndarray]:
    """The sorted distinct values and each value's index into them."""
    axis = tuple(sorted(set(values)))
    pos = {value: i for i, value in enumerate(axis)}
    return axis, np.fromiter(map(pos.__getitem__, values), dtype=np.intp, count=len(values))


@dataclass(frozen=True, eq=False)
class Annotations:
    """A dataset's error annotations as columns, one row per annotation.

    Rows follow the (doc, seg, system, rater) order of the rated cells, each
    rating's ``n_errors`` annotations in file order.  ``severity`` indexes
    ``SEVERITIES``, ``category`` indexes ``categories``, and ``start`` and
    ``end`` are -1 for an annotation without a span.
    """

    categories: tuple[str, ...]
    severity: np.ndarray
    category: np.ndarray
    start: np.ndarray
    end: np.ndarray


@dataclass(eq=False)
class RatingDataset:
    """All annotations for one language pair, validated and immutable in use.

    ``system_axis``, ``doc_axis`` and ``rater_axis`` are the sorted, distinct
    ids, and ``seg_counts[d]`` is the number of segments of document d.
    ``scores`` and ``n_errors`` hold the ratings as dense arrays indexed
    (system, doc, seg, rater) over those axes.  Unrated cells are NaN, and so
    are the error counts of score-only ratings.  Ratings are numbered in the
    (doc, seg, system, rater) order of the rated cells, which is how
    ``annotations`` refers to them.  The bucket layout is in positions: bucket
    b is ``bucket_axis[b]`` (the ids sorted), rated by the ascending
    ``rater_axis`` positions ``bucket_raters[b]``, and ``doc_bucket[d]`` is
    document d's bucket.  ``eligible`` is the (doc, rater) bucket membership
    matrix.  Construction runs ``validate``, so every dataset is checked.
    """

    language_pair: str
    system_axis: tuple[str, ...]
    doc_axis: tuple[str, ...]
    rater_axis: tuple[str, ...]
    seg_counts: np.ndarray
    bucket_axis: tuple[str, ...]
    bucket_raters: tuple[np.ndarray, ...]
    doc_bucket: np.ndarray
    scores: np.ndarray
    n_errors: np.ndarray
    annotations: Annotations

    def __post_init__(self):
        for kind, ids in (("system", self.system_axis), ("document", self.doc_axis),
                          ("rater", self.rater_axis), ("bucket", self.bucket_axis)):
            if list(ids) != sorted(set(ids)):
                raise ValueError(f"{kind} ids {ids} are not sorted and distinct")
        self.system_pos = {s: i for i, s in enumerate(self.system_axis)}
        self.doc_pos = {d: i for i, d in enumerate(self.doc_axis)}
        self.rater_pos = {r: i for i, r in enumerate(self.rater_axis)}
        n_docs, n_raters, n_buckets = map(len, (self.doc_axis, self.rater_axis, self.bucket_axis))
        if self.seg_counts.shape != (n_docs,):
            raise ValueError(f"{len(self.seg_counts)} segment counts for {n_docs} documents")
        if len(self.bucket_raters) != n_buckets:
            raise ValueError(f"{len(self.bucket_raters)} rater arrays for {n_buckets} buckets")
        for raters in self.bucket_raters:
            if np.any(np.diff(raters) <= 0) or np.any((raters < 0) | (raters >= n_raters)):
                raise ValueError(f"bucket raters {raters} are not ascending positions < {n_raters}")
        if self.doc_bucket.shape != (n_docs,) or np.any(
            (self.doc_bucket < 0) | (self.doc_bucket >= n_buckets)
        ):
            raise ValueError(f"doc_bucket {self.doc_bucket} does not give each document a bucket")
        # eligible[d, r]: rater r belongs to document d's bucket.
        member = np.zeros((n_buckets, n_raters), dtype=bool)
        for b, raters in enumerate(self.bucket_raters):
            member[b, raters] = True
        self.eligible = member[self.doc_bucket]
        shape = (len(self.system_axis), n_docs, self.seg_counts.max(initial=0), n_raters)
        if not self.scores.shape == self.n_errors.shape == shape:
            raise ValueError(f"rating arrays of shape {self.scores.shape} do not fit axes {shape}")
        # Each squared deviation from a rater mean is at most (2 * max|score|)**2,
        # so below this bound their sum over all rated cells stays finite.
        n_rated = np.count_nonzero(~np.isnan(self.scores))
        bound = math.sqrt(np.finfo(np.float64).max / (4 * max(n_rated, 1)))
        over = np.abs(self.scores) > bound
        if over.any():
            # The first offending rating in rating (doc, seg, system, rater) order.
            by_rating = over.transpose(1, 2, 0, 3)
            d, seg, s, r = np.unravel_index(np.argmax(by_rating), by_rating.shape)
            raise ScoreOutOfRange(
                f"score {self.scores[s, d, seg, r]:g} for doc={self.doc_axis[d]} seg={seg} "
                f"system={self.system_axis[s]} rater={self.rater_axis[r]} exceeds "
                f"{bound:.4g} = sqrt(float max / (4 x {n_rated} rated cells))"
            )
        self.validate()

    @property
    def systems(self) -> tuple[str, ...]:
        """``system_axis``, the name perfbench's traced replica reads."""
        return self.system_axis

    @property
    def raters(self) -> tuple[str, ...]:
        """``rater_axis``, the name perfbench's traced replica reads."""
        return self.rater_axis

    def validate(self) -> None:
        """Enforce the structural invariants; raise a CorpusError on violation.
        Construction runs it; a later call re-checks arrays changed in place."""
        seen_rater_sets: set[tuple[int, ...]] = set()
        for raters in self.bucket_raters:
            key = tuple(raters.tolist())
            if key in seen_rater_sets:
                raise InconsistentBuckets(
                    f"buckets share the identical rater set {[self.rater_axis[r] for r in key]}"
                )
            seen_rater_sets.add(key)
        in_doc = np.arange(self.scores.shape[2]) < self.seg_counts[:, None]
        required = in_doc[None, :, :, None] & self.eligible[None, :, None, :]
        rated = ~np.isnan(self.scores)
        # Each document's holes in (system, rater, seg) order.
        holes = (~rated & required).transpose(1, 0, 3, 2)
        empty = self.seg_counts < 1
        bad = np.flatnonzero(empty | holes.any(axis=(1, 2, 3)))
        if bad.size:
            d = bad[0]
            if empty[d]:
                raise InconsistentBuckets(f"document {self.doc_axis[d]} has no segments")
            s, r, seg = np.unravel_index(np.argmax(holes[d]), holes[d].shape)
            raise IncompleteRatings(
                f"missing rating for doc={self.doc_axis[d]} seg={seg} "
                f"system={self.system_axis[s]} rater={self.rater_axis[r]}"
            )
        stray = rated & ~required
        if stray.any():
            s, d, seg, r = np.unravel_index(np.argmax(stray), stray.shape)
            raise InconsistentBuckets(
                f"rating outside its document's segments or bucket: doc={self.doc_axis[d]} "
                f"seg={seg} system={self.system_axis[s]} rater={self.rater_axis[r]}"
            )


def read_config(path, case_sensitive: bool = False, **options) -> dict[str, dict[str, str]]:
    """Read a sectioned key-value config file into {section: {key: value}},
    ``DEFAULT`` included.  Each section holds only the keys it sets itself, so
    the caller decides what ``DEFAULT`` supplies; a syntax or encoding error
    becomes a ConfigError."""
    parser = configparser.ConfigParser(**options)
    if case_sensitive:
        parser.optionxform = str
    with open(path, encoding="utf-8") as handle:
        try:
            parser.read_file(handle)
            # Read with [DEFAULT] in place, which interpolation may refer to.
            merged = {name: dict(parser.items(name)) for name in ["DEFAULT", *parser.sections()]}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
    parser[parser.default_section].clear()  # leaves each section's options its own keys
    for name in parser.sections():
        merged[name] = {key: merged[name][key] for key in parser.options(name)}
    return merged


def read_section(path, name: str, **options) -> tuple[dict[str, str], bool]:
    """``read_config`` for a file of one section: ``[DEFAULT]`` merged with
    ``[name]``, whose keys win, and whether ``[name]`` is in the file.  Any
    other section is a ConfigError."""
    sections = read_config(path, **options)
    extra = sorted(sections.keys() - {"DEFAULT", name})
    if extra:
        raise ConfigError(f"unknown section [{extra[0]}]: expected [{name}]")
    return {**sections["DEFAULT"], **sections.get(name, {})}, name in sections


@dataclass
class ColumnMapping:
    """Maps canonical column names to the columns of a concrete file."""

    columns: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.columns) - set(CANONICAL_COLUMNS)
        if unknown:
            raise MissingColumn(f"unknown canonical column names in mapping: {sorted(unknown)}")

    @classmethod
    def identity(cls) -> "ColumnMapping":
        return cls({name: name for name in CANONICAL_COLUMNS})

    @classmethod
    def from_file(cls, path) -> "ColumnMapping":
        # Column names are case-sensitive.
        return cls(read_section(path, "columns", case_sensitive=True)[0])

    def resolve(self, header: Sequence[str]) -> dict[str, int]:
        """Return canonical name -> column index for the columns present."""
        index = {}
        for canonical, actual in self.columns.items():
            if actual in header:
                index[canonical] = header.index(actual)
        for required in REQUIRED_COLUMNS:
            if required not in index:
                raise MissingColumn(f"required column {required!r} not found in header")
        if "severity" not in index and "score" not in index:
            raise MissingColumn("need either a severity/category pair or a score column")
        if "severity" in index and "category" not in index:
            raise MissingColumn("severity column mapped without a category column")
        return index


def ingest(path, mapping: Optional[ColumnMapping] = None, weights=None) -> RatingDataset:
    """Read a TSV rating file and return a validated RatingDataset.

    ``weights`` (a scoring.WeightTable) is used to materialize scores from
    annotations where absent and to cross-check precomputed scores.  A
    leading UTF-8 byte order mark is dropped, and CRLF or CR line ends read
    as LF.
    """
    with open(path, encoding="utf-8-sig") as handle:
        try:
            return ingest_lines(handle, mapping, weights)
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
            ) from None


def ingest_lines(stream: TextIO, mapping=None, weights=None) -> RatingDataset:
    """``ingest`` for an open text stream.  It is read in blocks of whole
    lines, so the whole text never exists at once."""
    from .scoring import WeightTable

    if weights is None:
        weights = WeightTable.default()
    if mapping is None:
        mapping = ColumnMapping.identity()
    lineno, axes, codes = _split_columns(stream, mapping)
    n_rows = len(lineno)
    langs = [lang for lang in axes["lang_pair"] if lang]
    target_len = np.array([len(t) for t in axes["target_text"]], dtype=np.int64)[
        codes["target_text"]
    ]

    def cell(name, i):
        return axes[name][codes[name][i]]

    def nonempty(name):
        return codes[name] != 0 if axes[name][0] == "" else np.ones(n_rows, dtype=bool)

    def parsed(name, parse, dtype):
        """Each row's parsed cell, and whether it failed to parse."""
        values, failed = _parse_each(axes[name], parse, dtype)
        return values[codes[name]], failed[codes[name]]

    (docs, doc), (systems, system), (raters, rater), (bucket_ids, bucket) = (
        (axes[name], codes[name]) for name in ("doc_id", "system_id", "rater_id", "bucket_id")
    )
    seg, bad_seg = parsed("seg_index", int, np.int64)
    score, bad_score = parsed("score", float, np.float64)
    bad_score |= ~np.isfinite(score)  # NaN marks unrated cells in the score array
    severity, bad_severity = parsed(
        "severity", lambda text: SEVERITIES.index(Severity(text)), np.intp
    )
    start, bad_start = parsed("span_start", int, np.int64)
    end, bad_end = parsed("span_end", int, np.int64)
    has_score, has_severity = nonempty("score"), nonempty("severity")
    has_start = has_severity & nonempty("span_start")
    has_end = has_severity & nonempty("span_end")
    has_span = has_start & has_end

    has_bucket = nonempty("bucket_id")
    bucketed = np.flatnonzero(has_bucket)
    first_doc, first_row = np.unique(doc[bucketed], return_index=True)
    doc_bucket = np.full(len(docs), -1)  # bucket of each document's first bucketed row
    doc_bucket[first_doc] = bucket[bucketed[first_row]]

    def line_error(message):
        return lambda i: ParseError(message(i), line=int(lineno[i]))

    _raise_first([
        (~(nonempty("doc_id") & nonempty("system_id") & nonempty("rater_id")),
         line_error(lambda i: "empty doc/system/rater identifier")),
        (bad_seg, line_error(lambda i: f"invalid seg_index: {cell('seg_index', i)!r}")),
        (seg < 0, line_error(lambda i: f"negative seg_index: {seg[i]}")),
        (has_bucket & (bucket != doc_bucket[doc]), lambda i: InconsistentBuckets(
            f"document {docs[doc[i]]} listed in buckets "
            f"{bucket_ids[doc_bucket[doc[i]]]} and {bucket_ids[bucket[i]]}"
        )),
        (has_score & bad_score, line_error(lambda i: f"invalid score: {cell('score', i)!r}")),
        (has_severity & bad_severity, line_error(
            lambda i: f"invalid severity {cell('severity', i)!r} (expected Major or Minor)"
        )),
        (has_start & bad_start, line_error(
            lambda i: f"invalid integer for span_start: {cell('span_start', i)!r}"
        )),
        (has_end & bad_end, line_error(
            lambda i: f"invalid integer for span_end: {cell('span_end', i)!r}"
        )),
        (has_start != has_end, line_error(lambda i: "span_start and span_end must both be set")),
        (has_span & ~((0 <= start) & (start <= end)), line_error(
            lambda i: f"invalid span ({start[i]}, {end[i]})"
        )),
        (has_span & (target_len > 0) & (end > target_len), line_error(
            lambda i: f"span end {end[i]} exceeds target length {target_len[i]}"
        )),
    ])

    # One rating per distinct key: sort rows by key, keeping file order within a key.
    order = np.lexsort((rater, system, seg, doc))
    key = [column[order] for column in (doc, seg, system, rater)]
    first = np.ones(n_rows, dtype=bool)
    first[1:] = np.any([column[1:] != column[:-1] for column in key], axis=0)
    starts = np.flatnonzero(first)
    owner = np.cumsum(first) - 1  # rating of each sorted row
    r_doc, r_seg, r_system, r_rater = (column[starts] for column in key)
    n_ratings = len(starts)

    # A document with n distinct seg_index values must number them 0..n-1;
    # checking that here keeps a stray huge index from sizing the dense arrays.
    new_seg = np.ones(n_ratings, dtype=bool)
    new_seg[1:] = (r_doc[1:] != r_doc[:-1]) | (r_seg[1:] != r_seg[:-1])
    n_segs = np.bincount(r_doc[new_seg], minlength=len(docs))
    _raise_first([(seg >= n_segs[doc], line_error(
        lambda i: f"seg_index {seg[i]} leaves a gap: document {docs[doc[i]]} "
                  f"has {n_segs[doc[i]]} distinct seg_index values"
    ))])

    row_score = np.where(has_score, score, np.nan)[order]
    spread = np.fmax.reduceat(row_score, starts) - np.fmin.reduceat(row_score, starts)
    scored = np.flatnonzero(~np.isnan(row_score))
    rated, first_scored = np.unique(owner[scored], return_index=True)
    given = np.full(n_ratings, np.nan)  # each rating's first score in file order
    given[rated] = row_score[scored[first_scored]]

    errors = order[has_severity[order]]  # error rows by rating, in file order
    error_owner = owner[has_severity[order]]
    categories, category = axes["category"], codes["category"]
    pair = severity[errors] * len(categories) + category[errors]
    pairs, pair_code = np.unique(pair, return_inverse=True)
    weight = np.array(
        [weights.lookup(SEVERITIES[p // len(categories)], categories[p % len(categories)])
         for p in pairs.tolist()],
        dtype=np.float64,
    )
    n_errors = np.bincount(error_owner, minlength=n_ratings)
    # bincount adds each rating's weights left to right, as segment_score does.
    computed = np.bincount(error_owner, weights=weight[pair_code], minlength=n_ratings)

    has_errors = n_errors > 0
    no_errors_found = np.isnan(given) | (given == 0.0)
    first_line = lineno[order[starts]]

    def rating_id(k):
        return (f"doc={docs[r_doc[k]]} seg={r_seg[k]} "
                f"system={systems[r_system[k]]} rater={raters[r_rater[k]]}")

    _raise_first([
        (spread > SCORE_TOLERANCE, lambda k: ParseError(
            f"conflicting score values for {rating_id(k)}", line=int(first_line[k])
        )),
        (~np.isfinite(computed), lambda k: ParseError(
            f"error weights of {rating_id(k)} sum to {float(computed[k])}", line=int(first_line[k])
        )),
        (has_errors & (np.abs(given - computed) > SCORE_TOLERANCE), lambda k: ScoreMismatch(
            f"{rating_id(k)}: file score {float(given[k])} != recomputed {float(computed[k])}"
        )),
        (~has_errors & (given < 0), lambda k: ParseError(
            f"negative score for doc={docs[r_doc[k]]} seg={r_seg[k]}", line=int(first_line[k])
        )),
    ])

    # The codes index the sorted ids, which are the dataset's axes.
    shape = (len(systems), len(docs), n_segs.max(), len(raters))
    cells = (r_system, r_doc, r_seg, r_rater)
    scores, error_counts = np.full(shape, np.nan), np.full(shape, np.nan)
    scores[cells] = np.where(has_errors, computed, np.where(no_errors_found, 0.0, given))
    error_counts[cells] = np.where(has_errors | no_errors_found, n_errors, np.nan)
    annotations = Annotations(
        categories,
        severity=severity[errors],
        category=category[errors].astype(np.intp),
        start=np.where(has_span[errors], start[errors], -1),
        end=np.where(has_span[errors], end[errors], -1),
    )
    rated_by = np.zeros((len(docs), len(raters)), dtype=bool)
    rated_by[r_doc, r_rater] = True
    if bucketed.size:
        unbucketed = np.flatnonzero(doc_bucket < 0)
        if unbucketed.size:
            raise InconsistentBuckets(
                f"documents without a bucket id: {[docs[d] for d in unbucketed[:5].tolist()]}"
            )
        offset = int(bucket_ids[0] == "")  # the empty cell is no bucket
        bucket_axis, doc_bucket = bucket_ids[offset:], doc_bucket - offset
    else:
        # Same bucket iff identical rater set, named b000, b001, ... in the
        # order of each set's first document (sorting puts b1000 before b101).
        _, first, inverse = np.unique(rated_by, axis=0, return_index=True, return_inverse=True)
        names = [f"b{i:03d}" for i in np.argsort(np.argsort(first)).tolist()]
        bucket_axis, code = _factorize(names)
        doc_bucket = code[inverse.ravel()]
    member = rated_by[np.unique(doc_bucket, return_index=True)[1]]  # each bucket's first document
    differs = np.any(rated_by != member[doc_bucket], axis=1)
    if differs.any():
        raise InconsistentBuckets(
            f"bucket {bucket_axis[doc_bucket[differs].min()]} contains documents "
            "with differing rater sets"
        )
    return RatingDataset(
        language_pair=",".join(langs) or "unknown",
        system_axis=systems,
        doc_axis=docs,
        rater_axis=raters,
        seg_counts=n_segs,
        bucket_axis=bucket_axis,
        bucket_raters=tuple(map(np.flatnonzero, member)),
        doc_bucket=doc_bucket,
        scores=scores,
        n_errors=error_counts,
        annotations=annotations,
    )


def _split_columns(stream: TextIO, mapping: ColumnMapping) -> tuple[np.ndarray, dict, dict]:
    """Line numbers of the non-blank data lines, and per canonical column its
    distinct cells and each row's int32 code into them.  Parsed columns list
    their cells as ``_PARSED_COLUMNS`` says, the others sorted.  A row shorter
    than the header reads as padded with empty cells, an absent column as
    empty."""
    header_line = stream.readline()
    if not header_line:
        raise ParseError("empty file", line=1)
    header = header_line.removesuffix("\n").split("\t")
    try:
        index = mapping.resolve(header)
    except MissingColumn:
        deque(_line_blocks(stream), maxlen=0)  # a later undecodable byte is the error to report
        raise
    width = len(header)
    # Split a block of rows at a time, so that only one block's cells exist
    # as strings.  Each column's distinct cells get provisional codes in the
    # order blocks first show them; ranked columns rank them at the end.
    seen = {name: {"": 0} if name in _PARSED_COLUMNS else {} for name in index}
    block_codes = {name: [] for name in index}
    block_lineno, first_line = [np.zeros(0, dtype=np.intp)], 2
    for lines in _line_blocks(stream):
        lengths = np.fromiter(map(len, lines), dtype=np.intp, count=len(lines))
        block_lineno.append(np.flatnonzero(lengths) + first_line)
        first_line += len(lines)
        rows = list(filter(None, lines))
        if not rows:
            continue
        tabs = np.fromiter(map(str.count, rows, repeat("\t")), dtype=np.intp, count=len(rows))
        for i in np.flatnonzero(tabs != width - 1).tolist():
            cells = rows[i].split("\t")[:width]
            rows[i] = "\t".join(cells + [""] * (width - len(cells)))
        cells = "\t".join(rows).split("\t")
        for name, pos in index.items():
            column, first = cells[pos::width], seen[name]
            for cell in set(column).difference(first):
                first[cell] = len(first)
            block_codes[name].append(
                np.fromiter(map(first.__getitem__, column), np.int32, len(column))
            )
    lineno = np.concatenate(block_lineno)
    if not lineno.size:
        raise ParseError("no data rows", line=2)
    axes, codes = {}, {}
    for name in CANONICAL_COLUMNS:
        if name not in index:
            axes[name], codes[name] = ("",), np.zeros(len(lineno), dtype=np.int32)
            continue
        code = np.concatenate(block_codes.pop(name))
        if name in _PARSED_COLUMNS:
            axes[name], codes[name] = tuple(seen[name]), code
        else:
            axes[name], rank = _factorize(list(seen[name]))
            codes[name] = rank.astype(np.int32)[code]
    return lineno, axes, codes


def _line_blocks(stream: TextIO) -> Iterator[list[str]]:
    """The lines of the rest of ``stream``, split at "\\n", in lists of the
    lines that ``_READ_CHARS`` characters and the rest of their last line
    hold; a final newline starts no line of its own."""
    while block := stream.read(_READ_CHARS) + stream.readline():
        yield block.removesuffix("\n").split("\n")


def _parse_each(texts: Sequence[str], parse, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Parse each distinct cell text: the values, and a mask of the texts that
    fail (including integers beyond 64 bits).  A leading empty text fails
    unparsed; the rest are parsed in one pass unless one fails."""
    skip = int(texts[0] == "")
    values = np.zeros(len(texts), dtype=dtype)
    failed = np.zeros(len(texts), dtype=bool)
    failed[:skip] = True
    try:
        values[skip:] = np.fromiter(map(parse, texts[skip:]), dtype, len(texts) - skip)
    except (ValueError, OverflowError):
        for i in range(skip, len(texts)):
            try:
                values[i] = parse(texts[i])
            except (ValueError, OverflowError):
                failed[i] = True
    return values, failed


def _raise_first(checks) -> None:
    """Raise the error of the first row that fails any check, for the first
    check it fails; ``checks`` is a list of (row mask, row -> exception)."""
    failing = [np.argmax(mask) for mask, _ in checks if mask.any()]
    if failing:
        row = min(failing)
        raise next(error(row) for mask, error in checks if mask[row])


def bucket_layout(ds: RatingDataset) -> list[tuple[str, tuple[str, ...], int]]:
    """One (bucket_id, sorted rater ids, document count) entry per bucket."""
    sizes = np.bincount(ds.doc_bucket, minlength=len(ds.bucket_axis)).tolist()
    return [
        (bucket_id, tuple(ds.rater_axis[r] for r in raters.tolist()), n_docs)
        for bucket_id, raters, n_docs in zip(ds.bucket_axis, ds.bucket_raters, sizes)
    ]


def export_tsv(ds: RatingDataset) -> str:
    """Serialize to the canonical TSV format (deterministic row order)."""
    return "".join(export_blocks(ds))


def export_blocks(ds: RatingDataset) -> Iterator[str]:
    """``export_tsv`` in pieces: the header line, then the lines of
    ``_BLOCK_ROWS`` ratings at a time."""
    by_key = (1, 2, 0, 3)  # (doc, seg, system, rater): rating order
    rated = np.flatnonzero(~np.isnan(ds.scores.transpose(by_key)))
    shape = tuple(ds.scores.shape[axis] for axis in by_key)
    doc_heads = [
        f"{ds.language_pair}\t{ds.bucket_axis[b]}\t{d}\t"
        for d, b in zip(ds.doc_axis, ds.doc_bucket.tolist())
    ]
    table = ds.annotations
    severities = [severity.value for severity in SEVERITIES]
    yield "\t".join(c for c in CANONICAL_COLUMNS if c != "target_text") + "\n"
    next_annotation = 0
    for at in range(0, len(rated), _BLOCK_ROWS):
        doc, seg, system, rater = np.unravel_index(rated[at:at + _BLOCK_ROWS], shape)
        cells = (system, doc, seg, rater)
        heads = [
            f"{doc_heads[d]}{k}\t{ds.system_axis[s]}\t{ds.rater_axis[r]}\t"
            for d, k, s, r in zip(doc.tolist(), seg.tolist(), system.tolist(), rater.tolist())
        ]
        tails = [f"\t{score!r}\n" for score in ds.scores[cells].tolist()]
        # One line per annotation, or one with empty error fields for a rating without any.
        n_errors = np.nan_to_num(ds.n_errors[cells]).astype(np.intp)
        rows = slice(next_annotation, next_annotation + int(n_errors.sum()))
        next_annotation = rows.stop
        annotations = [
            f"{severities[s]}\t{table.categories[c]}\t" + ("\t" if a < 0 else f"{a}\t{b}")
            for s, c, a, b in zip(
                table.severity[rows].tolist(), table.category[rows].tolist(),
                table.start[rows].tolist(), table.end[rows].tolist(),
            )
        ]
        owner = np.repeat(np.arange(len(heads)), np.maximum(n_errors, 1))
        middles = ["\t\t\t"] * len(owner)
        for line, text in zip(np.flatnonzero(n_errors[owner] > 0).tolist(), annotations):
            middles[line] = text
        yield "".join([heads[o] + m + tails[o] for o, m in zip(owner.tolist(), middles)])


def fingerprint(ds: RatingDataset) -> str:
    """Content hash of the dataset; changes iff any rating row changes.  It is
    the SHA-256 of ``export_tsv(ds)``, hashed a block at a time."""
    digest = hashlib.sha256()
    for block in export_blocks(ds):
        digest.update(block.encode("utf-8"))
    return digest.hexdigest()
