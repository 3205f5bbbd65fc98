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
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    IncompleteRatings,
    InconsistentBuckets,
    MissingColumn,
    ParseError,
    ScoreMismatch,
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


class Severity(str, Enum):
    MAJOR = "Major"
    MINOR = "Minor"

    @classmethod
    def parse(cls, text: str) -> "Severity":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"invalid severity {text!r} (expected Major or Minor)")


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


@dataclass(frozen=True)
class SegmentRating:
    """One rater's rating of one segment of one system output.

    ``annotations`` is None for score-only data (no span-level information);
    an empty tuple means the rater explicitly found no errors.
    """

    doc_id: str
    seg_index: int
    system_id: str
    rater_id: str
    annotations: Optional[tuple[ErrorAnnotation, ...]]
    score: float

    @property
    def n_errors(self) -> Optional[int]:
        return None if self.annotations is None else len(self.annotations)


@dataclass(frozen=True)
class Bucket:
    """A set of documents whose items were all rated by the same fixed rater set."""

    bucket_id: str
    doc_ids: frozenset[str]
    rater_ids: frozenset[str]


@dataclass
class DatasetStats:
    n_documents: int
    n_segments: int
    min_segments_per_doc: int
    max_segments_per_doc: int
    n_raters: int
    n_systems: int
    bucket_doc_counts: dict[str, int]


@dataclass
class RatingDataset:
    """All annotations for one language pair, validated and immutable in use.

    ``scores`` and ``n_errors`` hold the ratings as dense arrays indexed
    (system, doc, seg, rater) over the sorted ids in ``system_axis``,
    ``doc_axis`` and ``rater_axis``.  Unrated cells are NaN, and so are the
    error counts of score-only ratings.  ``eligible`` is the (doc, rater)
    bucket membership matrix.
    """

    language_pair: str
    documents: dict[str, int]  # doc_id -> number of segments
    systems: frozenset[str]
    raters: frozenset[str]
    buckets: tuple[Bucket, ...]
    ratings: dict[tuple[str, int, str, str], SegmentRating]

    def __post_init__(self):
        self.system_axis = tuple(sorted(self.systems))
        self.doc_axis = tuple(sorted(self.documents))
        self.rater_axis = tuple(sorted(self.raters.union(*(b.rater_ids for b in self.buckets))))
        self.system_pos = {s: i for i, s in enumerate(self.system_axis)}
        self.doc_pos = {d: i for i, d in enumerate(self.doc_axis)}
        self.rater_pos = {r: i for i, r in enumerate(self.rater_axis)}
        # eligible[d, r]: rater r belongs to document d's bucket.
        self._doc_bucket = {}
        self.eligible = np.zeros((len(self.doc_axis), len(self.rater_axis)), dtype=bool)
        for bucket in self.buckets:
            for doc in bucket.doc_ids:
                self._doc_bucket[doc] = bucket
            docs = [self.doc_pos[d] for d in bucket.doc_ids if d in self.doc_pos]
            self.eligible[np.ix_(docs, [self.rater_pos[r] for r in bucket.rater_ids])] = True
        self.seg_counts = np.array([self.documents[d] for d in self.doc_axis], dtype=np.intp)
        shape = (
            len(self.system_axis),
            len(self.doc_axis),
            self.seg_counts.max(initial=0),
            len(self.rater_axis),
        )
        self.scores = np.full(shape, np.nan)
        self.n_errors = np.full(shape, np.nan)
        # Ratings outside the declared ids or segment ranges get no cell;
        # validate() reports them through its row count.
        for (doc, seg, system, rater), rating in self.ratings.items():
            s, d, r = self.system_pos.get(system), self.doc_pos.get(doc), self.rater_pos.get(rater)
            if None not in (s, d, r) and 0 <= seg < self.documents[doc]:
                self.scores[s, d, seg, r] = rating.score
                n_errors = rating.n_errors
                self.n_errors[s, d, seg, r] = np.nan if n_errors is None else n_errors

    def bucket_of(self, doc_id: str) -> Bucket:
        return self._doc_bucket[doc_id]

    def rating(self, doc_id: str, seg_index: int, system_id: str, rater_id: str) -> SegmentRating:
        return self.ratings[(doc_id, seg_index, system_id, rater_id)]

    def validate(self) -> None:
        """Enforce the structural invariants; raise a CorpusError on violation."""
        seen_docs: set[str] = set()
        seen_rater_sets: set[frozenset[str]] = set()
        for bucket in self.buckets:
            if bucket.rater_ids in seen_rater_sets:
                raise InconsistentBuckets(
                    f"buckets share the identical rater set {sorted(bucket.rater_ids)}"
                )
            seen_rater_sets.add(bucket.rater_ids)
            overlap = seen_docs & bucket.doc_ids
            if overlap:
                raise InconsistentBuckets(
                    f"documents assigned to multiple buckets: {sorted(overlap)[:5]}"
                )
            seen_docs |= bucket.doc_ids
        if seen_docs != set(self.documents):
            missing = set(self.documents) - seen_docs
            extra = seen_docs - set(self.documents)
            raise InconsistentBuckets(
                f"buckets do not partition the document set "
                f"(unbucketed={sorted(missing)[:5]}, unknown={sorted(extra)[:5]})"
            )
        in_doc = np.arange(self.scores.shape[2]) < self.seg_counts[:, None]
        required = in_doc[None, :, :, None] & self.eligible[None, :, None, :]
        holes = np.isnan(self.scores) & required
        for doc_id, n_segs in self.documents.items():
            if n_segs < 1:
                raise InconsistentBuckets(f"document {doc_id} has no segments")
            # The document's holes in (system, rater, seg) order.
            doc_holes = holes[:, self.doc_pos[doc_id]].transpose(0, 2, 1)
            if doc_holes.any():
                s, r, seg = np.unravel_index(np.argmax(doc_holes), doc_holes.shape)
                raise IncompleteRatings(
                    f"missing rating for doc={doc_id} seg={seg} "
                    f"system={self.system_axis[s]} rater={self.rater_axis[r]}"
                )
        expected = len(self.systems) * int(required.sum())
        if len(self.ratings) != expected:
            raise InconsistentBuckets(
                f"unexpected ratings present ({len(self.ratings)} rows, expected {expected})"
            )


def read_config(path, case_sensitive: bool = False, **options) -> dict[str, dict[str, str]]:
    """Read a sectioned key-value config file into {section: {key: value}},
    ``DEFAULT`` included; a syntax or encoding error becomes a ConfigError."""
    parser = configparser.ConfigParser(**options)
    if case_sensitive:
        parser.optionxform = str
    with open(path, encoding="utf-8") as handle:
        try:
            parser.read_file(handle)
            return {name: dict(parser.items(name)) for name in ["DEFAULT", *parser.sections()]}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from None


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
        sections = read_config(path, case_sensitive=True)  # column names are case-sensitive
        return cls(sections.get("columns", sections["DEFAULT"]))

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


def _parse_optional_int(value: str, name: str, line: int) -> Optional[int]:
    if value == "":
        return None
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"invalid integer for {name}: {value!r}", line=line) from None


def ingest(path, mapping: Optional[ColumnMapping] = None, weights=None) -> RatingDataset:
    """Read a TSV rating file and return a validated RatingDataset.

    ``weights`` (a scoring.WeightTable) is used to materialize scores from
    annotations where absent and to cross-check precomputed scores.
    """
    if weights is None:
        from .scoring import WeightTable

        weights = WeightTable.default()
    with open(path, encoding="utf-8") as handle:
        try:
            return ingest_lines(handle, mapping=mapping, weights=weights)
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
            ) from None


def ingest_lines(lines: Iterable[str], mapping=None, weights=None) -> RatingDataset:
    from .scoring import WeightTable, segment_score

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

    # (doc, seg, system, rater) -> accumulated parse state
    groups: dict[tuple[str, int, str, str], dict] = {}
    lang_pairs: set[str] = set()
    explicit_buckets: dict[str, str] = {}  # doc -> bucket_id
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
            seg_index = int(seg_text)
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
            if math.isnan(score):  # NaN marks unrated cells in the score array
                raise ParseError(f"invalid score: {score_text!r}", line=lineno)
            state["scores"].append(score)
        if severity_text != "":
            try:
                severity = Severity.parse(severity_text)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
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

    ratings: dict[tuple[str, int, str, str], SegmentRating] = {}
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
            # A lone empty-severity row with no (nonzero) score is an explicit
            # "no errors found" rating.
            ratings[key] = SegmentRating(doc_id, seg_index, system_id, rater_id, (), 0.0)
        else:
            if given_score < 0:
                raise ParseError(
                    f"negative score for doc={doc_id} seg={seg_index}",
                    line=state["lines"][0],
                )
            ratings[key] = SegmentRating(doc_id, seg_index, system_id, rater_id, None, given_score)

    documents: dict[str, int] = {}
    doc_raters: dict[str, set[str]] = {}
    systems: set[str] = set()
    raters: set[str] = set()
    for (doc_id, seg_index, system_id, rater_id) in ratings:
        documents[doc_id] = max(documents.get(doc_id, 0), seg_index + 1)
        doc_raters.setdefault(doc_id, set()).add(rater_id)
        systems.add(system_id)
        raters.add(rater_id)

    buckets = _build_buckets(documents, doc_raters, explicit_buckets)
    language_pair = sorted(lang_pairs)[0] if len(lang_pairs) == 1 else ",".join(sorted(lang_pairs))
    ds = RatingDataset(
        language_pair=language_pair or "unknown",
        documents=documents,
        systems=frozenset(systems),
        raters=frozenset(raters),
        buckets=buckets,
        ratings=ratings,
    )
    ds.validate()
    if explicit_buckets:
        _check_inference_matches(ds, doc_raters)
    return ds


def _build_buckets(documents, doc_raters, explicit_buckets) -> tuple[Bucket, ...]:
    if explicit_buckets:
        missing = set(documents) - set(explicit_buckets)
        if missing:
            raise InconsistentBuckets(
                f"documents without a bucket id: {sorted(missing)[:5]}"
            )
        by_id: dict[str, set[str]] = {}
        for doc, bucket_id in explicit_buckets.items():
            by_id.setdefault(bucket_id, set()).add(doc)
        buckets = []
        for bucket_id in sorted(by_id):
            docs = by_id[bucket_id]
            rater_sets = {frozenset(doc_raters[d]) for d in docs}
            if len(rater_sets) != 1:
                raise InconsistentBuckets(
                    f"bucket {bucket_id} contains documents with differing rater sets"
                )
            buckets.append(Bucket(bucket_id, frozenset(docs), rater_sets.pop()))
        return tuple(buckets)
    # Infer from rater co-occurrence: same bucket iff identical rater set.
    by_raters: dict[frozenset[str], set[str]] = {}
    for doc, rs in doc_raters.items():
        by_raters.setdefault(frozenset(rs), set()).add(doc)
    buckets = []
    ordered = sorted(by_raters.items(), key=lambda item: min(item[1]))
    for i, (rater_set, docs) in enumerate(ordered):
        buckets.append(Bucket(f"b{i:03d}", frozenset(docs), rater_set))
    return tuple(buckets)


def _check_inference_matches(ds: RatingDataset, doc_raters) -> None:
    inferred = _build_buckets(ds.documents, doc_raters, {})
    inferred_sets = {b.doc_ids for b in inferred}
    explicit_sets = {b.doc_ids for b in ds.buckets}
    if inferred_sets != explicit_sets:
        raise InconsistentBuckets(
            "explicit bucket column disagrees with rater co-occurrence grouping"
        )


def stats(ds: RatingDataset) -> DatasetStats:
    seg_counts = list(ds.documents.values())
    return DatasetStats(
        n_documents=len(ds.documents),
        n_segments=sum(seg_counts),
        min_segments_per_doc=min(seg_counts),
        max_segments_per_doc=max(seg_counts),
        n_raters=len(ds.raters),
        n_systems=len(ds.systems),
        bucket_doc_counts={b.bucket_id: len(b.doc_ids) for b in ds.buckets},
    )


def bucket_layout(ds: RatingDataset) -> list[tuple[str, tuple[str, ...], int]]:
    """One (bucket_id, sorted rater ids, document count) entry per bucket."""
    return [
        (b.bucket_id, tuple(sorted(b.rater_ids)), len(b.doc_ids))
        for b in sorted(ds.buckets, key=lambda b: b.bucket_id)
    ]


def export_tsv(ds: RatingDataset) -> str:
    """Serialize to the canonical TSV format (deterministic row order)."""
    out = io.StringIO()
    columns = [c for c in CANONICAL_COLUMNS if c != "target_text"]
    out.write("\t".join(columns) + "\n")
    for key in sorted(ds.ratings):
        rating = ds.ratings[key]
        bucket = ds.bucket_of(rating.doc_id)
        base = [
            ds.language_pair,
            bucket.bucket_id,
            rating.doc_id,
            str(rating.seg_index),
            rating.system_id,
            rating.rater_id,
        ]
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


def fingerprint(ds: RatingDataset) -> str:
    """Content hash of the dataset; changes iff any rating row changes."""
    return hashlib.sha256(export_tsv(ds).encode("utf-8")).hexdigest()


def datasets_equal(a: RatingDataset, b: RatingDataset, tol: float = 1e-12) -> bool:
    """Structural equality with score comparison at the given tolerance."""
    if (
        a.language_pair != b.language_pair
        or a.documents != b.documents
        or a.systems != b.systems
        or a.raters != b.raters
        or {x.doc_ids for x in a.buckets} != {x.doc_ids for x in b.buckets}
        or set(a.ratings) != set(b.ratings)
    ):
        return False
    for key, ra in a.ratings.items():
        rb = b.ratings[key]
        if abs(ra.score - rb.score) > tol:
            return False
        ann_a = ra.annotations or ()
        ann_b = rb.annotations or ()
        if (ra.annotations is None) != (rb.annotations is None):
            # Score-only vs explicit no-error is only equivalent at score 0.
            if ann_a or ann_b or ra.score > tol:
                return False
        elif ann_a != ann_b:
            return False
    return True
