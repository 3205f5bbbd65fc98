"""Shared fixtures, dataset builders, and the per-rating reference form.

The library keeps ratings only as dense ``scores`` / ``n_errors`` arrays plus
``Annotations`` columns.  The oracles in these tests compare against one
``SegmentRating`` per rating: ``rating_fields`` turns a {key: SegmentRating}
dict into a dataset's ``scores``, ``n_errors`` and ``annotations`` fields,
and ``rating_dict`` reads a dataset's arrays back into that dict.
Likewise ``bucket_fields`` turns {bucket_id: (doc ids, rater ids)} into the
bucket layout fields, ``bucket_sets`` reads them back, and
``build_buckets_oracle`` is the id-set bucket builder ingest replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
import pytest

from stabeval.corpus import (
    SEVERITIES,
    Annotations,
    ErrorAnnotation,
    RatingDataset,
    _factorize,
)
from stabeval.errors import InconsistentBuckets
from stabeval.scoring import ScoredStudy


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


def rating_fields(ratings, systems, documents, raters) -> dict:
    """The ``scores``, ``n_errors`` and ``annotations`` fields of a dataset with
    the given system ids, {doc_id: segment count} and rater ids, holding a
    {(doc_id, seg_index, system_id, rater_id): SegmentRating} dict."""
    system_pos, doc_pos, rater_pos = (
        {x: i for i, x in enumerate(sorted(ids))} for ids in (systems, documents, raters)
    )
    shape = (len(system_pos), len(doc_pos), max(documents.values(), default=0), len(rater_pos))
    scores, n_errors = np.full(shape, np.nan), np.full(shape, np.nan)
    keys = sorted(ratings)  # sorted ids, so this is rating order
    for doc, seg, system, rater in keys:
        rating = ratings[(doc, seg, system, rater)]
        cell = (system_pos[system], doc_pos[doc], seg, rater_pos[rater])
        scores[cell] = rating.score
        n_errors[cell] = np.nan if rating.annotations is None else len(rating.annotations)
    owned = [(row, a) for row, key in enumerate(keys) for a in ratings[key].annotations or ()]
    categories, category = _factorize([a.category for _, a in owned])
    spans = np.array([a.span or (-1, -1) for _, a in owned], dtype=np.int64).reshape(-1, 2)
    annotations = Annotations(
        categories,
        np.array([row for row, _ in owned], dtype=np.intp),
        np.array([SEVERITIES.index(a.severity) for _, a in owned], dtype=np.intp),
        category, spans[:, 0], spans[:, 1],
    )
    return {"scores": scores, "n_errors": n_errors, "annotations": annotations}


def bucket_fields(buckets, documents, raters) -> dict:
    """The ``bucket_axis``, ``bucket_raters`` and ``doc_bucket`` fields of a
    dataset with the given doc and rater ids, holding the buckets of a
    {bucket_id: (doc ids, rater ids)} dict."""
    bucket_axis = tuple(sorted(buckets))
    doc_pos, rater_pos = ({x: i for i, x in enumerate(sorted(ids))} for ids in (documents, raters))
    doc_bucket = np.full(len(doc_pos), -1, dtype=np.intp)
    for b, bucket_id in enumerate(bucket_axis):
        doc_bucket[[doc_pos[d] for d in buckets[bucket_id][0]]] = b
    bucket_raters = tuple(
        np.array(sorted(rater_pos[r] for r in buckets[bucket_id][1]), dtype=np.intp)
        for bucket_id in bucket_axis
    )
    return {"bucket_axis": bucket_axis, "bucket_raters": bucket_raters, "doc_bucket": doc_bucket}


def bucket_sets(ds: RatingDataset) -> dict:
    """The dataset's buckets as {bucket_id: (frozenset of doc ids, frozenset of
    rater ids)}, the inverse of ``bucket_fields``."""
    return {
        bucket_id: (
            frozenset(ds.doc_axis[d] for d in np.flatnonzero(ds.doc_bucket == b).tolist()),
            frozenset(ds.rater_axis[r] for r in raters.tolist()),
        )
        for b, (bucket_id, raters) in enumerate(zip(ds.bucket_axis, ds.bucket_raters))
    }


def build_buckets_oracle(documents, doc_raters, explicit_buckets) -> dict:
    """The id-set bucket builder that ingest's position arrays replaced:
    {bucket_id: (doc ids, rater ids)} from {doc_id: rater ids} and, if any
    row names a bucket, {doc_id: bucket_id}."""
    if explicit_buckets:
        missing = set(documents) - set(explicit_buckets)
        if missing:
            raise InconsistentBuckets(f"documents without a bucket id: {sorted(missing)[:5]}")
        by_id: dict[str, set[str]] = {}
        for doc, bucket_id in explicit_buckets.items():
            by_id.setdefault(bucket_id, set()).add(doc)
        buckets = {}
        for bucket_id in sorted(by_id):
            docs = by_id[bucket_id]
            rater_sets = {frozenset(doc_raters[d]) for d in docs}
            if len(rater_sets) != 1:
                raise InconsistentBuckets(
                    f"bucket {bucket_id} contains documents with differing rater sets"
                )
            buckets[bucket_id] = (frozenset(docs), rater_sets.pop())
        return buckets
    # Infer from rater co-occurrence: same bucket iff identical rater set.
    by_raters: dict[frozenset[str], set[str]] = {}
    for doc, rs in doc_raters.items():
        by_raters.setdefault(frozenset(rs), set()).add(doc)
    ordered = sorted(by_raters.items(), key=lambda item: min(item[1]))
    return {
        f"b{i:03d}": (frozenset(docs), rater_set) for i, (rater_set, docs) in enumerate(ordered)
    }


def assert_same_buckets(got: RatingDataset, want: RatingDataset) -> None:
    """Identity of two datasets' bucket arrays, dtypes included."""
    assert got.bucket_axis == want.bucket_axis
    assert len(got.bucket_raters) == len(want.bucket_raters)
    for a, b in zip(got.bucket_raters, want.bucket_raters):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.doc_bucket.dtype == want.doc_bucket.dtype
    assert np.array_equal(got.doc_bucket, want.doc_bucket)


def assert_same_ratings(got: RatingDataset, want: RatingDataset) -> None:
    """Identity of two datasets' rating arrays and annotation columns, dtypes
    included; category codes are compared as the categories they name."""
    for name in ("scores", "n_errors"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=True), name
    for column in fields(Annotations)[1:]:
        a, b = getattr(got.annotations, column.name), getattr(want.annotations, column.name)
        assert a.dtype == b.dtype, column.name
        if column.name == "category":
            a = [got.annotations.categories[c] for c in a.tolist()]
            b = [want.annotations.categories[c] for c in b.tolist()]
        assert np.array_equal(a, b), column.name


def rating_dict(ds: RatingDataset) -> dict:
    """The dataset's ratings as {(doc_id, seg_index, system_id, rater_id): SegmentRating},
    in rating order."""
    by_key = (1, 2, 0, 3)
    rated = ~np.isnan(ds.scores.transpose(by_key))
    table = ds.annotations
    annotations = [
        ErrorAnnotation(table.categories[c], SEVERITIES[s], None if a < 0 else (a, b))
        for s, c, a, b in zip(
            table.severity.tolist(), table.category.tolist(),
            table.start.tolist(), table.end.tolist(),
        )
    ]
    bounds = np.searchsorted(table.owner, np.arange(np.count_nonzero(rated) + 1)).tolist()
    ratings = {}
    for row, (d, seg, s, r, score, n_errors) in enumerate(zip(
        *(cells.tolist() for cells in np.nonzero(rated)),
        ds.scores.transpose(by_key)[rated].tolist(),
        ds.n_errors.transpose(by_key)[rated].tolist(),
    )):
        key = (ds.doc_axis[d], seg, ds.system_axis[s], ds.rater_axis[r])
        owned = None if np.isnan(n_errors) else tuple(annotations[bounds[row]:bounds[row + 1]])
        ratings[key] = SegmentRating(*key, owned, score)
    return ratings


def study_from_entries(entries) -> ScoredStudy:
    """A study from (doc, seg, system, rater, score, n_errors-or-None) tuples,
    one per rated cell, in the dense layout: slot k of every item is the
    study's k-th rater, NaN where that rater has no rating."""
    systems, docs, raters = (sorted({e[i] for e in entries}) for i in (2, 0, 3))
    sys_pos, doc_pos, rater_pos = (
        {x: i for i, x in enumerate(ids)} for ids in (systems, docs, raters)
    )
    shape = (len(systems), len(docs), max(e[1] for e in entries) + 1, len(raters))
    scores, n_errors = np.full(shape, np.nan), np.full(shape, np.nan)
    for doc, seg, system, rater, score, errors in entries:
        cell = (sys_pos[system], doc_pos[doc], seg, rater_pos[rater])
        assert np.isnan(scores[cell]), f"two entries for {(doc, seg, system, rater)}"
        scores[cell] = score
        n_errors[cell] = np.nan if errors is None else float(errors)
    slots = np.broadcast_to(np.arange(len(raters)), (len(systems), len(docs), len(raters)))
    return ScoredStudy(systems, raters, scores, n_errors, slots)

# Bucket layouts with 181 documents, mirroring the two released datasets:
# a 7-bucket rotation over raters A..G and a 2-bucket disjoint split.
ROTATION_LAYOUT = (
    [26, 26, 26, 26, 26, 26, 25],
    [
        ("A", "B", "C"),
        ("B", "C", "D"),
        ("C", "D", "E"),
        ("D", "E", "F"),
        ("E", "F", "G"),
        ("F", "G", "A"),
        ("G", "A", "B"),
    ],
)
DISJOINT_LAYOUT = ([90, 91], [("H", "I", "J"), ("K", "L", "M")])


def make_layout_dataset(
    bucket_sizes,
    bucket_raters,
    n_systems=2,
    segs_per_doc=1,
    score_fn=None,
    language_pair="fixture",
):
    """Build a valid score-only dataset with the given bucket layout.

    ``score_fn(doc_id, seg, system_id, rater_id)`` supplies scores; defaults
    to 0 everywhere.
    """
    systems = [f"s{i:02d}" for i in range(n_systems)]
    documents = {}
    buckets = {}
    ratings = {}
    d = 0
    for b, (size, raters) in enumerate(zip(bucket_sizes, bucket_raters)):
        doc_ids = []
        for _ in range(size):
            doc_id = f"d{d:03d}"
            d += 1
            documents[doc_id] = segs_per_doc
            doc_ids.append(doc_id)
            for system_id in systems:
                for rater_id in raters:
                    for seg in range(segs_per_doc):
                        score = 0.0 if score_fn is None else float(
                            score_fn(doc_id, seg, system_id, rater_id)
                        )
                        ratings[(doc_id, seg, system_id, rater_id)] = SegmentRating(
                            doc_id, seg, system_id, rater_id, None, score
                        )
        buckets[f"b{b:03d}"] = (doc_ids, raters)
    all_raters = frozenset(r for raters in bucket_raters for r in raters)
    ds = RatingDataset(
        language_pair=language_pair,
        documents=documents,
        systems=frozenset(systems),
        raters=all_raters,
        **bucket_fields(buckets, documents, all_raters),
        **rating_fields(ratings, systems, documents, all_raters),
    )
    ds.validate()
    return ds


def all_docs(ds):
    """Every document's ``doc_axis`` position, as ``subsample_documents``
    returns the documents of a study that takes the whole pool."""
    return tuple(range(len(ds.doc_axis)))


def bucket_raters_of(ds, doc_id) -> frozenset:
    """The rater ids of the document's bucket."""
    raters = ds.bucket_raters[ds.doc_bucket[ds.doc_pos[doc_id]]]
    return frozenset(ds.rater_axis[r] for r in raters.tolist())


def plan_items(plan, ds):
    """Yield (doc_id, system_id, frozenset of rater ids) per item of a plan,
    system-major."""
    for s, i in np.ndindex(plan.raters.shape[:2]):
        raters = frozenset(ds.rater_axis[r] for r in plan.raters[s, i])
        yield ds.doc_axis[plan.docs[i]], ds.system_axis[s], raters


def plan_mask(plan, ds):
    """The plan as a (system, doc, rater) mask over the dataset's axes:
    True iff the rater rates the system's output of the document."""
    chosen = np.zeros((len(ds.system_axis), *ds.eligible.shape), dtype=bool)
    systems = np.arange(len(ds.system_axis))[:, None, None]
    chosen[systems, plan.docs[:, None], plan.raters] = True
    return chosen


TINY_HEADER = (
    "lang_pair\tbucket_id\tdoc_id\tseg_index\tsystem_id\trater_id\t"
    "severity\tcategory\tspan_start\tspan_end\tscore\ttarget_text"
)


def tiny_tsv_rows():
    """Span-level fixture: 2 docs x 2 systems x 3 raters, 1 segment each.

    doc1/sysA gets one Major Accuracy error from every rater; everything else
    is error-free.
    """
    rows = [TINY_HEADER]
    for doc in ("doc1", "doc2"):
        for system in ("sysA", "sysB"):
            for rater in ("r1", "r2", "r3"):
                if doc == "doc1" and system == "sysA":
                    rows.append(
                        f"xx-yy\tb1\t{doc}\t0\t{system}\t{rater}\t"
                        f"Major\tAccuracy/Mistranslation\t0\t4\t\tkatze sah"
                    )
                else:
                    rows.append(f"xx-yy\tb1\t{doc}\t0\t{system}\t{rater}\t\t\t\t\t\t")
    return rows


@pytest.fixture
def tiny_tsv(tmp_path):
    path = tmp_path / "tiny.tsv"
    path.write_text("\n".join(tiny_tsv_rows()) + "\n")
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
