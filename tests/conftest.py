"""Shared fixtures, dataset builders, and the per-rating reference form.

The library keeps ratings only as ``RatingTable`` columns and dense arrays.
The oracles in these tests compare against one ``SegmentRating`` per rating:
``table_from_ratings`` turns a {key: SegmentRating} dict into a table, and
``rating_dict`` turns a dataset's table back into that dict.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
import pytest

from stabeval.corpus import (
    SEVERITIES,
    Bucket,
    ErrorAnnotation,
    RatingDataset,
    RatingTable,
    _factorize,
)
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


def table_from_ratings(ratings) -> RatingTable:
    """The RatingTable of a {(doc_id, seg_index, system_id, rater_id): SegmentRating} dict."""
    keys = sorted(ratings)
    (docs, doc), (systems, system), (raters, rater) = (
        _factorize([key[i] for key in keys]) for i in (0, 2, 3)
    )
    values = [ratings[key] for key in keys]
    owned = [(row, a) for row, v in enumerate(values) for a in v.annotations or ()]
    categories, category = _factorize([a.category for _, a in owned])
    spans = np.array([a.span or (-1, -1) for _, a in owned], dtype=np.int64).reshape(-1, 2)
    return RatingTable(
        docs, systems, raters, doc,
        np.array([key[1] for key in keys], dtype=np.int64), system, rater,
        np.array([v.score for v in values], dtype=np.float64),
        np.array([np.nan if v.annotations is None else len(v.annotations) for v in values]),
        categories,
        np.array([row for row, _ in owned], dtype=np.intp),
        np.array([SEVERITIES.index(a.severity) for _, a in owned], dtype=np.intp),
        category, spans[:, 0], spans[:, 1],
    )


def assert_same_table(got: RatingTable, want: RatingTable) -> None:
    """Column-by-column identity of two rating tables, dtypes included."""
    for column in fields(RatingTable):
        a, b = getattr(got, column.name), getattr(want, column.name)
        if isinstance(b, tuple):
            assert a == b, column.name
        else:
            assert a.dtype == b.dtype, column.name
            assert np.array_equal(a, b, equal_nan=True), column.name


def rating_dict(ds: RatingDataset) -> dict:
    """The dataset's ratings as {(doc_id, seg_index, system_id, rater_id): SegmentRating},
    in key order."""
    table = ds.ratings
    annotations = [
        ErrorAnnotation(table.categories[c], SEVERITIES[s], None if a < 0 else (a, b))
        for s, c, a, b in zip(
            table.ann_severity.tolist(), table.ann_category.tolist(),
            table.ann_start.tolist(), table.ann_end.tolist(),
        )
    ]
    bounds = np.searchsorted(table.ann_owner, np.arange(len(table) + 1)).tolist()
    ratings = {}
    for row, (d, seg, s, r, score, n_errors) in enumerate(zip(
        table.doc.tolist(), table.seg.tolist(), table.system.tolist(), table.rater.tolist(),
        table.score.tolist(), table.n_errors.tolist(),
    )):
        key = (table.docs[d], seg, table.systems[s], table.raters[r])
        owned = None if np.isnan(n_errors) else tuple(annotations[bounds[row]:bounds[row + 1]])
        ratings[key] = SegmentRating(*key, owned, score)
    return ratings


def study_from_entries(entries) -> ScoredStudy:
    """A study from (doc, seg, system, rater, score, n_errors-or-None) tuples."""
    entries = sorted(entries, key=lambda e: (e[2], e[0], e[1], e[3]))
    systems = sorted({e[2] for e in entries})
    raters = sorted({e[3] for e in entries})
    docs = sorted({e[0] for e in entries})
    sys_pos = {s: i for i, s in enumerate(systems)}
    rater_pos = {r: i for i, r in enumerate(raters)}
    doc_pos = {d: i for i, d in enumerate(docs)}
    return ScoredStudy(
        systems,
        raters,
        docs,
        [sys_pos[e[2]] for e in entries],
        [rater_pos[e[3]] for e in entries],
        [doc_pos[e[0]] for e in entries],
        [e[1] for e in entries],
        [e[4] for e in entries],
        [np.nan if e[5] is None else float(e[5]) for e in entries],
    )

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
    buckets = []
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
        buckets.append(Bucket(f"b{b:03d}", frozenset(doc_ids), frozenset(raters)))
    ds = RatingDataset(
        language_pair=language_pair,
        documents=documents,
        systems=frozenset(systems),
        raters=frozenset(r for raters in bucket_raters for r in raters),
        buckets=tuple(buckets),
        ratings=table_from_ratings(ratings),
    )
    ds.validate()
    return ds


def plan_items(plan, ds):
    """Yield (doc_id, system_id, frozenset of rater ids) per item of a plan."""
    for s, d in np.argwhere(plan.chosen.any(axis=2)):
        raters = frozenset(ds.rater_axis[r] for r in np.flatnonzero(plan.chosen[s, d]))
        yield ds.doc_axis[d], ds.system_axis[s], raters


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
