"""Shared fixtures and dataset builders."""

from __future__ import annotations

import numpy as np
import pytest

from stabeval.corpus import Bucket, RatingDataset, SegmentRating

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
        ratings=ratings,
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
