"""Simulated rater-item assignment: item grouping, load balancing, and
ratings-per-item procedures, plus per-bucket document subsampling."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import Bucket, RatingDataset
from .errors import (
    BucketArityUnsupported,
    QuotaExceedsBucket,
    TargetUnreachable,
)
from .stats import normalized_entropy


class Grouping(str, Enum):
    PSXS = "psxs"
    SYSTEM_BALANCED = "system_balanced"
    NO_GROUPING = "no_grouping"


@dataclass(frozen=True)
class LoadBalancing:
    kind: str  # "fully_balanced" | "entropy_target"
    target: Optional[float] = None
    tolerance: float = 0.03

    @classmethod
    def fully_balanced(cls) -> "LoadBalancing":
        return cls("fully_balanced")

    @classmethod
    def entropy_target(cls, target: float, tolerance: float = 0.03) -> "LoadBalancing":
        if not (0.0 <= target <= 1.0):
            raise ValueError(f"entropy target must be in [0, 1], got {target}")
        return cls("entropy_target", target, tolerance)

    def __str__(self) -> str:
        if self.kind == "fully_balanced":
            return self.kind
        return f"entropy_target:{self.target:g}"


@dataclass
class AssignmentPlan:
    """Item -> rater-set assignment for one simulated study."""

    assignments: dict[tuple[str, str], frozenset[str]]  # (doc_id, system_id) -> raters
    grouping: Grouping
    balancing: LoadBalancing
    ratings_per_item: int

    def workload(self) -> dict[str, int]:
        """Item-rating counts per individual rater."""
        counts: dict[str, int] = {}
        for raters in self.assignments.values():
            for r in raters:
                counts[r] = counts.get(r, 0) + 1
        return counts

    def pair_workload(self) -> dict[frozenset, int]:
        counts: dict[frozenset, int] = {}
        for raters in self.assignments.values():
            counts[raters] = counts.get(raters, 0) + 1
        return counts

    def validate(self, ds: RatingDataset) -> None:
        by_doc: dict[str, frozenset] = {}
        for (doc_id, system), raters in self.assignments.items():
            if not raters <= ds.bucket_of(doc_id).rater_ids:
                raise ValueError(
                    f"raters {sorted(raters)} not eligible for document {doc_id}"
                )
            if len(raters) != self.ratings_per_item:
                raise ValueError(
                    f"item ({doc_id}, {system}) assigned {len(raters)} raters, "
                    f"expected {self.ratings_per_item}"
                )
            if self.grouping is Grouping.PSXS and by_doc.setdefault(doc_id, raters) != raters:
                raise ValueError(f"pSxS violated for document {doc_id}")


def _shuffled(seq: Iterable, rng) -> list:
    items = list(seq)
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def _bucket_alphabet(bucket: Bucket, ratings_per_item: int) -> list[frozenset[str]]:
    raters = sorted(bucket.rater_ids)
    if ratings_per_item == 1:
        return [frozenset((r,)) for r in raters]
    if ratings_per_item == 2:
        if len(raters) != 3:
            raise BucketArityUnsupported(
                f"double-rating requires buckets of exactly 3 raters; "
                f"bucket {bucket.bucket_id} has {len(raters)}"
            )
        return [frozenset(pair) for pair in itertools.combinations(raters, 2)]
    raise BucketArityUnsupported(f"unsupported ratings_per_item={ratings_per_item}")


def _sorted_buckets(ds: RatingDataset) -> list[Bucket]:
    return sorted(ds.buckets, key=lambda b: b.bucket_id)


def subsample_documents(ds: RatingDataset, n_target: int, rng) -> frozenset[str]:
    """Sample documents equally from each bucket to reach the target count.

    Each bucket contributes floor(n/n_buckets) documents; the remainder is
    spread over uniformly chosen distinct buckets.
    """
    total = len(ds.documents)
    if not (1 <= n_target <= total):
        raise ValueError(f"n_target must be in [1, {total}], got {n_target}")
    buckets = _sorted_buckets(ds)
    n_buckets = len(buckets)
    base = n_target // n_buckets
    remainder = n_target % n_buckets
    extra = set(rng.choice(n_buckets, size=remainder, replace=False).tolist())
    chosen: set[str] = set()
    for i, bucket in enumerate(buckets):
        quota = base + (1 if i in extra else 0)
        docs = sorted(bucket.doc_ids)
        if quota > len(docs):
            raise QuotaExceedsBucket(
                f"bucket {bucket.bucket_id} has {len(docs)} documents, quota is {quota}"
            )
        picks = rng.choice(len(docs), size=quota, replace=False)
        chosen.update(docs[p] for p in picks)
    return frozenset(chosen)


def _deal(units: list, alphabet: list, rng) -> list[tuple]:
    """Shuffle the units, shuffle the alphabet, then deal units round-robin."""
    units = _shuffled(units, rng)
    alphabet = _shuffled(alphabet, rng)
    return [(unit, alphabet[i % len(alphabet)]) for i, unit in enumerate(units)]


def assign_balanced(
    ds: RatingDataset,
    doc_subset: Iterable[str],
    grouping: Grouping,
    rng,
    ratings_per_item: int = 1,
) -> AssignmentPlan:
    """Fully balanced assignment: per bucket, shuffle the units and the
    bucket's raters (or rater pairs), then deal the units round-robin.

    The unit is a document for pSxS (every system output of a document shares
    its raters), a document within one system for system-balanced grouping
    (one deal per system, so every system spreads evenly over raters without
    document alignment), and a (doc, system) item without grouping.
    """
    subset = set(doc_subset)
    systems = sorted(ds.systems)
    assignments: dict[tuple[str, str], frozenset[str]] = {}
    for bucket in _sorted_buckets(ds):
        docs = sorted(bucket.doc_ids & subset)
        if not docs:
            continue
        alphabet = _bucket_alphabet(bucket, ratings_per_item)
        if grouping is Grouping.PSXS:
            for doc, raters in _deal(docs, alphabet, rng):
                assignments.update(((doc, system), raters) for system in systems)
        elif grouping is Grouping.SYSTEM_BALANCED:
            for system in systems:
                for doc, raters in _deal(docs, alphabet, rng):
                    assignments[(doc, system)] = raters
        else:
            assignments.update(_deal([(d, s) for d in docs for s in systems], alphabet, rng))
    plan = AssignmentPlan(assignments, grouping, LoadBalancing.fully_balanced(), ratings_per_item)
    plan.validate(ds)
    return plan


def _entropy_pool(ds: RatingDataset, ratings_per_item: int) -> list:
    """Workload alphabet over the whole dataset: one-rater sets, or rater pairs
    when double-rated (entropy is then computed over pair workloads)."""
    if ratings_per_item == 1:
        return [frozenset((r,)) for r in sorted(ds.raters)]
    symbols = set()
    for bucket in _sorted_buckets(ds):
        symbols.update(_bucket_alphabet(bucket, ratings_per_item))
    return sorted(symbols, key=sorted)


def assign_entropy_target(
    ds: RatingDataset,
    doc_subset: Iterable[str],
    target: float,
    tolerance: float = 0.03,
    rng=None,
    max_retries: int = 1000,
    units: str = "documents",
    ratings_per_item: int = 1,
) -> AssignmentPlan:
    """Entropy-targeted assignment.

    Each attempt starts from a uniform-random eligible assignment, then visits
    the units once in random order, greedily re-assigning each to the eligible
    rater that brings the overall normalized workload entropy closest to the
    target (random tie-break).  The attempt is accepted iff the final entropy
    is within the tolerance of the target; otherwise both the initial
    assignment and the visit order are resampled.
    """
    if not (0.0 <= target <= 1.0):
        raise ValueError(f"target must be in [0, 1], got {target}")
    subset = set(doc_subset)
    systems = sorted(ds.systems)
    symbols = _entropy_pool(ds, ratings_per_item)
    pool_size = len(symbols)
    symbol_pos = {s: i for i, s in enumerate(symbols)}

    if units == "documents":
        unit_list = sorted(subset)
        weights = {u: len(systems) for u in unit_list}
    elif units == "items":
        unit_list = [(d, s) for d in sorted(subset) for s in systems]
        weights = {u: 1 for u in unit_list}
    else:
        raise ValueError(f"unknown unit kind {units!r}")

    eligible: dict = {}
    for unit in unit_list:
        doc = unit if units == "documents" else unit[0]
        alphabet = _bucket_alphabet(ds.bucket_of(doc), ratings_per_item)
        eligible[unit] = [symbol_pos[a] for a in alphabet]

    log_pool = np.log(pool_size)

    def entropy(counts: np.ndarray) -> float:
        total = counts.sum()
        p = counts[counts > 0] / total
        return float(-(p * np.log(p)).sum() / log_pool)

    for _attempt in range(max_retries):
        counts = np.zeros(pool_size)
        chosen: dict = {}
        for unit in unit_list:
            pick = eligible[unit][rng.integers(len(eligible[unit]))]
            chosen[unit] = pick
            counts[pick] += weights[unit]
        for unit in _shuffled(unit_list, rng):
            w = weights[unit]
            counts[chosen[unit]] -= w
            candidates = eligible[unit]
            gaps = np.empty(len(candidates))
            for k, cand in enumerate(candidates):
                counts[cand] += w
                gaps[k] = abs(entropy(counts) - target)
                counts[cand] -= w
            best = np.flatnonzero(gaps <= gaps.min() + 1e-12)
            pick = candidates[best[rng.integers(len(best))]]
            chosen[unit] = pick
            counts[pick] += w
        if abs(entropy(counts) - target) <= tolerance:
            assignments: dict[tuple[str, str], frozenset[str]] = {}
            for unit, pick in chosen.items():
                if units == "documents":
                    assignments.update(((unit, system), symbols[pick]) for system in systems)
                else:
                    assignments[unit] = symbols[pick]
            grouping = Grouping.PSXS if units == "documents" else Grouping.NO_GROUPING
            plan = AssignmentPlan(
                assignments,
                grouping,
                LoadBalancing.entropy_target(target, tolerance),
                ratings_per_item,
            )
            plan.validate(ds)
            return plan
    raise TargetUnreachable(
        f"no assignment within {tolerance} of entropy target {target} "
        f"after {max_retries} attempts"
    )


def min_instantiable_entropy(
    bucket_doc_counts: Sequence[int],
    bucket_raters: Sequence[Iterable[str]],
    pool_size: int,
) -> float:
    """Minimum normalized workload entropy achievable for a bucket layout.

    Entropy is concave, so the minimum over feasible workload distributions is
    attained with each bucket's entire load on a single rater; brute-force over
    those per-bucket choices.
    """
    if len(bucket_doc_counts) != len(bucket_raters):
        raise ValueError("bucket count mismatch")
    rater_lists = [sorted(rs) for rs in bucket_raters]
    all_raters = sorted({r for rs in rater_lists for r in rs})
    pos = {r: i for i, r in enumerate(all_raters)}
    best = 1.0
    for choice in itertools.product(*rater_lists):
        counts = np.zeros(len(all_raters))
        for weight, rater in zip(bucket_doc_counts, choice):
            counts[pos[rater]] += weight
        best = min(best, normalized_entropy(counts, pool_size))
    return best


def build_plan(
    ds: RatingDataset,
    doc_subset: Iterable[str],
    grouping: Grouping,
    balancing: LoadBalancing,
    ratings_per_item: int,
    rng,
) -> AssignmentPlan:
    """Dispatch to the procedure implied by (grouping, balancing)."""
    if balancing.kind == "fully_balanced":
        return assign_balanced(ds, doc_subset, grouping, rng, ratings_per_item)
    if grouping is Grouping.SYSTEM_BALANCED:
        raise ValueError("system-balanced grouping is only defined with full balancing")
    return assign_entropy_target(
        ds,
        doc_subset,
        balancing.target,
        tolerance=balancing.tolerance,
        rng=rng,
        units="documents" if grouping is Grouping.PSXS else "items",
        ratings_per_item=ratings_per_item,
    )
