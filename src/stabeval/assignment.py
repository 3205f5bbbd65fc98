"""Simulated rater-item assignment: item grouping, load balancing, and
ratings-per-item procedures, plus per-bucket document subsampling."""

from __future__ import annotations

import itertools
import math
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
        if not tolerance >= 0.0:
            raise ValueError(f"entropy_tolerance must be >= 0, got {tolerance}")
        return cls("entropy_target", target, tolerance)

    def __str__(self) -> str:
        if self.kind == "fully_balanced":
            return self.kind
        return f"entropy_target:{self.target:g}"


@dataclass
class AssignmentPlan:
    """Rater assignment for one simulated study: ``chosen[s, d, r]`` is True iff
    rater r rates system s's output of document d, over the dataset's
    ``system_axis``, ``doc_axis`` and ``rater_axis``."""

    chosen: np.ndarray  # bool, (system, doc, rater)
    raters: tuple[str, ...]  # the dataset's rater_axis
    grouping: Grouping
    balancing: LoadBalancing
    ratings_per_item: int

    def workload(self) -> dict[str, int]:
        """Item-rating counts per rater, for raters with at least one item."""
        counts = self.chosen.sum(axis=(0, 1))
        return {self.raters[r]: int(counts[r]) for r in np.flatnonzero(counts)}

    def validate(self, ds: RatingDataset) -> None:
        """Every rater is eligible, every item of a covered document has
        ``ratings_per_item`` raters, and pSxS documents share them."""
        per_item = self.chosen.sum(axis=2)
        if (self.chosen & ~ds.eligible).any():
            raise ValueError("a rater is assigned outside its document's bucket")
        if (per_item[:, per_item.any(axis=0)] != self.ratings_per_item).any():
            raise ValueError(f"an item is not assigned exactly {self.ratings_per_item} raters")
        if self.grouping is Grouping.PSXS and (self.chosen != self.chosen[:1]).any():
            raise ValueError("pSxS violated: a document's systems have different raters")


def _bucket_alphabet(
    ds: RatingDataset, bucket: Bucket, ratings_per_item: int
) -> list[tuple[int, ...]]:
    """The bucket's raters (or rater pairs) as sorted rater-position tuples."""
    raters = sorted(ds.rater_pos[r] for r in bucket.rater_ids)
    if ratings_per_item == 1:
        return [(r,) for r in raters]
    if ratings_per_item == 2:
        if len(raters) != 3:
            raise BucketArityUnsupported(
                f"double-rating requires buckets of exactly 3 raters; "
                f"bucket {bucket.bucket_id} has {len(raters)}"
            )
        return list(itertools.combinations(raters, 2))
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


def _deal(n_units: int, alphabet: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle the units, shuffle the alphabet, then deal units round-robin.

    Returns the unit indices in dealing order and each one's alphabet row.
    """
    units = rng.permutation(n_units)
    alphabet = alphabet[rng.permutation(len(alphabet))]
    return units, alphabet[np.arange(n_units) % len(alphabet)]


def _mark(chosen: np.ndarray, grouping: Grouping, docs: np.ndarray, units, slots) -> None:
    """Set each unit's rater slots in ``chosen``.  Under pSxS a unit indexes
    ``docs`` and covers every system; otherwise it indexes the (doc, system)
    items over ``docs`` in doc-major order."""
    if grouping is Grouping.PSXS:
        chosen[:, docs[units, None], slots] = True
    else:
        n_systems = chosen.shape[0]
        chosen[units[:, None] % n_systems, docs[units // n_systems, None], slots] = True


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
    n_systems = len(ds.system_axis)
    chosen = np.zeros((n_systems, *ds.eligible.shape), dtype=bool)
    for bucket in _sorted_buckets(ds):
        docs = np.array(sorted(ds.doc_pos[d] for d in bucket.doc_ids & subset), dtype=np.intp)
        if not len(docs):
            continue
        alphabet = np.array(_bucket_alphabet(ds, bucket, ratings_per_item))
        if grouping is Grouping.SYSTEM_BALANCED:
            for s in range(n_systems):
                units, slots = _deal(len(docs), alphabet, rng)
                chosen[s, docs[units, None], slots] = True
        else:
            n_units = len(docs) * (1 if grouping is Grouping.PSXS else n_systems)
            _mark(chosen, grouping, docs, *_deal(n_units, alphabet, rng))
    plan = AssignmentPlan(
        chosen, ds.rater_axis, grouping, LoadBalancing.fully_balanced(), ratings_per_item
    )
    plan.validate(ds)
    return plan


def _entropy_pool(ds: RatingDataset, ratings_per_item: int) -> list[tuple[int, ...]]:
    """Workload alphabet over the whole dataset: single raters, or rater pairs
    when double-rated (entropy is then computed over pair workloads)."""
    if ratings_per_item == 1:
        return [(ds.rater_pos[r],) for r in sorted(ds.raters)]
    symbols = set()
    for bucket in _sorted_buckets(ds):
        symbols.update(_bucket_alphabet(ds, bucket, ratings_per_item))
    return sorted(symbols)


def assign_entropy_target(
    ds: RatingDataset,
    doc_subset: Iterable[str],
    target: float,
    tolerance: float = 0.03,
    rng=None,
    max_retries: int = 1000,
    grouping: Grouping = Grouping.PSXS,
    ratings_per_item: int = 1,
) -> AssignmentPlan:
    """Entropy-targeted assignment.

    Each attempt starts from a uniform-random eligible assignment, then visits
    the units once in random order, greedily re-assigning each to the eligible
    rater that brings the overall normalized workload entropy closest to the
    target (random tie-break).  The attempt is accepted iff the final entropy
    is within the tolerance of the target; otherwise both the initial
    assignment and the visit order are resampled.  The unit is a document
    under pSxS and a (doc, system) item without grouping.
    """
    if not (0.0 <= target <= 1.0):
        raise ValueError(f"target must be in [0, 1], got {target}")
    if grouping is Grouping.SYSTEM_BALANCED:
        raise ValueError("system-balanced grouping is only defined with full balancing")
    symbols = _entropy_pool(ds, ratings_per_item)
    pool_size = len(symbols)
    symbol_pos = {s: i for i, s in enumerate(symbols)}
    docs = np.array(sorted(ds.doc_pos[d] for d in doc_subset), dtype=np.intp)
    psxs = grouping is Grouping.PSXS
    n_systems = len(ds.system_axis)
    weight = n_systems if psxs else 1  # items per unit
    eligible = []  # per unit: the symbol indices of its bucket's alphabet
    for d in docs:
        alphabet = _bucket_alphabet(ds, ds.bucket_of(ds.doc_axis[d]), ratings_per_item)
        eligible += [[symbol_pos[a] for a in alphabet]] * (1 if psxs else n_systems)
    n_units = len(eligible)
    sizes = np.array([len(candidates) for candidates in eligible], dtype=np.int64)

    log_pool = float(np.log(pool_size))

    def entropy(counts: np.ndarray) -> float:
        total = counts.sum()
        p = counts[counts > 0] / total
        return float(-(p * np.log(p)).sum() / log_pool)

    # c log c of a symbol's item count c, by its unit count n (c = n * weight).
    xlogx = [0.0] + [c * math.log(c) for c in (float(n * weight) for n in range(1, n_units + 1))]
    # The total never changes, so a candidate's entropy is
    # (log T - S / T) / log(pool) with S = sum of c log c, in which moving
    # one unit changes only the two counts it leaves and joins.
    total = float(n_units * weight)
    log_total = math.log(total)
    for _attempt in range(max_retries):
        # One bounded draw per unit, as ``rng.integers(len(candidates))`` in a loop.
        picks = [
            candidates[k] for candidates, k in zip(eligible, rng.integers(0, sizes).tolist())
        ]
        units = np.bincount(picks, minlength=pool_size).tolist()
        s = sum(xlogx[n] for n in units)
        for u in rng.permutation(n_units).tolist():
            old = units[picks[u]]
            s += xlogx[old - 1] - xlogx[old]
            units[picks[u]] = old - 1
            candidates = eligible[u]
            gaps = [
                abs((log_total - (s - xlogx[units[c]] + xlogx[units[c] + 1]) / total) / log_pool
                    - target)
                for c in candidates
            ]
            least = min(gaps) + 1e-12
            best = [k for k, gap in enumerate(gaps) if gap <= least]
            # ``integers(1)`` draws nothing, so a lone best candidate needs no draw.
            picks[u] = candidates[best[rng.integers(len(best))] if len(best) > 1 else best[0]]
            new = units[picks[u]]
            s += xlogx[new + 1] - xlogx[new]
            units[picks[u]] = new + 1
        if abs(entropy(np.array(units) * float(weight)) - target) <= tolerance:
            chosen = np.zeros((n_systems, *ds.eligible.shape), dtype=bool)
            _mark(chosen, grouping, docs, np.arange(n_units), np.array(symbols)[picks])
            plan = AssignmentPlan(
                chosen,
                ds.rater_axis,
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
    return assign_entropy_target(
        ds,
        doc_subset,
        balancing.target,
        tolerance=balancing.tolerance,
        rng=rng,
        grouping=grouping,
        ratings_per_item=ratings_per_item,
    )
