"""Simulated rater-item assignment: item grouping, load balancing, and
ratings-per-item procedures, plus per-bucket document subsampling."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import RatingDataset
from .errors import (
    BucketArityUnsupported,
    ConfigError,
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
    """Fully balanced when ``target`` is None, else an entropy target."""

    target: Optional[float] = None
    tolerance: float = 0.03

    def __post_init__(self):
        if self.target is not None and not (0.0 <= self.target <= 1.0):
            raise ConfigError(f"entropy target must be in [0, 1], got {self.target}")
        if not self.tolerance >= 0.0:
            raise ConfigError(f"entropy_tolerance must be >= 0, got {self.tolerance}")

    def __str__(self) -> str:
        if self.target is None:
            return "fully_balanced"
        return f"entropy_target:{self.target:g}"


@dataclass
class AssignmentPlan:
    """Rater assignment for one simulated study.

    ``docs`` holds the study's document positions in the dataset's
    ``doc_axis``, ascending.  ``raters[s, i, k]`` is the ``rater_axis``
    position of the k-th rater of system s's output of document ``docs[i]``:
    every item has ``ratings_per_item`` slots, its raters ascending along them.
    """

    docs: np.ndarray  # intp, (study doc,)
    raters: np.ndarray  # intp, (system, study doc, slot)
    grouping: Grouping

    @property
    def ratings_per_item(self) -> int:
        return self.raters.shape[2]

    def workload(self) -> np.ndarray:
        """Item-rating counts by ``rater_axis`` position, up to the last rater
        with an item."""
        return np.bincount(self.raters.ravel())

    def validate(self, ds: RatingDataset) -> None:
        """The documents are distinct ascending positions, every rater is
        eligible, every item's raters are distinct in ascending slots, and
        pSxS documents share them."""
        if (np.diff(self.docs) <= 0).any():
            raise ValueError("the plan's documents are not distinct ascending positions")
        if not ds.eligible[self.docs[:, None], self.raters].all():
            raise ValueError("a rater is assigned outside its document's bucket")
        if (np.diff(self.raters, axis=2) <= 0).any():
            raise ValueError(
                f"an item is not assigned exactly {self.ratings_per_item} distinct raters "
                "in ascending slots"
            )
        if self.grouping is Grouping.PSXS and (self.raters != self.raters[:1]).any():
            raise ValueError("pSxS violated: a document's systems have different raters")


def _bucket_alphabet(ds: RatingDataset, b: int, ratings_per_item: int) -> list[tuple[int, ...]]:
    """Bucket b's raters (or rater pairs) as ascending rater-position tuples."""
    raters = ds.bucket_raters[b].tolist()
    if ratings_per_item == 1:
        return [(r,) for r in raters]
    if ratings_per_item == 2:
        if len(raters) != 3:
            raise BucketArityUnsupported(
                f"double-rating requires buckets of exactly 3 raters; "
                f"bucket {ds.bucket_axis[b]} has {len(raters)}"
            )
        return list(itertools.combinations(raters, 2))
    raise BucketArityUnsupported(f"unsupported ratings_per_item={ratings_per_item}")


def subsample_documents(ds: RatingDataset, n_target: int, rng) -> tuple[int, ...]:
    """Sample documents equally from each bucket to reach the target count;
    returns their ascending ``doc_axis`` positions.

    Each bucket contributes floor(n/n_buckets) documents; the remainder is
    spread over uniformly chosen distinct buckets among those with a document
    to spare.
    """
    total = len(ds.doc_axis)
    if not (1 <= n_target <= total):
        raise ValueError(f"n_target must be in [1, {total}], got {n_target}")
    n_buckets = len(ds.bucket_axis)
    base, remainder = divmod(n_target, n_buckets)
    sizes = np.bincount(ds.doc_bucket, minlength=n_buckets)
    if (sizes < base).any():
        b = int(np.argmax(sizes < base))
        raise QuotaExceedsBucket(
            f"bucket {ds.bucket_axis[b]} has {sizes[b]} documents, quota is {base}"
        )
    spare = np.flatnonzero(sizes > base)
    if len(spare) < remainder:
        raise QuotaExceedsBucket(
            f"{remainder} documents beyond a quota of {base} per bucket need as many "
            f"buckets with a document to spare; {len(spare)} have one"
        )
    # Over every bucket, this is the same draw as ``rng.choice(n_buckets, ...)``.
    extra = set(rng.choice(spare, size=remainder, replace=False).tolist())
    chosen = []
    for b in range(n_buckets):
        docs = np.flatnonzero(ds.doc_bucket == b)
        chosen += docs[rng.choice(len(docs), size=base + (b in extra), replace=False)].tolist()
    return tuple(sorted(chosen))


def _deal(n_units: int, alphabet: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle the units, shuffle the alphabet, then deal units round-robin.

    Returns the unit indices in dealing order and each one's alphabet row.
    """
    units = rng.permutation(n_units)
    alphabet = alphabet[rng.permutation(len(alphabet))]
    return units, alphabet[np.arange(n_units) % len(alphabet)]


def _balanced_raters(
    ds: RatingDataset, docs: np.ndarray, grouping: Grouping, ratings_per_item: int, rng
) -> np.ndarray:
    """Fully balanced ``raters[system, study doc, slot]``: per bucket, shuffle
    the units and the bucket's raters (or rater pairs), then deal the units
    round-robin.

    The unit is a document for pSxS (every system output of a document shares
    its raters), a document within one system for system-balanced grouping
    (one deal per system, so every system spreads evenly over raters without
    document alignment), and a (doc, system) item without grouping.
    """
    doc_bucket = ds.doc_bucket[docs]
    n_systems = len(ds.system_axis)
    # Every item is dealt exactly once below, so every slot is written.
    raters = np.empty((n_systems, len(docs), ratings_per_item), dtype=np.intp)
    for b in np.unique(doc_bucket).tolist():
        rows = np.flatnonzero(doc_bucket == b)  # the bucket's study docs
        alphabet = np.array(_bucket_alphabet(ds, b, ratings_per_item))
        if grouping is Grouping.SYSTEM_BALANCED:
            for s in range(n_systems):
                units, slots = _deal(len(rows), alphabet, rng)
                raters[s, rows[units]] = slots
        elif grouping is Grouping.PSXS:
            units, slots = _deal(len(rows), alphabet, rng)
            raters[:, rows[units]] = slots
        else:  # a unit is a (doc, system) item, doc-major
            units, slots = _deal(len(rows) * n_systems, alphabet, rng)
            raters[units % n_systems, rows[units // n_systems]] = slots
    return raters


def _entropy_pool(ds: RatingDataset, ratings_per_item: int) -> list[tuple[int, ...]]:
    """Workload alphabet over the whole dataset: single raters, or rater pairs
    when double-rated (entropy is then computed over pair workloads)."""
    if ratings_per_item == 1:
        return [(r,) for r in range(len(ds.rater_axis))]
    symbols = set()
    for b in range(len(ds.bucket_axis)):
        symbols.update(_bucket_alphabet(ds, b, ratings_per_item))
    return sorted(symbols)


# The attempts an entropy-targeted plan makes before it gives up.
_MAX_ATTEMPTS = 1000


def _entropy_targeted_raters(
    ds: RatingDataset,
    docs: np.ndarray,
    grouping: Grouping,
    balancing: LoadBalancing,
    ratings_per_item: int,
    rng,
) -> np.ndarray:
    """Entropy-targeted ``raters[system, study doc, slot]``.

    Each attempt starts from a uniform-random eligible assignment, then visits
    the units once in random order, greedily re-assigning each to the eligible
    rater that brings the overall normalized workload entropy closest to the
    target (random tie-break).  The attempt is accepted iff the final entropy
    is within the tolerance of the target; otherwise both the initial
    assignment and the visit order are resampled.  The unit is a document
    under pSxS and a (doc, system) item without grouping.
    """
    target, tolerance = balancing.target, balancing.tolerance
    symbols = _entropy_pool(ds, ratings_per_item)
    pool_size = len(symbols)
    if pool_size < 2:  # the entropy is normalized by log(pool_size)
        raise TargetUnreachable(
            f"entropy target {target} needs a pool of at least 2 raters; the pool has {pool_size}"
        )
    symbol_pos = {s: i for i, s in enumerate(symbols)}
    psxs = grouping is Grouping.PSXS
    n_systems = len(ds.system_axis)
    weight = n_systems if psxs else 1  # items per unit
    # The study's buckets, each study document's index into them, and their sizes.
    buckets, study_bucket, bucket_docs = np.unique(
        ds.doc_bucket[docs], return_inverse=True, return_counts=True
    )
    alphabets = [tuple(_bucket_alphabet(ds, b, ratings_per_item)) for b in buckets.tolist()]
    candidates = [[symbol_pos[a] for a in alphabet] for alphabet in alphabets]
    # Per unit: the symbol indices of its bucket's alphabet.
    eligible = [candidates[b] for b in np.repeat(study_bucket, 1 if psxs else n_systems).tolist()]
    n_units = len(eligible)
    sizes = np.array([len(c) for c in eligible], dtype=np.int64)

    log_pool = float(np.log(pool_size))
    # c log c of a symbol's item count c, by its unit count n (c = n * weight).
    xlogx = [0.0] + [c * math.log(c) for c in (float(n * weight) for n in range(1, n_units + 1))]
    # The total never changes, so a candidate's entropy is
    # (log T - S / T) / log(pool) with S = sum of c log c, in which moving
    # one unit changes only the two counts it leaves and joins.
    total = float(n_units * weight)
    log_total = math.log(total)
    for attempt in range(_MAX_ATTEMPTS):
        # One bounded draw per unit, as ``rng.integers(len(candidates))`` in a loop.
        picks = [c[k] for c, k in zip(eligible, rng.integers(0, sizes).tolist())]
        units = np.bincount(picks, minlength=pool_size).tolist()
        s = sum(xlogx[n] for n in units)
        for u in rng.permutation(n_units).tolist():
            old = units[picks[u]]
            s += xlogx[old - 1] - xlogx[old]
            units[picks[u]] = old - 1
            choices = eligible[u]
            gaps = [
                abs((log_total - (s - xlogx[units[c]] + xlogx[units[c] + 1]) / total) / log_pool
                    - target)
                for c in choices
            ]
            least = min(gaps) + 1e-12
            best = [k for k, gap in enumerate(gaps) if gap <= least]
            # ``integers(1)`` draws nothing, so a lone best candidate needs no draw.
            picks[u] = choices[best[rng.integers(len(best))] if len(best) > 1 else best[0]]
            new = units[picks[u]]
            s += xlogx[new + 1] - xlogx[new]
            units[picks[u]] = new + 1
        if abs(normalized_entropy(units, pool_size) - target) <= tolerance:
            rows = np.array(symbols)[picks]  # each unit's raters
            if psxs:
                return np.repeat(rows[None], n_systems, axis=0)
            # Unit u is system u % n_systems of study doc u // n_systems.
            return rows.reshape(len(docs), n_systems, -1).transpose(1, 0, 2).copy()
        # No attempt can end below the layout's least entropy (less a float
        # margin), so a target below it fails now rather than after every attempt.
        if attempt == 0:
            least = _least_entropy(tuple(zip(bucket_docs.tolist(), alphabets)), pool_size)
            if target + tolerance < least - 1e-9:
                raise TargetUnreachable(
                    f"no assignment within {tolerance} of entropy target {target}: "
                    f"the study's buckets allow no workload entropy below {least:.4f}"
                )
    raise TargetUnreachable(
        f"no assignment within {tolerance} of entropy target {target} "
        f"after {_MAX_ATTEMPTS} attempts"
    )


# The most per-bucket symbol choices ``_least_entropy`` brute-forces.  The
# brute force costs ~10 us a choice: 3**8 take 0.06 s, 3**12 take 5.3 s
# (2-core Xeon host, CPython 3.11).
_LEAST_ENTROPY_CHOICES = 3**8


@functools.lru_cache(maxsize=256)
def _least_entropy(layout: tuple[tuple[int, tuple], ...], pool_size: int) -> float:
    """``min_instantiable_entropy`` of ((unit count, alphabet), ...) per bucket,
    or the trivial bound 0 where the brute force would try more than
    ``_LEAST_ENTROPY_CHOICES`` choices (3**b for b three-rater buckets)."""
    counts, alphabets = zip(*layout)
    if math.prod(len(alphabet) for alphabet in alphabets) > _LEAST_ENTROPY_CHOICES:
        return 0.0
    return min_instantiable_entropy(counts, alphabets, pool_size)


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
    docs: Sequence[int],
    grouping: Grouping,
    balancing: LoadBalancing,
    ratings_per_item: int,
    rng,
) -> AssignmentPlan:
    """Assign raters to the documents at the ascending ``doc_axis`` positions
    ``docs`` by the procedure that (grouping, balancing) names, and check the
    plan.  System-balanced grouping is defined only with full balancing."""
    docs = np.asarray(docs, dtype=np.intp)
    if balancing.target is None:
        raters = _balanced_raters(ds, docs, grouping, ratings_per_item, rng)
    elif grouping is Grouping.SYSTEM_BALANCED:
        raise ValueError("system-balanced grouping is only defined with full balancing")
    else:
        raters = _entropy_targeted_raters(ds, docs, grouping, balancing, ratings_per_item, rng)
    plan = AssignmentPlan(docs, raters, grouping)
    plan.validate(ds)
    return plan
