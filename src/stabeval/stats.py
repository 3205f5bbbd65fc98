"""Statistical primitives: grouped permutation test, significance matrices,
significant-ranking-preservation, workload entropy, and rater agreement."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .corpus import RatingDataset
from .errors import (
    EmptyWorkload,
    MismatchedDocuments,
    NoAdmissiblePairs,
    SystemSetMismatch,
    UnknownRater,
)
from .scoring import ScoredStudy, ordered_sums

_REL_TOL = 1e-12
# float64 cells of a block of sign rows and their statistics, and multiply-adds
# of one product: OpenBLAS runs a GEMM of at most 65,536 x 4 on one thread.
_SIGN_CELLS = 1 << 18


@dataclass
class SignificanceMatrix:
    """Pairwise comparison result for one study.

    ``better[i][j]``, derived from ``means``, means system i has a strictly
    lower (better) mean than j; ``sig[i][j]`` additionally requires the
    permutation test to reach alpha.
    """

    systems: tuple[str, ...]
    means: np.ndarray
    sig: np.ndarray
    doc_set: Optional[tuple] = None  # a fixed document set; ``same_documents`` groups by it

    def __post_init__(self):
        n = len(self.systems)
        assert self.means.shape == (n,) and self.sig.shape == (n, n)

    @property
    def better(self) -> np.ndarray:
        return self.means[:, None] < self.means[None, :]


def _sign_flip_p(doc_diffs: np.ndarray, n_segments: int, n_perm: int, rng) -> float:
    """Monte Carlo p-value for the grouped permutation test.

    Because both systems share the same documents and per-document segment
    counts, swapping one document's labels flips the sign of that document's
    score-sum difference, so the test reduces to random sign flips.
    """
    observed = abs(float(doc_diffs.sum())) / n_segments
    signs = rng.integers(0, 2, size=(n_perm, len(doc_diffs))) * 2 - 1
    stats = np.abs(signs @ doc_diffs) / n_segments
    hits = int(np.sum(stats >= observed - _REL_TOL * (1.0 + observed)))
    return (1 + hits) / (1 + n_perm)


def permutation_test(
    scores_a: Mapping[str, Sequence[float]],
    scores_b: Mapping[str, Sequence[float]],
    n_perm: int,
    rng,
) -> float:
    """Two-sided grouped permutation test on per-document segment scores.

    The statistic is |mean(a) - mean(b)| over segments; each permutation
    independently swaps all of a document's segment labels between the two
    systems with probability 1/2.  The p-value uses the add-one estimator
    (1 + hits) / (1 + n_perm).
    """
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    if set(scores_a) != set(scores_b):
        raise MismatchedDocuments("document sets differ between the two systems")
    docs = sorted(scores_a)
    diffs = np.empty(len(docs))
    n_segments = 0
    for i, doc in enumerate(docs):
        a = np.asarray(scores_a[doc], dtype=np.float64)
        b = np.asarray(scores_b[doc], dtype=np.float64)
        if len(a) != len(b):
            raise MismatchedDocuments(f"segment counts differ for document {doc}")
        diffs[i] = a.sum() - b.sum()
        n_segments += len(a)
    if n_segments == 0:
        raise MismatchedDocuments("no segments to test")
    return _sign_flip_p(diffs, n_segments, n_perm, rng)


def significance_matrix(
    study: ScoredStudy, alpha: float, n_perm: int, rng, doc_set: Optional[tuple] = None
) -> SignificanceMatrix:
    """Run the grouped permutation test for every system pair of a study.

    All pairs test the same documents and |S (s_i - s_j)| = |S s_i - S s_j|,
    so one sign matrix S (n_perm x n_docs) serves every pair: each pair's
    test keeps its exact distribution, and only the Monte Carlo errors of
    pairs within the study are correlated (Westfall and Young, 1993).  S holds
    the bits b of one ``rng.integers(0, 2, (n_perm, n_docs), dtype=np.int32)``
    draw, used as ``1 - 2*b`` against the negated pair differences; for 2
    systems that is ``_sign_flip_p``'s draw and statistic.  S is drawn in
    blocks of at most ``_SIGN_CELLS`` float64 cells (n_docs + n_pairs per row),
    which continue one draw's stream; row slices of at most ``_SIGN_CELLS``
    multiply-adds keep each product on the calling thread (or one row each).
    """
    n_sys = len(study.systems)
    if n_sys < 2:
        raise NoAdmissiblePairs(f"need at least 2 systems to rank, the study has {n_sys}")
    n_docs = study.scores.shape[1]
    sums, counts = ordered_sums(study.effective_scores(), axis=2)
    # Every system must cover the first one's segments; the first that does
    # not is the first mismatched pair in (i, j) order.
    mismatched = np.flatnonzero((counts[1:] != counts[0]).any(axis=1))
    if len(mismatched):
        raise MismatchedDocuments(
            f"systems {study.systems[0]} and {study.systems[1 + mismatched[0]]} "
            "cover different segments"
        )
    totals = counts.sum(axis=1)
    means = sums.sum(axis=1) / totals
    total = totals[0]  # every system covers the same segments

    first, second = np.triu_indices(n_sys, 1)
    neg_diffs = sums[second] - sums[first]
    observed = np.abs(neg_diffs.sum(axis=1)) / total
    threshold = observed - _REL_TOL * (1.0 + observed)
    hits = np.zeros(len(first), dtype=np.intp)
    rows = max(1, _SIGN_CELLS // (n_docs + len(first)))
    step = max(1, _SIGN_CELLS // (n_docs * len(first)))
    diffs_t = np.ascontiguousarray(neg_diffs.T)  # sliced products run slower on a transposed view
    for at in range(0, n_perm, rows):
        size = (min(rows, n_perm - at), n_docs)
        flipped = 1 - 2 * rng.integers(0, 2, size=size, dtype=np.int32).astype(np.float64)
        stats = np.empty((size[0], len(first)))
        for a in range(0, size[0], step):
            np.matmul(flipped[a:a + step], diffs_t, out=stats[a:a + step])
        np.divide(np.abs(stats, out=stats), total, out=stats)
        hits += np.count_nonzero(stats >= threshold, axis=0)
        del flipped, stats  # free this block before the next one is drawn
    reached = (1 + hits) / (1 + n_perm) <= alpha
    sig = np.zeros((n_sys, n_sys), dtype=bool)
    sig[first, second] = reached & (means[first] < means[second])
    sig[second, first] = reached & (means[second] < means[first])
    return SignificanceMatrix(study.systems, means, sig, doc_set)


def _check_systems(studies: Sequence[SignificanceMatrix]) -> None:
    """Every study must rank the first one's systems in its order, as every
    study of a sweep ranks the dataset's ``system_axis``."""
    for i, m in enumerate(studies):
        if m.systems != studies[0].systems:
            raise SystemSetMismatch(f"study {i} ranks {m.systems}, study 0 {studies[0].systems}")


def sr(e1: SignificanceMatrix, e2: SignificanceMatrix) -> int:
    """1 iff every significant pair of e1 is directionally preserved in e2.

    Vacuously 1 when e1 has no significant pairs.
    """
    _check_systems((e1, e2))
    return 0 if np.any(e1.sig & ~e2.better) else 1


def srp(
    studies: Sequence[SignificanceMatrix],
    pair_filter: Optional[Callable[[SignificanceMatrix, SignificanceMatrix], bool]] = None,
) -> tuple[float, int]:
    """Mean of sr over admissible ordered study pairs; returns (value, n_pairs).

    Every ordered pair of distinct studies is admissible; ``pair_filter`` may
    be ``same_documents``, which admits only pairs that share a document set.
    All studies must rank the same systems in the same order.  One boolean
    product gives the whole grid of sr values: sr(e1, e2) is 0 iff some
    significant pair of e1 is not ``better`` in e2.  ``srp_pairs`` is the
    pair-loop reference.
    """
    _check_systems(studies)
    if len(studies) < 2:
        raise NoAdmissiblePairs("need at least 2 studies")
    if pair_filter not in (None, same_documents):
        raise ValueError("srp filters pairs only by same_documents")
    sig = np.stack([m.sig.ravel() for m in studies])
    broken = np.stack([~m.better.ravel() for m in studies])
    admitted = ~np.eye(len(studies), dtype=bool)
    if pair_filter is same_documents:
        groups: dict[tuple, int] = {}
        group = np.array(
            [-1 if m.doc_set is None else groups.setdefault(m.doc_set, len(groups)) for m in studies]
        )
        admitted &= (group[:, None] == group) & (group[:, None] >= 0)
    n_pairs = int(admitted.sum())
    if n_pairs == 0:
        raise NoAdmissiblePairs("no ordered study pair passes the filter")
    violated = sig @ broken.T
    return int((admitted & ~violated).sum()) / n_pairs, n_pairs


def srp_pairs(
    studies: Sequence[SignificanceMatrix],
    pair_filter: Optional[Callable[[SignificanceMatrix, SignificanceMatrix], bool]] = None,
) -> tuple[float, int]:
    """Reference for ``srp``: the mean of ``sr`` over a loop of ordered pairs."""
    _check_systems(studies)
    if len(studies) < 2:
        raise NoAdmissiblePairs("need at least 2 studies")
    total = 0
    n_pairs = 0
    for i, e1 in enumerate(studies):
        for j, e2 in enumerate(studies):
            if i == j:
                continue
            if pair_filter is not None and not pair_filter(e1, e2):
                continue
            total += sr(e1, e2)
            n_pairs += 1
    if n_pairs == 0:
        raise NoAdmissiblePairs("no ordered study pair passes the filter")
    return total / n_pairs, n_pairs


def same_documents(e1: SignificanceMatrix, e2: SignificanceMatrix) -> bool:
    return e1.doc_set is not None and e1.doc_set == e2.doc_set


def normalized_entropy(workload: Sequence[float], pool_size: int) -> float:
    """Entropy of the workload counts over the full rater pool, normalized by
    log(pool_size); zero-count raters contribute 0."""
    if pool_size < 2:
        raise ValueError("pool_size must be >= 2")
    counts = np.asarray(workload, dtype=np.float64)
    if (counts < 0).any():
        raise EmptyWorkload("negative workload count")
    total = counts.sum()
    if total <= 0:
        raise EmptyWorkload("total workload is zero")
    p = counts[counts > 0] / total
    value = float(-(p * np.log(p)).sum() / np.log(pool_size))
    return min(max(value, 0.0), 1.0)


def _tau_b(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kendall's tau-b (Kendall 1945) between ``x`` and ``y`` along axis 0,
    one value per index of the remaining axes.

    From the signs of all n(n-1)/2 pairs: with ``cmd`` the sum of the products
    of the x and y signs and ``xtie``/``ytie`` the pairs tied in x/y, tau-b is
    ``cmd / sqrt(tot - xtie) / sqrt(tot - ytie)`` clipped to [-1, 1].  That is
    ``scipy.stats.kendalltau``'s expression over the same integers, so the
    value is its ``statistic`` to the bit, NaN included: for a NaN in x or y,
    fewer than two values, or all-tied x or y.
    """
    i, j = np.triu_indices(len(x), 1)
    sx = (x[i] < x[j]).astype(np.int64) - (x[i] > x[j])
    sy = (y[i] < y[j]).astype(np.int64) - (y[i] > y[j])
    cmd = (sx * sy).sum(axis=0)
    tot = len(i)
    xtie = tot - np.count_nonzero(sx, axis=0)
    ytie = tot - np.count_nonzero(sy, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.minimum(1.0, np.maximum(-1.0, cmd / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)))
    undefined = np.isnan(x).any(axis=0) | np.isnan(y).any(axis=0) | (xtie == tot) | (ytie == tot)
    return np.where(undefined, np.nan, tau)


def kendall_tau(means1: Mapping[str, float], means2: Mapping[str, float]) -> float:
    """Kendall's tau-b between two system score maps (ascending rankings)."""
    if set(means1) != set(means2):
        raise SystemSetMismatch("system sets differ")
    if len(means1) < 2:
        raise ValueError("need at least 2 systems")
    systems = sorted(means1)
    x = np.array([means1[s] for s in systems], dtype=np.float64)
    y = np.array([means2[s] for s in systems], dtype=np.float64)
    return float(_tau_b(x, y))


@dataclass
class AgreementReport:
    """Per rater pair, and as grand means over the pairs with a defined tau:
    (single-document tau, all-shared tau)."""

    per_pair: dict[tuple[str, str], tuple[float, float]]
    grand_mean: tuple[float, float]
    skipped_pairs: list[tuple[str, str]] = field(default_factory=list)


def _defined_mean(values) -> float:
    """The mean of the non-NaN values; NaN if there are none."""
    values = np.asarray(values, dtype=np.float64)
    values = values[~np.isnan(values)]
    return float(values.mean()) if len(values) else float("nan")


def rater_agreement(ds: RatingDataset) -> AgreementReport:
    """Kendall's tau between rater pairs' system rankings, at two granularities.

    ``single_document``: the mean over shared documents of per-document tau.
    ``all_shared``: one tau from system means pooled over all shared documents.
    Pairs without a shared document are skipped.
    """
    # Per-(system, doc, rater) score sums, accumulated in segment order.
    sums, counts = ordered_sums(ds.scores, axis=2)
    per_pair: dict[tuple[str, str], tuple[float, float]] = {}
    skipped: list[tuple[str, str]] = []
    for r1, r2 in itertools.combinations(range(len(ds.rater_axis)), 2):
        ids = (ds.rater_axis[r1], ds.rater_axis[r2])
        docs = np.flatnonzero(ds.eligible[:, r1] & ds.eligible[:, r2])
        if not len(docs):
            skipped.append(ids)
            continue
        pair_sums, pair_counts = sums[:, docs][..., [r1, r2]], counts[:, docs][..., [r1, r2]]
        # One tau per document, averaged in document order.
        means = pair_sums / pair_counts
        single = _defined_mean(_tau_b(means[..., 0], means[..., 1]))
        # System means pooled over the shared documents, added in document order.
        pooled = ordered_sums(pair_sums, axis=1)[0] / pair_counts.sum(axis=1)
        per_pair[ids] = single, float(_tau_b(pooled[:, 0], pooled[:, 1]))
    taus = np.array(list(per_pair.values())).reshape(-1, 2)
    grand = _defined_mean(taus[:, 0]), _defined_mean(taus[:, 1])
    return AgreementReport(per_pair, grand, skipped)


@dataclass
class ScoreHistogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    mean: float
    median: float
    n: int


def rater_distribution(
    ds: RatingDataset, rater_id: str, bin_edges: Sequence[float]
) -> ScoreHistogram:
    """Histogram of one rater's segment-level scores."""
    if rater_id not in ds.rater_pos:
        raise UnknownRater(f"unknown rater {rater_id!r}")
    # (doc, seg, system) order is rating order, so the mean sums the rater's
    # scores in the order ``export_tsv`` lists them.
    scores = ds.scores[..., ds.rater_pos[rater_id]].transpose(1, 2, 0).ravel()
    scores = scores[~np.isnan(scores)]
    edges = np.asarray(bin_edges, dtype=np.float64)
    counts, edges = np.histogram(scores, bins=edges)
    return ScoreHistogram(edges, counts, float(scores.mean()), float(np.median(scores)), len(scores))
