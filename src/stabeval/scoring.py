"""Error-annotation scoring, system-mean aggregation, and rater normalization.

Scores are weighted error sums (lower is better).  The weight table maps
(severity, category-prefix) pairs to weights with longest-prefix matching;
the paper's exact weights are not published, so the table is fully
configurable with the de-facto MQM convention as default.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .corpus import ErrorAnnotation, Severity, read_section
from .errors import ConfigError, DegenerateRater, MissingErrorCounts

WILDCARD_SEVERITY = "*"


class NormalizationScheme(str, Enum):
    UNNORMALIZED = "unnormalized"
    MEAN = "mean"
    ERROR = "error"
    ZSCORE = "zscore"


@dataclass(frozen=True)
class WeightTable:
    """Maps (severity, category-prefix) to a non-negative weight.

    Lookup picks the entry with the longest matching category prefix among
    entries whose severity matches (exact severity beats the wildcard on
    equal prefix length).  The empty prefix acts as the severity default.
    """

    entries: tuple[tuple[str, str, float], ...]  # (severity, prefix, weight)

    def __post_init__(self):
        severities = {s.value for s in Severity} | {WILDCARD_SEVERITY}
        defaults = set()
        for severity, prefix, weight in self.entries:
            if severity not in severities:
                raise ConfigError(f"invalid severity in weight table: {severity!r}")
            if not np.isfinite(weight):
                raise ConfigError(f"non-finite weight {weight} for {severity}:{prefix}")
            if weight < 0:
                raise ConfigError(f"negative weight for {severity}:{prefix}")
            if prefix == "" and severity != WILDCARD_SEVERITY:
                defaults.add(severity)
        for severity in Severity:
            if severity.value not in defaults and not any(
                s == WILDCARD_SEVERITY and p == "" for s, p, _ in self.entries
            ):
                raise ConfigError(f"weight table lacks a default for severity {severity.value}")

    @classmethod
    def default(cls) -> "WeightTable":
        return cls(
            (
                ("Major", "", 5.0),
                ("Minor", "", 1.0),
                ("Minor", "Fluency/Punctuation", 0.1),
                (WILDCARD_SEVERITY, "Non-translation", 25.0),
            )
        )

    @classmethod
    def from_file(cls, path) -> "WeightTable":
        # Keys are case-sensitive 'severity:prefix' pairs, so only '=' ends a key.
        values, _ = read_section(path, "weights", case_sensitive=True, delimiters=("=",))
        entries = []
        for key, value in values.items():
            severity, _, prefix = key.partition(":")
            severity = severity.strip()
            try:
                weight = float(value)
            except ValueError:
                raise ConfigError(f"invalid weight for {key!r}: {value!r}") from None
            entries.append((severity, prefix.strip(), weight))
        return cls(tuple(entries))

    def lookup(self, severity: Severity, category: str) -> float:
        best = None  # (prefix_len, exact_severity, weight)
        for entry_severity, prefix, weight in self.entries:
            if entry_severity != WILDCARD_SEVERITY and entry_severity != severity.value:
                continue
            if prefix and not (category == prefix or category.startswith(prefix + "/")):
                continue
            key = (len(prefix), entry_severity != WILDCARD_SEVERITY)
            if best is None or key > best[0]:
                best = (key, weight)
        if best is None:
            raise ConfigError(f"no weight for severity={severity.value} category={category!r}")
        return best[1]


def segment_score(annotations: Iterable[ErrorAnnotation], weights: WeightTable) -> float:
    """Weighted sum of error annotations, added left to right as ingest adds
    them (``sum`` compensates on Python 3.12+); 0 for an empty list."""
    total = 0.0
    for a in annotations:
        total += weights.lookup(a.severity, a.category)
    return total


def ordered_sums(scores: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums and counts of the non-NaN cells of ``scores`` along ``axis``.

    Adds one index of ``axis`` at a time, from 0 up, as a bincount over the
    cells in C order would.  A numpy reduction over a contiguous axis adds
    pairwise instead, which changes the bits of the sums.
    """
    rated = ~np.isnan(scores)
    sums = np.zeros(scores.shape[:axis] + scores.shape[axis + 1 :])
    for values, present in zip(np.moveaxis(scores, axis, 0), np.moveaxis(rated, axis, 0)):
        sums += np.where(present, values, 0.0)
    return sums, rated.sum(axis=axis)


class ScoredStudy:
    """The ratings of one (simulated) study, by rater slot.

    ``scores`` and ``n_errors`` are (system, doc, seg, slot) arrays over the
    study's systems and documents.  ``slots[s, d, k]`` is the position in
    ``raters`` of the rater in slot k of system s's output of document d;
    each item's raters ascend along its slots.  NaN marks a cell without a
    rating (in a selected study, only segments past a document's end), and
    ``rated`` marks the cells with one.  Ratings are ordered as those cells
    in C order, which with ascending slots is (system, doc, seg, rater)
    order.  Error counts are NaN where the underlying data is score-only.
    """

    def __init__(self, systems, raters, scores, n_errors, slots):
        self.systems = tuple(systems)
        self.raters = tuple(raters)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.n_errors = np.asarray(n_errors, dtype=np.float64)
        self.slots = np.asarray(slots, dtype=np.intp)
        shape = self.scores.shape
        if (
            len(shape) != 4
            or shape != self.n_errors.shape
            or self.slots.shape != shape[:2] + shape[3:]
            or shape[0] != len(self.systems)
        ):
            raise ValueError(
                f"study arrays of shape {shape} and slots of shape {self.slots.shape} "
                f"do not fit its {len(self.systems)} systems"
            )
        self.rated = ~np.isnan(self.scores)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.rated))

    @property
    def study_mean(self) -> float:
        return float(self.scores[self.rated].mean())

    def per_cell(self, per_rater: np.ndarray) -> np.ndarray:
        """A per-rater array read at each slot's rater, shaped to broadcast
        against ``scores``."""
        return per_rater[self.slots][:, :, None, :]

    def rater_sums(self, *values: np.ndarray) -> list[np.ndarray]:
        """The per-rater rating counts, then the per-rater sums of each
        per-rating array in ``values``, added in rating order."""
        n = len(self.raters)
        rater = np.broadcast_to(self.slots[:, :, None, :], self.scores.shape)[self.rated]
        return [np.bincount(rater, minlength=n)] + [
            np.bincount(rater, weights=v, minlength=n) for v in values
        ]

    def rater_means(self) -> np.ndarray:
        counts, sums = self.rater_sums(self.scores[self.rated])
        return sums / counts

    def with_scores(self, scores: np.ndarray) -> "ScoredStudy":
        """The same study with ``scores``, which are NaN exactly where this one's are."""
        study = copy.copy(self)
        study.scores = scores
        return study

    def effective_scores(self) -> np.ndarray:
        """The (system, doc, seg) mean of each cell's ratings over the slot
        axis, added in slot (so rater) order; NaN where the cell has none."""
        sums, counts = ordered_sums(self.scores, axis=3)
        with np.errstate(invalid="ignore"):
            return sums / counts


def system_means(study: ScoredStudy) -> dict[str, float]:
    """Mean effective segment score per system; ranking is ascending.

    Segments add up per document in order, and documents pairwise, so these
    are the means ``significance_matrix`` ranks by.
    """
    sums, counts = ordered_sums(study.effective_scores(), axis=2)
    means = sums.sum(axis=1) / counts.sum(axis=1)
    return {s: float(means[i]) for i, s in enumerate(study.systems)}


def normalize(study: ScoredStudy, scheme: NormalizationScheme) -> ScoredStudy:
    """Apply a rater-wise normalization; rater-item assignments are untouched."""
    if scheme is NormalizationScheme.UNNORMALIZED:
        return study
    values = study.scores[study.rated]
    if scheme is NormalizationScheme.ZSCORE:
        counts, sums = study.rater_sums(values)
        centred = study.scores - study.per_cell(sums / counts)
        # Sample (n-1) standard deviation per rater from the centred ratings (two
        # passes keep scores far from 0 precise); 0 where undefined.
        squares = study.rater_sums(centred[study.rated] ** 2)[1]
        var = np.zeros(len(study.raters))
        multi = counts > 1
        var[multi] = squares[multi] / (counts[multi] - 1)
        stds = np.sqrt(var)
        # A constant rater's ratings map to 0; cells without a rating stay NaN.
        scaled = np.where(study.rated, 0.0, np.nan)
        np.divide(centred, study.per_cell(stds), out=scaled, where=study.per_cell(stds > 0))
        return study.with_scores(scaled)

    # Mean and Error schemes are multiplicative.  A rater mean tiny beside the
    # study mean overflows the rater's factor or ratings, which the check
    # after them finds, so numpy need not warn.
    counts, sums, errors = study.rater_sums(values, study.n_errors[study.rated])
    means = sums / counts
    zero = means == 0
    if zero.any():
        bad = [study.raters[i] for i in np.flatnonzero(zero)]
        raise DegenerateRater(
            f"rater mean score is 0 for {bad}; multiplicative normalization undefined"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        scores = study.scores * study.per_cell(values.mean() / means)
        if scheme is NormalizationScheme.ERROR:
            # Scale rater r by c*E_r so the study-wide mean is preserved.  E_r is the
            # rater's severity-ignored error count, NaN if any rating lacks one.
            if np.isnan(errors).any():
                raise MissingErrorCounts("error-normalization requires annotation-backed ratings")
            denom = float(np.sum(counts * errors))
            if denom == 0:
                raise DegenerateRater("no errors identified by any rater; error scheme undefined")
            c = len(values) / denom
            scores = scores * study.per_cell(c * errors)
    if np.count_nonzero(np.isfinite(scores)) != len(values):
        broken = study.rater_sums(~np.isfinite(scores[study.rated]))[1]
        bad = [study.raters[i] for i in np.flatnonzero(broken)]
        raise DegenerateRater(
            f"normalized ratings are not finite for {bad}: their mean score is too small "
            "beside the study mean"
        )
    return study.with_scores(scores)
