"""Error-annotation scoring, system-mean aggregation, and rater normalization.

Scores are weighted error sums (lower is better).  The weight table maps
(severity, category-prefix) pairs to weights with longest-prefix matching;
the paper's exact weights are not published, so the table is fully
configurable with the de-facto MQM convention as default.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .corpus import ErrorAnnotation, Severity, read_config
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
        sections = read_config(path, case_sensitive=True, delimiters=("=",))
        entries = []
        for key, value in sections.get("weights", sections["DEFAULT"]).items():
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


class ScoredStudy:
    """Per-rating scores for one (simulated) study, stored as parallel arrays.

    One entry per (doc, seg, system, rater) rating included in the study.
    Error counts are NaN where the underlying data is score-only.
    """

    def __init__(self, systems, raters, docs, sys_ix, rater_ix, doc_ix, seg_ix, scores, n_errors):
        self.systems = tuple(systems)
        self.raters = tuple(raters)
        self.docs = tuple(docs)
        self.sys_ix = np.asarray(sys_ix, dtype=np.intp)
        self.rater_ix = np.asarray(rater_ix, dtype=np.intp)
        self.doc_ix = np.asarray(doc_ix, dtype=np.intp)
        self.seg_ix = np.asarray(seg_ix, dtype=np.intp)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.n_errors = np.asarray(n_errors, dtype=np.float64)
        if not (
            len(self.sys_ix)
            == len(self.rater_ix)
            == len(self.doc_ix)
            == len(self.seg_ix)
            == len(self.scores)
            == len(self.n_errors)
        ):
            raise ValueError("ragged study arrays")

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def study_mean(self) -> float:
        return float(self.scores.mean())

    def rater_counts(self) -> np.ndarray:
        return np.bincount(self.rater_ix, minlength=len(self.raters))

    def rater_means(self) -> np.ndarray:
        counts = self.rater_counts()
        sums = np.bincount(self.rater_ix, weights=self.scores, minlength=len(self.raters))
        return sums / counts

    def rater_stds(self) -> np.ndarray:
        """Sample (n-1) standard deviation per rater; 0 where undefined."""
        counts = self.rater_counts()
        means = self.rater_means()
        sq = np.bincount(self.rater_ix, weights=self.scores**2, minlength=len(self.raters))
        var = np.zeros(len(self.raters))
        multi = counts > 1
        var[multi] = (sq[multi] - counts[multi] * means[multi] ** 2) / (counts[multi] - 1)
        return np.sqrt(np.maximum(var, 0.0))

    def rater_error_totals(self) -> np.ndarray:
        """Severity-ignored error counts per rater (NaN if any entry lacks counts)."""
        totals = np.bincount(self.rater_ix, weights=self.n_errors, minlength=len(self.raters))
        return totals

    def with_scores(self, scores: np.ndarray) -> "ScoredStudy":
        return ScoredStudy(
            self.systems,
            self.raters,
            self.docs,
            self.sys_ix,
            self.rater_ix,
            self.doc_ix,
            self.seg_ix,
            scores,
            self.n_errors,
        )

    def effective_scores(self):
        """Collapse duplicate ratings of a (doc, seg, system) by averaging.

        Returns (sys_ix, doc_ix, seg_ix, score) arrays with one entry per
        distinct (doc, seg, system).
        """
        n_docs = len(self.docs)
        max_seg = int(self.seg_ix.max()) + 1 if len(self.seg_ix) else 1
        key = (self.sys_ix * n_docs + self.doc_ix) * max_seg + self.seg_ix
        uniq, inverse = np.unique(key, return_inverse=True)
        sums = np.bincount(inverse, weights=self.scores)
        counts = np.bincount(inverse)
        eff = sums / counts
        eff_sys = uniq // (n_docs * max_seg)
        eff_doc = (uniq // max_seg) % n_docs
        eff_seg = uniq % max_seg
        return eff_sys, eff_doc, eff_seg, eff


def system_means(study: ScoredStudy) -> dict[str, float]:
    """Mean effective segment score per system; ranking is ascending."""
    eff_sys, _, _, eff = study.effective_scores()
    sums = np.bincount(eff_sys, weights=eff, minlength=len(study.systems))
    counts = np.bincount(eff_sys, minlength=len(study.systems))
    return {s: float(sums[i] / counts[i]) for i, s in enumerate(study.systems)}


def normalize(study: ScoredStudy, scheme: NormalizationScheme) -> ScoredStudy:
    """Apply a rater-wise normalization; rater-item assignments are untouched."""
    if scheme is NormalizationScheme.UNNORMALIZED:
        return study
    means = study.rater_means()
    if scheme is NormalizationScheme.ZSCORE:
        stds = study.rater_stds()
        centered = study.scores - means[study.rater_ix]
        safe = np.where(stds > 0, stds, 1.0)
        scaled = np.where(stds[study.rater_ix] > 0, centered / safe[study.rater_ix], 0.0)
        return study.with_scores(scaled)

    # Mean and Error schemes are multiplicative.
    zero = means == 0
    if zero.any():
        bad = [study.raters[i] for i in np.nonzero(zero)[0]]
        raise DegenerateRater(
            f"rater mean score is 0 for {bad}; multiplicative normalization undefined"
        )
    scores = study.scores * (study.study_mean / means)[study.rater_ix]
    if scheme is NormalizationScheme.MEAN:
        return study.with_scores(scores)

    # Error scheme: scale rater r by c*E_r so the study-wide mean is preserved.
    errors = study.rater_error_totals()
    if np.isnan(errors).any():
        raise MissingErrorCounts("error-normalization requires annotation-backed ratings")
    counts = study.rater_counts()
    denom = float(np.sum(counts * errors))
    if denom == 0:
        raise DegenerateRater("no errors identified by any rater; error scheme undefined")
    c = len(study) / denom
    return study.with_scores(scores * (c * errors)[study.rater_ix])
