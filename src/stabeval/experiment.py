"""Monte Carlo orchestration: simulate studies under a methodology config,
sweep stability over document counts, and generate synthetic datasets."""

from __future__ import annotations

import contextlib
import csv
import io
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .assignment import (
    AssignmentPlan,
    Grouping,
    LoadBalancing,
    build_plan,
    subsample_documents,
)
from .corpus import Annotations, RatingDataset, _factorize, read_config, read_section
from .errors import ConfigError, InvalidSpec
from .scoring import NormalizationScheme, ScoredStudy, normalize
from .stats import SignificanceMatrix, same_documents, significance_matrix, srp

DEFAULT_DOC_GRID = (10, 20, 40, 60, 90, 120, 150, 181)


class Resampling:
    PER_STUDY = "per_study"
    PER_50 = "per_50"


@dataclass(frozen=True)
class StudyConfig:
    """One evaluation methodology plus simulation sizes and seed."""

    n_documents: int = 1
    grouping: Grouping = Grouping.PSXS
    balancing: LoadBalancing = LoadBalancing()
    normalization: NormalizationScheme = NormalizationScheme.UNNORMALIZED
    ratings_per_item: int = 1
    doc_resampling: str = Resampling.PER_50
    n_simulations: int = 250
    n_permutations: int = 500
    alpha: float = 0.05
    master_seed: int = 0
    label: str = ""

    def __post_init__(self):
        if self.n_documents < 1:
            raise ConfigError("n_documents must be >= 1")
        if self.n_simulations < 2:
            raise ConfigError("n_simulations must be >= 2")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError("alpha must be in (0, 1)")
        if self.ratings_per_item not in (1, 2):
            raise ConfigError("ratings_per_item must be 1 or 2")
        if self.doc_resampling not in (Resampling.PER_STUDY, Resampling.PER_50):
            raise ConfigError(f"unknown doc_resampling {self.doc_resampling!r}")
        if self.n_permutations < 1:
            raise ConfigError("n_permutations must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.master_seed}")
        if 1.0 / (1 + self.n_permutations) > self.alpha:
            # The smallest attainable p-value is 1 / (1 + n_permutations): no pair
            # could ever be significant, so SRP would be vacuously 1.
            raise ConfigError(
                f"n_permutations={self.n_permutations} can never reach alpha={self.alpha:g}"
            )
        if self.grouping is Grouping.SYSTEM_BALANCED and self.balancing.target is not None:
            raise ConfigError("system_balanced grouping is only defined with fully_balanced")

    @property
    def effective_documents(self) -> int:
        """Documents actually included: fixed budget halves double-rated studies."""
        if self.ratings_per_item == 2:
            return max(1, self.n_documents // 2)
        return self.n_documents

    @property
    def p_floor(self) -> float:
        """The smallest p-value of an exact sign-flip test over the study's documents:
        the identity and the all-flipped signs always tie the observed statistic."""
        return 2.0 ** (1 - self.effective_documents)


def warn_p_floor(config: StudyConfig, label: str, report: Callable[[str], None]) -> None:
    """Report one ``warning:`` line when the config's ``p_floor`` is above alpha."""
    if config.p_floor > config.alpha:
        report(
            f"warning: {label} n_docs={config.n_documents} docs_per_study="
            f"{config.effective_documents}: p-value floor {config.p_floor:g} is above alpha"
            f" {config.alpha:g}, so every significant pair is Monte Carlo noise"
        )


@dataclass
class SimulatedStudy:
    plan: AssignmentPlan  # its ``docs`` are the study's documents
    scored: ScoredStudy  # post-normalization


def select_ratings(ds: RatingDataset, plan: AssignmentPlan) -> ScoredStudy:
    """Pull the real ratings selected by an assignment plan into a study.

    The study covers every system and the plan's documents, cut to its
    longest document's segments; slot k of an item holds the ratings of the
    plan's k-th rater for it, gathered from the dataset's arrays in one
    indexing step.  Its raters are those the plan uses (sorted positions, so
    sorted ids).  So the cost follows the study's ratings, not the pool's.
    """
    docs, raters = plan.docs, plan.raters
    n_systems, n_docs, n_segs, n_raters = ds.scores.shape
    study_segs = ds.seg_counts[docs].max(initial=0)
    # The flat index of dataset cell (s, docs[d], g, raters[s, d, k]).
    item = (np.arange(n_systems)[:, None] * n_docs + docs) * n_segs
    cells = ((item[:, :, None, None] + np.arange(study_segs)[:, None]) * n_raters
             + raters[:, :, None, :])
    study_raters, slots = np.unique(raters, return_inverse=True)
    return ScoredStudy(
        ds.system_axis,
        [ds.rater_axis[i] for i in study_raters],
        ds.scores.take(cells),
        ds.n_errors.take(cells),
        slots.reshape(raters.shape),  # NumPy < 2 returns the inverse flattened
    )


def _check_pool_size(ds: RatingDataset, config: StudyConfig) -> None:
    if config.effective_documents > len(ds.doc_axis):
        raise ConfigError(
            f"{config.n_documents} documents per study need {config.effective_documents} "
            f"from the pool; the dataset has {len(ds.doc_axis)}"
        )


def simulate_study(
    ds: RatingDataset,
    config: StudyConfig,
    seed,
    docs: Optional[tuple[int, ...]] = None,
) -> tuple[SimulatedStudy, SignificanceMatrix]:
    """Sample one study and rank its systems with significance testing.

    ``seed`` may be anything accepted by numpy's default_rng.  When ``docs``
    is given (fixed-document-set mode: ascending ``doc_axis`` positions, as
    ``subsample_documents`` returns them), subsampling is skipped and the
    matrix's ``doc_set`` is ``docs``; otherwise it is None.
    """
    rng = np.random.default_rng(seed)
    doc_set = docs
    if docs is None:
        _check_pool_size(ds, config)
        docs = subsample_documents(ds, config.effective_documents, rng)
    plan = build_plan(ds, docs, config.grouping, config.balancing, config.ratings_per_item, rng)
    scored = normalize(select_ratings(ds, plan), config.normalization)
    matrix = significance_matrix(scored, config.alpha, config.n_permutations, rng, doc_set)
    return SimulatedStudy(plan, scored), matrix


@dataclass
class SweepPoint:
    label: str
    config: StudyConfig
    n_documents: int
    srp: float
    n_pairs: int
    wall_time: float  # progress lines only; sweep.json stays free of timings
    study_means: list[dict[str, float]]
    matrices: Optional[list[SignificanceMatrix]] = None


def methodology(config: StudyConfig) -> dict:
    """The config's columns in ``sweep.csv`` and ``sweep.json``, keyed by
    their names in a config file."""
    return {
        "item_grouping": config.grouping.value,
        "load_balancing": str(config.balancing),
        "normalization": config.normalization.value,
        "ratings_per_item": config.ratings_per_item,
        "doc_resampling": config.doc_resampling,
        "n_simulations": config.n_simulations,
        "n_permutations": config.n_permutations,
        "alpha": config.alpha,
        "seed": config.master_seed,
    }


@dataclass
class SweepResult:
    points: list[SweepPoint]

    CSV_COLUMNS = ("label", *methodology(StudyConfig()), "n_documents", "srp", "n_pairs")

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for point in self.points:
            cfg = methodology(point.config)
            cfg["alpha"] = f"{cfg['alpha']:g}"
            writer.writerow([point.label, *cfg.values(), point.n_documents,
                             f"{point.srp:.6f}", point.n_pairs])
        return out.getvalue()

    def to_json_obj(self) -> dict:
        """Every point, with its significance matrices where it kept them."""
        points = []
        for point in self.points:
            entry = {
                "label": point.label,
                "config": methodology(point.config),
                "n_documents": point.n_documents,
                "srp": point.srp,
                "n_pairs": point.n_pairs,
                "study_means": point.study_means,
            }
            if point.matrices is not None:
                entry["matrices"] = [
                    {
                        "systems": list(m.systems),
                        "means": [float(x) for x in m.means],
                        "sig": m.sig.astype(int).tolist(),
                        "better": m.better.astype(int).tolist(),
                    }
                    for m in point.matrices
                ]
            points.append(entry)
        return {"points": points}


_WORKER_DS: Optional[RatingDataset] = None


def _init_worker(ds: RatingDataset) -> None:
    global _WORKER_DS
    _WORKER_DS = ds


def _run_one(task) -> SignificanceMatrix:
    return simulate_study(_WORKER_DS, *task)[1]


def _point_tasks(ds: RatingDataset, config: StudyConfig, ci: int, gi: int):
    """One sweep point's (config, seed key, fixed doc set) tasks and its srp filter.

    Per-study RNG streams are derived from (master_seed, config index, grid
    index, document-set index, study index).
    """
    seed, n_sims = config.master_seed, config.n_simulations
    if config.doc_resampling == Resampling.PER_50:
        docsets = [
            subsample_documents(
                ds,
                config.effective_documents,
                np.random.default_rng(np.random.SeedSequence((seed, ci, gi, di))),
            )
            for di in range((n_sims + 49) // 50)
        ]
        tasks = [(config, (seed, ci, gi, si // 50, si), docsets[si // 50]) for si in range(n_sims)]
        return tasks, same_documents
    return [(config, (seed, ci, gi, si, si), None) for si in range(n_sims)], None


def run_sweep(
    ds: RatingDataset,
    configs: Sequence[StudyConfig],
    doc_count_grid: Optional[Sequence[int]] = None,
    threads: int = 1,
    keep_matrices: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run every config at every document count and score SRP per point.

    Each study's RNG stream depends only on its place in the sweep (see
    ``_point_tasks``), so output is identical for any worker count.
    """
    if doc_count_grid is None:
        doc_count_grid = [n for n in DEFAULT_DOC_GRID if n <= len(ds.doc_axis)]
        if not doc_count_grid:
            raise ConfigError(
                f"the dataset has {len(ds.doc_axis)} documents, fewer than the default "
                f"grid's smallest count {min(DEFAULT_DOC_GRID)}: set doc_counts"
            )
    labels = [config.label or f"config{ci}" for ci, config in enumerate(configs)]
    for ci, label in enumerate(labels):
        if label in labels[:ci]:
            raise ConfigError(f"two configs share the sweep label {label!r}")
    for gi, n_docs in enumerate(doc_count_grid):
        if n_docs in doc_count_grid[:gi]:
            raise ConfigError(f"doc_counts lists {n_docs} twice")
    for config in configs:
        for n_docs in doc_count_grid:
            _check_pool_size(ds, replace(config, n_documents=n_docs))
    # One pool serves every point; the with block shuts it down on any error.
    # Only workers set _WORKER_DS, so a serial sweep pins nothing after it returns.
    # The pool starts all its workers at once, so it gets at most one per CPU.
    workers = min(threads, os.cpu_count() or 1)
    pool = (
        ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(ds,))
        if workers > 1
        else None
    )
    points: list[SweepPoint] = []
    with pool or contextlib.nullcontext():
        for ci, config in enumerate(configs):
            for gi, n_docs in enumerate(doc_count_grid):
                config_point = replace(config, n_documents=n_docs)
                if progress is not None:
                    warn_p_floor(config_point, labels[ci], progress)
                start = time.perf_counter()
                tasks, pair_filter = _point_tasks(ds, config_point, ci, gi)
                if pool is not None:
                    matrices = list(pool.map(_run_one, tasks, chunksize=8))
                else:
                    matrices = [simulate_study(ds, *task)[1] for task in tasks]
                value, n_pairs = srp(matrices, pair_filter)
                points.append(
                    SweepPoint(
                        label=labels[ci],
                        config=config_point,
                        n_documents=n_docs,
                        srp=value,
                        n_pairs=n_pairs,
                        wall_time=time.perf_counter() - start,
                        study_means=[dict(zip(m.systems, map(float, m.means))) for m in matrices],
                        matrices=matrices if keep_matrices else None,
                    )
                )
                if progress is not None:
                    progress(
                        f"{points[-1].label} n_docs={n_docs} srp={value:.4f} "
                        f"pairs={n_pairs} ({points[-1].wall_time:.1f}s)"
                    )
    return SweepResult(points)


# ---------------------------------------------------------------------------
# Synthetic dataset generation


@dataclass(frozen=True)
class GeneratorSpec:
    """Controls for the synthetic rating-dataset generator.

    Scores follow harshness * max(0, base_doc + quality_sys + item noise +
    rater doc-preference) * lognormal observation noise, so zero-noise specs
    with unit harshness give identical ratings from all raters.
    """

    n_documents: int = 40
    segments_per_doc: int = 5
    n_systems: int = 6
    quality_range: tuple[float, float] = (0.0, 2.0)
    n_buckets: int = 2
    harshness: tuple[float, ...] = (1.0,)
    base_range: tuple[float, float] = (0.5, 1.5)
    item_noise_sigma: float = 0.0
    rater_noise_sigma: float = 0.0
    doc_preference_sigma: float = 0.0
    language_pair: str = "synthetic"

    def __post_init__(self):
        if self.n_documents < self.n_buckets or self.n_buckets < 1:
            raise InvalidSpec("need at least one document per bucket")
        if self.segments_per_doc < 1:
            raise InvalidSpec("segments_per_doc must be >= 1")
        if self.n_systems < 2:
            raise InvalidSpec("need at least 2 systems")
        for key in ("quality_range", "harshness", "base_range", "item_noise_sigma",
                    "rater_noise_sigma", "doc_preference_sigma"):
            values = np.ravel(getattr(self, key))
            if not np.isfinite(values).all():
                raise InvalidSpec(f"{key} must be finite, got {' '.join(map(str, values))}")
        if not self.harshness or any(h <= 0 for h in self.harshness):
            raise InvalidSpec("harshness factors must be positive")
        if any(
            s < 0
            for s in (self.item_noise_sigma, self.rater_noise_sigma, self.doc_preference_sigma)
        ):
            raise InvalidSpec("noise sigmas must be non-negative")


def generate_synthetic(spec: GeneratorSpec, rng) -> RatingDataset:
    """Build a fully valid score-only dataset with 3 ratings per item."""
    docs = [f"doc{d:03d}" for d in range(spec.n_documents)]
    systems = [f"sys{s:02d}" for s in range(spec.n_systems)]
    quality = np.linspace(*spec.quality_range, spec.n_systems)
    raters = [f"rater{r:02d}" for r in range(3 * spec.n_buckets)]
    harshness = np.array(
        [spec.harshness[r % len(spec.harshness)] for r in range(len(raters))]
    )

    # Sorted id position -> generated index, per axis.  Generated bucket b
    # holds the b-th chunk of documents and raters 3b..3b+2.
    by_id = [np.argsort(ids) for ids in (systems, docs, raters)]
    bucket_axis, bucket_pos = _factorize([f"b{b:03d}" for b in range(spec.n_buckets)])
    chunks = np.array_split(np.arange(spec.n_documents), spec.n_buckets)
    doc_bucket = np.repeat(bucket_pos, [len(chunk) for chunk in chunks])[by_id[1]]
    bucket_raters = np.sort(np.argsort(by_id[2]).reshape(-1, 3), axis=1)

    base = rng.uniform(*spec.base_range, size=spec.n_documents)
    preference = (
        rng.normal(0.0, spec.doc_preference_sigma, size=(len(raters), spec.n_documents))
        if spec.doc_preference_sigma > 0
        else np.zeros((len(raters), spec.n_documents))
    )

    n_segs = spec.segments_per_doc
    values = np.full((spec.n_systems, spec.n_documents, n_segs, len(raters)), np.nan)
    # Overflow shows up below as a non-finite score, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(spec.n_buckets):  # each in sorted-id order of its documents and raters
            for d in by_id[1][doc_bucket == bucket_pos[b]].tolist():
                for s in range(spec.n_systems):
                    item_noise = rng.normal(0.0, spec.item_noise_sigma, size=n_segs)
                    for r in by_id[2][bucket_raters[b]].tolist():
                        obs_noise = (
                            np.exp(rng.normal(0.0, spec.rater_noise_sigma, size=n_segs))
                            if spec.rater_noise_sigma > 0
                            else np.ones(n_segs)
                        )
                        truth = base[d] + quality[s] + item_noise + preference[r, d]
                        values[s, d, :, r] = harshness[r] * np.maximum(truth, 0.0) * obs_noise
    # Unrated cells are NaN, so every rated cell is finite iff this many cells are.
    n_rated = n_segs * spec.n_systems * spec.n_documents * 3
    if np.count_nonzero(np.isfinite(values)) != n_rated:
        raise InvalidSpec(
            "generated scores are not finite: lower the noise sigmas "
            f"(item_noise_sigma={spec.item_noise_sigma:g}, "
            f"rater_noise_sigma={spec.rater_noise_sigma:g}, "
            f"doc_preference_sigma={spec.doc_preference_sigma:g})"
        )
    # The dataset's (system, doc, seg, rater) arrays, each id axis in sorted order.
    scores = values[np.ix_(by_id[0], by_id[1], range(n_segs), by_id[2])]
    return RatingDataset(
        language_pair=spec.language_pair,
        system_axis=tuple(sorted(systems)),
        doc_axis=tuple(sorted(docs)),
        rater_axis=tuple(sorted(raters)),
        seg_counts=np.full(spec.n_documents, n_segs, dtype=np.intp),
        bucket_axis=bucket_axis,
        bucket_raters=tuple(bucket_raters[np.argsort(bucket_pos)]),
        doc_bucket=doc_bucket,
        scores=scores,
        n_errors=np.full(scores.shape, np.nan),
        annotations=Annotations((), *[np.zeros(0, dtype=np.intp)] * 4),
    )


# ---------------------------------------------------------------------------
# Config file parsing (flat sectioned key-value format)


def _parse_balancing(value: str) -> Optional[float]:
    """The entropy target a load_balancing value names; None for full balancing."""
    if value == "fully_balanced":
        return None
    kind, _, target = value.partition(":")
    if kind != "entropy_target":
        raise ValueError("expected fully_balanced or entropy_target:<H>")
    return float(target)


# Each study config key: the field it sets and the parser of its value.  The
# two balancing keys set LoadBalancing's fields, the others StudyConfig's.
# Every default lives on those dataclasses.
_STUDY_KEYS = {
    "num_documents": ("n_documents", int),
    "item_grouping": ("grouping", Grouping),
    "load_balancing": ("target", _parse_balancing),
    "entropy_tolerance": ("tolerance", float),
    "normalization": ("normalization", NormalizationScheme),
    "ratings_per_item": ("ratings_per_item", int),
    "doc_resampling": ("doc_resampling", str),
    "n_simulations": ("n_simulations", int),
    "n_permutations": ("n_permutations", int),
    "alpha": ("alpha", float),
    "seed": ("master_seed", int),
}


def _study_fields(section: str, values: dict) -> dict:
    """Parse a section's study keys into the fields they set."""
    parsed = {}
    for key, value in values.items():
        if key not in _STUDY_KEYS:
            raise ConfigError(f"unknown key {key!r} in [{section}]")
        name, parse = _STUDY_KEYS[key]
        try:
            parsed[name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"invalid {key} value {value!r} in [{section}]: {exc}") from None
    return parsed


def load_sweep_config(path) -> tuple[list[StudyConfig], Optional[list[int]]]:
    """Parse a sweep config: [DEFAULT] and then [sweep] set shared study keys
    and the document-count grid, and one [study:NAME] section per methodology
    overrides them with the keys it sets itself."""
    sections = read_config(path)
    shared, grid = {}, None
    for where in ("DEFAULT", "sweep"):
        values = dict(sections.get(where, {}))
        if "doc_counts" in values:
            try:
                grid = [int(x) for x in values.pop("doc_counts").split()]
            except ValueError:
                raise ConfigError("invalid doc_counts list") from None
            if not grid:
                raise ConfigError("doc_counts is empty")
        shared.update(_study_fields(where, values))
    configs = []
    for name, section in sections.items():
        if name in ("DEFAULT", "sweep"):
            continue
        kind, colon, label = name.partition(":")
        if kind != "study":
            raise ConfigError(
                f"unknown section [{name}]: expected [sweep], [study] or [study:NAME]"
            )
        # The label names the methodology's rows in the sweep outputs.
        if colon and not label:
            raise ConfigError(f"[{name}] has an empty NAME")
        label = label or kind  # [study] is labelled study
        if any(c.label == label for c in configs):
            raise ConfigError(f"two study sections share the label {label!r}")
        cfg = {**shared, **_study_fields(name, section)}
        balancing = LoadBalancing(**{k: cfg.pop(k) for k in ("target", "tolerance") if k in cfg})
        configs.append(StudyConfig(balancing=balancing, label=label, **cfg))
    if not configs:
        raise ConfigError("no [study:NAME] sections found")
    return configs, grid


def load_study_config(path) -> StudyConfig:
    """Parse a single-study config (first [study:NAME] or [study] section)."""
    configs, _ = load_sweep_config(path)
    return configs[0]


def load_generator_spec(path) -> GeneratorSpec:
    """Parse a [generator] section.  Each key is a GeneratorSpec field, read
    by the type of its default; a tuple is written as space-separated numbers."""
    values, present = read_section(path, "generator")
    if not present:
        raise ConfigError("generator spec needs a [generator] section")
    spec_fields = {f.name: f for f in fields(GeneratorSpec)}
    spec = {}
    for key, value in values.items():
        if key not in spec_fields:
            raise ConfigError(f"unknown key {key!r} in [generator]")
        kind = type(spec_fields[key].default)
        try:
            spec[key] = tuple(map(float, value.split())) if kind is tuple else kind(value)
        except ValueError as exc:
            raise ConfigError(f"invalid {key} value {value!r} in [generator]: {exc}") from None
        if spec_fields[key].type == "tuple[float, float]" and len(spec[key]) != 2:
            raise ConfigError(f"{key} needs two numbers")
    return GeneratorSpec(**spec)
