"""In-memory span tracer and the traced replica of a sweep.

The replica replays every study of a sweep by calling stabeval's public
functions in ``simulate_study``'s order, with ``run_sweep``'s seed
derivation, and wraps each call in a span.  Spans live in memory and are
written out when the benchmark ends.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

from stabeval.assignment import build_plan, subsample_documents
from stabeval.experiment import (
    Resampling,
    SweepPoint,
    SweepResult,
    select_ratings,
)
from stabeval.scoring import normalize
from stabeval.stats import normalized_entropy, same_documents, significance_matrix, srp


class Tracer:
    """Records (name, start, end, parent, study id) spans and named counts.

    A span without a study id takes its parent's, so every span of one
    study shares the id ``"<config index>/<grid index>/<study index>"``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, study=None):
        parent = self._stack[-1] if self._stack else -1
        if study is None and parent >= 0:
            study = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, study]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(float(value))

    def self_times(self) -> dict[str, list[float]]:
        """Self time in seconds of every span, grouped by span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        grouped: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            grouped[name].append(end - start - covered)
        return grouped

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, study in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "study": study}
                    )
                    + "\n"
                )


def _study_tasks(ds, config, ci, gi, tracer):
    """Per-study seed keys and fixed document sets, derived as run_sweep does."""
    seed = config.master_seed
    n_sims = config.n_simulations
    if config.doc_resampling == Resampling.PER_50:
        docsets = {}
        for di in range((n_sims + 49) // 50):
            with tracer.span("assignment.subsample"):
                docsets[di] = subsample_documents(
                    ds,
                    config.effective_documents,
                    np.random.default_rng(np.random.SeedSequence((seed, ci, gi, di))),
                )
        tasks = [((seed, ci, gi, si // 50, si), docsets[si // 50]) for si in range(n_sims)]
        return tasks, same_documents
    return [((seed, ci, gi, si, si), None) for si in range(n_sims)], None


def replay_point(tracer: Tracer, ds, config, ci: int, gi: int, n_docs: int) -> SweepPoint:
    """Replay one sweep point study by study; returns the point run_sweep makes."""
    config = replace(config, n_documents=n_docs)
    # Full balancing aims at the uniform workload, normalized entropy 1.
    target = 1.0 if config.balancing.target is None else config.balancing.target
    n_systems = len(ds.systems)
    with tracer.span("sweep.point"):
        tasks, pair_filter = _study_tasks(ds, config, ci, gi, tracer)
        matrices = []
        for si, (key, doc_subset) in enumerate(tasks):
            with tracer.span("study", study=f"{ci}/{gi}/{si}"):
                rng = np.random.default_rng(np.random.SeedSequence(key))
                if doc_subset is None:
                    with tracer.span("assignment.subsample"):
                        doc_subset = subsample_documents(ds, config.effective_documents, rng)
                with tracer.span("assignment.build_plan"):
                    plan = build_plan(
                        ds, doc_subset, config.grouping, config.balancing,
                        config.ratings_per_item, rng,
                    )
                with tracer.span("experiment.select"):
                    selected = select_ratings(ds, plan)
                with tracer.span("scoring.normalize"):
                    scored = normalize(selected, config.normalization)
                with tracer.span("stats.significance"):
                    matrix = significance_matrix(
                        scored, config.alpha, config.n_permutations, rng, doc_set=doc_subset
                    )
            matrices.append(matrix)
            n_sig = int(matrix.sig.sum())
            tracer.count("experiment.ratings_selected", len(selected))
            tracer.count(
                "stats.sign_draws",
                n_systems * (n_systems - 1) // 2 * config.n_permutations * len(doc_subset),
            )
            tracer.count("stats.sig_pairs_mean", n_sig)
            tracer.count("stats.vacuous_ratio", n_sig == 0)
            tracer.count(
                "assignment.entropy_gap",
                abs(normalized_entropy(plan.workload(), len(ds.raters)) - target),
            )
        with tracer.span("stats.srp"):
            value, n_pairs = srp(matrices, pair_filter)
        n_studies = len(matrices)
        tracer.count("stats.srp_pairs_scanned", n_studies * (n_studies - 1))
        tracer.count("stats.srp_pairs_admitted", n_pairs)
    return SweepPoint(
        label=config.label or f"config{ci}",
        config=config,
        n_documents=n_docs,
        srp=value,
        n_pairs=n_pairs,
        wall_time=0.0,
        study_means=[dict(zip(m.systems, (float(x) for x in m.means))) for m in matrices],
        matrices=None,
    )


def replay_sweep(tracer: Tracer, ds, configs, grid) -> SweepResult:
    """Replay a whole sweep in run_sweep's point order."""
    points = [
        replay_point(tracer, ds, config, ci, gi, n_docs)
        for ci, config in enumerate(configs)
        for gi, n_docs in enumerate(grid)
    ]
    return SweepResult(points)
