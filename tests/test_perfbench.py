"""The benchmark under ``perfbench/`` drives the library's public functions.

These tests run its traced replica and its full-pool probe on small inputs,
and pin the sweep.csv digest of one untraced sweep of each workload, so a
library change that breaks them or moves the benchmark's output fails here
rather than in a benchmark run.  Nothing under ``perfbench/`` is modified.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stabeval.assignment import Grouping, LoadBalancing
from stabeval.corpus import ingest
from stabeval.experiment import (
    GeneratorSpec,
    Resampling,
    StudyConfig,
    generate_synthetic,
    load_sweep_config,
    run_sweep,
)
from stabeval.scoring import NormalizationScheme

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import suite  # noqa: E402
import tracing  # noqa: E402


def test_traced_replica_reproduces_run_sweep():
    ds = generate_synthetic(
        GeneratorSpec(n_documents=12, segments_per_doc=2, n_systems=4,
                      harshness=(0.5, 1.0, 2.0), item_noise_sigma=0.5, rater_noise_sigma=0.3),
        np.random.default_rng(3),
    )
    common = dict(n_documents=6, n_simulations=6, n_permutations=40, master_seed=5)
    configs = [
        StudyConfig(**common, label="psxs"),
        StudyConfig(**common, grouping=Grouping.NO_GROUPING,
                    balancing=LoadBalancing(0.8, 0.1),
                    normalization=NormalizationScheme.ZSCORE,
                    doc_resampling=Resampling.PER_STUDY, label="zscore_entropy"),
        StudyConfig(**common, ratings_per_item=2, label="double"),
    ]
    grid = [6, 12]
    tracer = tracing.Tracer()
    replica = tracing.replay_sweep(tracer, ds, configs, grid).to_csv()
    assert replica == run_sweep(ds, configs, grid).to_csv()
    layers = {"assignment.build_plan", "experiment.select", "scoring.normalize",
              "stats.significance", "stats.srp"}
    assert layers <= {name for name, *_ in tracer.spans}
    assert len(tracer.counts["experiment.ratings_selected"]) == 3 * len(grid) * 6


@pytest.mark.parametrize("seed", [1, 2, 77])
@pytest.mark.parametrize("workload", sorted(suite.WORKLOADS))
def test_full_pool_probe_succeeds(workload, seed, tmp_path):
    """Every config of each workload runs at the grid point that takes the
    whole 181-document pool, on fewer studies and permutations."""
    spec = suite.WORKLOADS[workload]
    files = suite.Files(tmp_path, spec, seed)
    ds = ingest(files.tsv)
    configs, _ = load_sweep_config(files.config)
    for config in configs:
        small = replace(config, n_simulations=2, n_permutations=19)
        assert suite.full_pool_probe(spec, ds, small) == "ok", config.label


BENCHMARK_DIGESTS = {
    "rotation_psxs_entropy": "38fa544329f8a9dfac668ae775acb608e97ba016e3f907bb6d00e5788372b9bb",
    "double_disjoint_cli": "7e1ab9b7c7e16ebba5f8abce0aeb9bbd41b589c62ef629c5674818ec496faefc",
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_DIGESTS))
def test_benchmark_sweep_digest_pinned(workload, tmp_path):
    """One untraced sweep of each workload at seed 1 keeps the sweep.csv
    digest that perfbench prints: rotation through ``run_sweep(threads=1)``,
    the disjoint layout through ``cli.main`` with 2 workers."""
    spec = suite.WORKLOADS[workload]
    files = suite.Files(tmp_path, spec, 1)
    ds = ingest(files.tsv)
    configs, _ = load_sweep_config(files.config)
    text = suite.untraced_sweep(spec, ds, configs, files)
    assert suite.sha256(text) == BENCHMARK_DIGESTS[workload]
