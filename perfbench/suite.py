"""Workloads, timed sweeps, output checks and metric reporting.

Every workload is a closed loop with one client: one sweep at a time from
this process, with at most ``threads`` worker processes.  The program sees
only the TSV that the seed generates; the methodology reaches it as a sweep
config file, parsed by ``load_sweep_config`` as the CLI would.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from layouts import DISJOINT, ROTATION, Layout, build_tsv
from stabeval import cli
from stabeval.corpus import fingerprint, ingest
from stabeval.errors import StabevalError
from stabeval.experiment import Resampling, load_sweep_config, run_sweep
from tracing import Tracer, replay_sweep

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
N_PERMUTATIONS = 500
PAPER_SIMULATIONS = 250
SETUP_REPEATS = 3
MIN_REPEATS = 2


@dataclass(frozen=True)
class Study:
    name: str
    settings: str  # body of the [study:NAME] config section
    n_simulations: int


@dataclass(frozen=True)
class Workload:
    name: str
    layout: Layout
    studies: tuple[Study, ...]
    grid: tuple[int, ...]
    threads: int
    via_cli: bool
    # Grid value whose studies include all 181 documents of the pool.
    probe_documents: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rotation_psxs_entropy",
            layout=ROTATION,
            studies=(
                Study(
                    name="psxs",
                    settings="item_grouping = psxs\nload_balancing = fully_balanced\n"
                    "normalization = unnormalized\ndoc_resampling = per_50\n",
                    n_simulations=100,
                ),
                Study(
                    name="imbalanced",
                    settings="item_grouping = no_grouping\n"
                    "load_balancing = entropy_target:0.5\n"
                    "normalization = zscore\ndoc_resampling = per_study\n",
                    n_simulations=30,
                ),
            ),
            grid=(90,),
            threads=1,
            via_cli=False,
            probe_documents=181,
        ),
        Workload(
            name="double_disjoint_cli",
            layout=DISJOINT,
            studies=(
                Study(
                    name="double_error",
                    settings="item_grouping = psxs\nratings_per_item = 2\n"
                    "normalization = error\ndoc_resampling = per_study\n",
                    n_simulations=250,
                ),
            ),
            grid=(10, 20, 40),
            threads=2,
            via_cli=True,
            # The fixed rating budget halves documents when double-rating, so
            # 362 is the point that includes the whole 181-document pool.
            probe_documents=362,
        ),
    )
}


class Files:
    """The workload's generated inputs and its output directories."""

    def __init__(self, work: Path, workload: Workload, seed: int):
        self.tsv = work / f"{workload.layout.name}.tsv"
        self.tsv.write_text(build_tsv(workload.layout, seed), encoding="utf-8")
        self.config = work / "sweep.cfg"
        self.config.write_text(
            "[sweep]\n"
            f"doc_counts = {' '.join(str(n) for n in workload.grid)}\n"
            f"seed = {seed}\n"
            f"n_permutations = {N_PERMUTATIONS}\n"
            + "".join(
                f"\n[study:{study.name}]\nn_simulations = {study.n_simulations}\n"
                f"{study.settings}"
                for study in workload.studies
            ),
            encoding="utf-8",
        )
        self.out = work / "out"
        self.replica = work / "replica"
        self.replica.mkdir()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def untraced_sweep(workload: Workload, ds, configs, files: Files) -> str:
    """Run the workload's sweep once; returns the sweep.csv text."""
    if not workload.via_cli:
        result = run_sweep(
            ds, configs, workload.grid, threads=workload.threads, keep_matrices=False
        )
        return result.to_csv()
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(
            ["sweep", "--dataset", str(files.tsv), "--config", str(files.config),
             "--out", str(files.out), "--threads", str(workload.threads)]
        )
    if code != 0:
        raise RuntimeError(f"stabeval sweep exited with {code}: {stderr.getvalue()}")
    return (files.out / "sweep.csv").read_text(encoding="utf-8")


def expected_pairs(config) -> int:
    """Ordered study pairs that srp admits under the config's resampling mode."""
    n = config.n_simulations
    if config.doc_resampling == Resampling.PER_50:
        return sum(m * (m - 1) for m in (min(50, n - s) for s in range(0, n, 50)))
    return n * (n - 1)


def check_sweep_csv(text: str, workload: Workload, configs) -> list[str]:
    problems = []
    rows = list(csv.DictReader(io.StringIO(text)))
    points = [(r["label"], int(r["n_documents"])) for r in rows]
    expected = [(c.label, n) for c in configs for n in workload.grid]
    if points != expected:
        problems.append(f"sweep.csv points {points} != {expected}")
    by_label = {c.label: c for c in configs}
    for r in rows:
        where = f"{r['label']} n_documents={r['n_documents']}"
        value = float(r["srp"])
        if not 0.0 <= value <= 1.0:
            problems.append(f"srp {value} outside [0, 1] at {where}")
        config = by_label.get(r["label"])
        if config is not None and int(r["n_pairs"]) != expected_pairs(config):
            problems.append(f"n_pairs {r['n_pairs']} != {expected_pairs(config)} at {where}")
    return problems


def full_pool_probe(workload: Workload, ds, config) -> str:
    """Attempt the paper grid's point that includes the whole pool.

    Returns 'ok' or the name of the error the sweep raised.
    """
    try:
        run_sweep(ds, [config], [workload.probe_documents], threads=1, keep_matrices=False)
    except StabevalError as exc:
        return type(exc).__name__
    return "ok"


def studies_per_sweep(workload: Workload, configs) -> int:
    return sum(c.n_simulations for c in configs) * len(workload.grid)


def peak_rss_mib() -> tuple[float, float]:
    """Peak RSS of this process and of the largest of its finished workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, workers / 1024.0  # Linux reports KiB


def context() -> dict:
    src = ROOT / "src"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py")
        ),
    }


def measure(workload: Workload, files: Files, seconds: float) -> tuple[dict, list, int]:
    """Untraced run: end-to-end metrics, problems found, studies attempted."""
    setup = []
    for _ in range(SETUP_REPEATS):
        ds = None  # keep one dataset alive at a time
        start = time.perf_counter()
        ds = ingest(files.tsv)
        setup.append(time.perf_counter() - start)
    configs, _ = load_sweep_config(files.config)
    probes = [
        full_pool_probe(workload, ds, replace(c, n_simulations=PAPER_SIMULATIONS))
        for c in configs
    ]
    for config, probe in zip(configs, probes):
        print(f"full-pool probe {config.label} n_documents={workload.probe_documents}: {probe}")

    durations, digests, problems = [], [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        text = untraced_sweep(workload, ds, configs, files)
        durations.append(time.perf_counter() - start)
        problems += check_sweep_csv(text, workload, configs)
        digests.append(sha256(text))
        elapsed = time.perf_counter() - begin
        if len(durations) >= MIN_REPEATS and elapsed + statistics.median(durations) > seconds:
            break
    problems += check_digests(digests)
    print(f"sweep seconds per repeat: {' '.join(f'{d:.3f}' for d in durations)}")
    own_mib, workers_mib = peak_rss_mib()
    print(f"peak RSS: process {own_mib:.1f} MiB, largest worker {workers_mib:.1f} MiB")

    studies = studies_per_sweep(workload, configs) * len(durations)
    # Every config runs at every grid point, plus its full-pool probe.
    points = len(configs) * (len(workload.grid) + 1)
    metrics = {
        # Total studies over total sweep time: on a shared host the speed
        # drifts over tens of seconds, and a median of a few repeats would
        # follow one phase of that drift.
        "studies_per_s": studies / sum(durations),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": own_mib + workers_mib,
        "points_ok_ratio": (points - sum(p != "ok" for p in probes)) / points,
    }
    return metrics, problems, studies


def check_digests(digests: list[str]) -> list[str]:
    print(f"sweep.csv sha256 {digests[0]} ({len(digests)} repeats)")
    if len(set(digests)) != 1:
        return [f"sweep.csv differs between repeats: {sorted(set(digests))}"]
    return []


def traced_replica(tracer: Tracer, workload: Workload, ds, configs, files: Files):
    """Replay the sweep under spans; returns (sweep.csv text, comparable seconds).

    The seconds cover what the untraced sweep covers: for the CLI workload
    the ingest, points, output writes and fingerprint; otherwise the points.
    """
    start = time.perf_counter()
    if workload.via_cli:
        with tracer.span("corpus.ingest"):
            ds = ingest(files.tsv)
    result = replay_sweep(tracer, ds, configs, workload.grid)
    sweep_s = time.perf_counter() - start
    with tracer.span("cli.output"):
        text = result.to_csv()
        (files.replica / "sweep.csv").write_text(text, encoding="utf-8")
        with open(files.replica / "sweep.json", "w", encoding="utf-8") as handle:
            json.dump(result.to_json_obj(), handle, indent=2)
    if workload.via_cli:
        with tracer.span("corpus.fingerprint"):
            fingerprint(ds)
        return text, time.perf_counter() - start
    return text, sweep_s


def measure_traced(workload: Workload, files: Files, seconds: float, seed: int):
    """Traced run: per-layer metrics, problems found, studies attempted."""
    tracer = Tracer()
    for _ in range(SETUP_REPEATS):
        ds = None
        with tracer.span("corpus.ingest"):
            ds = ingest(files.tsv)
    with tracer.span("corpus.validate"):
        ds.validate()
    with tracer.span("corpus.fingerprint"):
        fingerprint(ds)
    configs, _ = load_sweep_config(files.config)
    pickle_mb = len(pickle.dumps(ds, protocol=pickle.HIGHEST_PROTOCOL)) / 1e6
    with tracer.span("experiment.pool_start"):
        run_sweep(
            ds, [replace(configs[0], n_simulations=2)], workload.grid[:1],
            threads=2, keep_matrices=False,
        )

    untraced, traced, digests, problems = [], [], [], []
    reproduced = True
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        text = untraced_sweep(workload, ds, configs, files)
        untraced.append(time.perf_counter() - start)
        problems += check_sweep_csv(text, workload, configs)
        digests.append(sha256(text))
        replica_text, replica_s = traced_replica(tracer, workload, ds, configs, files)
        traced.append(replica_s)
        reproduced = reproduced and replica_text == text
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(untraced) + statistics.median(traced) > seconds:
            break
    problems += check_digests(digests)
    print(f"traced replica reproduces sweep.csv: {reproduced}")
    if not reproduced:
        problems.append("traced replica does not reproduce the sweep's sweep.csv")

    trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write(trace_path)
    print(f"spans written to {trace_path.relative_to(ROOT)}")

    self_s = tracer.self_times()
    counts = tracer.counts
    studies = studies_per_sweep(workload, configs)
    untraced_rate = studies * len(untraced) / sum(untraced)
    traced_rate = studies * len(traced) / sum(traced)

    def mean_ms(name):
        return 1000.0 * statistics.fmean(self_s[name])

    metrics = {
        "assignment.subsample_ms": mean_ms("assignment.subsample"),
        "assignment.build_plan_ms": mean_ms("assignment.build_plan"),
        "assignment.entropy_gap": statistics.fmean(counts["assignment.entropy_gap"]),
        "experiment.select_ms": mean_ms("experiment.select"),
        "experiment.ratings_selected": statistics.fmean(counts["experiment.ratings_selected"]),
        "scoring.normalize_ms": mean_ms("scoring.normalize"),
        "stats.significance_ms": mean_ms("stats.significance"),
        "stats.sign_draws": statistics.fmean(counts["stats.sign_draws"]),
        "stats.sig_pairs_mean": statistics.fmean(counts["stats.sig_pairs_mean"]),
        "stats.vacuous_ratio": statistics.fmean(counts["stats.vacuous_ratio"]),
        "stats.srp_s": statistics.fmean(self_s["stats.srp"]),
        "stats.srp_pairs_scanned": statistics.fmean(counts["stats.srp_pairs_scanned"]),
        "stats.srp_pairs_admitted": statistics.fmean(counts["stats.srp_pairs_admitted"]),
        "experiment.pool_start_s": self_s["experiment.pool_start"][0],
        "experiment.dataset_pickle_mb": pickle_mb,
        "corpus.ingest_s": statistics.median(self_s["corpus.ingest"]),
        "corpus.validate_s": self_s["corpus.validate"][0],
        "corpus.fingerprint_s": statistics.median(self_s["corpus.fingerprint"]),
        "cli.output_s": statistics.median(self_s["cli.output"]),
        "trace.studies_per_s": traced_rate,
        "trace.overhead_ratio": untraced_rate / traced_rate - 1.0,
    }
    print(f"untraced studies_per_s in this run: {untraced_rate:.6g}")
    return metrics, problems, studies * (len(untraced) + len(traced))


def load_metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS.get(name)
    if workload is None:
        print(f"error: unknown workload {name!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    units = load_metric_units(trace)
    OUT_DIR.mkdir(exist_ok=True)
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print(f"context {json.dumps(context(), sort_keys=True)}")
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as work:
        files = Files(Path(work), workload, seed)
        if trace:
            metrics, problems, attempted = measure_traced(workload, files, seconds, seed)
        else:
            metrics, problems, attempted = measure(workload, files, seconds)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}"
        )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for key, value in metrics.items():
        print(f"metric {key} = {value:.6g} {units[key]}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": 0,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0
