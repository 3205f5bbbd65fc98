"""Command-line front end: dataset validation/stats, agreement analysis,
synthetic data generation, single-study simulation, and sweeps.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import ColumnMapping, bucket_layout, fingerprint, ingest, stats
from .errors import ConfigError, CorpusError, StabevalError
from .experiment import (
    generate_synthetic,
    load_generator_spec,
    load_study_config,
    load_sweep_config,
    run_sweep,
    simulate_study,
)
from .scoring import WeightTable
from .stats import rater_agreement, rater_distribution
from . import corpus as corpus_mod

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


@dataclass
class RunManifest:
    """Reproducibility metadata emitted alongside every sweep output."""

    version: str
    config_hash: str
    master_seed: int
    dataset_fingerprint: str
    started_at: str
    finished_at: str

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n")


def _load_dataset(args):
    mapping = ColumnMapping.from_file(args.mapping) if args.mapping else None
    weights = WeightTable.from_file(args.weights) if args.weights else WeightTable.default()
    return ingest(args.dataset, mapping=mapping, weights=weights)


def _print_stats(ds) -> None:
    s = stats(ds)
    print(f"language pair:     {ds.language_pair}")
    print(f"documents:         {s.n_documents}")
    print(f"segments:          {s.n_segments}")
    print(f"segments per doc:  {s.min_segments_per_doc}-{s.max_segments_per_doc}")
    print(f"raters:            {s.n_raters}")
    print(f"systems:           {s.n_systems}")
    for bucket_id, raters, n_docs in bucket_layout(ds):
        print(f"bucket {bucket_id}: {n_docs} docs, raters {','.join(raters)}")


def cmd_validate(args) -> int:
    try:
        ds = _load_dataset(args)
    except CorpusError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print("OK")
    _print_stats(ds)
    return EXIT_OK


def cmd_stats(args) -> int:
    _print_stats(_load_dataset(args))
    return EXIT_OK


def cmd_agreement(args) -> int:
    ds = _load_dataset(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    single = rater_agreement(ds, "single_document")
    pooled = rater_agreement(ds, "all_shared")
    with open(out_dir / "pairwise_tau.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["rater_a", "rater_b", "single_document_tau", "all_shared_tau"])
        for pair in sorted(single.per_pair):
            writer.writerow(
                [pair[0], pair[1], f"{single.per_pair[pair]:.6f}", f"{pooled.per_pair[pair]:.6f}"]
            )
        writer.writerow(["GRAND_MEAN", "", f"{single.grand_mean:.6f}", f"{pooled.grand_mean:.6f}"])
        for pair in single.skipped_pairs:
            writer.writerow([pair[0], pair[1], "no_shared_documents", "no_shared_documents"])

    # Unit-width bins from 0 past the top score, or at most 1,000 equal bins.
    top = np.floor(np.nanmax(ds.scores)) + 1.0
    edges = np.linspace(0.0, top, int(min(top, 1000)) + 1)
    with open(out_dir / "rater_histograms.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["rater", "bin_left", "bin_right", "count", "mean", "median"])
        for rater in sorted(ds.raters):
            hist = rater_distribution(ds, rater, edges)
            for left, right, count in zip(hist.bin_edges, hist.bin_edges[1:], hist.counts):
                writer.writerow(
                    [rater, f"{left:g}", f"{right:g}", int(count),
                     f"{hist.mean:.6f}", f"{hist.median:.6f}"]
                )
    print(f"wrote {out_dir / 'pairwise_tau.csv'} and {out_dir / 'rater_histograms.csv'}")
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = load_generator_spec(args.config)
    rng = np.random.default_rng(args.seed)
    ds = generate_synthetic(spec, rng)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(corpus_mod.export_tsv(ds))
    print(f"wrote {out} ({np.count_nonzero(~np.isnan(ds.scores))} rating rows)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    ds = _load_dataset(args)
    config = load_study_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    _, matrix = simulate_study(ds, config, config.master_seed)
    order = np.argsort(matrix.means, kind="stable")
    print(f"ranking ({config.label}, n_documents={config.n_documents}, lower is better):")
    for rank, i in enumerate(order, start=1):
        print(f"  {rank:2d}. {matrix.systems[i]:<24s} {matrix.means[i]:.4f}")
    print("significantly-better matrix (rows beat columns, '*' = significant):")
    header = " ".join(f"{s[:10]:>10s}" for s in matrix.systems)
    print(f"{'':24s} {header}")
    for i, system in enumerate(matrix.systems):
        cells = []
        for j in range(len(matrix.systems)):
            cells.append(f"{'*' if matrix.sig[i][j] else ('<' if matrix.better[i][j] else '.'):>10s}")
        print(f"{system:<24s} {' '.join(cells)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    ds = _load_dataset(args)
    configs, grid = load_sweep_config(args.config)
    if args.seed is not None:
        configs = [replace(c, master_seed=args.seed) for c in configs]
    result = run_sweep(
        ds,
        configs,
        doc_count_grid=grid,
        threads=args.threads,
        keep_matrices=args.matrices,
        progress=lambda line: print(line, file=sys.stderr),
    )
    # Only a sweep that ran gets an output directory.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep.csv").write_text(result.to_csv())
    with open(out_dir / "sweep.json", "w") as handle:
        json.dump(result.to_json_obj(), handle, indent=2)
        handle.write("\n")
    manifest = RunManifest(
        version=__version__,
        config_hash=hashlib.sha256(Path(args.config).read_bytes()).hexdigest(),
        master_seed=configs[0].master_seed,
        dataset_fingerprint=fingerprint(ds),
        started_at=started,
        finished_at=datetime.now(timezone.utc).isoformat(),
    )
    manifest.write(out_dir / "manifest.json")
    print(f"wrote {out_dir / 'sweep.csv'}")
    return EXIT_OK


def _add_dataset_args(parser) -> None:
    parser.add_argument("--dataset", required=True, help="canonical TSV rating file")
    parser.add_argument("--mapping", help="column-mapping config file")
    parser.add_argument("--weights", help="weight-table config file")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabeval",
        description="Stability analysis of multi-system human-evaluation methodologies",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a dataset file")
    _add_dataset_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="print dataset statistics")
    _add_dataset_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("agreement", help="pairwise rater agreement and score histograms")
    _add_dataset_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--config", required=True, help="generator spec file")
    p.add_argument("--out", required=True, help="output TSV path")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("simulate", help="simulate a single study and print its ranking")
    _add_dataset_args(p)
    p.add_argument("--config", required=True, help="study config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a stability sweep")
    _add_dataset_args(p)
    p.add_argument("--config", required=True, help="sweep config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--matrices", action="store_true", help="include per-study matrices in JSON")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (CorpusError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StabevalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
