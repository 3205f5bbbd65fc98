"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite doubles as a readable
acceptance report (lines go to the real stdout, bypassing pytest capture).
Checks 1-6 are self-contained; check 7 needs the released annotation
datasets and is skipped unless STABEVAL_ENDE_TSV / STABEVAL_ENZH_TSV point
at their canonical TSV exports.
"""

import itertools
import os
import sys
import time

import numpy as np
import pytest

from stabeval.assignment import Grouping, min_instantiable_entropy
from stabeval.corpus import ingest
from stabeval.experiment import (
    GeneratorSpec,
    Resampling,
    StudyConfig,
    generate_synthetic,
    run_sweep,
)
from stabeval.scoring import NormalizationScheme, normalize, system_means
from stabeval.stats import (
    SignificanceMatrix,
    permutation_test,
    rater_agreement,
    sr,
    srp,
)

from conftest import DISJOINT_LAYOUT, ROTATION_LAYOUT, rating_dict, study_from_entries


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number}] {name}: {status}{suffix}", file=sys.__stdout__)
    assert ok, f"acceptance {number} ({name}) failed{suffix}"


def test_1_entropy_anchors():
    start = time.perf_counter()
    ende = min_instantiable_entropy(*ROTATION_LAYOUT, 7)
    enzh = min_instantiable_entropy(*DISJOINT_LAYOUT, 6)
    elapsed = time.perf_counter() - start
    ok = abs(ende - 0.51) <= 0.01 and abs(enzh - 0.38) <= 0.01 and elapsed < 1.0
    report(
        1, "minimum workload entropy anchors", ok,
        f"rotation={ende:.4f}, disjoint={enzh:.4f}, {elapsed:.2f}s",
    )


def exhaustive_p(scores_a, scores_b):
    docs = sorted(scores_a)
    flat_a = [x for d in docs for x in scores_a[d]]
    flat_b = [x for d in docs for x in scores_b[d]]
    observed = abs(np.mean(flat_a) - np.mean(flat_b))
    hits = 0
    for flips in itertools.product([False, True], repeat=len(docs)):
        a, b = [], []
        for doc, flip in zip(docs, flips):
            src_a, src_b = (scores_b, scores_a) if flip else (scores_a, scores_b)
            a.extend(src_a[doc])
            b.extend(src_b[doc])
        if abs(np.mean(a) - np.mean(b)) >= observed - 1e-12:
            hits += 1
    return hits / 2 ** len(docs)


def test_2_permutation_test_matches_exhaustive_oracle():
    start = time.perf_counter()
    agree = 0
    n_trials = 200
    for seed in range(n_trials):
        rng = np.random.default_rng(seed)
        n_docs = int(rng.integers(4, 11))
        scores_a, scores_b = {}, {}
        for d in range(n_docs):
            n_segs = int(rng.integers(1, 4))
            scores_a[f"d{d}"] = rng.normal(1.0, 1.0, n_segs).tolist()
            scores_b[f"d{d}"] = rng.normal(1.3, 1.0, n_segs).tolist()
        exact = exhaustive_p(scores_a, scores_b)
        mc = permutation_test(scores_a, scores_b, 500, np.random.default_rng(seed + 10_000))
        if abs(mc - exact) <= 0.05:
            agree += 1

    # constant margin: only the all-same-sign flips reach the observed statistic
    const_a = {f"d{i}": [1.0] for i in range(4)}
    const_b = {f"d{i}": [1.5] for i in range(4)}
    exact_const = exhaustive_p(const_a, const_b)
    elapsed = time.perf_counter() - start

    ok = agree >= 0.99 * n_trials and exact_const == 0.125 and elapsed < 30.0
    report(
        2, "permutation test vs exhaustive sign-flip oracle", ok,
        f"{agree}/{n_trials} within 0.05, constant-margin p={exact_const}, {elapsed:.1f}s",
    )


def _matrix(systems, sig_pairs, means):
    n = len(systems)
    means = np.asarray(means, dtype=float)
    sig = np.zeros((n, n), dtype=bool)
    for i, j in sig_pairs:
        sig[i, j] = True
    return SignificanceMatrix(tuple(systems), means, sig)


def _random_matrix(rng, systems):
    means = rng.permutation(len(systems)) + rng.random(len(systems))
    better = means[:, None] < means[None, :]
    sig = better & (rng.random((len(systems),) * 2) < 0.5)
    return SignificanceMatrix(tuple(systems), means, sig)


def test_3_srp_properties():
    start = time.perf_counter()
    systems = ["a", "b", "c"]
    identical = [_matrix(systems, [(0, 1), (0, 2)], [1.0, 2.0, 3.0])] * 4
    srp_identical, _ = srp(identical)

    # e1 finds a<b significant; study 2 agrees, study 3 reverses the means
    e1 = _matrix(["a", "b"], [(0, 1)], [1.0, 2.0])
    e2 = _matrix(["a", "b"], [], [1.5, 2.0])
    e3 = _matrix(["a", "b"], [], [2.0, 1.0])
    hand = (sr(e1, e2) + sr(e1, e3)) / 2

    vacuous = sr(_matrix(["a", "b"], [], [1.0, 2.0]), e3)

    rng = np.random.default_rng(99)
    in_bounds = True
    for _ in range(200):
        group = [_random_matrix(rng, ["s1", "s2", "s3", "s4", "s5"]) for _ in range(5)]
        value, n_pairs = srp(group)
        in_bounds &= 0.0 <= value <= 1.0 and n_pairs == 20
    elapsed = time.perf_counter() - start

    ok = (
        srp_identical == 1.0 and hand == 0.5 and vacuous == 1
        and in_bounds and elapsed < 10.0
    )
    report(
        3, "significant-ranking-preservation properties", ok,
        f"identical={srp_identical}, hand={hand}, vacuous={vacuous}, "
        f"bounds on 1000 random matrices={in_bounds}, {elapsed:.1f}s",
    )


def test_4_normalization_contracts():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    rows = []
    for d in range(10):
        for r, bias in (("r1", 0.5), ("r2", 1.0), ("r3", 2.5)):
            rows.append((f"d{d}", 0, "a", r, float(bias * (1 + rng.random())),
                         int(rng.integers(1, 5))))
    study = study_from_entries(rows)

    mean_out = normalize(study, NormalizationScheme.MEAN)
    error_out = normalize(study, NormalizationScheme.ERROR)
    preserve = (
        abs(mean_out.study_mean - study.study_mean) <= 1e-9
        and abs(error_out.study_mean - study.study_mean) <= 1e-9
    )
    raters_equal = np.allclose(mean_out.rater_means(), study.study_mean, atol=1e-9)

    z = normalize(
        study_from_entries(
            [("d1", 0, "a", "r", 1.0, 1), ("d2", 0, "a", "r", 2.0, 1),
             ("d3", 0, "a", "r", 3.0, 1)]
        ),
        NormalizationScheme.ZSCORE,
    )
    z_ok = np.allclose(sorted(z.scores[z.rated]), [-1.0, 0.0, 1.0])

    equal_counts = study_from_entries(
        [(f"d{d}", 0, "a", r, float(1 + d + 2 * (r == "r2")), 3)
         for d in range(6) for r in ("r1", "r2")]
    )
    schemes_match = np.allclose(
        normalize(equal_counts, NormalizationScheme.ERROR).scores,
        normalize(equal_counts, NormalizationScheme.MEAN).scores,
    )
    elapsed = time.perf_counter() - start

    ok = preserve and raters_equal and z_ok and schemes_match and elapsed < 1.0
    report(
        4, "normalization contracts", ok,
        f"mean-preserved={preserve}, rater-means-equal={raters_equal}, "
        f"zscore={z_ok}, error-equals-mean={schemes_match}, {elapsed:.2f}s",
    )


def _sweep_values(ds, configs, grid, threads=2):
    result = run_sweep(ds, configs, doc_count_grid=grid, threads=threads)
    values = {}
    for point in result.points:
        values.setdefault(point.config.label, {})[point.n_documents] = point.srp
    return values


def _ordered(a, b, tol=0.02):
    """a >= b at every grid point, allowing a slack of tol."""
    return all(a[n] >= b[n] - tol for n in a)


def test_5_qualitative_stability_trends():
    start = time.perf_counter()
    grid = [10, 20, 40]
    spec = GeneratorSpec(
        n_documents=40, segments_per_doc=5, n_systems=6,
        harshness=(0.5, 1.0, 2.0), n_buckets=2,
    )
    ds = generate_synthetic(spec, np.random.default_rng(0))

    base = dict(
        n_simulations=100, n_permutations=500,
        doc_resampling=Resampling.PER_STUDY, master_seed=1,
    )
    configs = [
        StudyConfig(n_documents=10, grouping=Grouping.PSXS, label="psxs", **base),
        StudyConfig(n_documents=10, grouping=Grouping.SYSTEM_BALANCED,
                    label="sysbal", **base),
        StudyConfig(n_documents=10, grouping=Grouping.NO_GROUPING,
                    label="nogroup", **base),
        StudyConfig(n_documents=10, grouping=Grouping.NO_GROUPING,
                    normalization=NormalizationScheme.ZSCORE,
                    label="nogroup_z", **base),
    ]
    values = _sweep_values(ds, configs, grid)
    grouping_ok = (
        _ordered(values["psxs"], values["sysbal"])
        and _ordered(values["sysbal"], values["nogroup"])
    )
    zscore_ok = _ordered(values["nogroup_z"], values["nogroup"]) and any(
        values["nogroup_z"][n] > values["nogroup"][n] for n in grid
    )

    # item-variance-dominant noise: a second opinion buys less than more items
    noisy = generate_synthetic(
        GeneratorSpec(
            n_documents=40, segments_per_doc=5, n_systems=6,
            harshness=(0.5, 1.0, 2.0), n_buckets=2,
            quality_range=(0.0, 0.6), item_noise_sigma=1.0,
        ),
        np.random.default_rng(2),
    )
    rating_grid = [12, 24, 40]
    rating_configs = [
        StudyConfig(n_documents=12, ratings_per_item=1, label="single", **base),
        StudyConfig(n_documents=12, ratings_per_item=2, label="double", **base),
    ]
    rating_values = _sweep_values(noisy, rating_configs, rating_grid)
    ratings_ok = _ordered(rating_values["single"], rating_values["double"])
    elapsed = time.perf_counter() - start

    ok = grouping_ok and zscore_ok and ratings_ok and elapsed < 600.0
    detail = (
        f"psxs={[round(values['psxs'][n], 3) for n in grid]}, "
        f"sysbal={[round(values['sysbal'][n], 3) for n in grid]}, "
        f"nogroup={[round(values['nogroup'][n], 3) for n in grid]}, "
        f"nogroup+zscore={[round(values['nogroup_z'][n], 3) for n in grid]}, "
        f"single={[round(rating_values['single'][n], 3) for n in rating_grid]}, "
        f"double={[round(rating_values['double'][n], 3) for n in rating_grid]}, "
        f"{elapsed:.0f}s"
    )
    report(5, "qualitative stability trends on synthetic data", ok, detail)


def test_6_sweep_determinism(tmp_path):
    from stabeval.cli import main

    start = time.perf_counter()
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(
        "[generator]\n"
        "n_documents = 16\nsegments_per_doc = 3\nn_systems = 5\nn_buckets = 2\n"
        "harshness = 0.5 1.0 2.0\nitem_noise_sigma = 0.5\n"
    )
    dataset = tmp_path / "ds.tsv"
    assert main(["gen", "--config", str(gen_cfg), "--out", str(dataset), "--seed", "3"]) == 0

    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(
        "[sweep]\n"
        "doc_counts = 8 16\nseed = 11\nn_simulations = 20\nn_permutations = 100\n"
        "[study:psxs]\nitem_grouping = psxs\n"
        "[study:zscore]\nitem_grouping = no_grouping\nnormalization = zscore\n"
    )
    outputs = []
    for name, threads in (("a", "1"), ("b", "2")):
        out = tmp_path / name
        code = main(
            ["sweep", "--dataset", str(dataset), "--config", str(sweep_cfg),
             "--out", str(out), "--threads", threads, "--matrices"]
        )
        assert code == 0
        outputs.append(((out / "sweep.csv").read_bytes(), (out / "sweep.json").read_bytes()))
    elapsed = time.perf_counter() - start

    ok = outputs[0] == outputs[1] and elapsed < 120.0
    report(
        6, "byte-identical sweep.csv and sweep.json across runs and thread counts", ok,
        f"{len(outputs[0][0])} + {len(outputs[0][1])} bytes, {elapsed:.1f}s",
    )


EXPECTED_RELEASED = {
    "STABEVAL_ENDE_TSV": {
        "counts": dict(n_documents=181, n_segments=1315, n_raters=7, n_systems=15),
        "agreement": (0.40, 0.69),
        "system_means": {"Online-W": 0.81, "refB": 0.98, "M2M100": 2.96},
    },
    "STABEVAL_ENZH_TSV": {
        "counts": dict(n_documents=181, n_segments=2037, n_raters=6, n_systems=13),
        "agreement": (0.29, 0.85),
        "system_means": {"refB": 1.45, "Online-W": 1.67, "Online-G": 2.65},
    },
}


def test_7_released_dataset_reference_values():
    paths = {var: os.environ.get(var) for var in EXPECTED_RELEASED}
    if not all(paths.values()):
        print(
            "[acceptance 7] released-dataset reference values: SKIP "
            "(set STABEVAL_ENDE_TSV and STABEVAL_ENZH_TSV to run)",
            file=sys.__stdout__,
        )
        pytest.skip("released datasets not available")

    problems = []
    for var, expected in EXPECTED_RELEASED.items():
        ds = ingest(paths[var])
        got = dict(
            n_documents=len(ds.doc_axis),
            n_segments=int(ds.seg_counts.sum()),
            n_raters=len(ds.rater_axis),
            n_systems=len(ds.system_axis),
        )
        if got != expected["counts"]:
            problems.append(f"{var} counts {got} != {expected['counts']}")

        single, pooled = rater_agreement(ds).grand_mean
        for label, got_tau, want in (
            ("single_document", single, expected["agreement"][0]),
            ("all_shared", pooled, expected["agreement"][1]),
        ):
            if abs(got_tau - want) > 0.02:
                problems.append(f"{var} {label} tau {got_tau:.3f} != {want}")

        study = study_from_entries(
            [(r.doc_id, r.seg_index, r.system_id, r.rater_id, r.score, r.n_errors)
             for r in rating_dict(ds).values()]
        )
        means = system_means(study)
        for system, want in expected["system_means"].items():
            if abs(means[system] - want) > 0.02:
                problems.append(
                    f"{var} {system} mean {means[system]:.3f} != {want} "
                    "(default weight table; deviations may reflect different weights)"
                )
    report(7, "released-dataset reference values", not problems, "; ".join(problems))
