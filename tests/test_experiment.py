import gc
import hashlib
import math
import multiprocessing
import re
import tempfile
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabeval import experiment
from stabeval.assignment import Grouping, LoadBalancing, subsample_documents
from stabeval.corpus import export_tsv
from stabeval.errors import ConfigError, InvalidSpec, QuotaExceedsBucket
from stabeval.experiment import (
    GeneratorSpec,
    Resampling,
    StudyConfig,
    generate_synthetic,
    load_generator_spec,
    load_study_config,
    load_sweep_config,
    methodology,
    run_sweep,
    simulate_study,
)
from stabeval.scoring import NormalizationScheme
from stabeval.stats import same_documents, srp

from conftest import (
    ROTATION_LAYOUT,
    all_docs,
    bucket_raters_of,
    make_layout_dataset,
    plan_items,
    rating_dict,
)


def small_dataset(seed=5, **kwargs):
    spec = GeneratorSpec(
        n_documents=kwargs.pop("n_documents", 12),
        segments_per_doc=kwargs.pop("segments_per_doc", 3),
        n_systems=kwargs.pop("n_systems", 4),
        harshness=kwargs.pop("harshness", (0.5, 1.0, 2.0)),
        **kwargs,
    )
    return generate_synthetic(spec, np.random.default_rng(seed))


class TestSimulateStudy:
    def test_full_document_study(self):
        ds = small_dataset()
        config = StudyConfig(n_documents=12, n_permutations=100)
        sim, matrix = simulate_study(ds, config, 1)
        assert tuple(sim.plan.docs.tolist()) == all_docs(ds)
        for doc, _sys, raters in plan_items(sim.plan, ds):
            assert raters <= bucket_raters_of(ds, doc)
        assert matrix.systems == ds.system_axis
        assert np.isfinite(matrix.means).all()

    def test_determinism_bit_for_bit(self):
        ds = small_dataset()
        config = StudyConfig(n_documents=8, n_permutations=100)
        _, m1 = simulate_study(ds, config, 7)
        _, m2 = simulate_study(ds, config, 7)
        assert np.array_equal(m1.means, m2.means)
        assert np.array_equal(m1.sig, m2.sig)
        assert np.array_equal(m1.better, m2.better)

    def test_double_rated_budget_halved(self):
        ds = small_dataset(n_documents=20)
        config = StudyConfig(n_documents=20, ratings_per_item=2, n_permutations=50)
        sim, _ = simulate_study(ds, config, 3)
        assert len(sim.plan.docs) == 10
        assert all(len(raters) == 2 for _doc, _sys, raters in plan_items(sim.plan, ds))

    def test_fixed_budget_accounting(self):
        ds = small_dataset(n_documents=20)
        single = StudyConfig(n_documents=20, ratings_per_item=1, n_permutations=50)
        double = StudyConfig(n_documents=20, ratings_per_item=2, n_permutations=50)
        sim_s, _ = simulate_study(ds, single, 3)
        sim_d, _ = simulate_study(ds, double, 3)
        ratings_s = sum(len(r) for _doc, _sys, r in plan_items(sim_s.plan, ds))
        ratings_d = sum(len(r) for _doc, _sys, r in plan_items(sim_d.plan, ds))
        assert ratings_s == ratings_d  # even budget halves exactly


class TestRunSweep:
    def test_per50_admissible_pairs(self):
        ds = small_dataset()
        config = StudyConfig(
            n_documents=6,
            n_simulations=100,
            n_permutations=30,
            doc_resampling=Resampling.PER_50,
        )
        result = run_sweep(ds, [config], doc_count_grid=[6])
        assert result.points[0].n_pairs == 2 * 50 * 49

    def test_per_study_admissible_pairs(self):
        ds = small_dataset()
        config = StudyConfig(
            n_documents=6,
            n_simulations=20,
            n_permutations=30,
            doc_resampling=Resampling.PER_STUDY,
        )
        result = run_sweep(ds, [config], doc_count_grid=[6])
        assert result.points[0].n_pairs == 20 * 19

    def test_identical_systems_srp_one(self):
        ds = generate_synthetic(
            GeneratorSpec(n_documents=8, n_systems=3, quality_range=(1.0, 1.0)),
            np.random.default_rng(1),
        )
        config = StudyConfig(n_documents=6, n_simulations=10, n_permutations=50)
        result = run_sweep(ds, [config], doc_count_grid=[6])
        assert result.points[0].srp == 1.0

    def test_srp_reproducible_from_matrices(self):
        ds = small_dataset()
        config = StudyConfig(n_documents=8, n_simulations=20, n_permutations=50)
        result = run_sweep(ds, [config], doc_count_grid=[8])
        point = result.points[0]
        value, n_pairs = srp(point.matrices, same_documents)
        assert value == point.srp and n_pairs == point.n_pairs

    @pytest.mark.parametrize("labels, repeated", [(["a", "a"], "a"), (["", "config0"], "config0")])
    def test_repeated_sweep_label_rejected_before_any_study(self, labels, repeated):
        ds = small_dataset()
        configs = [
            StudyConfig(n_simulations=4, n_permutations=20, label=label) for label in labels
        ]
        lines = []
        with pytest.raises(ConfigError) as exc:
            run_sweep(ds, configs, doc_count_grid=[4], progress=lines.append)
        assert str(exc.value) == f"two configs share the sweep label {repeated!r}"
        assert lines == []

    def test_repeated_doc_count_rejected_before_any_study(self):
        ds = small_dataset()
        config = StudyConfig(n_simulations=4, n_permutations=20)
        lines = []
        with pytest.raises(ConfigError, match=r"^doc_counts lists 4 twice$"):
            run_sweep(ds, [config], doc_count_grid=[4, 6, 4], progress=lines.append)
        assert lines == []

    def test_unreachable_alpha_warned_before_its_point(self):
        """Double rating runs 10 documents as 5 per study, whose floor 2/2**5
        is above alpha; 12 documents run 6, whose floor 0.031 is not."""
        ds = make_layout_dataset(*ROTATION_LAYOUT, n_systems=3)
        config = StudyConfig(ratings_per_item=2, n_simulations=2, n_permutations=50,
                             label="double")
        assert replace(config, n_documents=10).p_floor == 0.0625
        assert replace(config, n_documents=12).p_floor == 0.03125
        lines = []
        result = run_sweep(ds, [config], doc_count_grid=[10, 12], progress=lines.append)
        assert len(result.points) == 2
        assert len(lines) == 3
        assert lines[0] == (
            "warning: double n_docs=10 docs_per_study=5: p-value floor 0.0625 is above alpha "
            "0.05, so every significant pair is Monte Carlo noise"
        )
        assert lines[1].startswith("double n_docs=10 srp=")
        assert lines[2].startswith("double n_docs=12 srp=")

    def test_kept_matrices_rank_the_system_axis(self):
        """Every study ranks ``ds.system_axis``; a study's ``doc_set`` is its
        block's shared ascending positions under per_50, None under per_study."""
        ds = small_dataset()
        configs = [
            StudyConfig(n_simulations=120, n_permutations=20, label="shared"),
            StudyConfig(n_simulations=6, n_permutations=20, label="own",
                        doc_resampling=Resampling.PER_STUDY),
        ]
        shared, own = run_sweep(ds, configs, doc_count_grid=[5]).points
        assert all(m.systems == ds.system_axis for m in shared.matrices + own.matrices)
        for di, at in enumerate(range(0, 120, 50)):
            rng = np.random.default_rng(np.random.SeedSequence((0, 0, 0, di)))
            docs = subsample_documents(ds, 5, rng)
            assert list(docs) == sorted(set(docs)) and len(docs) == 5
            assert all(m.doc_set == docs for m in shared.matrices[at:at + 50])
        assert all(m.doc_set is None for m in own.matrices)

    def test_thread_independence(self):
        ds = small_dataset()
        config = StudyConfig(n_documents=8, n_simulations=8, n_permutations=50)
        a = run_sweep(ds, [config], doc_count_grid=[6, 8], threads=1)
        b = run_sweep(ds, [config], doc_count_grid=[6, 8], threads=2)
        assert a.to_csv() == b.to_csv()

    @pytest.mark.parametrize("cpus, threads, pools", [
        (2, 5000, [2]), (8, 3, [3]), (1, 4, []), (None, 4, []),
    ])
    def test_worker_pool_capped_at_cpu_count(self, monkeypatch, cpus, threads, pools):
        """The pool starts all its workers at once, so ``threads`` above the
        CPU count gets one worker per CPU, and one CPU runs serially.  The
        stub pool records its size and maps in this process."""
        started = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiment, "_WORKER_DS", None)  # restored after the test
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
        ds = small_dataset()
        config = StudyConfig(n_documents=8, n_simulations=4, n_permutations=50)
        got = run_sweep(ds, [config], doc_count_grid=[6, 8], threads=threads)
        assert started == pools
        monkeypatch.undo()
        assert got.to_csv() == run_sweep(ds, [config], doc_count_grid=[6, 8]).to_csv()

    def test_serial_sweep_does_not_pin_dataset(self):
        ds = small_dataset()
        config = StudyConfig(n_documents=6, n_simulations=4, n_permutations=50)
        run_sweep(ds, [config], doc_count_grid=[6], threads=1)
        ref = weakref.ref(ds)
        del ds
        gc.collect()
        assert ref() is None

    def test_worker_error_reaches_caller_and_pool_shuts_down(self):
        # A 5-document study over buckets of 1 and 4 documents exceeds the
        # smaller bucket's quota of 2; the per-study mode subsamples inside
        # the workers.
        ds = make_layout_dataset([1, 4], [("A", "B", "C"), ("D", "E", "F")], n_systems=3)
        config = StudyConfig(
            n_documents=5, n_simulations=40, n_permutations=50,
            doc_resampling=Resampling.PER_STUDY,
        )
        with pytest.raises(QuotaExceedsBucket):
            run_sweep(ds, [config], doc_count_grid=[2, 5], threads=2)
        assert multiprocessing.active_children() == []

    def test_zero_rater_effects_srp_non_decreasing(self):
        # only item-level noise: stability improves with more documents
        ds = generate_synthetic(
            GeneratorSpec(
                n_documents=24,
                segments_per_doc=3,
                n_systems=4,
                quality_range=(0.0, 0.5),
                item_noise_sigma=0.8,
            ),
            np.random.default_rng(4),
        )
        config = StudyConfig(n_documents=6, n_simulations=50, n_permutations=200)
        result = run_sweep(ds, [config], doc_count_grid=[6, 12, 24])
        values = [p.srp for p in result.points]
        assert values[0] <= values[1] + 0.02
        assert values[1] <= values[2] + 0.02


class TestGenerateSynthetic:
    def test_zero_noise_identical_ratings(self):
        ds = generate_synthetic(GeneratorSpec(n_documents=6), np.random.default_rng(0))
        ratings = rating_dict(ds)
        for doc in ds.doc_axis:
            for system in ds.system_axis:
                scores = {ratings[(doc, 0, system, r)].score for r in bucket_raters_of(ds, doc)}
                assert len(scores) == 1

    def test_harshness_orders_rater_means(self):
        ds = generate_synthetic(
            GeneratorSpec(n_documents=12, n_buckets=1, harshness=(0.5, 1.0, 2.0)),
            np.random.default_rng(0),
        )
        means = {}
        for rater in ds.rater_axis:
            scores = [r.score for r in rating_dict(ds).values() if r.rater_id == rater]
            means[rater] = np.mean(scores)
        assert means["rater00"] < means["rater01"] < means["rater02"]

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(n_documents=1, n_buckets=2)
        with pytest.raises(InvalidSpec):
            GeneratorSpec(harshness=(0.0,))
        with pytest.raises(InvalidSpec):
            GeneratorSpec(n_systems=1)

    def test_output_is_valid_dataset(self):
        ds = generate_synthetic(
            GeneratorSpec(n_documents=10, n_buckets=2, item_noise_sigma=0.5),
            np.random.default_rng(2),
        )
        ds.validate()
        assert ds.bucket_axis == ("b000", "b001")
        assert [raters.size for raters in ds.bucket_raters] == [3, 3]

    # Past 1,000 documents and from bucket 33 on, sorted-id order is not
    # generation order (doc1000 < doc101, rater100 < rater99), and each
    # bucket draws its documents and raters in sorted-id order.
    @pytest.mark.parametrize("spec, digest", [
        (GeneratorSpec(), "2a21d11c58e4a0687811f0660498e3b0a7dd0165e4d02c6b4cc42e3f2026d780"),
        (GeneratorSpec(n_documents=1002, n_buckets=2, segments_per_doc=1, n_systems=2),
         "408f14e17a497458abe16ccb11dbf21954d2304e32bae3ef899b90bbf104853c"),
        (GeneratorSpec(n_documents=40, n_buckets=35, segments_per_doc=1, n_systems=2),
         "eb34a55a66e0bfc4b6c460f3d28d3ce5e91af099b71d3dc9cf4d6fabb936bab7"),
    ], ids=["default", "1002_docs", "35_buckets"])
    def test_export_bytes_pinned(self, spec, digest):
        text = export_tsv(generate_synthetic(spec, np.random.default_rng(3)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestConfigFiles:
    def test_load_sweep_config(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "[sweep]\n"
            "doc_counts = 6 12\n"
            "seed = 9\n"
            "n_simulations = 20\n"
            "n_permutations = 50\n"
            "[study:psxs]\n"
            "item_grouping = psxs\n"
            "[study:imbalanced]\n"
            "item_grouping = no_grouping\n"
            "load_balancing = entropy_target:0.5\n"
            "normalization = zscore\n"
        )
        configs, grid = load_sweep_config(path)
        assert grid == [6, 12]
        assert [c.label for c in configs] == ["psxs", "imbalanced"]
        assert configs[0].master_seed == 9
        assert configs[0].n_simulations == 20
        assert configs[1].grouping is Grouping.NO_GROUPING
        assert configs[1].balancing.target == 0.5
        assert configs[1].normalization is NormalizationScheme.ZSCORE

    def test_load_generator_spec(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text(
            "[generator]\n"
            "n_documents = 16\n"
            "n_systems = 5\n"
            "harshness = 0.5 1.0 2.0\n"
            "item_noise_sigma = 0.4\n"
        )
        spec = load_generator_spec(path)
        assert spec.n_documents == 16
        assert spec.harshness == (0.5, 1.0, 2.0)
        assert spec.item_noise_sigma == 0.4

    @pytest.mark.parametrize(
        "text",
        [
            "[DEFAULT]\ndoc_counts = 6 12\nseed = 9\n[study:a]\n",
            "[DEFAULT]\ndoc_counts = 6 12\n[sweep]\nseed = 9\n[study:a]\n",
        ],
        ids=["without_sweep", "with_sweep"],
    )
    def test_default_section_doc_counts_is_the_grid(self, tmp_path, text):
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        configs, grid = load_sweep_config(path)
        assert grid == [6, 12]
        assert [(c.label, c.master_seed) for c in configs] == [("a", 9)]

    @pytest.mark.parametrize(
        "study, seed",
        [("", 2), ("seed = 1\n", 1), ("seed = 3\n", 3)],
        ids=["from_sweep", "restated_default", "own"],
    )
    def test_section_precedence(self, tmp_path, study, seed):
        # [DEFAULT] < [sweep] < [study:NAME]: configparser hands [DEFAULT]'s
        # keys to every section, which must not let them beat [sweep].
        path = tmp_path / "sweep.cfg"
        path.write_text(f"[DEFAULT]\nseed = 1\n[sweep]\nseed = 2\n[study:a]\n{study}")
        configs, _ = load_sweep_config(path)
        assert [c.master_seed for c in configs] == [seed]

    @pytest.mark.parametrize("shared", ["DEFAULT", "sweep"])
    def test_doc_counts_only_in_shared_sections(self, tmp_path, shared):
        path = tmp_path / "sweep.cfg"
        path.write_text(f"[{shared}]\ndoc_counts = 6\n[study:a]\ndoc_counts = 12\n")
        with pytest.raises(ConfigError, match="unknown key 'doc_counts' in \\[study:a\\]"):
            load_sweep_config(path)

    def test_readme_examples_load(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        sweep, generator = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        (tmp_path / "sweep.cfg").write_text(sweep, encoding="utf-8")
        (tmp_path / "gen.cfg").write_text(generator, encoding="utf-8")
        configs, grid = load_sweep_config(tmp_path / "sweep.cfg")
        spec = load_generator_spec(tmp_path / "gen.cfg")
        assert [c.label for c in configs] == ["psxs", "imbalanced"] and grid
        assert spec.harshness == (0.5, 1.0, 2.0)


@st.composite
def study_configs(draw) -> StudyConfig:
    grouping = draw(st.sampled_from(Grouping))
    # load_balancing writes the target with :g, six significant digits.
    target = None if grouping is Grouping.SYSTEM_BALANCED else draw(
        st.none() | st.integers(0, 1000).map(lambda k: k / 1000)
    )
    alpha = draw(st.floats(1e-3, 1.0, exclude_max=True))
    return StudyConfig(
        n_documents=draw(st.integers(1, 10**4)),
        grouping=grouping,
        balancing=LoadBalancing(target, draw(st.floats(0.0, 1.0))),
        normalization=draw(st.sampled_from(NormalizationScheme)),
        ratings_per_item=draw(st.sampled_from([1, 2])),
        doc_resampling=draw(st.sampled_from([Resampling.PER_STUDY, Resampling.PER_50])),
        n_simulations=draw(st.integers(2, 10**6)),
        n_permutations=draw(st.integers(math.ceil(1 / alpha), 10**6)),
        alpha=alpha,
        master_seed=draw(st.integers(0, 2**63)),
        label="study",
    )


@settings(max_examples=100, deadline=None)
@given(study_configs())
def test_study_config_round_trips_through_its_sweep_columns(config):
    """Every methodology column of sweep.csv is a study key the parser reads back."""
    values = {
        **methodology(config),
        "num_documents": config.n_documents,
        "entropy_tolerance": config.balancing.tolerance,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "study.cfg"
        path.write_text("[study]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        assert load_study_config(path) == config
