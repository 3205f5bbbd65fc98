import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kendalltau

from stabeval.errors import (
    EmptyWorkload,
    MismatchedDocuments,
    NoAdmissiblePairs,
    SystemSetMismatch,
    UnknownRater,
)
from stabeval.stats import (
    SignificanceMatrix,
    kendall_tau,
    normalized_entropy,
    permutation_test,
    rater_agreement,
    rater_distribution,
    same_documents,
    significance_matrix,
    sr,
    srp,
    srp_pairs,
)
from stabeval.scoring import ordered_sums

from conftest import make_layout_dataset, study_from_entries


def exhaustive_permutation_p(scores_a, scores_b):
    """Independent oracle: enumerate all 2^n_docs grouped label swaps directly
    from the test's definition (swap a document's segment lists wholesale)."""
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
        stat = abs(np.mean(a) - np.mean(b))
        if stat >= observed - 1e-12:
            hits += 1
    return hits / 2 ** len(docs)


class TestPermutationTest:
    def test_identical_scores_give_p_one(self, rng):
        scores = {"d1": [1.0, 2.0], "d2": [0.0]}
        assert permutation_test(scores, scores, 200, rng) == 1.0

    def test_four_doc_constant_margin_oracle(self):
        a = {f"d{i}": [0.0] for i in range(4)}
        b = {f"d{i}": [1.0] for i in range(4)}
        assert exhaustive_permutation_p(a, b) == pytest.approx(0.125)

    def test_monte_carlo_tracks_oracle(self, rng):
        a = {f"d{i}": [0.0, 0.2] for i in range(6)}
        b = {f"d{i}": [1.0, 0.9] for i in range(6)}
        exact = exhaustive_permutation_p(a, b)
        mc = permutation_test(a, b, 2000, rng)
        assert mc == pytest.approx(exact, abs=0.03)

    def test_strong_separation_is_significant(self, rng):
        a = {f"d{i}": [0.1 * (i % 3)] for i in range(20)}
        b = {f"d{i}": [5.0 + 0.1 * (i % 3)] for i in range(20)}
        p = permutation_test(a, b, 500, rng)
        assert p <= 0.002

    def test_p_value_bounds(self, rng):
        a = {f"d{i}": [float(i)] for i in range(5)}
        b = {f"d{i}": [float(i) + 2.0] for i in range(5)}
        p = permutation_test(a, b, 100, rng)
        assert 1 / 101 <= p <= 1.0

    def test_two_sided_symmetry(self):
        a = {f"d{i}": [float(i % 2)] for i in range(8)}
        b = {f"d{i}": [1.5] for i in range(8)}
        p1 = permutation_test(a, b, 400, np.random.default_rng(3))
        p2 = permutation_test(b, a, 400, np.random.default_rng(3))
        assert p1 == p2

    def test_mismatched_documents_rejected(self, rng):
        with pytest.raises(MismatchedDocuments):
            permutation_test({"d1": [1.0]}, {"d2": [1.0]}, 10, rng)
        with pytest.raises(MismatchedDocuments):
            permutation_test({"d1": [1.0, 2.0]}, {"d1": [1.0]}, 10, rng)


def separated_study(gaps, n_docs=20, jitter=0.05):
    rows = []
    rng = np.random.default_rng(99)
    for d in range(n_docs):
        for i, base in enumerate(gaps):
            rows.append(
                (f"d{d:02d}", 0, f"sys{i}", "r", base + jitter * rng.random(), 1)
            )
    return study_from_entries(rows)


class TestSignificanceMatrix:
    def test_tied_systems_no_direction(self, rng):
        rows = [(f"d{d}", 0, s, "r", 1.0, 1) for d in range(4) for s in ("a", "b")]
        matrix = significance_matrix(study_from_entries(rows), 0.05, 200, rng)
        assert not matrix.sig.any()
        assert not matrix.better.any()

    def test_well_separated_three_systems(self, rng):
        matrix = significance_matrix(separated_study([0.8, 1.2, 2.9]), 0.05, 500, rng)
        assert matrix.sig[0, 1] and matrix.sig[0, 2] and matrix.sig[1, 2]
        assert not matrix.sig[1, 0] and not matrix.sig[2, 0] and not matrix.sig[2, 1]

    def test_sig_subset_of_better(self, rng):
        for seed in range(10):
            rows = [
                (f"d{d}", 0, s, "r", float(np.random.default_rng(seed + 50 * d).random()), 1)
                for d in range(6)
                for s in ("a", "b", "c")
            ]
            matrix = significance_matrix(study_from_entries(rows), 0.05, 100, rng)
            assert not (matrix.sig & ~matrix.better).any()
            assert not (matrix.sig & matrix.sig.T).any()
            assert not matrix.sig.diagonal().any()


def make_matrix(systems, sig_pairs, means):
    n = len(systems)
    means = np.asarray(means, dtype=float)
    sig = np.zeros((n, n), dtype=bool)
    for i, j in sig_pairs:
        sig[i, j] = True
    return SignificanceMatrix(tuple(systems), means, sig)


class TestSrAndSrp:
    def test_self_agreement(self):
        e = make_matrix(["a", "b"], [(0, 1)], [1.0, 2.0])
        assert sr(e, e) == 1

    def test_contradiction(self):
        e1 = make_matrix(["a", "b"], [(0, 1)], [1.0, 2.0])
        e2 = make_matrix(["a", "b"], [], [2.0, 1.0])
        assert sr(e1, e2) == 0

    def test_vacuous_truth(self):
        e1 = make_matrix(["a", "b"], [], [1.0, 2.0])
        e2 = make_matrix(["a", "b"], [], [2.0, 1.0])
        assert sr(e1, e2) == 1

    def test_reordered_systems_rejected(self):
        e1 = make_matrix(["a", "b"], [(0, 1)], [1.0, 2.0])
        e2 = make_matrix(["b", "a"], [], [2.0, 1.0])  # same rankings, reordered
        message = r"study 1 ranks \('b', 'a'\), study 0 \('a', 'b'\)"
        for score in (sr, lambda x, y: srp([x, y]), lambda x, y: srp_pairs([x, y])):
            with pytest.raises(SystemSetMismatch, match=message):
                score(e1, e2)

    def test_system_set_mismatch(self):
        e1 = make_matrix(["a", "b"], [], [1.0, 2.0])
        e2 = make_matrix(["a", "c"], [], [1.0, 2.0])
        for score in (sr, lambda x, y: srp([x, y]), lambda x, y: srp_pairs([x, y])):
            with pytest.raises(SystemSetMismatch):
                score(e1, e2)

    def test_identical_studies_srp_one(self):
        e = make_matrix(["a", "b"], [(0, 1)], [1.0, 2.0])
        value, n_pairs = srp([e, e])
        assert value == 1.0 and n_pairs == 2
        value, n_pairs = srp([e] * 5)
        assert value == 1.0 and n_pairs == 20

    def test_hand_enumerated_half(self):
        e1 = make_matrix(["a", "b"], [(0, 1)], [1.0, 2.0])
        e2 = make_matrix(["a", "b"], [], [2.0, 1.0])
        value, n_pairs = srp([e1, e2])
        assert value == 0.5 and n_pairs == 2

    def test_pair_filter_and_no_admissible(self):
        e1 = make_matrix(["a", "b"], [], [1.0, 2.0])
        e1.doc_set = frozenset({"d1"})
        e2 = make_matrix(["a", "b"], [], [1.0, 2.0])
        e2.doc_set = frozenset({"d2"})
        with pytest.raises(NoAdmissiblePairs):
            srp([e1, e2], pair_filter=same_documents)
        e3 = make_matrix(["a", "b"], [], [1.0, 2.0])
        e3.doc_set = frozenset({"d1"})
        value, n_pairs = srp([e1, e2, e3], pair_filter=same_documents)
        assert value == 1.0 and n_pairs == 2

    @given(st.integers(0, 2**30), st.integers(2, 6), st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_srp_in_unit_interval(self, seed, n_studies, n_systems):
        rng = np.random.default_rng(seed)
        studies = []
        for _ in range(n_studies):
            means = rng.random(n_systems)
            better = means[:, None] < means[None, :]
            sig = better & (rng.random((n_systems, n_systems)) < 0.5)
            studies.append(
                SignificanceMatrix(tuple(f"s{i}" for i in range(n_systems)), means, sig)
            )
        value, n_pairs = srp(studies)
        assert 0.0 <= value <= 1.0
        assert n_pairs == n_studies * (n_studies - 1)


class TestNormalizedEntropy:
    def test_uniform_is_one(self):
        assert normalized_entropy([5, 5, 5, 5], 4) == pytest.approx(1.0)

    def test_single_rater_is_zero(self):
        assert normalized_entropy([10, 0, 0], 3) == 0.0

    def test_enzh_split_value(self):
        # two raters carrying 90/91 docs out of a 6-rater pool
        assert normalized_entropy([90, 91, 0, 0, 0, 0], 6) == pytest.approx(0.387, abs=0.001)

    def test_ende_min_cover_value(self):
        # 3-rater cover of the 7-bucket rotation: doc loads ~(78, 78, 25)
        assert normalized_entropy([78, 78, 25, 0, 0, 0, 0], 7) == pytest.approx(0.51, abs=0.005)

    def test_scale_invariance(self):
        counts = [3, 1, 7, 2]
        assert normalized_entropy(counts, 5) == pytest.approx(
            normalized_entropy([10 * c for c in counts], 5)
        )

    def test_permutation_invariance(self):
        assert normalized_entropy([3, 1, 7], 4) == pytest.approx(
            normalized_entropy([7, 3, 1], 4)
        )

    def test_empty_workload_rejected(self):
        with pytest.raises(EmptyWorkload):
            normalized_entropy([0, 0], 2)


class TestKendallTau:
    def test_identical_rankings(self):
        means = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
        assert kendall_tau(means, means) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        m1 = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
        m2 = {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0}
        assert kendall_tau(m1, m2) == pytest.approx(-1.0)

    def test_one_swap(self):
        m1 = dict(zip("abcd", [1.0, 2.0, 3.0, 4.0]))
        m2 = dict(zip("abcd", [2.0, 1.0, 3.0, 4.0]))
        assert kendall_tau(m1, m2) == pytest.approx(4 / 6)

    def test_mismatch_rejected(self):
        with pytest.raises(SystemSetMismatch):
            kendall_tau({"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 2.0})

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_equals_scipy_statistic(self, data):
        """The NumPy tau-b is scipy.stats.kendalltau's statistic to the bit,
        with ties, constant inputs and NaN (NaN on both sides)."""
        n = data.draw(st.integers(2, 15), label="n")

        def column(label):
            kind = data.draw(st.sampled_from(["float", "integer", "constant"]), label=label)
            if kind == "float":
                values = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
            elif kind == "integer":
                values = st.lists(st.integers(-2, 2).map(float), min_size=n, max_size=n)
            else:
                values = st.floats(-1e6, 1e6).map(lambda v: [v] * n)
            x = np.array(data.draw(values, label=label))
            if data.draw(st.integers(0, 4), label=f"{label} nan") == 0:
                x[data.draw(st.integers(0, n - 1))] = np.nan
            return x

        x, y = column("x"), column("y")
        systems = [f"s{i:02d}" for i in range(n)]
        got = kendall_tau(dict(zip(systems, x)), dict(zip(systems, y)))
        want = kendalltau(x, y).statistic
        assert got == want or (np.isnan(got) and np.isnan(want)), (got, want)


class TestRaterAgreement:
    def test_identical_raters_agree_perfectly(self):
        ds = make_layout_dataset(
            [3],
            [("r1", "r2")],
            n_systems=3,
            segs_per_doc=2,
            score_fn=lambda doc, seg, sys, rater: 1 + int(sys[-1]),
        )
        report = rater_agreement(ds)
        single, pooled = report.per_pair[("r1", "r2")]
        assert single == pytest.approx(1.0)
        assert pooled == pytest.approx(1.0)
        assert report.grand_mean[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("granularity", ["single_document", "all_shared"])
    def test_equals_scipy_loop(self, granularity):
        """Each pair's tau and the grand mean equal a loop over the shared
        documents with scipy.stats.kendalltau, on integer scores with ties."""
        ds = make_layout_dataset(
            [4, 3, 5],
            [("A", "B", "C"), ("B", "C", "D"), ("D", "E", "F")],
            n_systems=6,
            segs_per_doc=2,
            score_fn=lambda doc, seg, sys, rater: (7 * int(doc[1:]) + 3 * seg + 5 * int(sys[1:])
                                                   + ord(rater)) % 4,
        )
        sums, counts = ordered_sums(ds.scores, axis=2)
        want = {}
        for r1, r2 in itertools.combinations(range(len(ds.rater_axis)), 2):
            docs = np.flatnonzero(ds.eligible[:, r1] & ds.eligible[:, r2])
            if len(docs) == 0:
                continue
            if granularity == "single_document":
                taus = [kendalltau(*(sums[:, d, [r1, r2]] / counts[:, d, [r1, r2]]).T).statistic
                        for d in docs]
                taus = [t for t in taus if not np.isnan(t)]
                tau = float(np.mean(taus)) if taus else float("nan")
            else:
                total, n = np.zeros((len(ds.system_axis), 2)), np.zeros((len(ds.system_axis), 2))
                for d in docs:
                    total += sums[:, d, [r1, r2]]
                    n += counts[:, d, [r1, r2]]
                tau = float(kendalltau(*(total / n).T).statistic)
            want[(ds.rater_axis[r1], ds.rater_axis[r2])] = tau
        column = ["single_document", "all_shared"].index(granularity)
        report = rater_agreement(ds)
        assert report.per_pair.keys() == want.keys()
        for pair, tau in want.items():
            got = report.per_pair[pair][column]
            assert got == tau or (np.isnan(got) and np.isnan(tau)), pair
        values = [v for v in want.values() if not np.isnan(v)]
        assert report.grand_mean[column] == float(np.mean(values))

    def test_no_shared_documents_reported(self):
        ds = make_layout_dataset([2, 2], [("r1", "r2"), ("r3", "r4")], n_systems=2)
        report = rater_agreement(ds)
        assert ("r1", "r3") in report.skipped_pairs


class TestRaterDistribution:
    def test_zero_spike(self):
        ds = make_layout_dataset([2], [("r1", "r2")], n_systems=2)
        hist = rater_distribution(ds, "r1", [0.0, 1.0, 2.0])
        assert hist.counts[0] == 4 and hist.counts[1] == 0

    def test_unit_bins(self):
        scores = {0: 0.0, 1: 1.0, 2: 5.0, 3: 5.0}
        ds = make_layout_dataset(
            [4],
            [("r1", "r2")],
            n_systems=1,
            score_fn=lambda doc, seg, sys, rater: scores[int(doc[1:])],
        )
        hist = rater_distribution(ds, "r1", np.arange(0.0, 7.0))
        assert list(hist.counts) == [1, 1, 0, 0, 0, 2]
        assert hist.mean == pytest.approx(2.75)

    def test_unknown_rater(self):
        ds = make_layout_dataset([2], [("r1", "r2")], n_systems=2)
        with pytest.raises(UnknownRater):
            rater_distribution(ds, "nobody", [0, 1])

    def test_harsh_rater_dominates_lenient(self, rng):
        from stabeval.experiment import GeneratorSpec, generate_synthetic

        ds = generate_synthetic(
            GeneratorSpec(n_documents=20, n_buckets=1, harshness=(0.5, 1.0, 2.0)),
            rng,
        )
        edges = np.linspace(0, 15, 40)
        lenient = rater_distribution(ds, "rater00", edges)
        harsh = rater_distribution(ds, "rater02", edges)
        cdf_lenient = np.cumsum(lenient.counts) / lenient.n
        cdf_harsh = np.cumsum(harsh.counts) / harsh.n
        assert (cdf_harsh <= cdf_lenient + 1e-12).all()
        assert harsh.mean > lenient.mean


def test_stabeval_stats_is_the_module():
    """The package once re-exported ``corpus.stats`` as ``stats``, which hid
    this module: ``import stabeval.stats as m`` gave a function."""
    import stabeval
    import stabeval.stats as module

    assert isinstance(module, types.ModuleType) and stabeval.stats is module
    assert module.srp is srp and module.significance_matrix is significance_matrix
