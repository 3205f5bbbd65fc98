"""Differential tests: each vectorized path against the loop it replaced.

- ``significance_matrix`` (one sign matrix S per study and one product for
  every pair) against a loop over the pairs, each testing ``S @ d`` over the
  same S, and, for a 2-system study, against ``permutation_test``.
- ``srp`` (one boolean product over all study pairs) against ``srp_pairs``.
- ``build_plan``'s entropy-targeted loop (candidates scored from a running sum of c log c
  read from a table) against ``entropy_target_oracle`` below, which recomputes the full entropy
  for every candidate.

Each pair must agree exactly, including the RNG state afterwards.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stabeval import assignment
from stabeval.assignment import (
    Grouping,
    LoadBalancing,
    _bucket_alphabet,
    _entropy_pool,
    build_plan,
    min_instantiable_entropy,
    subsample_documents,
)
from stabeval.errors import MismatchedDocuments, StabevalError, SystemSetMismatch, TargetUnreachable
from stabeval.scoring import ScoredStudy
from stabeval.stats import (
    _REL_TOL,
    _SIGN_CELLS,
    SignificanceMatrix,
    permutation_test,
    same_documents,
    significance_matrix,
    srp,
    srp_pairs,
)

from conftest import (
    DISJOINT_LAYOUT,
    ROTATION_LAYOUT,
    make_layout_dataset,
    plan_mask,
    study_from_entries,
)


def significance_oracle(study: ScoredStudy, alpha: float, n_perm: int, rng):
    """(means, sig, better) from one sign matrix S, drawn as ``significance_matrix``
    draws it, and a loop over the pairs (i, j > i), each with the statistic
    ``|S @ d| / segments`` of its score-sum differences d."""
    n_sys, n_docs = len(study.systems), study.scores.shape[1]
    eff = study.effective_scores()
    eff_sys, eff_doc, _ = np.nonzero(~np.isnan(eff))
    sums = np.zeros((n_sys, n_docs))
    counts = np.zeros((n_sys, n_docs), dtype=np.intp)
    np.add.at(sums, (eff_sys, eff_doc), eff[~np.isnan(eff)])
    np.add.at(counts, (eff_sys, eff_doc), 1)
    totals = counts.sum(axis=1)
    means = sums.sum(axis=1) / totals
    signs = rng.integers(0, 2, size=(n_perm, n_docs), dtype=np.int32) * 2 - 1
    sig = np.zeros((n_sys, n_sys), dtype=bool)
    better = np.zeros((n_sys, n_sys), dtype=bool)
    for i in range(n_sys):
        for j in range(i + 1, n_sys):
            d = sums[i] - sums[j]
            observed = abs(d.sum()) / totals[i]
            stats = np.abs(signs @ d) / totals[i]
            hits = np.sum(stats >= observed - _REL_TOL * (1.0 + observed))
            p = (1 + hits) / (1 + n_perm)
            if means[i] < means[j]:
                better[i, j], sig[i, j] = True, p <= alpha
            elif means[j] < means[i]:
                better[j, i], sig[j, i] = True, p <= alpha
    return means, sig, better


def make_study(n_sys: int, n_docs: int, seed: int, noisy: bool) -> ScoredStudy:
    """A study of ``n_sys`` systems over ``n_docs`` documents of 1-3 segments.

    Scores are small integers plus optional per-system offsets, so many
    documents tie between systems and many statistics tie with the observed
    one.
    """
    rng = np.random.default_rng(seed)
    segs = rng.integers(1, 4, size=n_docs)
    base = rng.integers(0, 3, size=(n_docs, 3)).astype(float)
    offset = rng.choice([0.0, 0.0, 0.5, 1.0], size=n_sys)
    entries = []
    for s in range(n_sys):
        for d in range(n_docs):
            for g in range(segs[d]):
                score = base[d, g] + offset[s] * rng.integers(0, 2)
                if noisy:
                    score += rng.normal()
                entries.append((f"d{d:03d}", g, f"s{s:02d}", "r", float(score), None))
    return study_from_entries(entries)


@st.composite
def scored_studies(draw):
    """A ``make_study`` study of 2-15 systems over 1-40 documents."""
    return make_study(draw(st.integers(2, 15)), draw(st.integers(1, 40)),
                      draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox]


def same_state(a, b) -> bool:
    """Equal bit generator states: nested dicts, with arrays in MT19937's and Philox's."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@settings(deadline=None)
@given(
    study=scored_studies(),
    n_perm=st.integers(1, 500),
    alpha=st.sampled_from([0.05, 0.2, 0.5]),
    seed=st.integers(0, 2**32 - 1),
    predraw=st.integers(0, 3),
    bit_generator=st.sampled_from(BIT_GENERATORS),
)
def test_significance_matrix_matches_pair_loop(study, n_perm, alpha, seed, predraw,
                                               bit_generator):
    fast, slow = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    # An odd number of earlier 32-bit draws leaves half a 64-bit word buffered.
    for rng in (fast, slow):
        rng.integers(0, 2, size=predraw, dtype=np.int32)
    matrix = significance_matrix(study, alpha, n_perm, fast)
    means, sig, better = significance_oracle(study, alpha, n_perm, slow)
    assert np.array_equal(matrix.means, means)
    assert np.array_equal(matrix.sig, sig)
    assert np.array_equal(matrix.better, better)
    assert same_state(fast.bit_generator.state, slow.bit_generator.state)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize(
    "n_sys, n_docs, n_perm, predraw",
    [
        (3, 181, 500, 0),  # a paper-size pool
        (15, 10, 500, 0),  # many pairs over few documents
        (15, 33, 499, 1),  # an odd permutation count after an odd predraw
    ],
    # Named after the edges of the 2**16-sign pair blocks that the kernel drew before.
    ids=["pair_above_budget", "many_pairs_per_block", "odd_blocks_after_odd_predraw"],
)
def test_significance_matrix_block_edges(n_sys, n_docs, n_perm, predraw, bit_generator):
    study = make_study(n_sys, n_docs, seed=n_docs, noisy=True)
    fast, slow = (np.random.Generator(bit_generator(n_perm)) for _ in range(2))
    for rng in (fast, slow):
        rng.integers(0, 2, size=predraw, dtype=np.int32)
    matrix = significance_matrix(study, 0.05, n_perm, fast)
    means, sig, better = significance_oracle(study, 0.05, n_perm, slow)
    assert np.array_equal(matrix.means, means)
    assert np.array_equal(matrix.sig, sig)
    assert np.array_equal(matrix.better, better)
    assert same_state(fast.bit_generator.state, slow.bit_generator.state)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("rows", [1, 7, 28])
def test_significance_matrix_row_blocks(monkeypatch, rows, bit_generator):
    """Blocks of 1, 7 and 28 sign rows, the last one short, continue one
    draw's stream after an odd predraw.  A block of 28 rows is cut into
    products of 3 rows, the last one short too."""
    n_sys, n_docs, n_perm = 6, 23, 101
    pairs = n_sys * (n_sys - 1) // 2
    cells = rows * (n_docs + pairs)
    monkeypatch.setattr("stabeval.stats._SIGN_CELLS", cells)
    assert max(1, cells // (n_docs * pairs)) == (3 if rows == 28 else 1)  # rows per product
    study = make_study(n_sys, n_docs, seed=rows, noisy=True)
    fast, slow = (np.random.Generator(bit_generator(rows)) for _ in range(2))
    for rng in (fast, slow):
        rng.integers(0, 2, size=3, dtype=np.int32)
    matrix = significance_matrix(study, 0.2, n_perm, fast)
    means, sig, better = significance_oracle(study, 0.2, n_perm, slow)
    assert np.array_equal(matrix.means, means)
    assert np.array_equal(matrix.sig, sig)
    assert np.array_equal(matrix.better, better)
    assert same_state(fast.bit_generator.state, slow.bit_generator.state)


@pytest.mark.parametrize("n_sys, n_docs", [(15, 90), (13, 20)], ids=["rotation", "disjoint"])
def test_significance_matrix_products_stay_on_one_thread(monkeypatch, n_sys, n_docs):
    """Every sign-flip product of a benchmark-shaped study has at most
    ``_SIGN_CELLS`` multiply-adds, or one row, so OpenBLAS runs it on the
    calling thread."""
    shapes = []
    real_matmul = np.matmul

    def spy(a, b, **kwargs):
        shapes.append((a.shape[0], a.shape[1], b.shape[1]))
        return real_matmul(a, b, **kwargs)

    study = make_study(n_sys, n_docs, seed=n_docs, noisy=True)
    monkeypatch.setattr(np, "matmul", spy)
    significance_matrix(study, 0.05, 500, np.random.default_rng(0))
    assert sum(rows for rows, _, _ in shapes) == 500
    assert all(rows * docs * pairs <= _SIGN_CELLS or rows == 1
               for rows, docs, pairs in shapes), shapes


def test_significance_matrix_memory_is_bounded():
    """20,000 permutations of a 181-document, 15-system study fit in 4 MB."""
    study = make_study(15, 181, seed=0, noisy=True)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        significance_matrix(study, 0.05, 20_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000


def test_two_system_matrix_is_the_permutation_test():
    """With 2 systems the kernel draws what ``permutation_test`` draws, so the
    exhaustive oracle of acceptance 2, which checks the mapping reference,
    also covers the kernel."""
    outcomes = set()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        scores = {"a": {}, "b": {}}
        for d in range(int(rng.integers(4, 31))):
            n_segs = int(rng.integers(1, 4))
            scores["a"][f"d{d:02d}"] = rng.normal(1.0, 1.0, n_segs).tolist()
            scores["b"][f"d{d:02d}"] = rng.normal(1.3, 1.0, n_segs).tolist()
        study = study_from_entries([
            (doc, g, system, "r", x, None)
            for system, docs in scores.items() for doc, segs in docs.items()
            for g, x in enumerate(segs)
        ])
        fast, slow = np.random.default_rng(seed + 10_000), np.random.default_rng(seed + 10_000)
        matrix = significance_matrix(study, 0.05, 200, fast)
        reached = permutation_test(scores["a"], scores["b"], 200, slow) <= 0.05
        a_total, b_total = (sum(map(sum, scores[s].values())) for s in "ab")
        assert matrix.sig[0, 1] == (reached and a_total < b_total), seed
        assert matrix.sig[1, 0] == (reached and b_total < a_total), seed
        assert fast.bit_generator.state == slow.bit_generator.state
        outcomes.add(bool(reached))
    assert outcomes == {True, False}


def test_significance_matrix_names_first_mismatched_pair():
    entries = [(d, 0, s, "r", 1.0, None) for s in ("a", "b", "c", "d") for d in ("x", "y")]
    entries = [e for e in entries if (e[0], e[2]) not in {("y", "c"), ("y", "d")}]
    with pytest.raises(MismatchedDocuments, match="systems a and c cover different segments"):
        significance_matrix(study_from_entries(entries), 0.05, 10, np.random.default_rng(0))


@st.composite
def matrix_sets(draw):
    """2-12 significance matrices over one system set, with doc sets drawn from
    a few shared sets and None.  In half the sets each study may rank the
    systems in its own (permuted) order, which both scorers must reject."""
    n_studies = draw(st.integers(2, 12))
    n_sys = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    systems = [f"s{i}" for i in range(n_sys)]
    doc_sets = [None, frozenset({"a"}), frozenset({"a", "b"}), frozenset({"c"})]
    reorder = draw(st.booleans())
    out = []
    for _ in range(n_studies):
        permuted = reorder and draw(st.booleans())
        order = list(rng.permutation(n_sys)) if permuted else list(range(n_sys))
        means = rng.integers(0, 3, size=n_sys).astype(float)
        better = means[:, None] < means[None, :]
        sig = better & (rng.random((n_sys, n_sys)) < draw(st.sampled_from([0.0, 0.3, 1.0])))
        doc_set = doc_sets[draw(st.integers(0, len(doc_sets) - 1))]
        perm = np.ix_(order, order)
        out.append(
            SignificanceMatrix(tuple(systems[i] for i in order), means[order], sig[perm], doc_set)
        )
    return out


def srp_or_error(fn, studies, pair_filter):
    try:
        return fn(studies, pair_filter)
    except StabevalError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(studies=matrix_sets(), pair_filter=st.sampled_from([None, same_documents]))
def test_srp_matches_pair_loop(studies, pair_filter):
    got = srp_or_error(srp, studies, pair_filter)
    want = srp_or_error(srp_pairs, studies, pair_filter)
    assert got == want


def test_srp_requires_one_system_set():
    """Both scorers check every study, also one that no admitted pair holds."""
    one = SignificanceMatrix(("a", "b"), np.zeros(2), np.zeros((2, 2), bool), frozenset({"x"}))
    other = SignificanceMatrix(("a", "c"), np.zeros(2), np.zeros((2, 2), bool), frozenset({"y"}))
    for score in (srp, srp_pairs):
        with pytest.raises(SystemSetMismatch, match=r"study 2 ranks \('a', 'c'\)"):
            score([one, one, other], same_documents)


def test_srp_rejects_other_filters():
    e = SignificanceMatrix(("a", "b"), np.zeros(2), np.zeros((2, 2), bool))
    with pytest.raises(ValueError):
        srp([e, e], lambda e1, e2: True)


def entropy_target_oracle(ds, study_docs, target, tolerance, rng, max_retries, grouping,
                          ratings_per_item):
    """``build_plan``'s entropy-targeted loop with the full entropy recomputed
    for every candidate; returns the plan's (system, doc, rater) mask.  Like
    it, gives up after a first failed attempt when ``min_instantiable_entropy``
    of the study's buckets exceeds ``target + tolerance`` (every layout here
    is small enough for that brute force)."""
    symbols = _entropy_pool(ds, ratings_per_item)
    symbol_pos = {s: i for i, s in enumerate(symbols)}
    docs = np.array(study_docs, dtype=np.intp)
    psxs = grouping is Grouping.PSXS
    n_systems = len(ds.system_axis)
    weight = n_systems if psxs else 1
    eligible = []
    for d in docs:
        alphabet = _bucket_alphabet(ds, ds.doc_bucket[d], ratings_per_item)
        eligible += [[symbol_pos[a] for a in alphabet]] * (1 if psxs else n_systems)
    log_pool = np.log(len(symbols))

    def entropy(counts):
        p = counts[counts > 0] / counts.sum()
        return float(-(p * np.log(p)).sum() / log_pool)

    buckets = sorted(set(ds.doc_bucket[docs].tolist()))
    least = min_instantiable_entropy(
        [sum(ds.doc_bucket[d] == b for d in docs) for b in buckets],
        [_bucket_alphabet(ds, b, ratings_per_item) for b in buckets],
        len(symbols),
    )
    for attempt in range(max_retries):
        if attempt == 1 and target + tolerance < least - 1e-9:
            break
        picks = [candidates[rng.integers(len(candidates))] for candidates in eligible]
        counts = np.bincount(picks, minlength=len(symbols)) * float(weight)
        for u in rng.permutation(len(eligible)):
            counts[picks[u]] -= weight
            gaps = np.empty(len(eligible[u]))
            for k, cand in enumerate(eligible[u]):
                counts[cand] += weight
                gaps[k] = abs(entropy(counts) - target)
                counts[cand] -= weight
            best = np.flatnonzero(gaps <= gaps.min() + 1e-12)
            picks[u] = eligible[u][best[rng.integers(len(best))]]
            counts[picks[u]] += weight
        if abs(entropy(counts) - target) <= tolerance:
            # Under pSxS a unit is a document; otherwise the (doc, system)
            # items in doc-major order.
            chosen = np.zeros((n_systems, *ds.eligible.shape), dtype=bool)
            rows = np.array(symbols)[picks]
            if psxs:
                chosen[:, docs[:, None], rows] = True
            else:
                units = np.arange(len(eligible))
                chosen[units[:, None] % n_systems, docs[units // n_systems, None], rows] = True
            return chosen
    raise TargetUnreachable("no attempt reached the target")


# Buckets of 2, 3 and 4 raters, sharing rater B: units with alphabets of
# different sizes.  Double rating needs 3-rater buckets, so this layout is
# single-rated only.
MIXED_LAYOUT = ([12, 11, 13], [("A", "B"), ("C", "D", "E"), ("B", "F", "G", "H")])
LAYOUT_DATASETS = {
    name: make_layout_dataset(*layout, n_systems=3)
    for name, layout in (
        ("rotation", ROTATION_LAYOUT), ("disjoint", DISJOINT_LAYOUT), ("mixed", MIXED_LAYOUT)
    )
}


@settings(max_examples=90, deadline=None)
@given(
    layout=st.sampled_from(sorted(LAYOUT_DATASETS)),
    grouping=st.sampled_from([Grouping.PSXS, Grouping.NO_GROUPING]),
    ratings_per_item=st.sampled_from([1, 2]),
    n_docs=st.integers(1, 30),
    target=st.one_of(st.sampled_from([0.5, 0.7, 0.85, 1.0]), st.floats(0.0, 1.0)),
    tolerance=st.sampled_from([0.01, 0.03, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_entropy_delta_matches_full_recompute(
    layout, grouping, ratings_per_item, n_docs, target, tolerance, seed
):
    assume(layout != "mixed" or ratings_per_item == 1)
    ds = LAYOUT_DATASETS[layout]
    subset = subsample_documents(ds, n_docs, np.random.default_rng(seed))
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    balancing = LoadBalancing(target, tolerance)
    try:
        # A function-scoped monkeypatch fixture fails hypothesis's health check.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(assignment, "_MAX_ATTEMPTS", 5)
            got = plan_mask(build_plan(ds, subset, grouping, balancing, ratings_per_item, fast), ds)
    except TargetUnreachable:
        got = TargetUnreachable
    try:
        want = entropy_target_oracle(ds, subset, target, tolerance, slow, 5, grouping,
                                     ratings_per_item)
    except TargetUnreachable:
        want = TargetUnreachable
    if got is TargetUnreachable or want is TargetUnreachable:
        assert got is want
    else:
        assert np.array_equal(got, want)
    assert fast.bit_generator.state == slow.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    bounds=st.lists(st.one_of(st.integers(1, 5), st.integers(1, 2**40)), max_size=40),
    seed=st.integers(0, 2**32 - 1),
    predraw=st.integers(0, 1),
)
def test_integers_over_an_array_of_bounds_is_the_scalar_loop(bounds, seed, predraw):
    """The entropy-targeted loop draws its initial picks in one call and skips
    the tie-break draw for a lone best candidate."""
    vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    # An odd number of earlier 32-bit draws leaves half a 64-bit word buffered.
    for rng in (vector, scalar):
        rng.integers(0, 2, size=predraw, dtype=np.int32)
    got = vector.integers(0, np.array(bounds, dtype=np.int64))
    assert got.tolist() == [scalar.integers(bound) for bound in bounds]
    assert vector.bit_generator.state == scalar.bit_generator.state
    vector.integers(1)
    assert vector.bit_generator.state == scalar.bit_generator.state
