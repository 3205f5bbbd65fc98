"""Differential tests: each vectorized path against the loop it replaced.

- ``significance_matrix`` (one sign draw and one batched product per block
  of pairs) against a loop of ``_sign_flip_p`` calls, one per pair, and the
  signs it reads from raw PCG64 words (``_flipped_signs``) against
  ``rng.integers``.
- ``srp`` (one boolean product over all study pairs) against ``srp_pairs``.
- ``build_plan``'s entropy-targeted loop (candidates scored from a running sum of c log c
  read from a table) against ``entropy_target_oracle`` below, which recomputes the full entropy
  for every candidate.

Each pair must agree exactly, including the RNG state afterwards.
"""

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
    SignificanceMatrix,
    _flipped_signs,
    _pair_blocks,
    _sign_flip_p,
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
    """(means, sig, better) from one ``_sign_flip_p`` call per pair, in (i, j) order."""
    n_sys, n_docs = len(study.systems), study.scores.shape[1]
    eff = study.effective_scores()
    eff_sys, eff_doc, _ = np.nonzero(~np.isnan(eff))
    sums = np.zeros((n_sys, n_docs))
    counts = np.zeros((n_sys, n_docs), dtype=np.intp)
    np.add.at(sums, (eff_sys, eff_doc), eff[~np.isnan(eff)])
    np.add.at(counts, (eff_sys, eff_doc), 1)
    totals = counts.sum(axis=1)
    means = sums.sum(axis=1) / totals
    sig = np.zeros((n_sys, n_sys), dtype=bool)
    better = np.zeros((n_sys, n_sys), dtype=bool)
    for i in range(n_sys):
        for j in range(i + 1, n_sys):
            p = _sign_flip_p(sums[i] - sums[j], int(totals[i]), n_perm, rng)
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


@settings(max_examples=60, deadline=None)
@given(
    first=st.lists(st.integers(1, 2 * 10**5), min_size=1, max_size=2),
    second=st.lists(st.integers(1, 2 * 10**5), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
    predraw=st.integers(0, 3),
    bit_generator=st.sampled_from(BIT_GENERATORS),
)
def test_flipped_signs_are_the_integers_draws(first, second, seed, predraw, bit_generator):
    fast, slow = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    # An odd number of earlier 32-bit draws leaves half a 64-bit word buffered.
    for rng in (fast, slow):
        rng.integers(0, 2, size=predraw, dtype=np.int32)
    # Two calls in a row: the second starts from the state the first wrote.
    for sizes in (first, second):
        # With PCG64 the next array overwrites this one's buffer, so keep copies.
        got = [signs.copy() for signs in _flipped_signs(fast, [(n,) for n in sizes])]
        for n, signs in zip(sizes, got):
            bits = slow.integers(0, 2, size=n, dtype=np.int32)
            assert signs.dtype == np.float64
            assert np.array_equal(signs, 1 - 2 * bits)
        assert same_state(fast.bit_generator.state, slow.bit_generator.state)
    assert fast.random() == slow.random()


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_flipped_signs_closed_early_leave_the_drawn_state(bit_generator):
    fast, slow = (np.random.Generator(bit_generator(5)) for _ in range(2))
    signs = _flipped_signs(fast, [(3, 7), (4,)])
    assert np.array_equal(next(signs), 1 - 2 * slow.integers(0, 2, (3, 7), dtype=np.int32))
    signs.close()
    assert same_state(fast.bit_generator.state, slow.bit_generator.state)
    assert fast.random() == slow.random()


# Three times the examples, so PCG64, the generator of every sweep, still gets about 60.
@settings(max_examples=180, deadline=None)
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
    "n_sys, n_docs, n_perm, predraw, n_blocks, pairs_per_block",
    [
        (3, 181, 500, 0, 3, 1),  # each pair is larger than the sign budget
        (15, 10, 500, 0, 9, 13),  # many pairs per block, and a last block of one
        (15, 33, 499, 1, 35, 3),  # odd block sizes carry the buffered half-word
    ],
    ids=["pair_above_budget", "many_pairs_per_block", "odd_blocks_after_odd_predraw"],
)
def test_significance_matrix_block_edges(n_sys, n_docs, n_perm, predraw, n_blocks,
                                         pairs_per_block, bit_generator):
    blocks = _pair_blocks(n_sys * (n_sys - 1) // 2, n_perm * n_docs)
    assert (len(blocks), blocks[0].stop - blocks[0].start) == (n_blocks, pairs_per_block)
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
