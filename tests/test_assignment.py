from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stabeval import assignment
from stabeval.assignment import (
    Grouping,
    LoadBalancing,
    build_plan,
    min_instantiable_entropy,
    subsample_documents,
)
from stabeval.errors import (
    BucketArityUnsupported,
    QuotaExceedsBucket,
    TargetUnreachable,
)
from stabeval.stats import normalized_entropy

from conftest import (
    DISJOINT_LAYOUT,
    ROTATION_LAYOUT,
    all_docs,
    bucket_raters_of,
    bucket_sets,
    make_layout_dataset,
    plan_items,
)


def doc_counts(plan, ds):
    """Documents per rater, counting each (doc, rater) once."""
    seen = set()
    for doc, _sys, raters in plan_items(plan, ds):
        for r in raters:
            seen.add((doc, r))
    return Counter(r for _doc, r in seen)


def pair_workload(plan, ds):
    """Items per rater set."""
    return Counter(raters for _doc, _sys, raters in plan_items(plan, ds))


def full_workload(plan, ds):
    """Item-rating counts over the whole rater pool, by ``rater_axis`` position."""
    counts = plan.workload()
    return np.pad(counts, (0, len(ds.rater_axis) - len(counts)))


def test_workload_counts_item_ratings_by_rater_position(rng):
    ds = make_layout_dataset(*DISJOINT_LAYOUT, n_systems=3)
    plan = build_plan(ds, all_docs(ds), Grouping.NO_GROUPING, LoadBalancing(), 2, rng)
    want = Counter(r for _doc, _sys, raters in plan_items(plan, ds) for r in raters)
    assert plan.workload().tolist() == [want[r] for r in ds.rater_axis]


class TestPsxsBalanced:
    def test_divisible_bucket(self, rng):
        ds = make_layout_dataset([6], [("r1", "r2", "r3")], n_systems=3)
        plan = build_plan(ds, all_docs(ds), Grouping.PSXS, LoadBalancing(), 1, rng)
        assert sorted(doc_counts(plan, ds).values()) == [2, 2, 2]

    def test_pigeonhole_bucket(self, rng):
        ds = make_layout_dataset([7], [("r1", "r2", "r3")], n_systems=2)
        plan = build_plan(ds, all_docs(ds), Grouping.PSXS, LoadBalancing(), 1, rng)
        assert sorted(doc_counts(plan, ds).values()) == [2, 2, 3]

    def test_document_grouping_invariant(self, rng):
        ds = make_layout_dataset([5, 5], [("r1", "r2", "r3"), ("r4", "r5", "r6")], n_systems=4)
        plan = build_plan(ds, all_docs(ds), Grouping.PSXS, LoadBalancing(), 1, rng)
        by_doc = {}
        for doc, _sys, raters in plan_items(plan, ds):
            by_doc.setdefault(doc, set()).add(raters)
        assert all(len(rater_sets) == 1 for rater_sets in by_doc.values())

    def test_rotation_layout_near_uniform_entropy(self, rng):
        ds = make_layout_dataset(*ROTATION_LAYOUT)
        plan = build_plan(ds, all_docs(ds), Grouping.PSXS, LoadBalancing(), 1, rng)
        entropy = normalized_entropy(full_workload(plan, ds), len(ds.rater_axis))
        assert entropy >= 0.99


class TestSystemBalanced:
    def test_divisible_counts(self, rng):
        ds = make_layout_dataset([6], [("r1", "r2", "r3")], n_systems=3)
        plan = build_plan(ds, all_docs(ds), Grouping.SYSTEM_BALANCED, LoadBalancing(), 1, rng)
        per_rater_system = Counter(
            (r, sys) for _doc, sys, raters in plan_items(plan, ds) for r in raters
        )
        assert all(count == 2 for count in per_rater_system.values())

    def test_spread_bound_on_uneven_layout(self, rng):
        ds = make_layout_dataset([7, 4], [("r1", "r2", "r3"), ("r4", "r5", "r6")], n_systems=5)
        plan = build_plan(ds, all_docs(ds), Grouping.SYSTEM_BALANCED, LoadBalancing(), 1, rng)
        for bucket_docs, bucket_raters in bucket_sets(ds).values():
            for system in ds.system_axis:
                counts = Counter()
                for doc, sys, raters in plan_items(plan, ds):
                    if sys == system and doc in bucket_docs:
                        for r in raters:
                            counts[r] += 1
                values = [counts.get(r, 0) for r in bucket_raters]
                assert max(values) - min(values) <= 1

    def test_differs_from_psxs_on_documents(self):
        # same-document items land on different raters for some seed
        ds = make_layout_dataset([6], [("r1", "r2", "r3")], n_systems=4)
        split_seen = False
        for seed in range(10):
            plan = build_plan(ds, all_docs(ds), Grouping.SYSTEM_BALANCED, LoadBalancing(), 1,
                              np.random.default_rng(seed))
            assignments = {(doc, sys): raters for doc, sys, raters in plan_items(plan, ds)}
            for doc in ds.doc_axis:
                raters = {assignments[(doc, s)] for s in ds.system_axis}
                if len(raters) > 1:
                    split_seen = True
        assert split_seen


class TestNoGrouping:
    def test_item_pigeonhole(self, rng):
        ds = make_layout_dataset([1], [("r1", "r2", "r3")], n_systems=4)
        plan = build_plan(ds, all_docs(ds), Grouping.NO_GROUPING, LoadBalancing(), 1, rng)
        workload = plan.workload()
        assert sorted(workload[workload > 0].tolist()) == [1, 1, 2]

    def test_breaks_document_grouping(self):
        ds = make_layout_dataset([1], [("r1", "r2", "r3")], n_systems=4)
        split_seen = False
        for seed in range(10):
            plan = build_plan(ds, all_docs(ds), Grouping.NO_GROUPING, LoadBalancing(), 1,
                              np.random.default_rng(seed))
            if len({raters for _doc, _sys, raters in plan_items(plan, ds)}) > 1:
                split_seen = True
        assert split_seen

    def test_entropy_zero_single_bucket(self, rng):
        ds = make_layout_dataset([4], [("r1", "r2", "r3")], n_systems=3)
        plan = build_plan(
            ds, all_docs(ds), Grouping.NO_GROUPING, LoadBalancing(0.0), 1, rng
        )
        assert len({r for _doc, _sys, raters in plan_items(plan, ds) for r in raters}) == 1


class TestEntropyTarget:
    def test_target_one_drives_uniform(self, rng):
        ds = make_layout_dataset(*ROTATION_LAYOUT)
        plan = build_plan(ds, all_docs(ds), Grouping.PSXS, LoadBalancing(1.0), 1, rng)
        entropy = normalized_entropy(full_workload(plan, ds), len(ds.rater_axis))
        assert entropy >= 0.97

    def test_ende_minimum_achievable(self, rng):
        ds = make_layout_dataset(*ROTATION_LAYOUT)
        plan = build_plan(ds, all_docs(ds), Grouping.PSXS, LoadBalancing(0.51), 1, rng)
        entropy = normalized_entropy(full_workload(plan, ds), len(ds.rater_axis))
        assert abs(entropy - 0.51) <= 0.03

    def test_enzh_minimum_achievable(self, rng):
        ds = make_layout_dataset(*DISJOINT_LAYOUT)
        plan = build_plan(ds, all_docs(ds), Grouping.PSXS, LoadBalancing(0.38), 1, rng)
        entropy = normalized_entropy(full_workload(plan, ds), len(ds.rater_axis))
        assert abs(entropy - 0.38) <= 0.03

    def test_below_minimum_unreachable(self, rng):
        ds = make_layout_dataset(*DISJOINT_LAYOUT)
        with pytest.raises(TargetUnreachable):
            build_plan(ds, all_docs(ds), Grouping.PSXS, LoadBalancing(0.30), 1, rng)

    @pytest.mark.parametrize("grouping", [Grouping.PSXS, Grouping.NO_GROUPING])
    @pytest.mark.parametrize("ratings_per_item", [1, 2])
    def test_below_minimum_fails_after_one_attempt(self, monkeypatch, grouping,
                                                   ratings_per_item):
        # The rotation layout's least entropy at 90 documents is ~0.51
        # (single raters) or ~0.52 (rater pairs).
        ds = make_layout_dataset(*ROTATION_LAYOUT, n_systems=15)
        subset = subsample_documents(ds, 90, np.random.default_rng(1))
        attempted = np.random.default_rng(5)
        with pytest.raises(TargetUnreachable, match="no workload entropy below 0.5"):
            build_plan(ds, subset, grouping, LoadBalancing(0.3), ratings_per_item, attempted)
        one = np.random.default_rng(5)  # the draws of a single attempt
        monkeypatch.setattr(assignment, "_MAX_ATTEMPTS", 1)
        with pytest.raises(TargetUnreachable):
            build_plan(ds, subset, grouping, LoadBalancing(0.3), ratings_per_item, one)
        assert attempted.bit_generator.state == one.bit_generator.state

    def test_intermediate_targets_within_tolerance(self, rng):
        ds = make_layout_dataset(*ROTATION_LAYOUT)
        for target in (0.6, 0.8):
            plan = build_plan(ds, all_docs(ds), Grouping.PSXS, LoadBalancing(target), 1, rng)
            entropy = normalized_entropy(full_workload(plan, ds), len(ds.rater_axis))
            assert abs(entropy - target) <= 0.03


    @pytest.mark.parametrize("n_buckets, brute_forced", [(8, True), (9, False)])
    def test_many_buckets_skip_the_brute_force(self, monkeypatch, n_buckets, brute_forced):
        # Up to 3**8 per-bucket choices the early check runs; past them it
        # gives way to the attempts.
        calls = []

        def least(counts, alphabets, pool_size):
            calls.append(len(counts))
            return 0.0  # rules out nothing, so every attempt runs

        monkeypatch.setattr(assignment, "min_instantiable_entropy", least)
        monkeypatch.setattr(assignment, "_MAX_ATTEMPTS", 2)
        assignment._least_entropy.cache_clear()
        ds = make_layout_dataset(
            [2] * n_buckets, [(f"a{i}", f"b{i}", f"c{i}") for i in range(n_buckets)]
        )
        with pytest.raises(TargetUnreachable, match="after 2 attempts"):
            build_plan(ds, all_docs(ds), Grouping.PSXS, LoadBalancing(0.0, 0.0), 1,
                       np.random.default_rng(0))
        assert calls == ([n_buckets] if brute_forced else [])
        assignment._least_entropy.cache_clear()


class TestMinInstantiableEntropy:
    def test_paper_anchors(self):
        assert min_instantiable_entropy(*ROTATION_LAYOUT, 7) == pytest.approx(0.51, abs=0.01)
        assert min_instantiable_entropy(*DISJOINT_LAYOUT, 6) == pytest.approx(0.38, abs=0.01)

    def test_single_bucket_minimum_is_zero(self):
        assert min_instantiable_entropy([10], [("a", "b", "c")], 3) == 0.0


class TestPairAssignment:
    def test_pair_round_robin(self, rng):
        ds = make_layout_dataset([6], [("r1", "r2", "r3")], n_systems=2)
        plan = build_plan(ds, all_docs(ds), Grouping.PSXS, LoadBalancing(), 2, rng)
        assert all(len(raters) == 2 for _doc, _sys, raters in plan_items(plan, ds))
        assert sorted(pair_workload(plan, ds).values()) == [4, 4, 4]  # 2 docs x 2 systems
        assert sorted(doc_counts(plan, ds).values()) == [4, 4, 4]  # each rater in 2 of 3 pairs

    def test_pair_entropy_over_pair_workload(self, rng):
        ds = make_layout_dataset([6], [("r1", "r2", "r3")], n_systems=2)
        plan = build_plan(ds, all_docs(ds), Grouping.PSXS, LoadBalancing(), 2, rng)
        counts = list(pair_workload(plan, ds).values())
        assert normalized_entropy(counts, 3) == pytest.approx(1.0)

    def test_wrong_arity_rejected(self, rng):
        ds = make_layout_dataset([4], [("r1", "r2")], n_systems=2)
        with pytest.raises(BucketArityUnsupported):
            build_plan(ds, all_docs(ds), Grouping.PSXS, LoadBalancing(), 2, rng)


class TestSubsampleDocuments:
    def test_identity_subset(self, rng):
        ds = make_layout_dataset([3, 4], [("r1", "r2", "r3"), ("r4", "r5", "r6")])
        assert subsample_documents(ds, 7, rng) == all_docs(ds)

    def test_even_quota(self, rng):
        sizes = [4] * 7
        raters = [(f"a{i}", f"b{i}", f"c{i}") for i in range(7)]
        ds = make_layout_dataset(sizes, raters)
        subset = {ds.doc_axis[d] for d in subsample_documents(ds, 14, rng)}
        for docs, _ in bucket_sets(ds).values():
            assert len(docs & subset) == 2

    def test_remainder_rule(self, rng):
        sizes = [4] * 7
        raters = [(f"a{i}", f"b{i}", f"c{i}") for i in range(7)]
        ds = make_layout_dataset(sizes, raters)
        subset = {ds.doc_axis[d] for d in subsample_documents(ds, 15, rng)}
        counts = sorted(len(docs & subset) for docs, _ in bucket_sets(ds).values())
        assert counts == [2, 2, 2, 2, 2, 2, 3]

    def test_quota_exceeds_bucket(self, rng):
        ds = make_layout_dataset([1, 8], [("r1", "r2", "r3"), ("r4", "r5", "r6")])
        with pytest.raises(QuotaExceedsBucket):
            subsample_documents(ds, 9, rng)

    def test_fewer_spare_buckets_than_remainder(self, rng):
        # A base quota of 2 leaves one bucket with a document to spare, not two.
        ds = make_layout_dataset([4, 2, 2], [(f"a{i}", f"b{i}", f"c{i}") for i in range(3)])
        with pytest.raises(QuotaExceedsBucket, match="1 have one"):
            subsample_documents(ds, 8, rng)

    @pytest.mark.parametrize("seed", [1, 2, 77])
    def test_full_rotation_pool(self, seed):
        # Base quota 25: the remainder of 6 fits only the six 26-document buckets.
        ds = make_layout_dataset(*ROTATION_LAYOUT)
        rng = np.random.default_rng(seed)
        assert subsample_documents(ds, 181, rng) == all_docs(ds)


def subsample_documents_before_cap(ds, n_target, rng):
    """``subsample_documents`` as it drew before the remainder was confined to
    buckets with a document to spare; returns their positions."""
    buckets = sorted(bucket_sets(ds).items())
    base, remainder = divmod(n_target, len(buckets))
    extra = set(rng.choice(len(buckets), size=remainder, replace=False).tolist())
    chosen = set()
    for i, (bucket_id, (doc_ids, _)) in enumerate(buckets):
        quota = base + (1 if i in extra else 0)
        docs = sorted(doc_ids)
        if quota > len(docs):
            raise QuotaExceedsBucket(f"bucket {bucket_id} has {len(docs)} documents")
        picks = rng.choice(len(docs), size=quota, replace=False)
        chosen.update(docs[p] for p in picks)
    return tuple(sorted(ds.doc_pos[d] for d in chosen))


@settings(max_examples=60, deadline=None)
@given(
    base=st.integers(0, 4),
    spares=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    remainder=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_capped_remainder_keeps_the_old_draw(base, spares, remainder, seed):
    """Where every bucket holds more than the base quota, or there is no
    remainder, the capped draw picks the same documents and leaves the
    generator in the same state.  So only a document count whose base quota
    fills some bucket and leaves a remainder can draw differently: 176-181
    documents on the rotation layout, 181 on the disjoint one."""
    assume(base > 0 or min(spares) > 0)  # no empty bucket
    remainder = remainder % len(spares) if min(spares) > 0 else 0
    assume(base * len(spares) + remainder >= 1)
    ds = make_layout_dataset(
        [base + spare for spare in spares],
        [(f"a{i}", f"b{i}", f"c{i}") for i in range(len(spares))],
    )
    n_target = base * len(spares) + remainder
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    assert subsample_documents(ds, n_target, new) == subsample_documents_before_cap(
        ds, n_target, old
    )
    assert new.bit_generator.state == old.bit_generator.state


class TestBuildPlan:
    @pytest.mark.parametrize("grouping", list(Grouping))
    def test_eligibility_invariant(self, grouping, rng):
        ds = make_layout_dataset([4, 5], [("r1", "r2", "r3"), ("r4", "r5", "r6")], n_systems=3)
        plan = build_plan(ds, all_docs(ds), grouping, LoadBalancing(), 1, rng)
        for doc, _sys, raters in plan_items(plan, ds):
            assert raters <= bucket_raters_of(ds, doc)

    def test_seed_determinism(self):
        ds = make_layout_dataset([5, 5], [("r1", "r2", "r3"), ("r4", "r5", "r6")], n_systems=3)
        for grouping in Grouping:
            p1 = build_plan(
                ds, all_docs(ds), grouping, LoadBalancing(), 1,
                np.random.default_rng(11),
            )
            p2 = build_plan(
                ds, all_docs(ds), grouping, LoadBalancing(), 1,
                np.random.default_rng(11),
            )
            assert np.array_equal(p1.docs, p2.docs)
            assert np.array_equal(p1.raters, p2.raters)

    def test_system_balanced_rejects_entropy_target(self, rng):
        ds = make_layout_dataset([4], [("r1", "r2", "r3")])
        with pytest.raises(ValueError):
            build_plan(
                ds, all_docs(ds), Grouping.SYSTEM_BALANCED,
                LoadBalancing(0.5), 1, rng,
            )

    def test_fully_balanced_near_max_entropy(self, rng):
        ds = make_layout_dataset(*ROTATION_LAYOUT, n_systems=3)
        plan = build_plan(
            ds, all_docs(ds), Grouping.PSXS, LoadBalancing(), 1, rng
        )
        entropy = normalized_entropy(full_workload(plan, ds), len(ds.rater_axis))
        assert entropy >= 1.0 - 0.01


class TestPlanValidate:
    def plan(self, grouping, ratings_per_item=1):
        ds = make_layout_dataset([3, 3], [("r1", "r2", "r3"), ("r4", "r5", "r6")], n_systems=2)
        rng = np.random.default_rng(0)
        return ds, build_plan(ds, all_docs(ds), grouping, LoadBalancing(), ratings_per_item, rng)

    def test_ineligible_rater(self):
        ds, plan = self.plan(Grouping.PSXS)
        plan.raters[:, list(plan.docs).index(ds.doc_pos["d000"])] = ds.rater_pos["r4"]
        with pytest.raises(ValueError, match="outside its document's bucket"):
            plan.validate(ds)

    def test_wrong_rater_count(self):
        ds, plan = self.plan(Grouping.NO_GROUPING, ratings_per_item=2)
        plan.raters[1, list(plan.docs).index(ds.doc_pos["d004"])] = ds.rater_pos["r4"]
        with pytest.raises(ValueError, match="not assigned exactly 2 distinct raters"):
            plan.validate(ds)

    def test_descending_slots(self):
        ds, plan = self.plan(Grouping.NO_GROUPING, ratings_per_item=2)
        item = (1, list(plan.docs).index(ds.doc_pos["d004"]))
        plan.raters[item] = plan.raters[item][::-1].copy()
        with pytest.raises(ValueError, match="in ascending slots"):
            plan.validate(ds)

    @pytest.mark.parametrize("docs", [(1, 0, 2), (0, 0, 1)])
    def test_documents_not_distinct_ascending(self, docs):
        ds = make_layout_dataset([3, 3], [("r1", "r2", "r3"), ("r4", "r5", "r6")])
        with pytest.raises(ValueError, match="not distinct ascending positions"):
            build_plan(ds, docs, Grouping.PSXS, LoadBalancing(), 1, np.random.default_rng(0))

    def test_psxs_violation(self):
        ds, plan = self.plan(Grouping.PSXS)
        i = list(plan.docs).index(ds.doc_pos["d001"])
        bucket = [ds.rater_pos[r] for r in ("r1", "r2", "r3")]  # d001's bucket
        plan.raters[1, i, 0] = bucket[(bucket.index(plan.raters[1, i, 0]) + 1) % 3]
        with pytest.raises(ValueError, match="pSxS violated"):
            plan.validate(ds)
