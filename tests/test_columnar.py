"""Identity checks for the dense rating arrays, the round-robin dealer and
the plans' rater slots.

``select_ratings`` gathers a study's (system, doc, seg, slot) ratings from
the dataset's (system, doc, seg, rater) arrays; ``select_ratings_oracle``
below walks the plan's (system, doc, rater) cells back to ids, looks each
rating up in the per-rating dict and builds the dense study, the reference
the slot study must match bit for bit.  ``generate_synthetic_oracle`` is
the per-rating generator loop that ``generate_synthetic``'s column fill
replaced.
"""

import hashlib

import numpy as np
from hypothesis import example, given, settings, strategies as st

from stabeval.assignment import Grouping, LoadBalancing, build_plan, subsample_documents
from stabeval.corpus import ErrorAnnotation, RatingDataset, Severity, export_tsv
from stabeval.errors import StabevalError
from stabeval.experiment import (
    GeneratorSpec,
    Resampling,
    StudyConfig,
    generate_synthetic,
    run_sweep,
    select_ratings,
)
from stabeval.scoring import NormalizationScheme, ScoredStudy, normalize
from stabeval.stats import significance_matrix

from conftest import (
    DISJOINT_LAYOUT,
    ROTATION_LAYOUT,
    SegmentRating,
    assert_same_buckets,
    assert_same_ratings,
    bucket_raters_of,
    build_dataset,
    make_layout_dataset,
    plan_mask,
    rating_dict,
    study_from_entries,
)

# Overlapping rater triples, so a study's rater set depends on its documents.
BUCKET_RATERS = (("A", "B", "C"), ("B", "C", "D"), ("D", "E", "F"))
DOCS_PER_BUCKET = 4


def select_ratings_oracle(ds, plan) -> ScoredStudy:
    entries, ratings = [], rating_dict(ds)
    for s, d, r in np.argwhere(plan_mask(plan, ds)):
        doc_id, system_id, rater_id = ds.doc_axis[d], ds.system_axis[s], ds.rater_axis[r]
        for seg in range(ds.seg_counts[d]):
            rating = ratings[(doc_id, seg, system_id, rater_id)]
            entries.append((doc_id, seg, system_id, rater_id, rating.score, rating.n_errors))
    return study_from_entries(entries)


def annotated_dataset(seed: int, score_only: bool) -> RatingDataset:
    """Three buckets, 1-4 segments per document, 0-3 errors per rating.

    Document ids are inserted in shuffled order, so sorted-id order differs
    from insertion order.
    """
    rng = np.random.default_rng(seed)
    names = [f"d{i:02d}" for i in rng.permutation(len(BUCKET_RATERS) * DOCS_PER_BUCKET)]
    systems = ["sysB", "sysA", "sysD", "sysC"]
    documents, buckets, ratings = {}, {}, {}
    for b, raters in enumerate(BUCKET_RATERS):
        docs = names[b * DOCS_PER_BUCKET : (b + 1) * DOCS_PER_BUCKET]
        buckets[f"b{b}"] = (docs, raters)
        for doc in docs:
            documents[doc] = int(rng.integers(1, 5))
            for seg in range(documents[doc]):
                for system in systems:
                    for rater in raters:
                        n = int(rng.integers(0, 4))
                        annotations = None if score_only else (
                            (ErrorAnnotation("Accuracy", Severity.MINOR),) * n
                        )
                        ratings[(doc, seg, system, rater)] = SegmentRating(
                            doc, seg, system, rater, annotations, n + float(rng.random())
                        )
    return build_dataset("xx-yy", systems, documents, buckets, ratings)


def study_ratings(study: ScoredStudy):
    """Each rating's (system, doc, seg, rater) positions in the study's axes,
    its score and its error count, in rating order."""
    system, doc, seg, _ = np.nonzero(study.rated)
    rater = np.broadcast_to(study.slots[:, :, None, :], study.rated.shape)[study.rated]
    return (
        np.stack([system, doc, seg, rater]),
        study.scores[study.rated],
        study.n_errors[study.rated],
    )


def assert_same_study(got: ScoredStudy, want: ScoredStudy) -> None:
    """The same ratings, in the same order, whatever the two studies' slots."""
    assert (got.systems, got.raters) == (want.systems, want.raters)
    for name, a, b in zip(("cells", "scores", "n_errors"), study_ratings(got), study_ratings(want)):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=True), name


def normalized_or_error(study, scheme):
    try:
        return normalize(study, scheme)
    except StabevalError as exc:
        return type(exc)


balancings = st.one_of(
    st.just(LoadBalancing()),
    # A tolerance of 1 accepts the first greedy pass, so every target is reachable.
    st.floats(0.0, 1.0).map(lambda t: LoadBalancing(t, tolerance=1.0)),
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    grouping=st.sampled_from(list(Grouping)),
    balancing=balancings,
    ratings_per_item=st.sampled_from([1, 2]),
    n_docs=st.integers(1, len(BUCKET_RATERS) * DOCS_PER_BUCKET),
    score_only=st.booleans(),
)
def test_select_ratings_matches_dict_oracle(
    seed, grouping, balancing, ratings_per_item, n_docs, score_only
):
    if grouping is Grouping.SYSTEM_BALANCED:
        balancing = LoadBalancing()
    ds = annotated_dataset(seed % 1000, score_only)
    rng = np.random.default_rng(seed)
    subset = subsample_documents(ds, n_docs, rng)
    plan = build_plan(ds, subset, grouping, balancing, ratings_per_item, rng)
    got, want = select_ratings(ds, plan), select_ratings_oracle(ds, plan)
    assert_same_study(got, want)
    for scheme in NormalizationScheme:
        got_n, want_n = normalized_or_error(got, scheme), normalized_or_error(want, scheme)
        if isinstance(want_n, ScoredStudy):
            assert_same_study(got_n, want_n)
        else:
            assert got_n is want_n


def cell_score(doc_id, seg, system_id, rater_id):  # distinct enough to tell cells apart
    return (int(doc_id[1:]) * 7 + seg * 3 + int(system_id[1:]) * 5 + ord(rater_id)) % 11 / 4


def edge_plans():
    """Plans over the first, the last, both, or one middle document position.

    Single- and double-rated, grouped (psxs) and not, on the shuffled-id
    annotated dataset and on the 181-document rotation layout.
    """
    datasets = [annotated_dataset(seed, score_only=False) for seed in range(3)]
    datasets.append(make_layout_dataset(*ROTATION_LAYOUT, n_systems=3, segs_per_doc=2,
                                        score_fn=cell_score))
    for ds in datasets:
        last = len(ds.doc_axis) - 1
        for positions in ([0], [last], [0, last], [last // 2], [0, last // 2, last]):
            for grouping in (Grouping.PSXS, Grouping.NO_GROUPING):
                for ratings_per_item in (1, 2):
                    rng = np.random.default_rng(len(positions))
                    plan = build_plan(ds, positions, grouping, LoadBalancing(),
                                      ratings_per_item, rng)
                    yield ds, positions, plan


def test_select_ratings_at_the_pool_edges():
    n_plans = 0
    for ds, positions, plan in edge_plans():
        assert plan.docs.tolist() == positions
        assert_same_study(select_ratings(ds, plan), select_ratings_oracle(ds, plan))
        n_plans += 1
    assert n_plans == 4 * 5 * 2 * 2


def test_select_ratings_with_a_flat_unique_inverse(monkeypatch):
    # NumPy 1.x returns ``np.unique``'s inverse flattened, NumPy 2 shaped like its input.
    plans = [(ds, plan) for ds, positions, plan in edge_plans() if len(positions) == 3]
    wants = [select_ratings_oracle(ds, plan) for ds, plan in plans]
    unique = np.unique

    def flat_inverse_unique(ar, return_inverse=False):
        assert return_inverse
        values, inverse = unique(ar, return_inverse=True)
        return values, inverse.ravel()

    monkeypatch.setattr(np, "unique", flat_inverse_unique)
    for (ds, plan), want in zip(plans, wants):
        got = select_ratings(ds, plan)
        assert got.slots.shape == plan.raters.shape
        assert_same_study(got, want)


SLOT_DATASETS = {
    "rotation": make_layout_dataset(*ROTATION_LAYOUT, n_systems=3, segs_per_doc=2,
                                    score_fn=cell_score),
    "disjoint": make_layout_dataset(*DISJOINT_LAYOUT, n_systems=3, segs_per_doc=2,
                                    score_fn=cell_score),
    "synthetic": generate_synthetic(
        GeneratorSpec(n_documents=18, segments_per_doc=3, n_systems=4, n_buckets=3,
                      harshness=(0.5, 1.0, 2.0), item_noise_sigma=0.5, rater_noise_sigma=0.5),
        np.random.default_rng(7),
    ),
    # 1-4 segments per document and error counts.
    "annotated": annotated_dataset(11, score_only=False),
}


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    layout=st.sampled_from(sorted(SLOT_DATASETS)),
    grouping=st.sampled_from(list(Grouping)),
    balancing=balancings,
    ratings_per_item=st.sampled_from([1, 2]),
    n_docs=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_slot_study_matches_dense_study(
    layout, grouping, balancing, ratings_per_item, n_docs, seed
):
    """A selected study keeps one slot per rating of an item; the oracle keeps
    one per rater of the study.  Every per-rater sum, effective score,
    normalization and significance test reads the same bits from both."""
    if grouping is Grouping.SYSTEM_BALANCED:
        balancing = LoadBalancing()
    ds = SLOT_DATASETS[layout]
    rng = np.random.default_rng(seed)
    subset = subsample_documents(ds, n_docs, rng)
    plan = build_plan(ds, subset, grouping, balancing, ratings_per_item, rng)
    slot, dense = select_ratings(ds, plan), select_ratings_oracle(ds, plan)
    assert slot.slots.shape == (len(ds.system_axis), n_docs, ratings_per_item)
    # NaN marks only the segments past a document's end.
    in_doc = np.arange(slot.scores.shape[2]) < ds.seg_counts[plan.docs][:, None]
    assert np.array_equal(slot.rated, np.broadcast_to(in_doc[:, :, None], slot.rated.shape))
    for scheme in NormalizationScheme:
        got, want = normalized_or_error(slot, scheme), normalized_or_error(dense, scheme)
        if not isinstance(want, ScoredStudy):
            assert got is want
            continue
        assert_same_study(got, want)
        for got_sum, want_sum in zip(
            got.rater_sums(got.scores[got.rated]), want.rater_sums(want.scores[want.rated])
        ):
            assert same_bits(got_sum, want_sum)
        assert same_bits(got.effective_scores(), want.effective_scores())
        got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got_m = significance_matrix(got, 0.05, 20, got_rng, doc_set=subset)
        want_m = significance_matrix(want, 0.05, 20, want_rng, doc_set=subset)
        assert same_bits(got_m.means, want_m.means)
        assert same_bits(got_m.sig, want_m.sig) and same_bits(got_m.better, want_m.better)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_dataset_arrays_hold_every_rating():
    ds = annotated_dataset(3, score_only=False)
    ratings = rating_dict(ds)
    assert np.count_nonzero(~np.isnan(ds.scores)) == len(ratings) == sum(
        n_segs * len(bucket_raters_of(ds, doc)) * len(ds.system_axis)
        for doc, n_segs in zip(ds.doc_axis, ds.seg_counts.tolist())
    )
    for (doc, seg, system, rater), rating in ratings.items():
        cell = (ds.system_pos[system], ds.doc_pos[doc], seg, ds.rater_pos[rater])
        assert ds.scores[cell] == rating.score
        assert ds.n_errors[cell] == rating.n_errors


def generate_synthetic_oracle(spec: GeneratorSpec, rng) -> RatingDataset:
    """The per-rating generator: one SegmentRating per rating, then the arrays."""
    docs = [f"doc{d:03d}" for d in range(spec.n_documents)]
    systems = [f"sys{s:02d}" for s in range(spec.n_systems)]
    quality = np.linspace(*spec.quality_range, spec.n_systems)
    raters = [f"rater{r:02d}" for r in range(3 * spec.n_buckets)]
    harshness = np.array([spec.harshness[r % len(spec.harshness)] for r in range(len(raters))])
    buckets = {
        f"b{b:03d}": (frozenset(docs[d] for d in chunk), frozenset(raters[3 * b : 3 * b + 3]))
        for b, chunk in enumerate(np.array_split(np.arange(spec.n_documents), spec.n_buckets))
    }
    base = rng.uniform(*spec.base_range, size=spec.n_documents)
    preference = (
        rng.normal(0.0, spec.doc_preference_sigma, size=(len(raters), spec.n_documents))
        if spec.doc_preference_sigma > 0
        else np.zeros((len(raters), spec.n_documents))
    )
    ratings = {}
    for bucket_docs, bucket_raters in buckets.values():
        for doc_id in sorted(bucket_docs):
            d = docs.index(doc_id)
            for s, system_id in enumerate(systems):
                item_noise = rng.normal(0.0, spec.item_noise_sigma, size=spec.segments_per_doc)
                for rater_id in sorted(bucket_raters):
                    r = raters.index(rater_id)
                    obs_noise = (
                        np.exp(rng.normal(0.0, spec.rater_noise_sigma, size=spec.segments_per_doc))
                        if spec.rater_noise_sigma > 0
                        else np.ones(spec.segments_per_doc)
                    )
                    truth = base[d] + quality[s] + item_noise + preference[r, d]
                    scores = harshness[r] * np.maximum(truth, 0.0) * obs_noise
                    for seg in range(spec.segments_per_doc):
                        ratings[(doc_id, seg, system_id, rater_id)] = SegmentRating(
                            doc_id, seg, system_id, rater_id, None, float(scores[seg])
                        )
    documents = {d: spec.segments_per_doc for d in docs}
    return build_dataset(spec.language_pair, systems, documents, buckets, ratings)


sigmas = st.sampled_from([0.0, 0.5])


@settings(max_examples=60, deadline=None)
# Past 99 systems and raters, sorted ids stop following generation order.
@example(seed=5, n_buckets=34, extra_docs=0, segments_per_doc=1, n_systems=101,
         harshness=(0.5, 1.0, 2.0), item_noise_sigma=0.5, rater_noise_sigma=0.5,
         doc_preference_sigma=0.5)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_buckets=st.integers(1, 3),
    extra_docs=st.integers(0, 4),
    segments_per_doc=st.integers(1, 3),
    n_systems=st.integers(2, 4),
    harshness=st.sampled_from([(1.0,), (0.5, 1.0, 2.0), (2.0, 0.25), (1.0, 1.5, 0.75, 3.0)]),
    item_noise_sigma=sigmas,
    rater_noise_sigma=sigmas,
    doc_preference_sigma=sigmas,
)
def test_generate_synthetic_matches_per_rating_oracle(seed, n_buckets, extra_docs, **knobs):
    spec = GeneratorSpec(n_documents=n_buckets + extra_docs, n_buckets=n_buckets, **knobs)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = generate_synthetic(spec, got_rng), generate_synthetic_oracle(spec, want_rng)
    assert (got.system_axis, got.doc_axis, got.rater_axis) == (
        want.system_axis, want.doc_axis, want.rater_axis
    )
    assert_same_buckets(got, want)
    assert_same_ratings(got, want)
    assert export_tsv(got) == export_tsv(want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# sweep.csv of golden_sweep(): its selections and plans are those of the
# per-rating dict selection and the three separate round-robin dealers that
# the arrays and _deal replaced; its sign flips are one draw per study,
# shared by every system pair.
GOLDEN_SWEEP_SHA256 = "c77d0a1afb0bfdcee1d94814bc16b5e881e3cbf74c896735bd687dfc689b0259"


def golden_sweep() -> str:
    ds = generate_synthetic(
        GeneratorSpec(
            n_documents=24, segments_per_doc=3, n_systems=5, harshness=(0.5, 1.0, 2.0),
            quality_range=(0.0, 1.0), item_noise_sigma=1.0, rater_noise_sigma=0.5,
            doc_preference_sigma=0.5,
        ),
        np.random.default_rng(2024),
    )
    common = dict(
        n_documents=24, n_simulations=12, n_permutations=50, master_seed=17,
        doc_resampling=Resampling.PER_STUDY,
    )
    per_50 = {**common, "doc_resampling": Resampling.PER_50}
    N = NormalizationScheme
    configs = [
        StudyConfig(**{**per_50, "n_simulations": 60}, label="psxs"),
        StudyConfig(**common, grouping=Grouping.SYSTEM_BALANCED, normalization=N.MEAN,
                    label="sysbal"),
        StudyConfig(**common, grouping=Grouping.NO_GROUPING, normalization=N.ZSCORE,
                    label="nogroup"),
        StudyConfig(**common, balancing=LoadBalancing(0.87),
                    label="psxs_entropy"),
        StudyConfig(**common, grouping=Grouping.NO_GROUPING,
                    balancing=LoadBalancing(0.6), normalization=N.ZSCORE,
                    label="nogroup_entropy"),
        StudyConfig(**per_50, ratings_per_item=2, label="double"),
        StudyConfig(**common, grouping=Grouping.SYSTEM_BALANCED, ratings_per_item=2,
                    label="double_sysbal"),
    ]
    return run_sweep(ds, configs, doc_count_grid=[8, 24]).to_csv()


def test_golden_sweep_csv():
    text = golden_sweep()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SWEEP_SHA256, text



# Concatenated np.packbits of each plan's (system, doc, rater) mask over
# golden_plans(), computed from the (doc, system) -> rater-set dict plans that
# the mask, and then the rater slots, replaced.
GOLDEN_PLAN_SHA256 = "53c346e807d859eeacda81605d10f79aa9d639aeff2f1d7ea8c9a3d8f1899eab"


def golden_plans():
    balancings = (
        LoadBalancing(),
        LoadBalancing(0.7, 0.05),
        LoadBalancing(0.85, 0.05),
    )
    for layout in (ROTATION_LAYOUT, DISJOINT_LAYOUT):
        ds = make_layout_dataset(*layout, n_systems=3)
        for seed in range(4):
            for n_docs in (10, 28):
                for grouping in Grouping:
                    for balancing in balancings:
                        if grouping is Grouping.SYSTEM_BALANCED and balancing.target is not None:
                            continue
                        for ratings_per_item in (1, 2):
                            rng = np.random.default_rng(seed)
                            subset = subsample_documents(ds, n_docs, rng)
                            yield ds, build_plan(
                                ds, subset, grouping, balancing, ratings_per_item, rng
                            )


def test_golden_plans():
    digest = hashlib.sha256()
    for ds, plan in golden_plans():
        digest.update(np.packbits(plan_mask(plan, ds)).tobytes())
    assert digest.hexdigest() == GOLDEN_PLAN_SHA256
