from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stabeval.assignment import Grouping, LoadBalancing, build_plan
from stabeval.corpus import ErrorAnnotation, Severity
from stabeval.errors import DegenerateRater, MissingErrorCounts, ScoreOutOfRange, StabevalError
from stabeval.experiment import GeneratorSpec, generate_synthetic, select_ratings
from stabeval.stats import significance_matrix
from stabeval.scoring import (
    NormalizationScheme,
    WeightTable,
    normalize,
    segment_score,
    system_means,
)

from conftest import study_from_entries


def ann(severity, category):
    return ErrorAnnotation(category, Severity.parse(severity))


class TestSegmentScore:
    def test_empty_list_scores_zero(self):
        assert segment_score([], WeightTable.default()) == 0.0

    def test_default_weights(self):
        annotations = [ann("Major", "Accuracy"), ann("Minor", "Fluency")]
        assert segment_score(annotations, WeightTable.default()) == 6.0

    def test_longest_prefix_override(self):
        assert segment_score(
            [ann("Minor", "Fluency/Punctuation")], WeightTable.default()
        ) == pytest.approx(0.1)
        # deeper paths still match the override prefix
        assert segment_score(
            [ann("Minor", "Fluency/Punctuation/Comma")], WeightTable.default()
        ) == pytest.approx(0.1)
        # sibling categories fall back to the severity default
        assert segment_score([ann("Minor", "Fluency/Grammar")], WeightTable.default()) == 1.0

    def test_wildcard_severity_category(self):
        table = WeightTable.default()
        assert segment_score([ann("Major", "Non-translation")], table) == 25.0
        assert segment_score([ann("Minor", "Non-translation")], table) == 25.0

    def test_additive_over_concatenation(self):
        table = WeightTable.default()
        a = [ann("Major", "Accuracy"), ann("Minor", "Style")]
        b = [ann("Minor", "Fluency/Punctuation")]
        assert segment_score(a + b, table) == pytest.approx(
            segment_score(a, table) + segment_score(b, table)
        )

    def test_weight_table_from_file(self, tmp_path):
        path = tmp_path / "weights.cfg"
        path.write_text(
            "[weights]\nMajor = 10\nMinor = 2\nMinor:Fluency/Punctuation = 0.5\n"
        )
        table = WeightTable.from_file(path)
        assert segment_score([ann("Major", "Accuracy")], table) == 10.0
        assert segment_score([ann("Minor", "Fluency/Punctuation")], table) == 0.5


def study_from(rows):
    """rows: (doc, seg, system, rater, score, n_errors)"""
    return study_from_entries(rows)


class TestSystemMeans:
    def test_single_system_mean(self):
        study = study_from(
            [("d1", 0, "a", "r", 0.0, 0), ("d1", 1, "a", "r", 6.0, 2)]
        )
        assert system_means(study) == {"a": 3.0}

    def test_identical_systems_tie(self):
        study = study_from(
            [("d1", 0, "a", "r", 2.0, 1), ("d1", 0, "b", "r", 2.0, 1)]
        )
        means = system_means(study)
        assert means["a"] == means["b"]

    def test_double_ratings_averaged(self):
        study = study_from(
            [("d1", 0, "a", "r1", 2.0, 1), ("d1", 0, "a", "r2", 4.0, 1)]
        )
        assert system_means(study) == {"a": 3.0}


class TestNormalize:
    def test_unnormalized_is_identity(self):
        study = study_from([("d1", 0, "a", "r", 2.0, 1), ("d2", 0, "a", "r", 4.0, 1)])
        assert normalize(study, NormalizationScheme.UNNORMALIZED) is study

    def test_single_rater_mean_scheme_is_identity(self):
        study = study_from([("d1", 0, "a", "r", 2.0, 1), ("d2", 0, "a", "r", 4.0, 1)])
        out = normalize(study, NormalizationScheme.MEAN)
        np.testing.assert_allclose(out.scores[out.rated], study.scores[study.rated])

    def test_mean_scheme_hand_case(self):
        # rater1 scores {2,2}, rater2 {4,4}: M=3, factors 1.5 and 0.75
        study = study_from(
            [
                ("d1", 0, "a", "r1", 2.0, 1),
                ("d2", 0, "a", "r1", 2.0, 1),
                ("d3", 0, "a", "r2", 4.0, 1),
                ("d4", 0, "a", "r2", 4.0, 1),
            ]
        )
        out = normalize(study, NormalizationScheme.MEAN)
        np.testing.assert_allclose(out.scores[out.rated], [3.0, 3.0, 3.0, 3.0])

    def test_zscore_hand_case(self):
        study = study_from(
            [
                ("d1", 0, "a", "r", 1.0, 1),
                ("d2", 0, "a", "r", 2.0, 1),
                ("d3", 0, "a", "r", 3.0, 1),
            ]
        )
        out = normalize(study, NormalizationScheme.ZSCORE)
        np.testing.assert_allclose(sorted(out.scores[out.rated]), [-1.0, 0.0, 1.0])

    def test_zscore_constant_rater_maps_to_zero(self):
        study = study_from([("d1", 0, "a", "r", 2.0, 1), ("d2", 0, "a", "r", 2.0, 1)])
        out = normalize(study, NormalizationScheme.ZSCORE)
        np.testing.assert_allclose(out.scores[out.rated], [0.0, 0.0])

    def test_zscore_precise_on_offset_scores(self):
        # Unit-spread ratings far from 0: a one-pass variance, Σx² − n·mean²,
        # cancels away most of its digits (errors of ~1e-3 at 1e6, more at 1e8).
        noise = np.random.default_rng(4).standard_normal((2, 400))
        for offset in (1e4, 1e6, 1e8):
            values = noise + [[offset], [offset / 3]]
            study = study_from(
                [(f"d{d:03d}", 0, "a", rater, float(values[r, d]), 1)
                 for r, rater in enumerate(("r1", "r2")) for d in range(values.shape[1])]
            )
            out = normalize(study, NormalizationScheme.ZSCORE)
            centred = values - values.mean(axis=1, keepdims=True)
            want = centred / centred.std(axis=1, ddof=1, keepdims=True)
            # Rated cells in C order are (doc, rater), so each doc's two ratings in turn.
            np.testing.assert_allclose(out.scores[out.rated], want.T.ravel(), rtol=0, atol=1e-7)

    def test_equal_error_counts_error_equals_mean(self):
        rows = [
            ("d1", 0, "a", "r1", 2.0, 2),
            ("d2", 0, "a", "r1", 4.0, 2),
            ("d3", 0, "a", "r2", 1.0, 2),
            ("d4", 0, "a", "r2", 5.0, 2),
        ]
        study = study_from(rows)
        out_mean = normalize(study, NormalizationScheme.MEAN)
        out_error = normalize(study, NormalizationScheme.ERROR)
        np.testing.assert_allclose(
            out_error.scores[out_error.rated], out_mean.scores[out_mean.rated]
        )

    def test_mean_and_error_preserve_study_mean(self, rng):
        rows = []
        for d in range(6):
            for r, bias in (("r1", 1.0), ("r2", 2.5), ("r3", 0.5)):
                score = float(bias * (1 + rng.random()))
                rows.append((f"d{d}", 0, "a", r, score, int(rng.integers(1, 5))))
        study = study_from(rows)
        for scheme in (NormalizationScheme.MEAN, NormalizationScheme.ERROR):
            out = normalize(study, scheme)
            assert out.study_mean == pytest.approx(study.study_mean, abs=1e-9)

    def test_rater_means_equalized(self, rng):
        rows = [
            (f"d{d}", 0, "a", r, float(bias + rng.random()), 1)
            for d in range(8)
            for r, bias in (("r1", 0.5), ("r2", 3.0))
        ]
        study = study_from(rows)
        out = normalize(study, NormalizationScheme.MEAN)
        np.testing.assert_allclose(
            out.rater_means(), [study.study_mean] * 2, atol=1e-9
        )
        out_z = normalize(study, NormalizationScheme.ZSCORE)
        np.testing.assert_allclose(out_z.rater_means(), [0.0, 0.0], atol=1e-9)

    def test_degenerate_rater_raises(self):
        study = study_from(
            [("d1", 0, "a", "r1", 0.0, 0), ("d2", 0, "a", "r2", 2.0, 1)]
        )
        with pytest.raises(DegenerateRater):
            normalize(study, NormalizationScheme.MEAN)

    def test_error_scheme_requires_error_counts(self):
        study = study_from(
            [("d1", 0, "a", "r1", 1.0, None), ("d2", 0, "a", "r2", 2.0, 1)]
        )
        with pytest.raises(MissingErrorCounts):
            normalize(study, NormalizationScheme.ERROR)

    def test_assignments_untouched(self, rng):
        rows = [
            (f"d{d}", 0, "a", f"r{d % 2}", float(1 + rng.random()), 1) for d in range(6)
        ]
        study = study_from(rows)
        for scheme in NormalizationScheme:
            out = normalize(study, scheme)
            assert (out.systems, out.docs, out.raters) == (study.systems, study.docs, study.raters)
            np.testing.assert_array_equal(out.rated, study.rated)

    @given(st.lists(st.integers(1, 500), min_size=2, max_size=12, unique=True))
    def test_single_rater_ranking_preserved_by_all_schemes(self, scores):
        rows = [
            (f"d{i}", 0, f"sys{i}", "r", score / 10.0, 1)
            for i, score in enumerate(scores)
        ]
        study = study_from(rows)
        base = system_means(study)
        base_order = sorted(base, key=base.get)
        for scheme in NormalizationScheme:
            means = system_means(normalize(study, scheme))
            assert sorted(means, key=means.get) == base_order


SCALED_SPEC = GeneratorSpec(n_documents=6, segments_per_doc=2, n_systems=3, item_noise_sigma=0.6)


@settings(max_examples=80, deadline=None)
@given(exponents=st.lists(st.integers(-330, 308), min_size=6, max_size=6))
@example(exponents=[-300] + [100] * 5)  # overflowed the mean scheme's factor
def test_scores_across_the_exponent_range(exponents):
    """Each rater's scores times 10**k, k from past the subnormals to the
    largest power: the dataset is rejected, or each scheme raises a typed
    error in ``normalize`` or gives finite ratings, study mean and
    significance means.  pytest turns a numpy RuntimeWarning into an error."""
    ds = generate_synthetic(SCALED_SPEC, np.random.default_rng(0))
    with np.errstate(over="ignore"):
        scores = ds.scores * np.array([float(f"1e{k}") for k in exponents])
    try:
        ds = replace(ds, scores=scores, n_errors=np.where(np.isnan(scores), np.nan, 2.0))
    except ScoreOutOfRange:
        return
    rng = np.random.default_rng(1)
    docs = tuple(range(len(ds.doc_axis)))
    study = select_ratings(ds, build_plan(ds, docs, Grouping.NO_GROUPING, LoadBalancing(), 1, rng))
    for scheme in NormalizationScheme:
        try:
            scored = normalize(study, scheme)
        except StabevalError:
            continue
        assert np.isfinite(scored.scores[scored.rated]).all(), scheme
        assert np.isfinite(scored.study_mean), scheme
        assert np.isfinite(significance_matrix(scored, 0.05, 19, rng).means).all(), scheme
