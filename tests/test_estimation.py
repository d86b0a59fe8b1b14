import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdce.estimation import (
    baseline_value,
    estimate_baseline,
    expected_defects_found,
    predict_defects_found,
)
from hdce.model import FactorKind, HistoricalProject, ProjectCharacterization
from hdce.simulation import EmpiricalDistribution, SimulationConfig, simulate
from helpers import characterization, reference_model


def project(pid, size, df, levels=None):
    return HistoricalProject(
        characterization=ProjectCharacterization(project_id=pid, levels=levels or {}),
        size=size,
        defects_found=df,
    )


def constant_distribution(value, n=100):
    return EmpiricalDistribution.from_samples(np.full(n, float(value)), float(value))


def scale(size, ddif, eif):
    """The per-sample scale predict_defects_found takes, from DDIF and EIF distributions."""
    return expected_defects_found(size, ddif.samples, eif.samples)


def zero_means(projects):
    """{project_id: (DDIF, EIF)} with both points 0."""
    return {p.project_id: (0.0, 0.0) for p in projects}


class TestAlgebra:
    def test_defect_density(self):
        # with DDIF = EIF = 0, eq. 5 reduces to defects per page
        assert baseline_value(project("a", 100, 30), 0.0, 0.0) == pytest.approx(0.3)
        assert baseline_value(project("a", 50, 0), 0.0, 0.0) == 0.0
        assert baseline_value(project("a", 1, 7), 0.0, 0.0) == 7.0

    def test_defect_content(self):
        same_size_base = expected_defects_found(100, 0.0, 0.0, 0.2)
        thirty_percent_worse = expected_defects_found(100, 0.3, 0.0, 0.2)
        assert thirty_percent_worse == pytest.approx(1.3 * same_size_base)
        assert same_size_base == pytest.approx(20.0)
        assert expected_defects_found(100, 0.5, 0.0, 0.2) == pytest.approx(30.0)

    def test_effectiveness(self):
        base = expected_defects_found(100, 0.0, 0.0, 0.5)
        improved = expected_defects_found(100, 0.0, 0.2, 0.5)
        assert improved == pytest.approx(1.2 * base)
        assert expected_defects_found(1, 0.0, 0.6, 0.5) == pytest.approx(0.8)

    def test_defects_found(self):
        assert expected_defects_found(100, 0.5, 0.25, 0.16) == pytest.approx(30.0)
        assert expected_defects_found(100, 0.5, 0.25) == 187.5  # the default baseline 1 gives the scale
        assert expected_defects_found(50, 0.3, 0.1, 0.0) == 0.0
        per_sample = expected_defects_found(100, np.array([0.0, 0.5]), np.array([0.0, 0.25]), 0.16)
        assert per_sample == pytest.approx([16.0, 30.0])


class TestBaseline:
    def test_hand_value(self):
        p = project("a", 100, 30)
        assert baseline_value(p, 0.5, 0.25) == pytest.approx(0.16)

    def test_zero_factors_reduce_to_found_density(self):
        p = project("a", 80, 20)
        assert baseline_value(p, 0.0, 0.0) == pytest.approx(20 / 80)

    def test_zero_defects(self):
        assert baseline_value(project("a", 50, 0), 0.3, 0.1) == 0.0

    def test_planned_project_rejected(self):
        with pytest.raises(ValueError, match="no defects_found"):
            baseline_value(project("a", 50, None), 0.1, 0.1)

    def test_median_is_outlier_resistant(self):
        projects = [project("a", 10, 1), project("b", 10, 2), project("c", 10, 9)]
        estimate = estimate_baseline(projects, zero_means(projects))
        assert estimate.estimate == pytest.approx(0.2)

    def test_single_project(self):
        projects = [project("a", 100, 30)]
        estimate = estimate_baseline(projects, zero_means(projects))
        assert estimate.estimate == pytest.approx(0.3)

    def test_even_count_averages_middle_two(self):
        projects = [project("a", 10, 1), project("b", 10, 3)]
        estimate = estimate_baseline(projects, zero_means(projects))
        assert estimate.estimate == pytest.approx(0.2)

    def test_small_history_advisory(self):
        diagnostics = []
        projects = [project("a", 10, 1), project("b", 10, 2)]
        estimate_baseline(projects, zero_means(projects), diagnostics)
        assert any(d.code == "small-history" for d in diagnostics)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_baseline([], {})

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(5))))
    def test_median_permutation_invariant(self, order):
        projects = [project(f"p{i}", 10 * (i + 1), 3 * (i + 1)) for i in range(5)]
        means = {p.project_id: (0.1 * i, 0.1 * i) for i, p in enumerate(projects)}
        base = estimate_baseline(projects, means).estimate
        shuffled = [projects[i] for i in order]
        assert estimate_baseline(shuffled, means).estimate == base

    def test_duplicating_median_element_changes_nothing(self):
        projects = [project("a", 10, 1), project("b", 10, 2), project("c", 10, 9)]
        with_duplicate = projects + [project("b2", 10, 2)]
        assert (
            estimate_baseline(projects, zero_means(projects)).estimate
            == estimate_baseline(with_duplicate, zero_means(with_duplicate)).estimate
        )


class TestPrediction:
    def test_degenerate_distributions(self):
        baseline = estimate_baseline([project("a", 100, 16)], {"a": (0.0, 0.0)})
        zero = constant_distribution(0).samples
        prediction = predict_defects_found(100, (0.0, 0.0), expected_defects_found(100, zero, zero), baseline)
        assert prediction.point == pytest.approx(16.0)
        assert prediction.interval == (pytest.approx(16.0), pytest.approx(16.0))

    def test_hand_value(self):
        baseline = estimate_baseline([project("a", 100, 30)], {"a": (0.5, 0.25)})
        assert baseline.estimate == pytest.approx(0.16)
        prediction = predict_defects_found(
            100, (0.5, 0.25), scale(100, constant_distribution(0.5), constant_distribution(0.25)), baseline
        )
        assert prediction.point == pytest.approx(30.0)

    def test_linear_in_size(self):
        baseline = estimate_baseline([project("a", 100, 30)], {"a": (0.5, 0.25)})
        ddif, eif = constant_distribution(0.4), constant_distribution(0.1)
        small = predict_defects_found(50, (ddif.mean, eif.mean), scale(50, ddif, eif), baseline)
        large = predict_defects_found(100, (ddif.mean, eif.mean), scale(100, ddif, eif), baseline)
        assert large.point == pytest.approx(2 * small.point)

    def test_scales_and_reorders_the_scale_vector_in_place(self):
        baseline = estimate_baseline([project("a", 100, 30)], {"a": (0.5, 0.25)})
        values = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        per_sample = values * baseline.estimate
        prediction = predict_defects_found(10, (0.5, 0.25), values, baseline, quantile_pair=(0.0, 1.0))
        assert prediction.interval == (per_sample.min(), per_sample.max())
        assert sorted(values.tolist()) == sorted(per_sample.tolist())  # the same values, maybe reordered

    def test_interval_monotone_in_quantile_pair(self):
        model = reference_model()
        ch = characterization(model, 2)
        cfg = SimulationConfig(seed=3, sample_count=4000)
        ddif = simulate(model, ch, FactorKind.DEFECT_CONTENT, cfg)
        eif = simulate(model, ch, FactorKind.EFFECTIVENESS, cfg)
        baseline = estimate_baseline([project("a", 100, 30)], {"a": (0.2, 0.2)})
        means = (ddif.mean, eif.mean)
        narrow = predict_defects_found(100, means, scale(100, ddif, eif), baseline, quantile_pair=(0.25, 0.75))
        wide = predict_defects_found(100, means, scale(100, ddif, eif), baseline, quantile_pair=(0.05, 0.95))
        assert wide.interval[0] <= narrow.interval[0]
        assert wide.interval[1] >= narrow.interval[1]
        assert narrow.interval[0] <= narrow.point <= narrow.interval[1]

    def test_round_trip_inverts_back_out(self):
        # predicting a project with its own means and self-derived baseline
        # must return its own defect count
        model = reference_model()
        levels = {f.id: (i % 4) for i, f in enumerate(model.factors)}
        ch = characterization(model, levels, project_id="rt")
        cfg = SimulationConfig(seed=17, sample_count=5000)
        ddif = simulate(model, ch, FactorKind.DEFECT_CONTENT, cfg)
        eif = simulate(model, ch, FactorKind.EFFECTIVENESS, cfg)
        p = HistoricalProject(characterization=ch, size=137.0, defects_found=41)
        baseline = estimate_baseline([p], {"rt": (ddif.mean, eif.mean)})
        prediction = predict_defects_found(p.size, (ddif.mean, eif.mean), scale(p.size, ddif, eif), baseline)
        assert prediction.point == pytest.approx(41.0, rel=1e-12)

    def test_monotone_in_means_and_baseline(self):
        base_projects = [project("a", 100, 30)]
        baseline_small = estimate_baseline(base_projects, {"a": (0.5, 0.5)})
        baseline_large = estimate_baseline(base_projects, {"a": (0.2, 0.2)})
        ddif_lo, ddif_hi = constant_distribution(0.1), constant_distribution(0.4)
        eif = constant_distribution(0.2)
        assert (
            predict_defects_found(100, (ddif_hi.mean, eif.mean), scale(100, ddif_hi, eif), baseline_small).point
            >= predict_defects_found(100, (ddif_lo.mean, eif.mean), scale(100, ddif_lo, eif), baseline_small).point
        )
        assert (
            predict_defects_found(100, (ddif_lo.mean, eif.mean), scale(100, ddif_lo, eif), baseline_large).point
            >= predict_defects_found(100, (ddif_lo.mean, eif.mean), scale(100, ddif_lo, eif), baseline_small).point
        )
