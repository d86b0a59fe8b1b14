import statistics
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdce import estimation, simulation
from hdce.estimation import (
    baseline_value,
    estimate_baseline,
    expected_defects_found,
    predict_defects_found,
)
from hdce.diagnostics import ModelValidationError
from hdce.model import CausalModel, Factor, HistoricalProject, ProjectCharacterization, project_factor_means
from hdce.simulation import SimulationConfig
from helpers import characterization, exact_model, reference_model


def project(pid, size, df, levels=None):
    return HistoricalProject(
        characterization=ProjectCharacterization(project_id=pid, levels=levels or {}),
        size=size,
        defects_found=df,
    )


def exact_target(size, on=(), pid="t"):
    """A planned project of helpers.exact_model with the factors in on at level 3, the rest at 0:
    every DDIF and EIF sample is then the sum of those factors' degenerate multipliers."""
    return project(pid, size, None, {f.id: 3 if f.id in on else 0 for f in exact_model().factors})


def predict(target, baseline, model=None, quantile_pair=(0.10, 0.90), cfg=SimulationConfig(seed=3, sample_count=100)):
    """predict_defects_found at the target's exact means, on helpers.exact_model by default."""
    model = model or exact_model()
    return predict_defects_found(model, target, project_factor_means(model, [target]), baseline, cfg, quantile_pair)


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


_MAX = sys.float_info.max
# signed zeros, the smallest subnormal, the largest subnormal and near-max floats whose pair sums overflow
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 0.75 * _MAX, _MAX, -_MAX]


class TestBaselineMedian:
    """estimate_baseline's median is statistics.median's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS)),
                    min_size=1, max_size=9))
    @example([_MAX, 0.75 * _MAX])  # the middle pair's sum overflows to inf, as statistics.median's does
    @example([-_MAX, -_MAX, 1.0])
    @example([0.0, -0.0])
    @example([-0.0, 0.0, -0.0])
    @example([5e-324, 5e-324, -5e-324, 2.0])
    def test_equals_statistics_median_bit_for_bit(self, values):
        projects = [project(f"p{i}", 1.0, 1) for i in range(len(values))]
        by_id = {p.project_id: value for p, value in zip(projects, values)}
        with pytest.MonkeyPatch.context() as patch:  # eq. 5 values chosen outright
            patch.setattr(estimation, "baseline_value", lambda p, ddif, eif: by_id[p.project_id])
            estimate = estimate_baseline(projects, zero_means(projects)).estimate
        assert struct.pack("<d", estimate) == struct.pack("<d", statistics.median(values))


class TestPrediction:
    def test_degenerate_distributions(self):
        baseline = estimate_baseline([project("a", 100, 16)], {"a": (0.0, 0.0)})
        prediction = predict(exact_target(100), baseline)
        assert prediction.point == pytest.approx(16.0)
        assert prediction.interval == (pytest.approx(16.0), pytest.approx(16.0))

    def test_hand_value(self):
        baseline = estimate_baseline([project("a", 100, 30)], {"a": (0.5, 0.25)})
        assert baseline.estimate == pytest.approx(0.16)
        prediction = predict(exact_target(100, ("exact-dc-2", "exact-eff-1")), baseline)
        assert (prediction.ddif_mean, prediction.eif_mean) == (0.5, 0.25)
        assert prediction.point == pytest.approx(30.0)
        assert prediction.interval == (prediction.point, prediction.point)

    def test_linear_in_size(self):
        baseline = estimate_baseline([project("a", 100, 30)], {"a": (0.5, 0.25)})
        on = ("exact-dc-3", "exact-eff-2")
        small = predict(exact_target(50, on), baseline)
        large = predict(exact_target(100, on), baseline)
        assert large.point == pytest.approx(2 * small.point)

    def test_interval_monotone_in_quantile_pair(self):
        model = reference_model()
        target = HistoricalProject(characterization(model, 2, project_id="t"), 100)
        baseline = estimate_baseline([project("a", 100, 30)], {"a": (0.2, 0.2)})
        cfg = SimulationConfig(seed=3, sample_count=4000)
        narrow = predict(target, baseline, model, (0.25, 0.75), cfg)
        wide = predict(target, baseline, model, (0.05, 0.95), cfg)
        assert wide.interval[0] <= narrow.interval[0]
        assert wide.interval[1] >= narrow.interval[1]
        assert narrow.interval[0] <= narrow.point <= narrow.interval[1]

    def test_round_trip_inverts_back_out(self):
        # predicting a project with its own means and self-derived baseline
        # must return its own defect count
        model = reference_model()
        levels = {f.id: (i % 4) for i, f in enumerate(model.factors)}
        p = HistoricalProject(characterization=characterization(model, levels, project_id="rt"), size=137.0,
                              defects_found=41)
        baseline = estimate_baseline([p], project_factor_means(model, [p]))
        prediction = predict(p, baseline, model, cfg=SimulationConfig(seed=17, sample_count=5000))
        assert prediction.point == pytest.approx(41.0, rel=1e-12)

    def test_monotone_in_means_and_baseline(self):
        base_projects = [project("a", 100, 30)]
        baseline_small = estimate_baseline(base_projects, {"a": (0.5, 0.5)})
        baseline_large = estimate_baseline(base_projects, {"a": (0.2, 0.2)})
        low, high = exact_target(100, ("exact-dc-1", "exact-eff-1")), exact_target(100, ("exact-dc-3", "exact-eff-1"))
        assert predict(high, baseline_small).point >= predict(low, baseline_small).point
        assert predict(low, baseline_large).point >= predict(low, baseline_small).point

    def test_interval_end_past_the_float_range_raises_and_warns_nothing(self, monkeypatch):
        # the quantile read interpolates between finite samples of both signs: their difference
        # overflows, which at numpy's default error state gave an interval end of inf with a warning
        monkeypatch.setattr(simulation, "draw_vector", lambda *_args, **_kwargs: np.array([-1.7e308, 1.7e308]))
        baseline = estimate_baseline([project("a", 100, 30)], {"a": (0.5, 0.25)})
        before = np.geterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError, match="^overflow encountered in subtract$"):
                predict(exact_target(100), baseline)
        assert [str(w.message) for w in caught] == []
        assert np.geterr() == before

    def test_invalid_target_raises_the_checks_error(self):
        # unchecked, the draw would read the unquantified factor's multiplier: an AttributeError
        first, *rest = exact_model().factors
        model = CausalModel("c", (Factor(first.id, first.name, first.kind, first.category, first.scale, None), *rest))
        target = project("t", 100, None, {f.id: 3 for f in model.factors})
        baseline = estimate_baseline([project("a", 100, 30)], {"a": (0.5, 0.25)})
        with pytest.raises(ModelValidationError) as raised:
            predict_defects_found(model, target, {"t": (0.5, 0.25)}, baseline, SimulationConfig(seed=1))
        assert {d.code for d in raised.value.diagnostics} >= {"unquantified"}
