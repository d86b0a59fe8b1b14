import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdce.model
from hdce import evaluation, simulation
from hdce.cli import main
from hdce.diagnostics import ModelValidationError
from hdce.estimation import estimate_baseline, expected_defects_found, predict_defects_found
from hdce.evaluation import (
    ALL_VARIANTS,
    PredictionRecord,
    Variant,
    compare_variants,
    loocv,
    mmre,
    project_factor_means,
    run_validation,
    wilcoxon_signed_rank,
)
from hdce.model import CausalModel, Factor, FactorKind, HistoricalProject, Multiplier, ProjectCharacterization
from hdce.pvalues import chi_square_sf, doubled_midranks
from hdce.simulation import SimulationConfig, analytic_mean, simulate
from hdce.synthetic import build_synthetic_model, generate_projects
from helpers import (
    exact_model,
    exact_projects,
    former_cumulative_sign_counts,
    former_exact_two_sided,
    former_prediction,
    oracle_wilcoxon,
    reference_model,
    reference_samples,
    ulp_distance,
    use_cpus,
)


def project(pid, size, df, levels=None):
    return HistoricalProject(
        characterization=ProjectCharacterization(project_id=pid, levels=levels or {}),
        size=size,
        defects_found=df,
    )


def records_from_res(pairs):
    return [PredictionRecord.from_values(f"p{i}", actual, predicted) for i, (actual, predicted) in enumerate(pairs)]


class TestMmre:
    def test_perfect_predictions(self):
        assert mmre(records_from_res([(10, 10.0), (20, 20.0)])) == 0.0

    def test_hand_arithmetic(self):
        records = records_from_res([(10, 12.0), (10, 6.0), (10, 13.0)])
        assert [r.re for r in records] == pytest.approx([0.2, -0.4, 0.3])
        assert mmre(records) == pytest.approx(0.3)

    def test_single_record_headline_scale(self):
        record = PredictionRecord.from_values("p", 1000, 704.0)
        assert record.re == pytest.approx(-0.296)
        assert mmre([record]) == pytest.approx(0.296)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mmre([])

    def test_actual_zero_rejected(self):
        with pytest.raises(ValueError):
            PredictionRecord.from_values("p", 0, 5.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=500), st.floats(min_value=0, max_value=500)),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=0.1, max_value=10),
    )
    def test_scale_invariance_and_permutation_invariance(self, pairs, c):
        records = records_from_res(pairs)
        scaled = [
            PredictionRecord.from_values(r.project_id, r.actual, r.predicted * c)
            for r in records
        ]
        # scaling predictions alone changes MREs; scaling both leaves them fixed
        both = [
            PredictionRecord.from_values(r.project_id, max(1, round(r.actual * 2)), r.predicted * (max(1, round(r.actual * 2)) / r.actual))
            for r in records
        ]
        assert mmre(both) == pytest.approx(mmre(records), rel=1e-12)
        assert mmre(list(reversed(records))) == pytest.approx(mmre(records), rel=1e-12)
        del scaled


class TestWilcoxon:
    def test_five_positive_distinct_differences(self):
        result = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1.0, 1.5, 1.8, 2.0, 2.1])
        assert result.p_value == 0.0625
        assert result.method == "exact"

    def test_identical_samples_degenerate(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.p_value == 1.0
        assert result.method == "degenerate"

    def test_swap_symmetry(self):
        x = [0.3, 0.1, 0.9, 0.4, 0.2, 0.8]
        y = [0.5, 0.2, 0.1, 0.4, 0.6, 0.3]
        assert wilcoxon_signed_rank(x, y).p_value == wilcoxon_signed_rank(y, x).p_value

    def test_zero_differences_dropped(self):
        result = wilcoxon_signed_rank([1, 2, 3, 4], [1, 2, 3, 3])
        assert result.n_nonzero == 1
        assert result.p_value == 1.0  # single nonzero difference: both tails full

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1, 2], [1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN difference has no rank, so no p-value can be reported for it
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank([1.0, bad, 2.0], [0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank([1.0, 2.0], [bad, bad])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10, allow_nan=False),
                st.floats(min_value=0, max_value=10, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_matches_enumeration_oracle(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        result = wilcoxon_signed_rank(x, y)
        assert result.p_value == pytest.approx(oracle_wilcoxon(x, y), abs=1e-12)
        assert 0.0 < result.p_value <= 1.0

    def test_ties_in_magnitudes_midranked(self):
        # |d| = (1, 1, 2): mid-ranks (1.5, 1.5, 3)
        result = wilcoxon_signed_rank([2, 0, 3], [1, 1, 1])
        assert result.p_value == pytest.approx(oracle_wilcoxon([2, 0, 3], [1, 1, 1]), abs=1e-12)

    def test_normal_approximation_close_to_exact_at_boundary(self):
        rng = np.random.default_rng(5)
        x = list(rng.normal(0.5, 1.0, 18))
        y = list(rng.normal(0.0, 1.0, 18))
        exact = wilcoxon_signed_rank(x, y)
        assert exact.method == "exact"
        assert evaluation._normal_two_sided(*signed_ranks(x, y)) == pytest.approx(exact.p_value, abs=0.02)

    def test_large_sample_uses_normal_approximation(self):
        rng = np.random.default_rng(6)
        x = list(rng.normal(0.0, 1.0, 30))
        y = list(rng.normal(0.0, 1.0, 30))
        result = wilcoxon_signed_rank(x, y)
        assert result.method == "normal-approximation"
        assert 0.0 < result.p_value <= 1.0


def signed_ranks(x, y):
    """The doubled mid-ranks of the nonzero |x - y| and their doubled W+, as wilcoxon_signed_rank forms them."""
    nonzero = [a - b for a, b in zip(x, y) if a - b != 0.0]
    doubled = doubled_midranks([abs(d) for d in nonzero])
    return doubled, sum(r for r, d in zip(doubled, nonzero) if d > 0)


def count_digits(poly, k, doubled):
    """The k + 1 bit digits of _sign_counts' integer, one per doubled rank sum 0..sum(doubled)."""
    mask = (1 << (k + 1)) - 1
    return [poly >> ((k + 1) * s) & mask for s in range(sum(doubled) + 1)]


# untied and tied doubled rank sets, k = 1..20; magnitudes rounded to 3 or 6 values tie often
_RANK_SETS = [list(range(2, 2 * k + 1, 2)) for k in range(1, 21)] + [
    doubled_midranks(list(np.round(np.random.default_rng(k).random(k) * levels)))
    for k in range(1, 21)
    for levels in (2, 5)
]


class TestExactCountBits:
    """Counting rank sums gives the bits of the former 2^k enumeration."""

    @pytest.mark.parametrize("doubled", _RANK_SETS, ids=lambda r: f"k{len(r)}-" + "-".join(f"{x / 2:g}" for x in r[:4]))
    def test_equals_former_enumeration_over_every_statistic(self, doubled):
        ranks = [d / 2 for d in doubled]
        for w2 in range(sum(doubled) + 1):  # every W+ from 0 to sum(ranks) in steps of 0.5
            assert evaluation._exact_two_sided(doubled, w2) == former_exact_two_sided(ranks, w2 / 2), w2

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5)),
            min_size=1,
            max_size=20,
        )
    )
    def test_wilcoxon_equals_former_enumeration(self, pairs):
        x = [round(a, 1) for a, _ in pairs]  # rounding leaves tied magnitudes and zero differences
        y = [round(b, 1) for _, b in pairs]
        result = wilcoxon_signed_rank(x, y)
        nonzero = [a - b for a, b in zip(x, y) if a - b != 0.0]
        if not nonzero:
            assert result.method == "degenerate"
            return
        assert result.method == "exact"
        ranks = [d / 2 for d in doubled_midranks([abs(d) for d in nonzero])]
        assert result.p_value == former_exact_two_sided(ranks, result.statistic)

    def test_tests_with_one_rank_set_share_one_table_of_plain_ints(self):
        evaluation._sign_counts.cache_clear()
        doubled = list(range(2, 42, 2))
        first = evaluation._exact_two_sided(doubled, 100)
        shuffled = evaluation._exact_two_sided(doubled[10:] + doubled[:10], 100)
        assert first == shuffled == former_exact_two_sided([d / 2 for d in doubled], 50.0)
        info = evaluation._sign_counts.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        table = evaluation._sign_counts(tuple(doubled))
        assert type(table) is int
        assert sum(count_digits(table, 20, doubled)) == 2**20

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_counts_equal_brute_force_over_every_sign_pattern(self, k, tied):
        magnitudes = [i // 2 if tied else i for i in range(k)]  # tied: pairs of equal magnitudes
        doubled = tuple(sorted(doubled_midranks(magnitudes)))
        counts = [0] * (sum(doubled) + 1)
        for pattern in range(2**k):
            counts[sum(d for i, d in enumerate(doubled) if pattern >> i & 1)] += 1
        assert count_digits(evaluation._sign_counts(doubled), k, doubled) == counts

    @pytest.mark.parametrize("k", range(1, 21))
    def test_counts_equal_the_former_numpy_table(self, k):
        doubled = tuple(range(2, 2 * k + 1, 2))
        cumulative = tuple(itertools.accumulate(count_digits(evaluation._sign_counts(doubled), k, doubled)))
        assert cumulative == former_cumulative_sign_counts(doubled)

    @pytest.mark.parametrize("k", [33, 40, 60])
    def test_counts_past_32_ranks_equal_an_exact_numpy_table(self, k):
        # past 32 ranks a count needs more than 32 bits; Python ints in an object array hold it exactly
        doubled = tuple(range(2, 2 * k + 1, 2))
        counts = np.zeros(sum(doubled) + 1, dtype=object)
        counts[0] = 1
        for d in doubled:
            counts[d:] += counts[:-d].copy()
        assert count_digits(evaluation._sign_counts(doubled), k, doubled) == counts.tolist()
        assert sum(counts) == 2**k

    def test_forty_pair_exact_test_near_normal_approximation(self):
        rng = np.random.default_rng(40)
        x = list(rng.normal(0.3, 1.0, 40))
        y = list(rng.normal(0.0, 1.0, 40))
        doubled, w2 = signed_ranks(x, y)
        approx = wilcoxon_signed_rank(x, y)
        assert (len(doubled), approx.method) == (40, "normal-approximation")
        assert evaluation._exact_two_sided(doubled, w2) == pytest.approx(approx.p_value, abs=0.01)


class TestMidranks:
    def test_nan_returns(self):
        # NaN never equals itself; a scan that starts at the element itself never advances
        probe = "import math; from hdce.pvalues import doubled_midranks; print(doubled_midranks([math.nan, 1.0, math.nan]))"
        env = dict(os.environ, PYTHONPATH=str(Path(evaluation.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert sorted(json.loads(proc.stdout)) == [2, 4, 6]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0, 7.25]), max_size=60))
    def test_equals_twice_the_mean_of_the_positions_of_equal_values(self, values):
        # ties are common: the values come from five distinct ones
        positions = {v: [k for k, w in enumerate(sorted(values), 1) if w == v] for v in values}
        assert doubled_midranks(values) == [2 * sum(positions[v]) / len(positions[v]) for v in values]


def record_bits(record):
    return record.project_id, record.actual, *map(float.hex, (record.predicted, record.re, record.mre))


class TestRecordsOnePath:
    """Every LOOCV record is the one PredictionRecord.from_values gives, through run_validation or loocv."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 40))
    def test_records_equal_from_values_field_for_field(self, seed, count):
        rng = np.random.default_rng(seed)
        model = build_synthetic_model(rng)
        projects = generate_projects(model, count, rng, noise_sigma=0.5)
        cfg = SimulationConfig(seed=1, sample_count=10)
        report = run_validation(model, projects, cfg)
        for variant in ALL_VARIANTS:
            records, _ = loocv(model, projects, variant, cfg)
            assert list(map(record_bits, report.records[variant])) == list(map(record_bits, records))
            for r in records:
                assert type(r) is PredictionRecord
                assert record_bits(r) == record_bits(PredictionRecord.from_values(r.project_id, r.actual, r.predicted))

    def test_fields_cannot_be_assigned(self):
        record = PredictionRecord.from_values("p", 10, 12.5)
        for field in PredictionRecord._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
        assert record == ("p", 10, 12.5, 0.25, 0.25)


def mpmath_normal_two_sided(doubled, w2):
    """erfc(sqrt(z^2 / 2)) at 50 digits, at the exact continuity-corrected z^2 = dev4^2 / sum(d^2)."""
    dev4 = max(abs(2 * w2 - sum(doubled)) - 2, 0)
    with mpmath.workdps(50):
        return mpmath.erfc(mpmath.sqrt(mpmath.mpf(dev4**2) / sum(d * d for d in doubled) / 2))


class TestNormalApproximationAccuracy:
    @pytest.mark.parametrize("n, stride", [(21, 1), (30, 1), (57, 1), (100, 1), (200, 7)])
    def test_within_3_ulp_of_mpmath_over_every_statistic(self, n, stride):
        doubled = list(range(2, 2 * n + 1, 2))
        for w2 in range(0, n * (n + 1) + 1, stride):  # every W+ from 0 to n(n+1)/2 in steps of 0.5
            p_value = evaluation._normal_two_sided(doubled, w2)
            assert ulp_distance(p_value, mpmath_normal_two_sided(doubled, w2)) <= 3, w2

    @pytest.mark.parametrize("seed", range(5))
    def test_wilcoxon_beyond_the_exact_limit_within_3_ulp_of_mpmath(self, seed):
        rng = np.random.default_rng(seed)
        n = 30 + 10 * seed
        x = list(np.round(rng.normal(0.3, 1.0, n), 1))  # rounding leaves tied magnitudes
        y = list(np.round(rng.normal(0.0, 1.0, n), 1))
        result = wilcoxon_signed_rank(x, y)
        assert result.method == "normal-approximation"
        assert result.n_nonzero > 20
        doubled, w2 = signed_ranks(x, y)
        assert result.statistic == w2 / 2
        assert ulp_distance(result.p_value, mpmath_normal_two_sided(doubled, w2)) <= 3

    def test_one_dof_tail_within_3_ulp_of_mpmath_at_rationals_up_to_1500(self):
        # the tail is erfc(sqrt(chi2/2)); chi2 = num/den is exact, so no rounding of z enters
        for i in range(3001):
            den = (1, 3, 7, 10, 97, 2**40 + 1)[i % 6]
            num = (i * den) // 2 + i % 5
            with mpmath.workdps(50):
                reference = mpmath.erfc(mpmath.sqrt(mpmath.mpf(num) / den / 2))
            p_value = chi_square_sf(num, den, 1)
            assert ulp_distance(p_value, reference) <= 3, (num, den)
            assert p_value > 0.0 or reference < sys.float_info.min, (num, den)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(21, 400), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_p_value_in_unit_interval_and_non_increasing_in_the_statistic(self, n, i, j):
        doubled = list(range(2, 2 * n + 1, 2))
        top = n * (n + 1) // 2  # untied, W+ ranges over the integers 0..top, centred on top/2
        far, near = sorted((i % (top // 2 + 1), j % (top // 2 + 1)))
        p_far = evaluation._normal_two_sided(doubled, 2 * far)
        p_near = evaluation._normal_two_sided(doubled, 2 * near)
        assert 0.0 <= p_far <= p_near <= 1.0
        assert evaluation._normal_two_sided(doubled, 2 * (top - far)) == p_far


def loocv_predictions(projects, variant):
    """{project_id: predicted} from loocv with zero DDIF/EIF means."""
    means = {p.project_id: (0.0, 0.0) for p in projects}
    records, _ = loocv(exact_model(), projects, variant, SimulationConfig(seed=1, sample_count=1), means=means)
    return {r.project_id: r.predicted for r in records}


class TestBaselinePredictors:
    """DF_only and DF_plus_Size: each fold's median over the other projects."""

    def test_df_only_median(self):
        projects = [project("a", 5, 10), project("b", 7, 20), project("c", 11, 40), project("d", 13, 50)]
        predicted = loocv_predictions(projects + [project("e", 100, 30)], Variant.DF_ONLY)
        assert predicted == {"a": 35.0, "b": 35.0, "c": 25.0, "d": 25.0, "e": 30.0}
        # the target's size plays no part
        assert loocv_predictions(projects + [project("e", 1.0, 30)], Variant.DF_ONLY) == predicted

    def test_df_size_median_density(self):
        projects = [project("a", 100, 10), project("b", 100, 30), project("c", 100, 50), project("t", 200, 60)]
        predicted = loocv_predictions(projects, Variant.DF_PLUS_SIZE)
        assert predicted == pytest.approx({"a": 30.0, "b": 30.0, "c": 30.0, "t": 60.0})

    def test_df_size_exact_recovery_on_homogeneous_density(self):
        projects = [project("a", 50, 10), project("b", 150, 30), project("c", 100, 20)]
        predicted = loocv_predictions(projects, Variant.DF_PLUS_SIZE)
        assert predicted == pytest.approx({"a": 10.0, "b": 30.0, "c": 20.0})


class TestLoocv:
    def test_five_projects_give_five_records_per_variant(self):
        rng = np.random.default_rng(0)
        model = build_synthetic_model(rng)
        projects = generate_projects(model, 5, rng)
        cfg = SimulationConfig(seed=1, sample_count=500)
        for variant in ALL_VARIANTS:
            records, excluded = loocv(model, projects, variant, cfg)
            assert len(records) == 5
            assert excluded == []

    def test_noise_free_exact_recovery(self):
        # degenerate multipliers and dyadic sizes: the prediction must invert
        # the generating equations bit for bit
        model = exact_model()
        projects = exact_projects()
        cfg = SimulationConfig(seed=9, sample_count=256)
        records, _ = loocv(model, projects, Variant.HDCE, cfg)
        for record in records:
            assert record.predicted == record.actual
            assert record.mre == 0.0

    def test_noise_free_data_recovered_within_mc_tolerance(self):
        # with spread-out multipliers the only error sources are Monte Carlo
        # noise on the means and integer rounding of the generated counts; a
        # high baseline keeps every count large enough that rounding is noise
        rng = np.random.default_rng(8)
        model = build_synthetic_model(rng)
        projects = generate_projects(model, 6, rng, noise_sigma=0.0, true_baseline=5.0)
        cfg = SimulationConfig(seed=88, sample_count=20_000)
        records, _ = loocv(model, projects, Variant.HDCE, cfg)
        for record in records:
            assert record.mre < 0.02

    def test_without_size_blinds_size(self):
        model = exact_model()
        base = exact_projects()[:3]
        twin_a = base[0]
        levels = dict(twin_a.characterization.levels)
        twin_b = HistoricalProject(
            characterization=ProjectCharacterization(project_id="twin", levels=levels),
            size=twin_a.size * 4,
            defects_found=twin_a.defects_found,
        )
        cfg = SimulationConfig(seed=2, sample_count=128)
        records, _ = loocv(model, base + [twin_b], Variant.WITHOUT_SIZE, cfg)
        by_id = {r.project_id: r for r in records}
        assert by_id["twin"].predicted == by_id[twin_a.project_id].predicted

    def test_zero_defect_projects_excluded_with_diagnostic(self):
        model = exact_model()
        projects = exact_projects()
        zero = HistoricalProject(
            characterization=ProjectCharacterization(
                project_id="zero", levels=dict(projects[0].characterization.levels)
            ),
            size=32.0,
            defects_found=0,
        )
        cfg = SimulationConfig(seed=3, sample_count=64)
        records, excluded = loocv(model, projects + [zero], Variant.HDCE, cfg)
        assert len(records) == len(projects)
        assert any(d.code == "zero-defects" for d in excluded)

    def test_too_small_history_rejected(self):
        model = exact_model()
        with pytest.raises(ValueError, match="at least 3"):
            loocv(model, exact_projects()[:2], Variant.HDCE, SimulationConfig(seed=1, sample_count=16))


class TestLeaveOneOutMedians:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]) | st.floats(min_value=0.01, max_value=100.0),
            min_size=3,
            max_size=200,
        )
    )
    def test_equal_statistics_median_of_every_fold(self, values):
        expected = [statistics.median(values[:i] + values[i + 1 :]) for i in range(len(values))]
        assert evaluation._leave_one_out_medians(values) == expected


class TestCompareVariants:
    def test_variant_against_itself_not_significant(self):
        records = records_from_res([(10, 12.0), (20, 15.0), (30, 33.0)])
        table = compare_variants({Variant.HDCE: records, Variant.DF_ONLY: list(records)})
        assert len(table) == 1
        assert table[0].p_value == 1.0
        assert not table[0].significant

    def test_order_invariance(self):
        a = records_from_res([(10, 12.0), (20, 15.0), (30, 33.0), (40, 70.0), (50, 45.0)])
        b = records_from_res([(10, 19.0), (20, 35.0), (30, 60.0), (40, 90.0), (50, 20.0)])
        ab = compare_variants({Variant.HDCE: a, Variant.DF_ONLY: b})
        ba = compare_variants({Variant.DF_ONLY: b, Variant.HDCE: a})
        assert ab[0].p_value == ba[0].p_value

    def test_dominating_variant_reaches_minimal_p(self):
        a = records_from_res([(10, 10.5), (20, 21.0), (30, 31.0), (40, 42.0), (50, 52.0)])
        b = records_from_res([(10, 19.0), (20, 35.0), (30, 60.0), (40, 90.0), (50, 20.0)])
        table = compare_variants({Variant.HDCE: a, Variant.DF_ONLY: b})
        assert table[0].p_value == 0.0625  # the minimum attainable two-sided p at n=5

    def test_mismatched_project_sets_rejected(self):
        a = records_from_res([(10, 12.0), (20, 15.0), (30, 33.0)])
        b = [PredictionRecord.from_values("other", 10, 12.0)] + a[1:]
        with pytest.raises(ValueError, match="different project set"):
            compare_variants({Variant.HDCE: a, Variant.DF_ONLY: b})


    def test_each_variant_is_sorted_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        actuals = [10 * (i + 1) for i in range(12)]
        records = {}
        for v in ALL_VARIANTS:
            variant_records = records_from_res([(a, float(a * rng.uniform(0.5, 1.5))) for a in actuals])
            records[v] = [variant_records[i] for i in rng.permutation(len(actuals))]
        by_id = {v: sorted(rs, key=lambda r: r.project_id) for v, rs in records.items()}
        expected = [
            wilcoxon_signed_rank([r.mre for r in by_id[a]], [r.mre for r in by_id[b]]).p_value
            for i, a in enumerate(ALL_VARIANTS)
            for b in ALL_VARIANTS[i + 1 :]
        ]
        sorts = []

        def counted(items, **kwargs):
            items = list(items)
            if items and isinstance(items[0], PredictionRecord):
                sorts.append(1)
            return sorted(items, **kwargs)

        monkeypatch.setattr(evaluation, "sorted", counted, raising=False)
        table = compare_variants(records)
        assert [c.p_value for c in table] == expected
        assert len(sorts) == len(ALL_VARIANTS)


class TestRunValidation:
    def test_full_report_structure(self):
        rng = np.random.default_rng(1)
        model = build_synthetic_model(rng)
        projects = generate_projects(model, 5, rng)
        cfg = SimulationConfig(seed=4, sample_count=500)
        report = run_validation(model, projects, cfg)
        assert report.variants == ALL_VARIANTS
        assert all(len(report.records[v]) == 5 for v in ALL_VARIANTS)
        assert len(report.comparisons) == math.comb(len(ALL_VARIANTS), 2)
        for v in ALL_VARIANTS:
            assert report.mmre[v] == pytest.approx(mmre(list(report.records[v])))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5, math.nan])
    def test_alpha_checked_before_any_simulation(self, alpha, monkeypatch):
        def no_simulation(*_args, **_kwargs):
            raise AssertionError("simulated before checking alpha")

        monkeypatch.setattr(evaluation, "project_factor_means", no_simulation)
        with pytest.raises(ValueError, match="alpha"):
            run_validation(exact_model(), exact_projects(), SimulationConfig(seed=1, sample_count=10), alpha=alpha)

    @pytest.mark.parametrize(
        "variants", [(Variant.HDCE, Variant.HDCE), (Variant.DF_ONLY, Variant.HDCE, Variant.WITHOUT_EIF, Variant.DF_ONLY)]
    )
    def test_repeated_variant_rejected_before_any_simulation(self, variants, monkeypatch):
        def no_simulation(*_args, **_kwargs):
            raise AssertionError("simulated before checking the variants")

        monkeypatch.setattr(evaluation, "project_factor_means", no_simulation)
        cfg = SimulationConfig(seed=1, sample_count=10)
        with pytest.raises(ValueError, match=f"more than once: {variants[-1].value}$"):
            run_validation(exact_model(), exact_projects(), cfg, variants=variants)

    def test_ablation_dominance_majority_over_seeds(self):
        # ablating an informative component should usually hurt accuracy
        wins = {Variant.WITHOUT_DDIF: 0, Variant.WITHOUT_EIF: 0, Variant.WITHOUT_SIZE: 0}
        seeds = 20
        for rep in range(seeds):
            rng = np.random.default_rng(5000 + rep)
            model = build_synthetic_model(rng)
            projects = generate_projects(model, 6, rng, noise_sigma=0.2)
            cfg = SimulationConfig(seed=6000 + rep, sample_count=1000)
            report = run_validation(
                model,
                projects,
                cfg,
                variants=(Variant.HDCE, Variant.WITHOUT_DDIF, Variant.WITHOUT_EIF, Variant.WITHOUT_SIZE),
            )
            for variant in wins:
                wins[variant] += report.mmre[Variant.HDCE] <= report.mmre[variant]
        for variant, count in wins.items():
            assert count > seeds / 2, f"{variant.value}: {count}/{seeds}"


def analytic_factor_means(model, projects):
    """Per-project (mean DDIF, mean EIF) from analytic_mean, one project at a time."""
    return {
        p.project_id: (
            analytic_mean(model, p.characterization, FactorKind.DEFECT_CONTENT),
            analytic_mean(model, p.characterization, FactorKind.EFFECTIVENESS),
        )
        for p in projects
    }


def first_simulation_error(model, projects, cfg):
    """Diagnostics of the first failing simulate call in the per-project loop (DDIF before EIF)."""
    for p in projects:
        for kind in (FactorKind.DEFECT_CONTENT, FactorKind.EFFECTIVENESS):
            try:
                simulate(model, p.characterization, kind, cfg)
            except ModelValidationError as exc:
                return exc.diagnostics
    return None


def reference_prediction(variant, train, target, means):
    """The former per-variant fold arithmetic: one predictor per variant."""
    if variant is Variant.DF_ONLY:
        return float(statistics.median(p.defects_found for p in train))
    if variant is Variant.DF_PLUS_SIZE:
        return statistics.median(p.defects_found / p.size for p in train) * target.size

    def inputs(p):
        ddif, eif = means[p.project_id]
        if variant is Variant.WITHOUT_DDIF:
            ddif = 0.0
        elif variant is Variant.WITHOUT_EIF:
            eif = 0.0
        return (1.0 if variant is Variant.WITHOUT_SIZE else p.size), ddif, eif

    values = []
    for p in train:
        size, ddif, eif = inputs(p)
        values.append(p.defects_found / (size * (1.0 + ddif) * (1.0 + eif)))
    size, ddif, eif = inputs(target)
    return size * (1.0 + ddif) * (1.0 + eif) * statistics.median(values)


class TestReferenceFormulas:
    """The single LOOCV formula and means function reproduce the former code paths bit for bit."""

    @staticmethod
    def portfolio(count):
        rng = np.random.default_rng(2024 + count)
        model = build_synthetic_model(rng)
        projects = generate_projects(model, count, rng, noise_sigma=0.3)
        return model, sorted(projects, key=lambda p: p.project_id)

    @pytest.mark.parametrize("count", [1, 13, 200])
    def test_project_factor_means_are_the_analytic_means(self, count, monkeypatch):
        model, projects = self.portfolio(count)
        monkeypatch.setattr(simulation, "counter_uniforms", None)  # nothing is drawn
        assert project_factor_means(model, projects) == analytic_factor_means(model, projects)

    @staticmethod
    def tweaked_model(tweak):
        factors = list(reference_model().factors)
        eif = next(i for i, f in enumerate(factors) if f.kind is FactorKind.EFFECTIVENESS)
        index, multiplier = {
            "unquantified-eif": (eif, None),
            "unquantified-dc": (0, None),
            "misordered-dc": (0, Multiplier(0.5, 0.2, 0.4)),
        }.get(tweak, (None, None))
        if index is not None:
            f = factors[index]
            factors[index] = Factor(f.id, f.name, f.kind, f.category, f.scale, multiplier)
        if tweak == "three-dc":
            del factors[:2]
        return CausalModel(context="c", factors=tuple(factors))

    @pytest.mark.parametrize(
        "tweak, bad_project, codes",
        [
            ("unquantified-eif", 1, {"unquantified"}),  # (p0, EIF) comes before (p1, DDIF)
            ("unquantified-dc", 1, {"unquantified"}),
            ("none", 0, {"bad-level"}),
            ("misordered-dc", 1, {"multiplier-order"}),  # model errors stop the first pair
            ("three-dc", 1, {"factor-count", "bad-level"}),  # the model's advisory rides along
        ],
    )
    def test_first_invalid_pair_raises_what_the_per_project_loop_raised(self, tweak, bad_project, codes):
        model = self.tweaked_model(tweak)
        levels = [{f.id: 2 for f in model.factors} for _ in range(3)]
        levels[bad_project][model.factors[-1].id] = 4
        projects = [project(f"p{i}", 100.0, 10, lv) for i, lv in enumerate(levels)]
        cfg = SimulationConfig(seed=3, sample_count=50)
        with pytest.raises(ModelValidationError) as raised:
            project_factor_means(model, projects)
        assert raised.value.diagnostics == first_simulation_error(model, projects, cfg)
        assert {d.code for d in raised.value.diagnostics} == codes

    def test_each_project_is_checked_once(self, monkeypatch):
        model, projects = self.portfolio(13)
        calls = {"model": 0, "characterization": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(hdce.model, "validate_model", counted("model", hdce.model.validate_model))
        monkeypatch.setattr(
            hdce.model, "validate_characterization",
            counted("characterization", hdce.model.validate_characterization),
        )
        project_factor_means(model, projects)
        assert calls == {"model": 1, "characterization": 13}

    @pytest.mark.parametrize("count", [12, 13])  # odd and even training folds
    def test_loocv_matches_former_per_variant_predictors(self, count):
        model, projects = self.portfolio(count)
        assert all(p.defects_found > 0 for p in projects)
        cfg = SimulationConfig(seed=6, sample_count=700)
        means = analytic_factor_means(model, projects)
        for variant in ALL_VARIANTS:
            records, _ = loocv(model, projects, variant, cfg)
            expected = [
                reference_prediction(variant, projects[:i] + projects[i + 1 :], target, means)
                for i, target in enumerate(projects)
            ]
            assert [r.project_id for r in records] == [p.project_id for p in projects]
            assert [r.predicted for r in records] == expected, variant.value


class TestNonFinitePredictions:
    """A LOOCV prediction past the float range raises before any record or Wilcoxon test."""

    @pytest.mark.parametrize(
        "sizes, defects, operation",
        [
            ((1e308, 1.0, 1.0, 1.0), (1, 10, 10, 10), "multiply"),  # a finite median times the target's size
            ((1e-300, 1e-300, 1.0, 1.0), (10**300, 10**300, 1, 1), "divide"),  # half a fold's ratios are inf
        ],
    )
    def test_raises_the_overflowing_operation(self, sizes, defects, operation):
        projects = [project(f"p{i}", size, df) for i, (size, df) in enumerate(zip(sizes, defects))]
        means = dict.fromkeys((p.project_id for p in projects), (0.0, 0.0))
        with pytest.raises(FloatingPointError, match=f"^overflow encountered in {operation}$"):
            loocv(exact_model(), projects, Variant.DF_PLUS_SIZE, SimulationConfig(seed=1), means=means)


EXAMPLES = Path(__file__).resolve().parents[1] / "schemas" / "examples"


class TestPredictPass:
    """Exact means, the eq. 5 baseline, then one pass that draws the target's defects found
    at that baseline, give what the former history means plus two target simulate calls
    gave, bit for bit."""

    @staticmethod
    def portfolio(count):
        rng = np.random.default_rng(77 + count)
        model = build_synthetic_model(rng)
        projects = generate_projects(model, count, rng, noise_sigma=0.3)
        return model, projects[:-1], projects[-1]

    @staticmethod
    def predict(model, history, target, cfg, quantile_pair=(0.10, 0.90)):
        means = project_factor_means(model, [*history, target])
        baseline = estimate_baseline(history, means)
        prediction = predict_defects_found(model, target, means, baseline, cfg, quantile_pair)
        return prediction.point, prediction.interval, prediction.ddif_mean, prediction.eif_mean

    @pytest.mark.parametrize(
        "count, samples, quantile_pair",
        [(2, 500, (0.10, 0.90)), (6, 70_000, (0.05, 0.95)), (41, 3000, (0.25, 0.75))],
    )
    def test_prediction_equals_former_two_simulate_path(self, count, samples, quantile_pair):
        model, history, target = self.portfolio(count)
        cfg = SimulationConfig(seed=11, sample_count=samples)
        assert self.predict(model, history, target, cfg, quantile_pair) == former_prediction(
            model, history, target, cfg, quantile_pair
        )

    @pytest.mark.parametrize("samples", [500, 3 * simulation.BLOCK_SIZE + 7])
    def test_interval_from_reference_samples_and_means_exact(self, samples):
        model, history, target = self.portfolio(6)
        cfg = SimulationConfig(seed=13, sample_count=samples)
        point, interval, ddif_mean, eif_mean = self.predict(model, history, target, cfg)
        means = analytic_factor_means(model, [*history, target])
        baseline = estimate_baseline(history, means).estimate
        assert (ddif_mean, eif_mean) == means[target.project_id]
        assert point == expected_defects_found(target.size, ddif_mean, eif_mean, baseline)
        ddif, eif = (reference_samples(model, target.characterization, kind, cfg) for kind in FactorKind)
        per_sample = expected_defects_found(target.size, ddif, eif, baseline)
        assert interval == tuple(np.quantile(per_sample, [0.10, 0.90]).tolist())

    @pytest.mark.parametrize(
        "tweak, bad_project, codes",
        [
            ("none", 1, {"bad-level"}),  # a historical project
            ("none", 3, {"bad-level"}),  # the target, on its DDIF pair
            ("unquantified-eif", 3, {"unquantified"}),  # (p0, EIF) comes before the target
            ("unquantified-dc", 3, {"unquantified"}),
        ],
    )
    def test_first_invalid_pair_raises_what_the_former_path_raised(self, tweak, bad_project, codes):
        model = TestReferenceFormulas.tweaked_model(tweak)
        levels = [{f.id: 2 for f in model.factors} for _ in range(4)]
        levels[bad_project][model.factors[-1].id] = 4
        projects = [project(f"p{i}", 100.0, 10, lv) for i, lv in enumerate(levels)]
        cfg = SimulationConfig(seed=3, sample_count=50)
        with pytest.raises(ModelValidationError) as former:
            former_prediction(model, projects[:3], projects[3], cfg)
        with pytest.raises(ModelValidationError) as raised:
            self.predict(model, projects[:3], projects[3], cfg)
        assert raised.value.diagnostics == former.value.diagnostics
        assert {d.code for d in raised.value.diagnostics} == codes

    def test_peak_memory_not_above_former_path(self, monkeypatch):
        model, history, target = self.portfolio(6)
        cfg = SimulationConfig(seed=12, sample_count=200_000)
        # one share: with more, the shares' uniform temporaries overlap as the threads' timing falls
        use_cpus(monkeypatch, 1)

        def one_pass():
            self.predict(model, history, target, cfg)

        def former():
            former_prediction(model, history, target, cfg)

        def peak(run):
            # the least of three runs: a lazy cache filled during one run adds to its peak
            peaks = []
            for _ in range(3):
                tracemalloc.start()
                try:
                    run()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return min(peaks)

        # first calls fill lazy state (the numpy.ma import of former's
        # np.quantile, signature caches) outside the measured runs, whatever
        # tests ran before this one
        one_pass()
        former()
        assert peak(one_pass) <= peak(former)

    def test_peak_memory_is_one_vector_and_block_scratch(self, tmp_path, monkeypatch):
        # the target's DDIF and EIF vectors and its per-sample values would be 3 vectors of N floats
        samples = 500_000
        use_cpus(monkeypatch, 1)
        # one share: the draw row, the uniforms' two temporaries, the target's DDIF and EIF blocks
        scratch = 5 * simulation.BLOCK_SIZE * 8
        argv = [
            "predict", "--model", str(EXAMPLES / "model.json"), "--projects", str(EXAMPLES / "projects.json"),
            "--target", "review-next", "--seed", "7", "--samples", str(samples), "--out", str(tmp_path / "p.json"),
        ]
        assert main(argv) == 0  # lazy state first
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * samples * 8 + scratch, (peak, samples * 8, scratch)
