import math
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdce.diagnostics import InputFormatError
from hdce.elicitation import (
    RankingSheet,
    analyze_rankings,
    kendalls_w,
    select_factors,
    summarize_ranks,
    valid_rank_pattern,
    w_significance,
)
from hdce.io import load_rankings
from hdce.model import FactorCategory
from hdce.pvalues import chi_square_sf
from helpers import (
    DC,
    EFF,
    EXPECTED_DC_SELECTION,
    EXPECTED_EFF_SELECTION,
    PP_FACTORS,
    PP_RANKINGS,
    PROCESS,
    PRODUCT,
    REFERENCE_MEAN_RANKS,
    REFERENCE_W,
    brute_force_w,
    correctly_rounded,
    ulp_distance,
)

EXAMPLES = Path(__file__).resolve().parents[1] / "schemas" / "examples"


def mpmath_chi_square_tail(chi_square, dof):
    """P(X >= chi_square) for X chi-square with dof degrees of freedom, at 100 digits."""
    with mpmath.workdps(100):
        return mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(chi_square) / 2, mpmath.inf, regularized=True)


def sheet(expert, ranks, kind=DC, category=PRODUCT):
    return RankingSheet(expert_id=expert, kind=kind, category=category, ranks=dict(ranks))


def sheets_from_rows(rows, factors, kind=DC, category=PROCESS):
    return [
        sheet(f"expert-{i + 1}", dict(zip(factors, row)), kind=kind, category=category)
        for i, row in enumerate(rows)
    ]


class TestRankPattern:
    def test_plain_permutation(self):
        assert valid_rank_pattern([3, 1, 2])

    def test_midrank_tie(self):
        assert valid_rank_pattern([1, 2.5, 2.5])

    def test_bad_tie_encoding(self):
        assert not valid_rank_pattern([1, 2, 2])

    def test_not_starting_at_one(self):
        assert not valid_rank_pattern([2, 3, 4])


class TestSummarize:
    def test_hand_arithmetic(self):
        group = [
            sheet("e1", {"a": 1, "b": 2, "c": 3}),
            sheet("e2", {"a": 2, "b": 1, "c": 3}),
            sheet("e3", {"a": 3, "b": 1, "c": 2}),
        ]
        stats = summarize_ranks(group)
        assert stats["a"].mean == pytest.approx(2.0)
        assert stats["a"].min == 1 and stats["a"].max == 3
        assert stats["a"].sd == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_single_expert_sd_zero(self):
        stats = summarize_ranks([sheet("only", {"a": 2, "b": 1, "c": 3})])
        assert stats["b"].mean == 1.0
        assert stats["b"].sd == 0.0

    def test_reference_mean_from_seven_ranks(self):
        # seven ranks summing to 29 give the 4.143 mean reported for the
        # top-ranked product factor
        ranks = (4, 4, 4, 4, 4, 4, 5)
        rows = []
        for r in ranks:
            others = [v for v in range(1, 13) if v != r]
            rows.append([r] + others[:11])
        factors = [f"f{i}" for i in range(12)]
        group = sheets_from_rows(rows, factors, kind=DC, category=PRODUCT)
        stats = summarize_ranks(group)
        assert stats["f0"].mean == pytest.approx(4.143, abs=5e-4)

    def test_inconsistent_factor_sets_rejected(self):
        group = [sheet("e1", {"a": 1, "b": 2}), sheet("e2", {"a": 1, "c": 2})]
        with pytest.raises(InputFormatError, match="different factor set"):
            summarize_ranks(group)

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(7))))
    def test_mean_is_permutation_invariant_over_experts(self, order):
        # seven valid rankings: five cyclic shifts of 1..5, identity, and reversal
        rows = [list(range(1, 6))[i:] + list(range(1, 6))[:i] for i in range(5)] + [
            list(range(1, 6)),
            list(range(5, 0, -1)),
        ]
        factors = [f"f{i}" for i in range(5)]
        base = summarize_ranks(sheets_from_rows(rows, factors))
        shuffled = summarize_ranks(sheets_from_rows([rows[i] for i in order], factors))
        for fid in factors:
            assert base[fid].mean == pytest.approx(shuffled[fid].mean)


class TestKendallsW:
    def test_identical_rankings_give_exactly_one(self):
        rows = [[1, 2, 3, 4, 5]] * 4
        assert kendalls_w(sheets_from_rows(rows, [f"f{i}" for i in range(5)])) == 1.0

    def test_reversed_pair_matches_oracle(self):
        rows = [[1, 2, 3], [3, 2, 1]]
        group = sheets_from_rows(rows, ["a", "b", "c"])
        assert kendalls_w(group) == pytest.approx(brute_force_w(rows), abs=1e-15)
        assert kendalls_w(group) == 0.0

    def test_reconstructed_process_personnel_table(self):
        group = sheets_from_rows(PP_RANKINGS, PP_FACTORS)
        w = kendalls_w(group)
        assert round(w, 4) == REFERENCE_W[(DC, PROCESS)][0]
        stats = summarize_ranks(group)
        assert stats["project-complexity"].mean == pytest.approx(1.429, abs=5e-4)

    def test_tie_correction_hand_value(self):
        # m=2, n=3: one sheet ties two factors; S=6.5, T=6, W=78/84
        group = [
            sheet("e1", {"a": 1.0, "b": 2.5, "c": 2.5}),
            sheet("e2", {"a": 1.0, "b": 2.0, "c": 3.0}),
        ]
        assert kendalls_w(group) == pytest.approx(78.0 / 84.0, abs=1e-12)

    def test_all_tied_everywhere_is_undefined(self):
        group = [
            sheet("e1", {"a": 2.0, "b": 2.0, "c": 2.0}),
            sheet("e2", {"a": 2.0, "b": 2.0, "c": 2.0}),
        ]
        with pytest.raises(ValueError, match="undefined"):
            kendalls_w(group)

    def test_single_sheet_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            kendalls_w([sheet("e1", {"a": 1, "b": 2})])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=2, max_value=6),
        st.randoms(use_true_random=False),
    )
    def test_matches_brute_force_on_random_tie_free_instances(self, m, n, rnd):
        rows = []
        for _ in range(m):
            row = list(range(1, n + 1))
            rnd.shuffle(row)
            rows.append(row)
        group = sheets_from_rows(rows, [f"f{i}" for i in range(n)])
        assert kendalls_w(group) == pytest.approx(brute_force_w(rows), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_invariant_under_relabeling_and_sheet_order(self, rnd):
        rows = []
        for _ in range(4):
            row = list(range(1, 6))
            rnd.shuffle(row)
            rows.append(row)
        factors = [f"f{i}" for i in range(5)]
        w_base = kendalls_w(sheets_from_rows(rows, factors))

        relabeled = [f"g{i}" for i in range(5)]
        w_relabeled = kendalls_w(sheets_from_rows(rows, relabeled))
        shuffled_rows = rows[::-1]
        w_reordered = kendalls_w(sheets_from_rows(shuffled_rows, factors))
        assert w_relabeled == pytest.approx(w_base, abs=1e-15)
        assert w_reordered == pytest.approx(w_base, abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_adding_consensus_sheet_never_decreases_w(self, rnd):
        rows = []
        for _ in range(3):
            row = list(range(1, 6))
            rnd.shuffle(row)
            rows.append(row)
        factors = [f"f{i}" for i in range(5)]
        group = sheets_from_rows(rows, factors)
        w_before = kendalls_w(group)

        sums = {fid: sum(s.ranks[fid] for s in group) for fid in factors}
        consensus_order = sorted(factors, key=lambda fid: (sums[fid], fid))
        consensus = {fid: consensus_order.index(fid) + 1 for fid in factors}
        w_after = kendalls_w(group + [sheet("consensus", consensus, kind=DC, category=PROCESS)])
        assert w_after >= w_before - 1e-12


class TestWSignificance:
    def test_zero_w_gives_p_one(self):
        assert w_significance(0.0, 5, 4).p_value == 1.0

    def test_perfect_agreement_seven_experts_five_factors(self):
        result = w_significance(1.0, 7, 5)
        assert result.chi_square == pytest.approx(28.0)
        assert result.dof == 4
        # closed form for even dof: sf(x, 4) = exp(-x/2) * (1 + x/2)
        expected = math.exp(-14.0) * (1.0 + 14.0)
        assert result.p_value == pytest.approx(expected, rel=1e-10)
        assert result.p_value < 1e-4
        assert result.small_n_approximation

    def test_star_pattern_of_reference_categories(self):
        n_by_category = {
            (DC, PRODUCT): 12,
            (DC, FactorCategory.PROJECT): 4,
            (DC, PROCESS): 5,
            (EFF, PRODUCT): 6,
            (EFF, FactorCategory.PROJECT): 6,
            (EFF, PROCESS): 8,
        }
        for key, (w, starred) in REFERENCE_W.items():
            result = w_significance(w, 7, n_by_category[key])
            assert (result.p_value <= 0.05) == starred, key

    def test_unstarred_product_effectiveness_category(self):
        result = w_significance(0.123, 7, 6)
        assert result.p_value > 0.05
        assert result.small_n_approximation

    @pytest.mark.parametrize("m", [2, 7, 15])
    def test_p_value_correctly_rounded_and_one_dof_within_16_ulp_of_mpmath(self, m):
        for n in range(2, 41):
            for w in [i / 50 for i in range(51)] + [1e-9, 0.123, 0.999999]:
                result = w_significance(w, m, n)
                reference = mpmath_chi_square_tail(result.chi_square, result.dof)
                if n == 2:
                    assert ulp_distance(result.p_value, reference) <= 16, (w, m, n)
                else:
                    assert correctly_rounded(result.p_value, reference), (w, m, n)

    @pytest.mark.parametrize("n", [101, 199, 200])
    def test_far_tail_at_large_dof_nonzero_and_correctly_rounded(self, n):
        # chi2 up to 1600: e^(-chi2/2) alone underflows past chi2 = 1490, long before the p-value
        m = 9
        underflowing = 0
        for i in range(161):
            w = min(1.0, 10.0 * i / (m * (n - 1)))
            result = w_significance(w, m, n)
            reference = mpmath_chi_square_tail(result.chi_square, result.dof)
            if reference >= sys.float_info.min:
                assert result.p_value > 0.0, (w, n)
                underflowing += math.exp(-result.chi_square / 2) == 0.0
            assert correctly_rounded(result.p_value, reference), (w, n)
        if n > 101:
            assert underflowing, "no point where e^(-chi2/2) underflows and the p-value does not"

    @pytest.mark.parametrize("dof", [3, 5, 11])
    def test_odd_dof_tail_never_increases_across_its_middle(self, dof):
        # chi2 from 0.5 dof to 1.5 dof in steps of dof * 1e-4: a tail off by an ulp either way would step up here
        tails = [chi_square_sf(*(dof * (5000 + k) / 10000).as_integer_ratio(), dof) for k in range(10001)]
        increasing = [k for k in range(10000) if tails[k + 1] > tails[k]]
        assert not increasing, [(k, tails[k], tails[k + 1]) for k in increasing[:5]]

    def test_example_rankings_need_no_libm_tail(self, monkeypatch):
        # every group of the example has at least 4 factors, so each tail has dof >= 3 and needs no libm
        def unavailable(*_args):
            raise AssertionError("libm called")

        monkeypatch.setattr(math, "erfc", unavailable)
        monkeypatch.setattr(math, "exp", unavailable)
        analysis = analyze_rankings(load_rankings(EXAMPLES / "rankings.csv"))
        assert [c.p_value is not None for c in analysis.categories] == [True] * 6

    @pytest.mark.parametrize("dof", [1, 3])
    def test_chi_square_whose_half_underflows_gives_one(self, dof):
        # chi2 = 2**-1100 has no double; the tail is 1 - O(chi2^(dof/2)), which rounds to 1
        assert chi_square_sf(1, 2**1100, dof) == 1.0
        assert chi_square_sf(*(5e-324).as_integer_ratio(), dof) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 30), st.integers(2, 250), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_p_value_in_unit_interval_and_non_increasing_in_w(self, m, n, i, j):
        low, high = sorted((i, j))
        p_low = w_significance(low / 10**6, m, n).p_value
        p_high = w_significance(high / 10**6, m, n).p_value
        assert 0.0 <= p_high <= p_low <= 1.0


class TestSelectFactors:
    def test_project_category_selects_single_factor(self):
        means = {(DC, FactorCategory.PROJECT): REFERENCE_MEAN_RANKS[(DC, FactorCategory.PROJECT)]}
        assert select_factors(means) == {"stakeholder-user-organization-count"}

    def test_all_reference_categories_give_five_plus_five(self):
        selected = select_factors(REFERENCE_MEAN_RANKS)
        assert selected == EXPECTED_DC_SELECTION | EXPECTED_EFF_SELECTION

    def test_single_factor_category(self):
        assert select_factors({(EFF, PRODUCT): {"only": 1.0}}) == {"only"}

    def test_ties_at_minimum_all_selected(self):
        means = {(EFF, FactorCategory.PROJECT): {"a": 2.0, "b": 2.0, "c": 3.0}}
        assert select_factors(means) == {"a", "b"}

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.from_regex(r"[a-z]{1,6}", fullmatch=True),
            st.floats(min_value=1.0, max_value=10.0),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_monotone_in_threshold(self, means, extra):
        key = (DC, PRODUCT)
        tight = select_factors({key: means}, threshold=1.1)
        loose = select_factors({key: means}, threshold=1.1 + extra)
        assert tight <= loose

    def test_empty_category_rejected(self):
        with pytest.raises(ValueError):
            select_factors({(DC, PRODUCT): {}})


class TestAnalyzeRankings:
    def test_full_analysis_on_reconstructed_category(self):
        group = sheets_from_rows(PP_RANKINGS, PP_FACTORS)
        analysis = analyze_rankings(group)
        assert len(analysis.categories) == 1
        category = analysis.categories[0]
        assert category.expert_count == 7
        assert round(category.w, 4) == 0.4531
        assert category.significant is True
        assert category.small_n_approximation is True
        assert analysis.selected == {"project-complexity"}

    def test_single_expert_w_unavailable(self):
        analysis = analyze_rankings([sheet("solo", {"a": 1, "b": 2, "c": 3})])
        category = analysis.categories[0]
        assert category.w is None
        assert "fewer than 2 experts" in category.w_note
        assert category.stats[0].mean == 1.0
        assert analysis.selected == {"a"}

    def test_large_group_advisory(self):
        factors = [f"f{i}" for i in range(13)]
        rows = [list(range(1, 14)), list(range(13, 0, -1))]
        analysis = analyze_rankings(sheets_from_rows(rows, factors))
        assert any(d.code == "large-group" for d in analysis.advisories)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.05, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            analyze_rankings(sheets_from_rows(PP_RANKINGS, PP_FACTORS), alpha=alpha)

    def test_invalid_rank_pattern_rejected(self):
        with pytest.raises(InputFormatError, match="not\\s+a permutation"):
            analyze_rankings([sheet("e1", {"a": 1, "b": 1}), sheet("e2", {"a": 1, "b": 2})])
