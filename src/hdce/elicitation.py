"""Expert ranking analysis: descriptive statistics, Kendall's W, factor selection.

Experts rank the factors of each (kind, category) group by importance, 1 = most
important, mid-ranks for ties. Agreement is measured by Kendall's coefficient of
concordance with the usual tie correction, significance by the chi-square
approximation, and the model factors are picked with the rigorous 10% rule: the
best-ranked factor of each category plus everything within 10% of its mean rank.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

from .diagnostics import Diagnostic, InputFormatError, advisory
from .model import FactorCategory, FactorKind
from .pvalues import chi_square_sf, doubled_midranks

CategoryKey = tuple[FactorKind, FactorCategory]

DEFAULT_SELECTION_THRESHOLD = 1.1
# chi-square significance is a large-n approximation; flag small groups
SMALL_N_LIMIT = 7
# questionnaire guidance: groups beyond this size are hard for experts to rank
MAX_COMFORTABLE_GROUP = 12
# a larger group is an input error: the chi-square tail's time grows with the square
# of its dof, n - 1 (up to about 17 ms at 1,023, 60 ms at 4,095 and 0.35 s at 16,383
# on a 2-core x86-64 machine, the worst near the far tail's underflow cut-off)
MAX_GROUP_SIZE = 4096


@dataclass(frozen=True)
class RankingSheet:
    """One expert's ranking of all factors in one (kind, category) group."""

    expert_id: str
    kind: FactorKind
    category: FactorCategory
    ranks: dict[str, float]

    @property
    def category_key(self) -> CategoryKey:
        return (self.kind, self.category)


@dataclass(frozen=True)
class FactorRankStats:
    factor_id: str
    mean: float
    min: float
    max: float
    sd: float


@dataclass(frozen=True)
class WSignificance:
    p_value: float
    chi_square: float
    dof: int
    small_n_approximation: bool


@dataclass(frozen=True)
class CategoryAnalysis:
    kind: FactorKind
    category: FactorCategory
    expert_count: int
    stats: tuple[FactorRankStats, ...]
    w: float | None
    w_note: str
    p_value: float | None
    small_n_approximation: bool
    significant: bool | None
    selected: frozenset[str]


@dataclass(frozen=True)
class RankingAnalysis:
    categories: tuple[CategoryAnalysis, ...]
    selected: frozenset[str]
    threshold: float
    alpha: float
    advisories: tuple[Diagnostic, ...]


def valid_rank_pattern(values: Sequence[float]) -> bool:
    """True iff values are a permutation of 1..n or a mid-rank adjustment of one."""
    return all(2 * v == d for v, d in zip(values, doubled_midranks(values)))


def _check_consistent(sheets: Sequence[RankingSheet]) -> tuple[CategoryKey, list[str]]:
    if not sheets:
        raise ValueError("at least one ranking sheet is required")
    key = sheets[0].category_key
    factor_ids = sorted(sheets[0].ranks)
    for sheet in sheets:
        if sheet.category_key != key:
            raise ValueError(f"sheets mix categories: {key} vs {sheet.category_key}")
        if sorted(sheet.ranks) != factor_ids:
            raise InputFormatError(
                f"expert {sheet.expert_id!r} ranks a different factor set than the others "
                f"in category {key[0].value}/{key[1].value}"
            )
        if not valid_rank_pattern(list(sheet.ranks.values())):
            raise InputFormatError(
                f"expert {sheet.expert_id!r} ranks for {key[0].value}/{key[1].value} are not "
                f"a permutation of 1..{len(factor_ids)} (mid-ranks allowed for ties)"
            )
    return key, factor_ids


def summarize_ranks(sheets: Sequence[RankingSheet]) -> dict[str, FactorRankStats]:
    """Per-factor mean/min/max/sd of the ranks given by the experts."""
    _, factor_ids = _check_consistent(sheets)
    out: dict[str, FactorRankStats] = {}
    for factor_id in factor_ids:
        ranks = [sheet.ranks[factor_id] for sheet in sheets]
        out[factor_id] = FactorRankStats(
            factor_id=factor_id,
            mean=statistics.fmean(ranks),
            min=min(ranks),
            max=max(ranks),
            sd=statistics.pstdev(ranks),
        )
    return out


def kendalls_w(sheets: Sequence[RankingSheet]) -> float:
    """Kendall's coefficient of concordance with the standard tie correction.

    W = 12*S / (m^2*(n^3 - n) - m*T) where S is the sum of squared deviations of
    the factor rank sums from their mean and T sums (t^3 - t) over every tie
    group of every sheet.
    """
    _, factor_ids = _check_consistent(sheets)
    m = len(sheets)
    n = len(factor_ids)
    if m < 2:
        raise ValueError(f"need at least 2 ranking sheets, got {m}")
    if n < 2:
        raise ValueError(f"need at least 2 factors, got {n}")

    rank_sums = [sum(sheet.ranks[fid] for sheet in sheets) for fid in factor_ids]
    mean_sum = sum(rank_sums) / n
    s = sum((r - mean_sum) ** 2 for r in rank_sums)

    tie_term = 0.0
    for sheet in sheets:
        tie_sizes: dict[float, int] = {}
        for value in sheet.ranks.values():
            tie_sizes[value] = tie_sizes.get(value, 0) + 1
        tie_term += sum(t**3 - t for t in tie_sizes.values())

    denominator = m * m * (n**3 - n) - m * tie_term
    if denominator <= 0:
        raise ValueError("Kendall's W is undefined: all ranks tied in every sheet")
    return 12.0 * s / denominator


def w_significance(w: float, m: int, n: int) -> WSignificance:
    """Chi-square approximation: chi2 = m*(n-1)*W with n-1 degrees of freedom."""
    if m < 2 or n < 2:
        raise ValueError("significance needs m >= 2 experts and n >= 2 factors")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"W must lie in [0, 1], got {w}")
    chi_square = m * (n - 1) * w
    dof = n - 1
    return WSignificance(
        p_value=chi_square_sf(*chi_square.as_integer_ratio(), dof),
        chi_square=chi_square,
        dof=dof,
        small_n_approximation=n <= SMALL_N_LIMIT,
    )


def select_factors(
    mean_ranks: Mapping[CategoryKey, Mapping[str, float]],
    threshold: float = DEFAULT_SELECTION_THRESHOLD,
) -> set[str]:
    """Per category keep the factor with minimal mean rank plus everything whose
    mean rank is at most threshold times that minimum; union over categories."""
    if threshold < 1.0:
        raise ValueError(f"threshold must be >= 1.0, got {threshold}")
    selected: set[str] = set()
    for key, means in mean_ranks.items():
        if not means:
            raise ValueError(f"category {key} has no ranked factors")
        best = min(means.values())
        selected.update(fid for fid, mean in means.items() if mean <= threshold * best)
    return selected


def analyze_rankings(
    sheets: Sequence[RankingSheet],
    threshold: float = DEFAULT_SELECTION_THRESHOLD,
    alpha: float = 0.05,
) -> RankingAnalysis:
    """Full questionnaire analysis: stats, W + significance, and factor selection.

    A group of more than MAX_GROUP_SIZE factors raises InputFormatError.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not sheets:
        raise ValueError("no ranking sheets provided")

    by_category: dict[CategoryKey, list[RankingSheet]] = {}
    for sheet in sheets:
        by_category.setdefault(sheet.category_key, []).append(sheet)

    advisories: list[Diagnostic] = []
    categories: list[CategoryAnalysis] = []

    for key in sorted(by_category, key=lambda k: (k[0].value, k[1].value)):
        group = by_category[key]
        n = len(group[0].ranks)
        if n > MAX_GROUP_SIZE:
            raise InputFormatError(
                f"category {key[0].value}/{key[1].value} has {n} factors; at most {MAX_GROUP_SIZE} are supported"
            )
        stats = summarize_ranks(group)
        ordered = tuple(sorted(stats.values(), key=lambda s: (s.mean, s.factor_id)))
        m = len(group)
        if n > MAX_COMFORTABLE_GROUP:
            advisories.append(
                advisory(
                    "large-group",
                    f"category {key[0].value}/{key[1].value} has {n} factors; groups above "
                    f"{MAX_COMFORTABLE_GROUP} are hard for experts to rank consistently",
                )
            )
        w: float | None = None
        w_note = ""
        p_value: float | None = None
        small_n = False
        significant: bool | None = None
        if m < 2:
            w_note = "unavailable: fewer than 2 experts"
        elif n < 2:
            w_note = "unavailable: fewer than 2 factors"
        else:
            try:
                w = kendalls_w(group)
            except ValueError as exc:
                w_note = f"unavailable: {exc}"
            else:
                sig = w_significance(w, m, n)
                p_value = sig.p_value
                small_n = sig.small_n_approximation
                significant = p_value <= alpha
        selected_here = select_factors({key: {s.factor_id: s.mean for s in ordered}}, threshold)
        categories.append(
            CategoryAnalysis(
                kind=key[0],
                category=key[1],
                expert_count=m,
                stats=ordered,
                w=w,
                w_note=w_note,
                p_value=p_value,
                small_n_approximation=small_n,
                significant=significant,
                selected=frozenset(selected_here),
            )
        )

    return RankingAnalysis(
        categories=tuple(categories),
        selected=frozenset().union(*(c.selected for c in categories)),
        threshold=threshold,
        alpha=alpha,
        advisories=tuple(advisories),
    )
