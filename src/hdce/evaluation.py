"""Validation harness: LOOCV, relative-error accuracy, baselines, Wilcoxon test.

Nothing here draws: every variant is evaluated on the same leave-one-out folds
with the same exact DDIF/EIF means (project_factor_means), so no seed or sample
count changes a result, per-project errors stay paired and the exact two-sided
Wilcoxon signed-rank test applies directly to the MRE differences. That test
runs in integers: doubled mid-ranks, a count of sign assignments per doubled rank
sum for the exact p-value, and an exact z^2 for the normal approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import isfinite
from typing import Mapping, Sequence

from .diagnostics import Diagnostic, error
from .estimation import KINDS, expected_defects_found
from .model import CausalModel, HistoricalProject, SimulationConfig, analytic_mean, check_portfolio
from .pvalues import chi_square_sf, doubled_midranks

# beyond this many nonzero differences, the exact test gives way to the normal
# approximation; the counts are exact at any size, so this bounds only the time
# of the count table, and it stays 20 so that no reported p-value changes method
EXACT_ENUMERATION_LIMIT = 20
MIN_HISTORY_FOR_LOOCV = 3


class Variant(str, Enum):
    HDCE = "HDCE"
    DF_ONLY = "DF_only"
    DF_PLUS_SIZE = "DF_plus_Size"
    WITHOUT_DDIF = "w/o_DDIF"
    WITHOUT_EIF = "w/o_EIF"
    WITHOUT_SIZE = "w/o_Size"


ALL_VARIANTS = tuple(Variant)

# which of (size, DDIF, EIF) enter each variant's scale; a dropped term counts as 1
_SCALE_TERMS = {
    Variant.HDCE: (True, True, True),
    Variant.DF_ONLY: (False, False, False),
    Variant.DF_PLUS_SIZE: (True, False, False),
    Variant.WITHOUT_DDIF: (True, False, True),
    Variant.WITHOUT_EIF: (True, True, False),
    Variant.WITHOUT_SIZE: (False, True, True),
}


@dataclass(frozen=True)
class PredictionRecord:
    project_id: str
    actual: int
    predicted: float
    re: float
    mre: float

    @classmethod
    def from_values(cls, project_id: str, actual: int, predicted: float) -> "PredictionRecord":
        if actual <= 0:
            raise ValueError(f"relative error needs actual > 0, got {actual} for {project_id!r}")
        re = (predicted - actual) / actual
        return cls(project_id=project_id, actual=actual, predicted=predicted, re=re, mre=abs(re))


@dataclass(frozen=True)
class WilcoxonResult:
    p_value: float
    statistic: float
    n_nonzero: int
    method: str


@dataclass(frozen=True)
class VariantComparison:
    variant_a: Variant
    variant_b: Variant
    p_value: float
    significant: bool
    method: str


@dataclass(frozen=True)
class ValidationReport:
    variants: tuple[Variant, ...]
    records: dict[Variant, tuple[PredictionRecord, ...]]
    mmre: dict[Variant, float]
    comparisons: tuple[VariantComparison, ...]
    excluded: tuple[Diagnostic, ...]
    alpha: float


def mmre(records: Sequence[PredictionRecord]) -> float:
    """Mean magnitude of relative error."""
    if not records:
        raise ValueError("MMRE of an empty record list is undefined")
    return sum(r.mre for r in records) / len(records)


@lru_cache(maxsize=32)
def _sign_counts(doubled: tuple[int, ...]) -> int:
    # digit s, k + 1 bits wide, of the returned integer counts the 2^k sign assignments
    # whose doubled W+ is s: each doubled rank d multiplies the generating polynomial by
    # (1 + x^d). No count exceeds 2^k, so no digit carries into the next, at any k.
    width = len(doubled) + 1
    poly = 1
    for d in doubled:
        poly += poly << (width * d)
    return poly


def _exact_two_sided(doubled: Sequence[int], w2: int) -> float:
    k = len(doubled)
    width = k + 1
    # counts do not depend on rank order: sorted, every equal rank set shares a table
    poly = _sign_counts(tuple(sorted(doubled)))
    # flipping every sign maps W+ to sum - W+, so the upper tail at w2 is the lower tail at
    # sum - w2, and the smaller tail is the count at or below s: the digits 0..s, summed by
    # the modulus 2^width - 1 (2^width is 1 mod it); their sum is at most 2^k, below the
    # modulus, so the remainder is the sum itself
    s = min(w2, sum(doubled) - w2)
    tail = (poly & ((1 << width * (s + 1)) - 1)) % ((1 << width) - 1)
    return min(1.0, 2 * tail / 2**k)


def _normal_two_sided(doubled: Sequence[int], w2: int) -> float:
    # z = (|W+ - mu| - 1/2) / sigma, mu = sum(r)/2, sigma^2 = sum(r^2)/4, continuity-corrected;
    # in doubled ranks d = 2r and w2 = 2 W+, z^2 = dev4^2 / sum(d^2) exactly, and
    # P(|Z| >= z) = P(chi2_1 >= z^2)
    dev4 = max(abs(2 * w2 - sum(doubled)) - 2, 0)
    return min(1.0, chi_square_sf(dev4 * dev4, sum(d * d for d in doubled), 1))


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float]) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped before ranking, ties get mid-ranks. Up to
    EXACT_ENUMERATION_LIMIT nonzero differences the p-value is exact (the 2^k
    sign assignments are counted per rank sum, not listed); beyond that a
    normal approximation with continuity correction is used. All differences
    zero yields p = 1 with method "degenerate".
    """
    if len(x) != len(y):
        raise ValueError(f"paired samples must have equal length, got {len(x)} and {len(y)}")
    if not x:
        raise ValueError("paired samples must be non-empty")
    if not all(isfinite(v) for v in (*x, *y)):
        raise ValueError("paired samples must be finite")
    differences = [float(a) - float(b) for a, b in zip(x, y)]
    nonzero = [d for d in differences if d != 0.0]
    if not nonzero:
        return WilcoxonResult(p_value=1.0, statistic=0.0, n_nonzero=0, method="degenerate")
    doubled = doubled_midranks([abs(d) for d in nonzero])
    w2 = sum(r for r, d in zip(doubled, nonzero) if d > 0)
    if len(nonzero) <= EXACT_ENUMERATION_LIMIT:
        return WilcoxonResult(_exact_two_sided(doubled, w2), w2 / 2, len(nonzero), "exact")
    return WilcoxonResult(_normal_two_sided(doubled, w2), w2 / 2, len(nonzero), "normal-approximation")


def project_factor_means(model: CausalModel, projects: Sequence[HistoricalProject]) -> dict[str, tuple[float, float]]:
    """Map project_id -> (mean DDIF, mean EIF), each model.analytic_mean, exact; nothing is drawn.

    Every (project, kind) pair is checked once first (check_portfolio),
    projects in order and DDIF before EIF, so an invalid input raises the
    first pair's diagnostics.
    """
    check_portfolio(model, [p.characterization for p in projects], KINDS)
    dc, eff = KINDS
    return {p.project_id: (analytic_mean(model, p.characterization, dc), analytic_mean(model, p.characterization, eff))
            for p in projects}


def _scale(variant: Variant, project: HistoricalProject, means: Mapping[str, tuple[float, float]]) -> float:
    keep_size, keep_ddif, keep_eif = _SCALE_TERMS[variant]
    ddif, eif = means[project.project_id]
    return expected_defects_found(
        project.size if keep_size else 1.0, ddif if keep_ddif else 0.0, eif if keep_eif else 0.0
    )


def usable_history(
    historical: Sequence[HistoricalProject],
) -> tuple[list[HistoricalProject], list[Diagnostic]]:
    """Projects with DF > 0, sorted by id; the rest become exclusion diagnostics."""
    usable = []
    excluded = []
    for p in sorted(historical, key=lambda p: p.project_id):
        if p.defects_found is None:
            excluded.append(
                error("no-defect-data", f"project {p.project_id!r} has no defects_found and is excluded")
            )
        elif p.defects_found == 0:
            excluded.append(
                error(
                    "zero-defects",
                    f"project {p.project_id!r} found 0 defects; relative error is undefined, excluded",
                )
            )
        else:
            usable.append(p)
    return usable, excluded


def loocv(
    model: CausalModel,
    historical: Sequence[HistoricalProject],
    variant: Variant,
    cfg: SimulationConfig,
    *,
    means: Mapping[str, tuple[float, float]] | None = None,
) -> tuple[list[PredictionRecord], list[Diagnostic]]:
    """Leave-one-out records for one variant, ordered by project id.

    Every variant predicts scale(target) * median over the training fold of
    DF / scale, with scale = Size * (1 + DDIF) * (1 + EIF) and the terms the
    variant drops set to 1: DF_only uses scale 1, DF_plus_Size the size alone,
    w/o_Size, w/o_DDIF and w/o_EIF drop their term, HDCE keeps all three. For
    HDCE the median is the eq. 5 baseline. Each fold takes its median over the
    remaining projects only, so no target leaks into its own prediction.
    The exact means can be passed in to share them across variants (the
    default computes them here); nothing is drawn, so cfg is not read.
    """
    usable, excluded = usable_history(historical)
    if len(usable) < MIN_HISTORY_FOR_LOOCV:
        raise ValueError(
            f"leave-one-out needs at least {MIN_HISTORY_FOR_LOOCV} usable projects, got {len(usable)}"
        )
    if means is None:
        means = project_factor_means(model, usable)
    scales = [_scale(variant, p, means) for p in usable]
    ratios = [p.defects_found / scale for p, scale in zip(usable, scales)]
    medians = _leave_one_out_medians(ratios)
    predictions = [scale * median for scale, median in zip(scales, medians)]
    if not all(map(isfinite, predictions)):  # Python floats overflow silently: in half a fold's ratios, or a product
        raise FloatingPointError(f"overflow encountered in {'multiply' if all(map(isfinite, medians)) else 'divide'}")
    records = [PredictionRecord.from_values(p.project_id, p.defects_found, x) for p, x in zip(usable, predictions)]
    return records, excluded


def _leave_one_out_medians(values: Sequence[float]) -> list[float]:
    """statistics.median of values without its i-th element, for every i, from one sort."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ordered = [values[i] for i in order]
    half, odd = divmod(len(values) - 1, 2)
    medians = [0.0] * len(values)
    for position, i in enumerate(order):
        # index j of the fold's sorted values is index j, or j + 1 past the target
        lower = ordered[half - 1 + (half - 1 >= position)]
        upper = ordered[half + (half >= position)]
        medians[i] = upper if odd else (lower + upper) / 2
    return medians


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def compare_variants(
    records_by_variant: Mapping[Variant, Sequence[PredictionRecord]],
    alpha: float = 0.05,
) -> list[VariantComparison]:
    """Pairwise two-sided Wilcoxon tests on paired per-project MREs."""
    _check_alpha(alpha)
    variants = list(records_by_variant)
    ordered = {v: sorted(records_by_variant[v], key=lambda r: r.project_id) for v in variants}
    ids = [r.project_id for r in next(iter(ordered.values()), [])]
    for v, records in ordered.items():
        if [r.project_id for r in records] != ids:
            raise ValueError(f"variant {v.value} covers a different project set than the others")
    mres = {v: [r.mre for r in records] for v, records in ordered.items()}

    comparisons = []
    for i, a in enumerate(variants):
        for b in variants[i + 1 :]:
            result = wilcoxon_signed_rank(mres[a], mres[b])
            comparisons.append(
                VariantComparison(
                    variant_a=a,
                    variant_b=b,
                    p_value=result.p_value,
                    significant=result.p_value <= alpha,
                    method=result.method,
                )
            )
    return comparisons


def run_validation(
    model: CausalModel,
    historical: Sequence[HistoricalProject],
    cfg: SimulationConfig,
    variants: Sequence[Variant] = ALL_VARIANTS,
    alpha: float = 0.05,
) -> ValidationReport:
    """LOOCV over all requested variants with shared exact means; nothing is drawn, so cfg is not read."""
    if not variants:
        raise ValueError("no variants requested")
    variants = tuple(variants)
    repeated = sorted({v.value for v in variants if variants.count(v) > 1})
    if repeated:
        raise ValueError(f"variants requested more than once: {', '.join(repeated)}")
    _check_alpha(alpha)
    usable, excluded = usable_history(historical)
    if len(usable) < MIN_HISTORY_FOR_LOOCV:
        raise ValueError(
            f"leave-one-out needs at least {MIN_HISTORY_FOR_LOOCV} usable projects, got {len(usable)}"
        )
    means = project_factor_means(model, usable)
    records: dict[Variant, tuple[PredictionRecord, ...]] = {}
    for variant in variants:
        variant_records, _ = loocv(model, usable, variant, cfg, means=means)
        records[variant] = tuple(variant_records)
    return ValidationReport(
        variants=variants,
        records=records,
        mmre={v: mmre(records[v]) for v in variants},
        comparisons=tuple(compare_variants(records, alpha)),
        excluded=tuple(excluded),
        alpha=alpha,
    )
