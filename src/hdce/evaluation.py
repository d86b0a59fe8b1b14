"""Validation harness: LOOCV, relative-error accuracy, baselines, Wilcoxon test.

Nothing here draws: every variant is evaluated on the same leave-one-out folds
with the same exact DDIF/EIF means (project_factor_means), so no seed or sample
count changes a result, per-project errors stay paired and the exact two-sided
Wilcoxon signed-rank test applies directly to the MRE differences; run_validation
builds the folds' per-project columns once for all variants. That test runs in
integers: doubled mid-ranks, a count of sign assignments per doubled rank sum for
the exact p-value, and an exact z^2 for the normal approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from itertools import compress, repeat
from math import isfinite
from operator import add, attrgetter, gt, mul, sub, truediv
from typing import Mapping, NamedTuple, Sequence

from .diagnostics import Diagnostic, error
from .estimation import expected_defects_found
from .model import CausalModel, HistoricalProject, SimulationConfig, project_factor_means
from .pvalues import chi_square_sf, sorted_doubled_midranks

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


class PredictionRecord(NamedTuple):
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
    """Mean magnitude of relative error: plain float additions in record order from +0.0 (not
    sum(), which compensates its additions from Python 3.12 on)."""
    if not records:
        raise ValueError("MMRE of an empty record list is undefined")
    return reduce(add, [r.mre for r in records], 0.0) / len(records)


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
    return min(1.0, chi_square_sf(dev4 * dev4, sum(map(mul, doubled, doubled)), 1))


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
    return _signed_rank(_paired_sample(x), _paired_sample(y))


def _paired_sample(x: Sequence[float]) -> list[float]:
    """x as floats, once checked non-empty and finite as one side of a signed-rank test."""
    if not x:
        raise ValueError("paired samples must be non-empty")
    if not all(map(isfinite, x)):
        raise ValueError("paired samples must be finite")
    return list(map(float, x))


def _signed_rank(x: list[float], y: list[float]) -> WilcoxonResult:
    """wilcoxon_signed_rank on two checked _paired_sample lists of equal length."""
    nonzero = list(filter(None, map(sub, x, y)))  # a float difference is false exactly when it is 0.0 or -0.0
    if not nonzero:
        return WilcoxonResult(p_value=1.0, statistic=0.0, n_nonzero=0, method="degenerate")
    nonzero.sort(key=abs)  # equal magnitudes, whatever their signs, share one mid-rank in any order
    doubled = sorted_doubled_midranks(list(map(abs, nonzero)))
    w2 = sum(compress(doubled, map(gt, nonzero, repeat(0.0))))
    if len(nonzero) <= EXACT_ENUMERATION_LIMIT:
        return WilcoxonResult(_exact_two_sided(doubled, w2), w2 / 2, len(nonzero), "exact")
    return WilcoxonResult(_normal_two_sided(doubled, w2), w2 / 2, len(nonzero), "normal-approximation")


def usable_history(
    historical: Sequence[HistoricalProject],
) -> tuple[list[HistoricalProject], list[Diagnostic]]:
    """Projects with DF > 0, sorted by id; the rest become exclusion diagnostics. Fewer than
    MIN_HISTORY_FOR_LOOCV such projects leave no leave-one-out fold to fit and raise ValueError."""
    ordered = sorted(historical, key=attrgetter("characterization.project_id"))  # not the property's Python call
    usable = [p for p in ordered if p.defects_found]  # defects_found is None or an int >= 0
    excluded = [
        error("no-defect-data", f"project {p.project_id!r} has no defects_found and is excluded")
        if p.defects_found is None
        else error("zero-defects", f"project {p.project_id!r} found 0 defects; relative error is undefined, excluded")
        for p in ordered
        if not p.defects_found
    ]
    if len(usable) < MIN_HISTORY_FOR_LOOCV:
        raise ValueError(f"leave-one-out needs at least {MIN_HISTORY_FOR_LOOCV} usable projects, got {len(usable)}")
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
    The exact means can be passed in (the default computes them here); nothing
    is drawn, so cfg is not read. run_validation takes the same path, but
    builds the folds' columns once and shares them across its variants.
    """
    usable, excluded = usable_history(historical)
    if means is None:
        means = project_factor_means(model, usable)
    return _variant_records(_fold_columns(usable, means), variant), excluded


def _fold_columns(usable: Sequence[HistoricalProject], means: Mapping[str, tuple[float, float]]) -> tuple:
    """The columns every variant's folds share, in usable's order: ids, actuals, sizes, mean DDIFs, mean EIFs."""
    ids = list(map(attrgetter("characterization.project_id"), usable))  # not the property's Python call
    ddifs, eifs = zip(*map(means.__getitem__, ids))
    return ids, list(map(attrgetter("defects_found"), usable)), list(map(attrgetter("size"), usable)), ddifs, eifs


def _variant_records(columns: tuple, variant: Variant) -> list[PredictionRecord]:
    ids, actuals, sizes, ddifs, eifs = columns
    keep_size, keep_ddif, keep_eif = _SCALE_TERMS[variant]
    # a dropped term repeats its neutral value; the size's repeat is bounded, so DF_only's map ends
    scales = list(map(expected_defects_found, sizes if keep_size else repeat(1.0, len(ids)),
                      ddifs if keep_ddif else repeat(0.0), eifs if keep_eif else repeat(0.0)))
    medians = _leave_one_out_medians(list(map(truediv, actuals, scales)))
    predictions = list(map(mul, scales, medians))
    if not all(map(isfinite, predictions)):  # Python floats overflow silently: in half a fold's ratios, or a product
        raise FloatingPointError(f"overflow encountered in {'multiply' if all(map(isfinite, medians)) else 'divide'}")
    # PredictionRecord.from_values' arithmetic, (predicted - actual) / actual; every usable actual is > 0
    res = list(map(truediv, map(sub, predictions, actuals), actuals))
    return list(map(tuple.__new__, repeat(PredictionRecord), zip(ids, actuals, predictions, res, map(abs, res))))


def _leave_one_out_medians(values: Sequence[float]) -> list[float]:
    """statistics.median of values without its i-th element, for every i, from one sort."""
    ordered = sorted(values)
    half, odd = divmod(len(values) - 1, 2)
    # without a value below, at or above the middle value b, the middle values of the rest are one of
    # three pairs; which copy of a repeated value leaves makes no difference, so the value decides
    a, b, c = ordered[half - 1], ordered[half], ordered[half + 1]
    below, at, above = (c, c, b) if odd else ((b + c) / 2, (a + c) / 2, (a + b) / 2)
    return [below if v < b else above if v > b else at for v in values]


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
    ordered = {v: sorted(records_by_variant[v], key=attrgetter("project_id")) for v in variants}
    ids = [r.project_id for r in next(iter(ordered.values()), [])]
    for v, records in ordered.items():
        if [r.project_id for r in records] != ids:
            raise ValueError(f"variant {v.value} covers a different project set than the others")
    # each variant's MREs are checked once, in the order its first test would check them
    mres = {v: _paired_sample([r.mre for r in ordered[v]]) for v in variants} if len(variants) > 1 else {}

    comparisons = []
    for i, a in enumerate(variants):
        for b in variants[i + 1 :]:
            result = _signed_rank(mres[a], mres[b])
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
    """loocv of every requested variant over one shared set of fold columns; nothing is drawn, so cfg is not read."""
    if not variants:
        raise ValueError("no variants requested")
    variants = tuple(variants)
    repeated = sorted({v.value for v in variants if variants.count(v) > 1})
    if repeated:
        raise ValueError(f"variants requested more than once: {', '.join(repeated)}")
    _check_alpha(alpha)
    usable, excluded = usable_history(historical)
    columns = _fold_columns(usable, project_factor_means(model, usable))
    records = {variant: tuple(_variant_records(columns, variant)) for variant in variants}
    return ValidationReport(
        variants=variants,
        records=records,
        mmre={v: mmre(records[v]) for v in variants},
        comparisons=tuple(compare_variants(records, alpha)),
        excluded=tuple(excluded),
        alpha=alpha,
    )
