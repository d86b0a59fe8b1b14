"""Defect content and effectiveness algebra, baseline estimation, DF prediction.

The core identity: defects found = defect content * effectiveness, with
defect content = size * DD_base * (1 + DDIF) and
effectiveness = Eff_base * (1 + EIF).

Only the product DD_base * Eff_base is estimable from measured data; it is
backed out per historical project at its exact (DDIF, EIF) means, which
model.project_factor_means gives, and aggregated by the median (robust against
the outliers a small project base cannot absorb); a prediction's samples are
then drawn at that baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .diagnostics import Diagnostic, advisory
from .model import KINDS, CausalModel, HistoricalProject, SimulationConfig, check_portfolio

DEFAULT_PREDICTION_QUANTILES = (0.10, 0.90)
# below this many historical projects the baseline is shaky
RECOMMENDED_MIN_HISTORY = 4


@dataclass(frozen=True)
class BaselineEstimate:
    """Median of the per-project DD_base*Eff_base values (defects per page)."""

    per_project_values: dict[str, float]
    estimate: float


@dataclass(frozen=True)
class DefectsFoundPrediction:
    point: float
    interval: tuple[float, float]
    ddif_mean: float
    eif_mean: float


def expected_defects_found(size, ddif, eif, baseline=1.0):
    """DF = Size * (1 + DDIF) * (1 + EIF) * DD_base*Eff_base, on scalars or arrays.

    With the default baseline of 1 this is the project's scale, the factor that
    eq. 5 divides the measured defects found by. Python floats overflow to inf
    silently, so a non-finite float result raises FloatingPointError; arrays
    follow numpy's error state.
    """
    df = size * (1.0 + ddif) * (1.0 + eif) * baseline
    if isinstance(df, float) and not math.isfinite(df):
        raise FloatingPointError("overflow encountered in multiply")
    return df


def baseline_value(project: HistoricalProject, ddif_point: float, eif_point: float) -> float:
    """Eq. 5, the inverse of expected_defects_found: DD_base*Eff_base = DF / (Size*(1+DDIF)*(1+EIF)),
    where a quotient past the float range, which Python floats give as inf, raises FloatingPointError."""
    if project.defects_found is None:
        raise ValueError(f"project {project.project_id!r} has no defects_found record")
    if ddif_point < 0 or eif_point < 0:
        raise ValueError("ddif and eif points must be non-negative")
    value = project.defects_found / expected_defects_found(project.size, ddif_point, eif_point)
    if not math.isfinite(value):
        raise FloatingPointError("overflow encountered in divide")
    return value


def estimate_baseline(
    historical: Sequence[HistoricalProject],
    means: Mapping[str, tuple[float, float]],
    diagnostics: list[Diagnostic] | None = None,
) -> BaselineEstimate:
    """Median of the per-project eq. 5 values; even counts average the middle two.

    means maps each project id to its exact (DDIF, EIF) means, as returned by
    model.project_factor_means.
    """
    if not historical:
        raise ValueError("cannot estimate a baseline from an empty history")
    if len(historical) < RECOMMENDED_MIN_HISTORY and diagnostics is not None:
        diagnostics.append(
            advisory(
                "small-history",
                f"baseline rests on {len(historical)} historical projects; "
                f"at least {RECOMMENDED_MIN_HISTORY} are recommended",
            )
        )
    per_project = {p.project_id: baseline_value(p, *means[p.project_id]) for p in historical}
    # statistics.median's own expression, without loading statistics
    ordered = sorted(per_project.values())
    half, odd = divmod(len(ordered), 2)
    return BaselineEstimate(
        per_project_values=dict(sorted(per_project.items())),
        estimate=ordered[half] if odd else (ordered[half - 1] + ordered[half]) / 2,
    )


def predict_defects_found(
    model: CausalModel,
    target: HistoricalProject,
    means: Mapping[str, tuple[float, float]],
    baseline: BaselineEstimate,
    cfg: SimulationConfig,
    quantile_pair: tuple[float, float] = DEFAULT_PREDICTION_QUANTILES,
) -> DefectsFoundPrediction:
    """Point prediction at the target's exact (DDIF, EIF) means, as project_factor_means maps them,
    plus a quantile interval of Size*(1+DDIF_s)*(1+EIF_s)*baseline, which one engine pass (draw_vector)
    draws a block at a time over the target's factors, once check_portfolio has checked them. The
    interval is sorted_quantiles' read of those samples, sorted in place: np.quantile's numbers bit
    for bit, since a size > 0 times factors >= +0.0 and a baseline >= +0.0 is never -0.0. It is read
    under numpy's raising error state, as the draws are: an interval end past the float range raises
    FloatingPointError. Only this function of the module loads numpy."""
    import numpy as np

    from .simulation import draw_vector, sorted_quantiles

    low_q, high_q = quantile_pair
    if not 0.0 <= low_q <= high_q <= 1.0:
        raise ValueError(f"quantile pair must satisfy 0 <= low <= high <= 1, got {quantile_pair}")
    check_portfolio(model, [target.characterization], KINDS)
    ddif_mean, eif_mean = means[target.project_id]
    point = expected_defects_found(target.size, ddif_mean, eif_mean, baseline.estimate)
    samples = draw_vector(model, target.characterization, KINDS, cfg,
                          combine=lambda ddif, eif: expected_defects_found(target.size, ddif, eif, baseline.estimate))
    with np.errstate(over="raise", invalid="raise"):
        low, high = sorted_quantiles(samples, quantile_pair)
    return DefectsFoundPrediction(point, (float(low), float(high)), ddif_mean, eif_mean)
