"""Defect content and effectiveness algebra, baseline estimation, DF prediction.

The core identity: defects found = defect content * effectiveness, with
defect content = size * DD_base * (1 + DDIF) and
effectiveness = Eff_base * (1 + EIF).

Only the product DD_base * Eff_base is estimable from measured data; it is
backed out per historical project and aggregated by the median (robust against
the outliers a small project base cannot absorb).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .diagnostics import Diagnostic, advisory
from .model import HistoricalProject

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
    eq. 5 divides the measured defects found by.
    """
    return size * (1.0 + ddif) * (1.0 + eif) * baseline


def baseline_value(project: HistoricalProject, ddif_point: float, eif_point: float) -> float:
    """Eq. 5, the inverse of expected_defects_found: DD_base*Eff_base = DF / (Size*(1+DDIF)*(1+EIF))."""
    if project.defects_found is None:
        raise ValueError(f"project {project.project_id!r} has no defects_found record")
    if ddif_point < 0 or eif_point < 0:
        raise ValueError("ddif and eif points must be non-negative")
    return project.defects_found / expected_defects_found(project.size, ddif_point, eif_point)


def estimate_baseline(
    historical: Sequence[HistoricalProject],
    means: Mapping[str, tuple[float, float]],
    diagnostics: list[Diagnostic] | None = None,
) -> BaselineEstimate:
    """Median of the per-project eq. 5 values; even counts average the middle two.

    means maps each project id to its exact (DDIF, EIF) means, as returned by
    evaluation.project_factor_means.
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
    return BaselineEstimate(
        per_project_values=dict(sorted(per_project.items())),
        estimate=statistics.median(per_project.values()),
    )


def predict_defects_found(
    size: float,
    means: tuple[float, float],
    scale_samples: np.ndarray,
    baseline: BaselineEstimate,
    quantile_pair: tuple[float, float] = DEFAULT_PREDICTION_QUANTILES,
) -> DefectsFoundPrediction:
    """Point prediction from the (DDIF, EIF) means plus a quantile interval.

    means are the target's, and scale_samples its per-sample scale size*(1+DDIF_s)*(1+EIF_s),
    as evaluation.means_and_target_samples returns them. The interval comes from the values
    scale_s*baseline: this scales scale_samples by the baseline and reorders it, in place.
    """
    if not size > 0:
        raise ValueError(f"size must be > 0, got {size}")
    low_q, high_q = quantile_pair
    if not 0.0 <= low_q <= high_q <= 1.0:
        raise ValueError(f"quantile pair must satisfy 0 <= low <= high <= 1, got {quantile_pair}")

    ddif_mean, eif_mean = means
    point = expected_defects_found(size, ddif_mean, eif_mean, baseline.estimate)
    if not np.isfinite(point):  # Python floats overflow to inf silently
        raise FloatingPointError("overflow encountered in multiply")
    # x * 1.0 == x: the scale times the baseline is expected_defects_found at that baseline, bit for bit
    scale_samples *= baseline.estimate
    low, high = np.quantile(scale_samples, [low_q, high_q], overwrite_input=True)
    return DefectsFoundPrediction(point, (float(low), float(high)), ddif_mean, eif_mean)
