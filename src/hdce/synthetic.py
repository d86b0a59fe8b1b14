"""Synthetic model and project generators for studies and end-to-end tests.

Projects are generated by the same equations the predictor inverts: a shared
true baseline, analytic DDIF/EIF means from the characterization, and optional
multiplicative log-normal noise on the defect count. Sizes and characterization
intensities are stratified across projects (log-spaced sizes with jitter, a
level-intensity gradient), so every generated portfolio actually exercises both
the size and the expert-factor components instead of relying on iid luck.
"""

from __future__ import annotations

import math

import numpy as np

from .estimation import expected_defects_found
from .model import (
    CausalModel,
    Factor,
    FactorCategory,
    FactorKind,
    FactorScale,
    HistoricalProject,
    Multiplier,
    ProjectCharacterization,
)
from .simulation import analytic_mean

_CATEGORY_CYCLE = (FactorCategory.PRODUCT, FactorCategory.PROJECT, FactorCategory.PROCESS_PERSONNEL)
CONTEXT = "synthetic study context"
SIZE_RANGE = (20.0, 2000.0)  # pages; sizes are log-spaced across it
ID_PREFIX = "P"


def _generic_scale(name: str) -> FactorScale:
    return FactorScale(
        tuple(f"{name}: situation with impact level {level} of 3" for level in range(4))
    )


def build_synthetic_model(
    rng: np.random.Generator,
    n_dc: int = 5,
    n_eff: int = 5,
) -> CausalModel:
    """Random quantified model with ordered, clearly non-degenerate multipliers."""
    factors = []
    for kind, count, prefix in (
        (FactorKind.DEFECT_CONTENT, n_dc, "dc"),
        (FactorKind.EFFECTIVENESS, n_eff, "eff"),
    ):
        for i in range(count):
            low = float(rng.uniform(0.05, 0.15))
            mode = low + float(rng.uniform(0.05, 0.25))
            high = mode + float(rng.uniform(0.05, 0.35))
            factors.append(
                Factor(
                    id=f"{prefix}-{i + 1}",
                    name=f"synthetic {kind.value} factor {i + 1}",
                    kind=kind,
                    category=_CATEGORY_CYCLE[i % len(_CATEGORY_CYCLE)],
                    scale=_generic_scale(f"{prefix}-{i + 1}"),
                    multiplier=Multiplier(min=low, most_likely=mode, max=high),
                )
            )
    return CausalModel(context=CONTEXT, factors=tuple(factors))


def generate_projects(
    model: CausalModel,
    count: int,
    rng: np.random.Generator,
    *,
    true_baseline: float = 0.2,
    noise_sigma: float = 0.2,
) -> list[HistoricalProject]:
    """Projects whose defect counts follow the model, with log-normal noise on DF.

    Sizes are log-spaced over SIZE_RANGE with mild jitter and shuffled across
    projects; factor levels are binomial with a per-project intensity gradient,
    so both artifact size and expert factors vary substantially in every draw.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    log_lo, log_hi = math.log(SIZE_RANGE[0]), math.log(SIZE_RANGE[1])
    size_slots = rng.permutation(count)
    intensity_slots = rng.permutation(count)
    projects = []
    for i in range(count):
        size_frac = size_slots[i] / (count - 1) if count > 1 else 0.5
        size = math.exp(log_lo + size_frac * (log_hi - log_lo) + float(rng.normal(0.0, 0.1)))
        intensity_frac = intensity_slots[i] / (count - 1) if count > 1 else 0.5
        level_p = 0.1 + 0.8 * intensity_frac
        levels = {f.id: int(rng.binomial(3, level_p)) for f in model.factors}
        ch = ProjectCharacterization(project_id=f"{ID_PREFIX}{i + 1}", levels=levels)
        ddif = analytic_mean(model, ch, FactorKind.DEFECT_CONTENT)
        eif = analytic_mean(model, ch, FactorKind.EFFECTIVENESS)
        df_true = expected_defects_found(size, ddif, eif, true_baseline)
        noise = float(np.exp(rng.normal(0.0, noise_sigma))) if noise_sigma > 0 else 1.0
        defects = max(1, round(df_true * noise))
        projects.append(HistoricalProject(characterization=ch, size=size, defects_found=defects))
    return projects
