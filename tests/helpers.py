"""Shared fixtures: a reference model, reference mean-rank tables, exact-value models."""

from __future__ import annotations

import functools
import math
import os

import mpmath
import numpy as np

from hdce.model import (
    MAX_LEVEL,
    CausalModel,
    Factor,
    FactorCategory,
    FactorKind,
    FactorScale,
    HistoricalProject,
    Multiplier,
    ProjectCharacterization,
)
from hdce.estimation import estimate_baseline, expected_defects_found
from hdce.evaluation import project_factor_means
from hdce.simulation import SimulationConfig, counter_uniforms, factor_stream, simulate

DC = FactorKind.DEFECT_CONTENT
EFF = FactorKind.EFFECTIVENESS
PRODUCT = FactorCategory.PRODUCT
PROJECT = FactorCategory.PROJECT
PROCESS = FactorCategory.PROCESS_PERSONNEL


def scale_for(name: str) -> FactorScale:
    return FactorScale(tuple(f"{name}: level {i} situation" for i in range(4)))


STAKEHOLDER_SCALE = FactorScale(
    (
        "customer and supplier only",
        "customer, supplier, and one user organization",
        "customer, supplier, and an international partner",
        "customer, supplier, several user organizations, and an international partner",
    )
)


def reference_model() -> CausalModel:
    """Quantified 5 DC + 5 Eff model shaped like the reference study's selection outcome."""
    spec = [
        ("novelty-to-developer", DC, PRODUCT, (0.10, 0.30, 0.60)),
        ("external-interface-count-complexity", DC, PRODUCT, (0.05, 0.20, 0.50)),
        ("autonomous", DC, PRODUCT, (0.10, 0.25, 0.40)),
        ("stakeholder-user-organization-count", DC, PROJECT, (0.15, 0.35, 0.70)),
        ("project-complexity", DC, PROCESS, (0.20, 0.40, 0.80)),
        ("consistent-terminology", EFF, PRODUCT, (0.05, 0.15, 0.30)),
        ("documentation-completeness", EFF, PRODUCT, (0.10, 0.20, 0.45)),
        ("developer-ivv-relationship", EFF, PROJECT, (0.05, 0.25, 0.55)),
        ("document-change-management", EFF, PROJECT, (0.05, 0.10, 0.25)),
        ("ivv-system-operation-knowledge", EFF, PROCESS, (0.15, 0.30, 0.60)),
    ]
    factors = []
    for fid, kind, category, (low, mode, high) in spec:
        scale = STAKEHOLDER_SCALE if fid == "stakeholder-user-organization-count" else scale_for(fid)
        factors.append(
            Factor(
                id=fid,
                name=fid.replace("-", " "),
                kind=kind,
                category=category,
                scale=scale,
                multiplier=Multiplier(low, mode, high),
            )
        )
    return CausalModel(context="IV&V document review during requirements analysis", factors=tuple(factors))


def characterization(model: CausalModel, levels, project_id: str = "P1") -> ProjectCharacterization:
    if isinstance(levels, int):
        levels = {f.id: levels for f in model.factors}
    return ProjectCharacterization(project_id=project_id, levels=dict(levels))


def reference_samples(
    model: CausalModel, ch: ProjectCharacterization, kind: FactorKind, cfg: SimulationConfig
) -> np.ndarray:
    """Independent Monte Carlo reference: one factor at a time over the whole sample range,
    uniforms -> triangular draws -> level/3-weighted accumulation, in model order."""
    n = cfg.sample_count
    values = np.zeros(n, dtype=np.float64)
    for f in model.factors_of_kind(kind):
        m = f.multiplier
        u = counter_uniforms(cfg.seed, factor_stream(f.id), 0, n)
        values += (ch.levels[f.id] / MAX_LEVEL) * former_triangular_inverse_cdf(m.min, m.most_likely, m.max, u)
    return values


def ulp_distance(got: float, reference) -> float:
    """|got - reference| in units in the last place of the double nearest reference, an
    mpmath number; below the normal range the unit is the smallest subnormal."""
    return float(abs(reference - got)) / math.ulp(float(reference))


def correctly_rounded(got: float, reference) -> bool:
    """True iff got is the double nearest reference, an mpmath number: reference lies within
    half the gap from got to each neighbouring double, in mpmath arithmetic at 100 digits.
    The gaps are the subnormal spacing below the normal range and halve under a power of two."""
    with mpmath.workdps(100):
        got_mp = mpmath.mpf(got)
        below = (got_mp + mpmath.mpf(math.nextafter(got, -math.inf))) / 2
        above = (got_mp + mpmath.mpf(math.nextafter(got, math.inf))) / 2
        return below <= reference <= above


def use_cpus(monkeypatch, cpus: int) -> None:
    """Make the engine see cpus usable CPUs: it reads the count from the affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)), raising=False)


def model_to_dict(model: CausalModel) -> dict:
    """The model-file JSON object for a model, as io.load_model reads it."""
    out: dict = {"context": model.context, "factors": []}
    for f in model.factors:
        entry: dict = {
            "id": f.id,
            "name": f.name,
            "kind": f.kind.value,
            "category": f.category.value,
            "scale": list(f.scale.levels),
        }
        if f.multiplier is not None:
            entry["multiplier"] = {
                "min": f.multiplier.min,
                "most_likely": f.multiplier.most_likely,
                "max": f.multiplier.max,
            }
        out["factors"].append(entry)
    if model.provenance:
        out["provenance"] = model.provenance
    return out


def project_to_dict(project: HistoricalProject) -> dict:
    """The projects-file JSON object for one project, as io.load_projects reads it."""
    out: dict = {"project_id": project.project_id, "size": project.size}
    if project.defects_found is not None:
        out["defects_found"] = project.defects_found
    out["levels"] = dict(sorted(project.characterization.levels.items()))
    return out


_MASK64 = (1 << 64) - 1


def _former_mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def former_counter_uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """counter_uniforms as hdce first computed it: one new array per splitmix64 step."""
    key = _former_mix64(seed ^ _former_mix64(stream))
    counters = np.arange(start, start + count, dtype=np.uint64)
    z = np.uint64(key) + counters * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def former_triangular_inverse_cdf(minimum: float, mode: float, maximum: float, u):
    """The inverse CDF of Triangular(minimum, mode, maximum) at u as hdce first computed it:
    each branch on a boolean gather. The engine's kernel gives these bits."""
    u_arr = np.asarray(u, dtype=np.float64)
    if minimum == maximum:
        out = np.full_like(u_arr, minimum)
        return float(out) if np.isscalar(u) else out
    span = maximum - minimum
    mode_cdf = (mode - minimum) / span
    lower = u_arr < mode_cdf
    out = np.empty_like(u_arr)
    out[lower] = minimum + np.sqrt(u_arr[lower] * span * (mode - minimum))
    out[~lower] = maximum - np.sqrt((1.0 - u_arr[~lower]) * span * (maximum - mode))
    out = np.clip(out, minimum, maximum)
    return float(out) if np.isscalar(u) else out


def former_prediction(
    model: CausalModel,
    history: list[HistoricalProject],
    target: HistoricalProject,
    cfg: SimulationConfig,
    quantile_pair: tuple[float, float] = (0.10, 0.90),
) -> tuple[float, tuple[float, float], float, float]:
    """(point, interval, ddif_mean, eif_mean) as predict first computed them: the history's
    means, then two simulate calls that draw the target's factors again."""
    baseline = estimate_baseline(history, project_factor_means(model, history))
    ddif = simulate(model, target.characterization, FactorKind.DEFECT_CONTENT, cfg)
    eif = simulate(model, target.characterization, FactorKind.EFFECTIVENESS, cfg)
    point = expected_defects_found(target.size, ddif.mean, eif.mean, baseline.estimate)
    per_sample = expected_defects_found(target.size, ddif.samples, eif.samples, baseline.estimate)
    low, high = np.quantile(per_sample, list(quantile_pair))
    return point, (float(low), float(high)), ddif.mean, eif.mean


def exact_model() -> CausalModel:
    """Degenerate multipliers with dyadic values: simulation means are exact floats."""
    spec = [
        ("exact-dc-1", DC, PRODUCT, 0.25),
        ("exact-dc-2", DC, PROJECT, 0.5),
        ("exact-dc-3", DC, PROCESS, 0.75),
        ("exact-eff-1", EFF, PRODUCT, 0.25),
        ("exact-eff-2", EFF, PROJECT, 0.5),
    ]
    factors = [
        Factor(
            id=fid,
            name=fid,
            kind=kind,
            category=category,
            scale=scale_for(fid),
            multiplier=Multiplier(value, value, value),
        )
        for fid, kind, category, value in spec
    ]
    return CausalModel(context="exact-arithmetic fixture", factors=tuple(factors))


def exact_projects() -> list[HistoricalProject]:
    """Noise-free portfolio generated by the model equations with baseline 0.25.

    Levels are 0 or 3 and all sizes are powers of two, so every defect count is
    an exact integer: DF = size * (1 + ddif) * (1 + eif) * 0.25.
    """
    model = exact_model()
    rows = [
        # (project, dc levels on, eff levels on, size)
        ("E1", ("exact-dc-1",), ("exact-eff-1",), 64.0),
        ("E2", ("exact-dc-2",), ("exact-eff-2",), 128.0),
        ("E3", ("exact-dc-1", "exact-dc-2"), (), 256.0),
        ("E4", (), ("exact-eff-1", "exact-eff-2"), 64.0),
        ("E5", ("exact-dc-3",), ("exact-eff-1", "exact-eff-2"), 512.0),
    ]
    projects = []
    for pid, dc_on, eff_on, size in rows:
        levels = {f.id: (3 if f.id in dc_on + eff_on else 0) for f in model.factors}
        ddif = sum(f.multiplier.max for f in model.factors if f.id in dc_on)
        eif = sum(f.multiplier.max for f in model.factors if f.id in eff_on)
        df = size * (1.0 + ddif) * (1.0 + eif) * 0.25
        assert df == int(df), f"fixture defect count must be integral, got {df}"
        projects.append(
            HistoricalProject(
                characterization=ProjectCharacterization(project_id=pid, levels=levels),
                size=size,
                defects_found=int(df),
            )
        )
    return projects


# Reference per-category mean ranks from the motivating seven-expert IV&V
# elicitation (lower = more important). The 2.174 for schedule adherence is
# kept exactly as the study reported it even though seven whole-or-half rank
# sums cannot produce it; it does not affect selection either way.
REFERENCE_MEAN_RANKS: dict[tuple[FactorKind, FactorCategory], dict[str, float]] = {
    (DC, PRODUCT): {
        "novelty-to-developer": 4.143,
        "external-interface-count-complexity": 4.143,
        "autonomous": 4.286,
        "required-failure-tolerance": 5.429,
        "requirements-assumption": 5.429,
        "component-decomposition-count": 6.142,
        "time-criticality": 6.286,
        "hardware-architecture": 6.571,
        "role-of-functionality": 6.714,
        "sub-architecture": 7.571,
        "legacy-part": 9.714,
        "memory-size": 11.429,
    },
    (DC, PROJECT): {
        "stakeholder-user-organization-count": 1.429,
        "customer-involvement-in-development": 2.714,
        "developer-stress": 2.857,
        "developer-team-size": 3.000,
    },
    (DC, PROCESS): {
        "project-complexity": 1.429,
        "schedule-adherence": 2.174,
        "developer-management": 3.000,
        "developer-requirements-analysis": 3.571,
        "developer-tool-knowledge": 4.286,
    },
    (EFF, PRODUCT): {
        "consistent-terminology": 2.714,
        "documentation-completeness": 2.857,
        "type-of-language": 3.386,
        "exceptional-behavior-documentation": 3.714,
        "documentation-structure": 4.143,
        "figures-charts-in-documentation": 4.286,
    },
    (EFF, PROJECT): {
        "developer-ivv-relationship": 2.714,
        "document-change-management": 2.714,
        "customer-involvement-in-development-eff": 3.429,
        "electronic-file-disclosure": 3.429,
        "ivv-manager-experience": 3.571,
        "stakeholder-transparency": 5.143,
    },
    (EFF, PROCESS): {
        "ivv-system-operation-knowledge": 1.429,
        "developer-support": 2.517,
        "supplier-fta": 4.429,
        "ivv-team-relationship": 4.714,
        "ivv-review-team-size": 5.000,
        "ivv-risk-analysis-team-size": 5.714,
        "supplier-fmea": 5.857,
        "ivv-tool-experience": 6.286,
    },
}

EXPECTED_DC_SELECTION = {
    "novelty-to-developer",
    "external-interface-count-complexity",
    "autonomous",
    "stakeholder-user-organization-count",
    "project-complexity",
}

EXPECTED_EFF_SELECTION = {
    "consistent-terminology",
    "documentation-completeness",
    "developer-ivv-relationship",
    "document-change-management",
    "ivv-system-operation-knowledge",
}

# Reference per-category W values with their significance markers at alpha=0.05.
REFERENCE_W: dict[tuple[FactorKind, FactorCategory], tuple[float, bool]] = {
    (DC, PRODUCT): (0.3778, True),
    (DC, PROJECT): (0.3143, False),
    (DC, PROCESS): (0.4531, True),
    (EFF, PRODUCT): (0.1230, False),
    (EFF, PROJECT): (0.2257, False),
    (EFF, PROCESS): (0.4752, True),
}

# Seven reconstructed rankings of the 5 process & personnel defect-content
# factors. Their rank sums (10, 19, 21, 25, 30) reproduce W = 0.4531; the
# implied means are 1.429, 2.714, 3.000, 3.571, 4.286 (2.714 being the only
# value consistent with the column total, see note on REFERENCE_MEAN_RANKS).
PP_FACTORS = (
    "project-complexity",
    "schedule-adherence",
    "developer-management",
    "developer-requirements-analysis",
    "developer-tool-knowledge",
)

PP_RANKINGS = (
    (1, 2, 3, 4, 5),
    (1, 2, 3, 4, 5),
    (1, 3, 2, 4, 5),
    (1, 3, 2, 5, 4),
    (2, 1, 5, 3, 4),
    (2, 5, 1, 4, 3),
    (2, 3, 5, 1, 4),
)

# Reconstructed seven-expert rankings for the remaining five categories. Column
# sums equal 7x the reference means wherever those are arithmetically feasible;
# the three infeasible printed entries are replaced by the unique value each
# column total admits (2.174 -> 2.714, 3.386 -> 3.286, 2.517 -> 2.571), and the
# product column total forces one extra unit, absorbed by the last-ranked
# memory-size factor (11.429 -> 11.571). Selection outcomes are unaffected.
FULL_RANKINGS: dict[tuple[FactorKind, FactorCategory], tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]] = {
    (DC, PRODUCT): (
        (
            "novelty-to-developer",
            "external-interface-count-complexity",
            "autonomous",
            "required-failure-tolerance",
            "requirements-assumption",
            "component-decomposition-count",
            "time-criticality",
            "hardware-architecture",
            "role-of-functionality",
            "sub-architecture",
            "legacy-part",
            "memory-size",
        ),
        (
            (1, 3, 2, 4, 8, 10, 7, 12, 5, 6, 9, 11),
            (6, 7, 10, 1, 3, 5, 12, 2, 4, 8, 9, 11),
            (3, 6, 1, 10, 2, 7, 4, 9, 5, 11, 8, 12),
            (1, 2, 7, 6, 4, 8, 9, 3, 11, 5, 10, 12),
            (5, 8, 2, 6, 7, 4, 1, 9, 3, 12, 10, 11),
            (6, 1, 2, 7, 5, 4, 3, 8, 9, 10, 11, 12),
            (7, 2, 6, 4, 9, 5, 8, 3, 10, 1, 11, 12),
        ),
    ),
    (DC, PROJECT): (
        (
            "stakeholder-user-organization-count",
            "customer-involvement-in-development",
            "developer-stress",
            "developer-team-size",
        ),
        (
            (1, 4, 3, 2),
            (1, 4, 2, 3),
            (1, 4, 3, 2),
            (1, 2, 3, 4),
            (4, 1, 3, 2),
            (1, 2, 3, 4),
            (1, 2, 3, 4),
        ),
    ),
    (DC, PROCESS): (PP_FACTORS, PP_RANKINGS),
    (EFF, PRODUCT): (
        (
            "consistent-terminology",
            "documentation-completeness",
            "type-of-language",
            "exceptional-behavior-documentation",
            "documentation-structure",
            "figures-charts-in-documentation",
        ),
        (
            (1, 3, 4, 2, 6, 5),
            (1, 4, 5, 3, 6, 2),
            (2, 4, 1, 6, 5, 3),
            (3, 2, 6, 4, 1, 5),
            (1, 3, 2, 5, 6, 4),
            (6, 2, 4, 3, 1, 5),
            (5, 2, 1, 3, 4, 6),
        ),
    ),
    (EFF, PROJECT): (
        (
            "developer-ivv-relationship",
            "document-change-management",
            "customer-involvement-in-development-eff",
            "electronic-file-disclosure",
            "ivv-manager-experience",
            "stakeholder-transparency",
        ),
        (
            (1, 2, 3, 5, 4, 6),
            (5, 2, 4, 1, 3, 6),
            (2, 1, 4, 6, 3, 5),
            (4, 2, 3, 1, 6, 5),
            (1, 2, 5, 6, 4, 3),
            (5, 4, 1, 2, 3, 6),
            (1, 6, 4, 3, 2, 5),
        ),
    ),
    (EFF, PROCESS): (
        (
            "ivv-system-operation-knowledge",
            "developer-support",
            "supplier-fta",
            "ivv-team-relationship",
            "ivv-review-team-size",
            "ivv-risk-analysis-team-size",
            "supplier-fmea",
            "ivv-tool-experience",
        ),
        (
            (1, 2, 6, 5, 8, 4, 3, 7),
            (2, 5, 7, 6, 1, 4, 8, 3),
            (1, 4, 3, 8, 2, 5, 7, 6),
            (1, 2, 3, 4, 6, 7, 5, 8),
            (1, 2, 3, 5, 6, 8, 4, 7),
            (3, 1, 5, 2, 7, 4, 8, 6),
            (1, 2, 4, 3, 5, 8, 6, 7),
        ),
    ),
}


def full_rankings_rows() -> list[tuple[str, str, str, str, float]]:
    """All six categories as rankings-CSV rows (expert, kind, category, factor, rank)."""
    rows = []
    for (kind, category), (factors, matrix) in FULL_RANKINGS.items():
        for expert_index, ranking in enumerate(matrix):
            for factor_id, rank in zip(factors, ranking):
                rows.append((f"expert-{expert_index + 1}", kind.value, category.value, factor_id, float(rank)))
    return rows


def write_rankings_csv(path) -> None:
    lines = ["expert_id,kind,category,factor_id,rank"]
    lines += [f"{e},{k},{c},{f},{r:g}" for e, k, c, f, r in full_rankings_rows()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def brute_force_w(rows) -> float:
    """Independent tie-free concordance oracle: direct rank-sum computation."""
    m, n = len(rows), len(rows[0])
    sums = [sum(row[j] for row in rows) for j in range(n)]
    mean = sum(sums) / n
    s = sum((r - mean) ** 2 for r in sums)
    return 12.0 * s / (m * m * (n**3 - n))


def oracle_wilcoxon(x, y) -> float:
    """Independent exact-test oracle: loop over every sign tuple with itertools."""
    import itertools

    differences = [a - b for a, b in zip(x, y)]
    nonzero = [d for d in differences if d != 0.0]
    if not nonzero:
        return 1.0
    magnitudes = sorted((abs(d), i) for i, d in enumerate(nonzero))
    ranks = [0.0] * len(nonzero)
    i = 0
    while i < len(magnitudes):
        j = i
        while j < len(magnitudes) and magnitudes[j][0] == magnitudes[i][0]:
            j += 1
        mid = (i + 1 + j) / 2.0
        for k in range(i, j):
            ranks[magnitudes[k][1]] = mid
        i = j
    observed = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    n_le = n_ge = 0
    for signs in itertools.product((0, 1), repeat=len(nonzero)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        n_le += w <= observed
        n_ge += w >= observed
    total = 2 ** len(nonzero)
    return min(1.0, 2.0 * min(n_le, n_ge) / total)


@functools.lru_cache(maxsize=1)
def _former_sign_sums(ranks: tuple[float, ...]) -> np.ndarray:
    sums = np.zeros(1, dtype=np.float64)
    for r in ranks:
        sums = np.concatenate([sums, sums + r])
    return sums


def former_exact_two_sided(ranks, w_plus) -> float:
    """The exact p-value as hdce first computed it: every 2^k W+ sum, built by doubling.

    The sums of the last rank set are cached, so a sweep over W+ builds them once.
    """
    sums = _former_sign_sums(tuple(ranks))
    total = sums.size
    n_le = int(np.count_nonzero(sums <= w_plus))
    n_ge = int(np.count_nonzero(sums >= w_plus))
    one_sided = min(n_le, n_ge) / total
    return min(1.0, 2.0 * one_sided)


def former_cumulative_sign_counts(doubled: tuple[int, ...]) -> tuple[int, ...]:
    """The cumulative sign-assignment counts as hdce first counted them: one int64 numpy table per
    doubled rank sum, shifted and added per rank, then np.cumsum."""
    counts = np.zeros(sum(doubled) + 1, dtype=np.int64)
    counts[0] = 1
    for d in doubled:
        counts[d:] += counts[:-d].copy()
    return tuple(np.cumsum(counts).tolist())
