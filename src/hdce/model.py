"""Causal-model domain types, their semantic checks, and a portfolio's exact DDIF/EIF moments.

A causal model holds the expert-judgment half of the hybrid method: influencing
factors on defect content and QA effectiveness, each with a 0..3 rating scale and
(once quantified) a three-point impact multiplier. Historical projects hold the
measurement half: a characterization against the model, artifact size, and the
number of defects found. The validate_* functions report what is wrong with them
(io reads their files), and project_factor_means gives a portfolio's exact means.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

from .diagnostics import Diagnostic, ModelValidationError, advisory, error, has_errors

MIN_LEVEL = 0
MAX_LEVEL = 3
SCALE_SIZE = MAX_LEVEL - MIN_LEVEL + 1
_LEVELS = frozenset(range(MIN_LEVEL, MAX_LEVEL + 1))
_INT = frozenset((int,))
# recommended factor count per kind; outside this band is an advisory, not an error
RECOMMENDED_FACTOR_RANGE = (4, 6)
DEFAULT_SAMPLE_COUNT = 10_000

_TOKEN_RE = re.compile(r"^[^\s,]+$")


class FactorKind(str, Enum):
    DEFECT_CONTENT = "DefectContent"
    EFFECTIVENESS = "Effectiveness"


class FactorCategory(str, Enum):
    PRODUCT = "Product"
    PROJECT = "Project"
    PROCESS_PERSONNEL = "ProcessPersonnel"


KINDS = (FactorKind.DEFECT_CONTENT, FactorKind.EFFECTIVENESS)  # the order of every (DDIF, EIF) pair


def is_token(value: object) -> bool:
    """True for a non-empty string without whitespace or commas (CSV-safe id)."""
    return isinstance(value, str) and bool(_TOKEN_RE.match(value))


@dataclass(frozen=True)
class Multiplier:
    """Three-point impact estimate as fractions: 0.30 means +30% at full impact.

    Values describe the relative increase in defects found when the factor moves
    from its best level (0) to its worst/best-case level (3). Ordering and sign
    constraints are reported by validate_model, not enforced at construction, so
    that a parsed-but-wrong model can be diagnosed instead of crashing.
    """

    min: float
    most_likely: float
    max: float

    def is_ordered(self) -> bool:
        return 0.0 <= self.min <= self.most_likely <= self.max


@dataclass(frozen=True)
class FactorScale:
    """Level descriptions indexed 0..3; level 0 is minimal increase in defects found."""

    levels: tuple[str, ...]

    def is_complete(self) -> bool:
        return len(self.levels) == SCALE_SIZE and all(
            isinstance(text, str) and text.strip() for text in self.levels
        )


@dataclass(frozen=True)
class Factor:
    id: str
    name: str
    kind: FactorKind
    category: FactorCategory
    scale: FactorScale
    multiplier: Multiplier | None = None


@dataclass(frozen=True)
class CausalModel:
    context: str
    factors: tuple[Factor, ...]
    provenance: str = ""

    def factors_of_kind(self, kind: FactorKind) -> tuple[Factor, ...]:
        return self._factors_by_kind[kind]

    # computed on first use and kept in the instance's __dict__, outside eq, hash and repr
    @cached_property
    def _factors_by_kind(self) -> dict[FactorKind, tuple[Factor, ...]]:
        return {kind: tuple(f for f in self.factors if f.kind == kind) for kind in FactorKind}

    @cached_property
    def factor_ids(self) -> frozenset[str]:
        return frozenset(f.id for f in self.factors)


@dataclass(frozen=True)
class ProjectCharacterization:
    """Per-project factor levels; completeness is checked at use, not construction."""

    project_id: str
    levels: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not is_token(self.project_id):
            raise ValueError(f"project_id must be a token, got {self.project_id!r}")


@dataclass(frozen=True)
class HistoricalProject:
    """A project record: characterization, artifact size in pages, defects found.

    defects_found is None for a planned project that has not yet run its QA
    activity; operations that need measured defect data reject such records.
    """

    characterization: ProjectCharacterization
    size: float
    defects_found: int | None = None

    def __post_init__(self):
        if not self.size > 0:
            raise ValueError(f"size must be > 0, got {self.size}")
        df = self.defects_found
        if df is not None and (not isinstance(df, int) or isinstance(df, bool) or df < 0):
            raise ValueError(f"defects_found must be a non-negative integer, got {df!r}")

    @property
    def project_id(self) -> str:
        return self.characterization.project_id


def validate_model(model: CausalModel, require_quantified: bool = False) -> list[Diagnostic]:
    """Check model invariants; returns error and advisory diagnostics.

    Errors: duplicate/invalid ids, incomplete scales, multiplier ordering
    violations, zero worst-case impact, a kind with no factors at all, and
    (when require_quantified) unquantified factors. Factor counts outside the
    recommended 4..6 band per kind are advisories only.
    """
    diagnostics: list[Diagnostic] = []

    counts = Counter(f.id for f in model.factors)
    for factor_id, n in sorted(counts.items()):
        if n > 1:
            diagnostics.append(error("duplicate-id", f"factor id {factor_id!r} appears {n} times"))

    for f in model.factors:
        if not is_token(f.id):
            diagnostics.append(error("bad-id", f"factor id {f.id!r} is not a valid token"))
        if not f.scale.is_complete():
            diagnostics.append(
                error("bad-scale", f"factor {f.id!r} must have exactly {SCALE_SIZE} non-empty level descriptions")
            )
        m = f.multiplier
        if m is not None:
            if not all(math.isfinite(v) for v in (m.min, m.most_likely, m.max)):
                diagnostics.append(
                    error(
                        "multiplier-non-finite",
                        f"factor {f.id!r} multiplier must be finite, got ({m.min}, {m.most_likely}, {m.max})",
                    )
                )
            elif not m.is_ordered():
                diagnostics.append(
                    error(
                        "multiplier-order",
                        f"factor {f.id!r} multiplier must satisfy 0 <= min <= most_likely <= max, "
                        f"got ({m.min}, {m.most_likely}, {m.max})",
                    )
                )
            elif m.max <= 0:
                diagnostics.append(
                    error("multiplier-degenerate", f"factor {f.id!r} has zero worst-case impact (max must be > 0)")
                )
        elif require_quantified:
            diagnostics.append(error("unquantified", f"factor {f.id!r} has no multiplier but the model must be quantified"))

    for kind in FactorKind:
        n = len(model.factors_of_kind(kind))
        if n == 0:
            diagnostics.append(error("missing-kind", f"model has no {kind.value} factor"))
        elif not RECOMMENDED_FACTOR_RANGE[0] <= n <= RECOMMENDED_FACTOR_RANGE[1]:
            lo, hi = RECOMMENDED_FACTOR_RANGE
            diagnostics.append(
                advisory("factor-count", f"model has {n} {kind.value} factors; {lo} to {hi} is the recommended range")
            )

    return diagnostics


def validate_characterization(model: CausalModel, ch: ProjectCharacterization) -> list[Diagnostic]:
    """Check that levels cover exactly the model's factor ids with values in 0..3."""
    levels = ch.levels
    model_ids = model.factor_ids
    # a valid map passes three C-level tests: exact ids, exact int type (first, so that nothing unhashable
    # is hashed; a bool, numpy integer or 2.0 fails it) and range; any other map takes the full scan
    values = levels.values()
    if levels.keys() == model_ids and _INT.issuperset(map(type, values)) and _LEVELS.issuperset(values):
        return []
    diagnostics: list[Diagnostic] = []
    given_ids = set(levels)

    if given_ids != model_ids:
        for factor_id in sorted(model_ids - given_ids):
            diagnostics.append(
                error("missing-factor", f"project {ch.project_id!r} gives no level for factor {factor_id!r}")
            )
        for factor_id in sorted(given_ids - model_ids):
            diagnostics.append(error(
                "unknown-factor", f"project {ch.project_id!r} rates factor {factor_id!r} not present in the model"
            ))
    for factor_id in sorted(given_ids & model_ids):
        level = ch.levels[factor_id]
        if not isinstance(level, int) or isinstance(level, bool) or not MIN_LEVEL <= level <= MAX_LEVEL:
            diagnostics.append(
                error(
                    "bad-level",
                    f"project {ch.project_id!r} factor {factor_id!r} level {level!r} "
                    f"is not an integer in {MIN_LEVEL}..{MAX_LEVEL}",
                )
            )
    return diagnostics


def check_portfolio(
    model: CausalModel, characterizations: Sequence[ProjectCharacterization], kinds: Sequence[FactorKind]
) -> None:
    """Raise ModelValidationError for the first (characterization, kind) pair that cannot be simulated.

    Pairs are checked characterization-major, kinds in the given order. The
    error carries the model's diagnostics, that characterization's and the
    kind's unquantified factors, as simulating the pairs one at a time reports.
    """
    model_diagnostics = validate_model(model)
    unquantified = {
        kind: [
            error("unquantified", f"factor {f.id!r} has no multiplier")
            for f in model.factors_of_kind(kind)
            if f.multiplier is None
        ]
        for kind in kinds
    }
    model_failed = has_errors(model_diagnostics)
    for ch in characterizations:
        ch_diagnostics = validate_characterization(model, ch)  # errors only, as are the unquantified lists
        for kind in kinds:
            if model_failed or ch_diagnostics or unquantified[kind]:
                raise ModelValidationError(model_diagnostics + ch_diagnostics + unquantified[kind])


def analytic_mean(model: CausalModel, ch: ProjectCharacterization, kind: FactorKind) -> float:
    """Expected value of the simulated sum: sum of (level/3)*(min+mode+max)/3.

    Each factor's multiplier is a triangular distribution over its
    (min, most_likely, max) estimate, and a project adds up level/3 of each
    draw, so this mean is exact. Plain float additions in model order from
    +0.0, level-0 factors skipped (not sum(), which compensates its additions
    from Python 3.12 on). Python floats overflow to inf silently, so a result
    outside the float range raises FloatingPointError.
    """
    total = 0.0
    for f in model.factors_of_kind(kind):
        m = f.multiplier
        if m is None:
            raise ValueError(f"factor {f.id!r} is not quantified")
        level = ch.levels[f.id]
        if level:
            total += (level / MAX_LEVEL) * (m.min + m.most_likely + m.max) / 3.0
    if not math.isfinite(total):
        raise FloatingPointError("overflow encountered in add")
    return total


def project_factor_means(model: CausalModel, projects: Sequence[HistoricalProject]) -> dict[str, tuple[float, float]]:
    """Map project_id -> (mean DDIF, mean EIF), each analytic_mean, exact; nothing is drawn.

    Every (project, kind) pair is checked once first (check_portfolio),
    projects in order and DDIF before EIF, so an invalid input raises the
    first pair's diagnostics.
    """
    characterizations = [p.characterization for p in projects]
    check_portfolio(model, characterizations, KINDS)
    dc, eff = KINDS
    return {ch.project_id: (analytic_mean(model, ch, dc), analytic_mean(model, ch, eff)) for ch in characterizations}


def analytic_sd(model: CausalModel, ch: ProjectCharacterization, kind: FactorKind) -> float:
    """Standard deviation of the simulated sum, the square root of its variance correctly rounded.

    The factors are drawn independently, so the variance is the sum of
    (level/3)^2 times each triangular variance (a^2 + b^2 + c^2 - ab - ac - bc)/18,
    (a, c, b) = (min, most_likely, max) (Kotz & van Dorp, Beyond Beta, 2004,
    ch. 1). It is summed exactly, in Fractions of the float parameters with
    level-0 factors skipped; the square root then rounds once. The sd of
    non-negative draws is below their mean, so where the sd would leave the
    float range analytic_mean has raised first.
    """
    from fractions import Fraction  # only simulate needs it, so no other path loads it

    total = Fraction(0)  # the variance times 162 = 3^2 * 18
    for f in model.factors_of_kind(kind):
        m = f.multiplier
        if m is None:
            raise ValueError(f"factor {f.id!r} is not quantified")
        level = ch.levels[f.id]
        if level:
            a, c, b = Fraction(m.min), Fraction(m.most_likely), Fraction(m.max)
            total += level * level * (a * a + b * b + c * c - a * b - a * c - b * c)
    return rounded_sqrt(total.numerator, total.denominator * 162)


def rounded_sqrt(p: int, q: int) -> float:
    """The square root of p/q (p >= 0, q > 0) correctly rounded: one rounding, on any Python version."""
    # sqrt(p/q) = sqrt(p * 4^e / q) / 2^e, with e chosen so that the integer root r has at
    # least 57 bits; 2r plus a sticky bit for an inexact root then rounds as the true value does
    e = max(0, (114 - p.bit_length() + q.bit_length()) // 2)
    n, rem = divmod(p << 2 * e, q)
    r = math.isqrt(n)
    return (2 * r + (rem != 0 or r * r != n)) / (1 << e + 1)


@dataclass(frozen=True)
class SimulationConfig:
    """Seed and sample count of the Monte Carlo draws (hdce.simulation)."""

    seed: int
    sample_count: int = DEFAULT_SAMPLE_COUNT

    def __post_init__(self):
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not isinstance(self.sample_count, int) or self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count!r}")
