"""Monte Carlo engine producing DDIF and EIF distributions from a quantified model.

Each factor's multiplier is treated as a triangular distribution over its
(min, most_likely, max) estimate; a project contributes level/3 of each draw and
contributions add up across the factors of one kind (no interaction terms).

Sampling is counter-based: the uniform variate for (seed, factor, sample index)
is derived by hashing, never by advancing shared generator state. Chunked runs
therefore produce bit-identical sample vectors, and since the draws never
depend on the project, each factor is drawn once for a whole portfolio.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .diagnostics import ModelValidationError, error, has_errors
from .model import (
    MAX_LEVEL,
    CausalModel,
    Factor,
    FactorKind,
    ProjectCharacterization,
    validate_characterization,
    validate_model,
)

DEFAULT_SAMPLE_COUNT = 10_000
DEFAULT_QUANTILE_LEVELS = (0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95)
# samples drawn per block; any block size gives the same vectors
BLOCK_SIZE = 1 << 16

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    # splitmix64 finalizer on plain ints (numpy scalars warn on overflow)
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def factor_stream(factor_id: str) -> int:
    """Stable 64-bit stream id for a factor, independent of model ordering."""
    digest = hashlib.blake2b(factor_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def counter_uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Uniform [0,1) variates for absolute sample indices start..start+count-1.

    Values depend only on (seed, stream, index), so any partitioning of the
    index range reproduces the same variates.
    """
    key = _mix64(seed ^ _mix64(stream))
    # the splitmix64 steps run in place on one buffer, with one shift temporary
    z = np.arange(start, start + count, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(key)
    shifted = np.empty_like(z)
    for bits, mix in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(bits), out=shifted)
        z *= np.uint64(mix)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    # top 53 bits give a double in [0, 1)
    z >>= np.uint64(11)
    return z * 2.0**-53


def triangular_inverse_cdf(minimum: float, mode: float, maximum: float, u):
    """Inverse CDF of Triangular(minimum, mode, maximum) at u in [0,1).

    Accepts a scalar or array u; the degenerate minimum == maximum case returns
    the constant.
    """
    if not minimum <= mode <= maximum:
        raise ValueError(f"triangular parameters must satisfy min <= mode <= max, got ({minimum}, {mode}, {maximum})")
    u_arr = np.asarray(u, dtype=np.float64)
    if np.any(u_arr < 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("u must lie in [0, 1)")
    if minimum == maximum:
        out = np.full_like(u_arr, minimum)
        return float(out) if np.isscalar(u) else out
    span = maximum - minimum
    mode_cdf = (mode - minimum) / span
    # both branches over the whole block, in place; both square-root arguments
    # are non-negative on [0, 1), and the lower branch is kept below mode_cdf
    block = np.atleast_1d(u_arr)
    lo = block * span
    lo *= mode - minimum
    np.add(minimum, np.sqrt(lo, out=lo), out=lo)
    hi = np.subtract(1.0, block)
    hi *= span
    hi *= maximum - mode
    np.subtract(maximum, np.sqrt(hi, out=hi), out=hi)
    np.copyto(hi, lo, where=block < mode_cdf)
    # the sqrt can overshoot the support by one ulp at the edges
    out = np.clip(hi, minimum, maximum, out=hi).reshape(u_arr.shape)
    return float(out) if np.isscalar(u) else out


@dataclass(frozen=True)
class SimulationConfig:
    seed: int
    sample_count: int = DEFAULT_SAMPLE_COUNT

    def __post_init__(self):
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not isinstance(self.sample_count, int) or self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count!r}")


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Monte Carlo sample set with summary statistics recomputable from samples."""

    samples: np.ndarray
    mean: float
    sd: float
    quantiles: dict[float, float] = field(default_factory=dict)

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EmpiricalDistribution":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.size == 0:
            raise ValueError("cannot build a distribution from zero samples")
        values = np.quantile(samples, DEFAULT_QUANTILE_LEVELS)
        return cls(
            samples=samples,
            mean=float(np.mean(samples)),
            sd=float(np.std(samples)),
            quantiles={float(q): float(v) for q, v in zip(DEFAULT_QUANTILE_LEVELS, values)},
        )


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
    for ch in characterizations:
        ch_diagnostics = validate_characterization(model, ch)
        for kind in kinds:
            diagnostics = model_diagnostics + ch_diagnostics + unquantified[kind]
            if has_errors(diagnostics):
                raise ModelValidationError(diagnostics)


def _draw_factors(factors: Sequence[Factor], cfg: SimulationConfig, block: int) -> np.ndarray:
    # one row of triangular draws per factor, filled a block of samples at a
    # time so that the uniforms and inverse-CDF temporaries stay block-sized
    n = cfg.sample_count
    draws = np.empty((len(factors), n), dtype=np.float64)
    for row, f in zip(draws, factors):
        m = f.multiplier
        stream = factor_stream(f.id)
        for start in range(0, n, block):
            count = min(block, n - start)
            u = counter_uniforms(cfg.seed, stream, start, count)
            row[start : start + count] = triangular_inverse_cdf(m.min, m.most_likely, m.max, u)
    return draws


def _accumulate(
    draws: np.ndarray, factors: Sequence[Factor], characterizations: Sequence[ProjectCharacterization]
) -> Iterator[np.ndarray]:
    # a block at a time, so that the product temporary stays block-sized
    n = draws.shape[1]
    scratch = np.empty(min(n, BLOCK_SIZE), dtype=np.float64)
    for ch in characterizations:
        weights = [ch.levels[f.id] / MAX_LEVEL for f in factors]
        values = np.zeros(n, dtype=np.float64)
        for start in range(0, n, BLOCK_SIZE):
            part = values[start : start + BLOCK_SIZE]
            for row, weight in zip(draws, weights):
                part += np.multiply(row[start : start + BLOCK_SIZE], weight, out=scratch[: part.size])
        yield values
        del values, part  # free it (part views it) before the next vector is allocated


def simulate_portfolio(
    model: CausalModel,
    characterizations: Sequence[ProjectCharacterization],
    kind: FactorKind,
    cfg: SimulationConfig,
    *,
    chunk_size: int | None = None,
) -> Iterator[np.ndarray]:
    """Sample vectors of the accumulated relative increase (DDIF or EIF), one per characterization.

    Each factor of the kind is drawn once for the whole portfolio; a
    characterization's vector adds level/3 times each factor's draws, in model
    order. Inputs are checked and the draws made before this returns; the
    vectors are yielded in the order of characterizations. A vector depends
    only on (model, characterization, kind, seed, sample_count): neither the
    rest of the portfolio nor chunk_size (the samples drawn per block,
    default BLOCK_SIZE) changes it.
    """
    block = BLOCK_SIZE if chunk_size is None else chunk_size
    if block < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
    characterizations = list(characterizations)
    check_portfolio(model, characterizations, (kind,))
    return _draw_portfolio(model, characterizations, kind, cfg, block)


def _draw_portfolio(
    model: CausalModel,
    characterizations: Sequence[ProjectCharacterization],
    kind: FactorKind,
    cfg: SimulationConfig,
    block: int = BLOCK_SIZE,
) -> Iterator[np.ndarray]:
    # simulate_portfolio without the input check, for callers that ran
    # check_portfolio on these characterizations and this kind already
    if not characterizations:
        return iter(())
    factors = model.factors_of_kind(kind)
    return _accumulate(_draw_factors(factors, cfg, block), factors, characterizations)


def simulate(
    model: CausalModel,
    ch: ProjectCharacterization,
    kind: FactorKind,
    cfg: SimulationConfig,
    *,
    chunk_size: int | None = None,
) -> EmpiricalDistribution:
    """Simulate the accumulated relative increase (DDIF or EIF) for one project.

    Deterministic for fixed (model, characterization, kind, seed, sample_count):
    chunking never changes the sample vector.
    """
    (samples,) = simulate_portfolio(model, [ch], kind, cfg, chunk_size=chunk_size)
    return EmpiricalDistribution.from_samples(samples)


def analytic_mean(model: CausalModel, ch: ProjectCharacterization, kind: FactorKind) -> float:
    """Expected value of the simulated sum: sum of (level/3)*(min+mode+max)/3."""
    total = 0.0
    for f in model.factors_of_kind(kind):
        m = f.multiplier
        if m is None:
            raise ValueError(f"factor {f.id!r} is not quantified")
        total += (ch.levels[f.id] / MAX_LEVEL) * (m.min + m.most_likely + m.max) / 3.0
    return total
