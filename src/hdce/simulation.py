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
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

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
    del shifted  # so that no more than two block-sized arrays are alive at once
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
    block = np.atleast_1d(u_arr)
    out = np.empty_like(block)
    _triangular_into(out, minimum, mode, maximum, block, np.empty_like(block))
    out = out.reshape(u_arr.shape)
    return float(out) if np.isscalar(u) else out


def _triangular_into(
    out: np.ndarray, minimum: float, mode: float, maximum: float, u: np.ndarray, work: np.ndarray
) -> None:
    # triangular_inverse_cdf of checked inputs into out; work is scratch the
    # size of u and may be u itself, which is then overwritten
    if minimum == maximum:
        out.fill(minimum)
        return
    span = maximum - minimum
    mode_cdf = (mode - minimum) / span
    upper = np.greater_equal(u, mode_cdf)  # taken before work may overwrite u
    # both branches over the whole block, in place; both square-root arguments
    # are non-negative on [0, 1), and the lower branch is kept below mode_cdf
    np.multiply(u, span, out=out)
    out *= mode - minimum
    np.add(minimum, np.sqrt(out, out=out), out=out)
    np.subtract(1.0, u, out=work)
    work *= span
    work *= maximum - mode
    np.subtract(maximum, np.sqrt(work, out=work), out=work)
    np.copyto(out, work, where=upper)
    # the sqrt can overshoot the support by one ulp at the edges
    np.clip(out, minimum, maximum, out=out)


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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


_pool = None  # threads for _for_each_block, created on the first run above one block


def _forget_pool() -> None:
    # a forked child has none of the pool's threads, so work sent there would never run
    global _pool
    _pool = None


def _block_pool(threads: int):
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(threads, thread_name_prefix="hdce-block")
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_forget_pool)
    return _pool


def _for_each_block(make_task: Callable[[], Callable[[int, int], None]], n: int, block: int) -> None:
    # Run task(start, stop) over the blocks of range(n); tasks must write
    # disjoint data. There are W = min(blocks, usable CPUs) shares: the calling
    # thread takes blocks 0, W, 2W, ... and the pool the other strided shares,
    # so one block or one CPU runs inline and never creates the pool. The
    # arithmetic of a block is the same on any thread, so W never changes a
    # result. Each share's task comes from make_task(),
    # called here before any share starts, so that scratch a task owns exists
    # for the whole run and the memory peak never depends on thread timing.
    starts = range(0, n, block)
    workers = 1 if len(starts) == 1 else min(len(starts), _usable_cpus())
    tasks = [make_task() for _ in range(workers)]

    def share(k: int) -> None:
        for start in starts[k::workers]:
            tasks[k](start, min(start + block, n))

    futures = [_block_pool(workers - 1).submit(share, k) for k in range(1, workers)]  # none for W = 1
    try:
        share(0)
    finally:
        failures = [future.exception() for future in futures]  # waits for every share
    for failure in failures:
        if failure is not None:
            raise failure


def _physical_memory() -> float:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # this platform does not report it
        return math.inf


def _draw_factors(factors: Sequence[Factor], cfg: SimulationConfig, block: int) -> np.ndarray:
    # one row of triangular draws per factor, filled a block of samples at a
    # time so that the uniforms and inverse-CDF temporaries stay block-sized
    n = cfg.sample_count
    needed = (len(factors) + 2) * n * 8  # the draws, a project's vector and the caller's last one
    if needed > _physical_memory():
        raise MemoryError(f"{n} samples of {len(factors)} factors need {needed} bytes, more than physical memory")
    draws = np.empty((len(factors), n), dtype=np.float64)
    params = [(f.multiplier, factor_stream(f.id)) for f in factors]

    def fill(start: int, stop: int) -> None:
        # the variates go straight into the row, with the fresh uniforms as
        # scratch; validate_model has checked the multipliers
        for row, (m, stream) in zip(draws, params):
            u = counter_uniforms(cfg.seed, stream, start, stop - start)
            _triangular_into(row[start:stop], m.min, m.most_likely, m.max, u, u)
            del u  # before the next factor's uniforms are drawn

    _for_each_block(lambda: fill, n, block)
    return draws


def _accumulate(
    draws: np.ndarray, factors: Sequence[Factor], characterizations: Sequence[ProjectCharacterization]
) -> Iterator[np.ndarray]:
    # a block at a time, so that the product temporary stays block-sized; the
    # draws are >= 0, so a level-0 term (+0.0) never changes a sum that starts
    # at +0.0, and a level-3 term (x * 1.0) is the draw itself
    n = draws.shape[1]
    rows_at = {start: list(draws[:, start : start + BLOCK_SIZE]) for start in range(0, n, BLOCK_SIZE)}
    for ch in characterizations:
        terms = [(i, w) for i, w in enumerate(ch.levels[f.id] / MAX_LEVEL for f in factors) if w != 0.0]
        values = np.zeros(n, dtype=np.float64)

        def add_terms(scratch: np.ndarray, start: int, stop: int) -> None:
            part, rows = values[start:stop], rows_at[start]
            for i, weight in terms:
                part += rows[i] if weight == 1.0 else np.multiply(rows[i], weight, out=scratch[: part.size])

        _for_each_block(lambda: partial(add_terms, np.empty(min(n, BLOCK_SIZE))), n, BLOCK_SIZE)
        yield values
        del values  # free it before the next vector is allocated (add_terms sees the name, not the array)


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
