"""Monte Carlo engine producing DDIF and EIF distributions from a quantified model.

Each factor's multiplier is treated as a triangular distribution over its
(min, most_likely, max) estimate; a project contributes level/3 of each draw and
contributions add up across the factors of one kind (no interaction terms). The
mean and variance of such a sum are exactly the sums of the factors' weighted
triangular moments, so both are computed, not drawn (analytic_mean,
analytic_sd); only a distribution's samples and quantiles come from draws
(draw_vector).

Sampling is counter-based: the uniform variate for (seed, factor, sample index)
is derived by hashing, never by advancing shared generator state. Blocked runs
therefore produce bit-identical sample vectors, on any number of threads.
"""

from __future__ import annotations

import contextvars
import hashlib
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# SimulationConfig, DEFAULT_SAMPLE_COUNT, check_portfolio, analytic_mean and analytic_sd
# live in model, which loads no numpy; they stay importable from here too
from .model import (
    DEFAULT_SAMPLE_COUNT,
    MAX_LEVEL,
    CausalModel,
    FactorKind,
    ProjectCharacterization,
    SimulationConfig,
    analytic_mean,
    analytic_sd,
    check_portfolio,
)

DEFAULT_QUANTILE_LEVELS = (0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95)
# samples drawn per block; any block size gives the same vectors
BLOCK_SIZE = 1 << 16

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO_FLOATS, _TWO_INT64S = struct.Struct("=dd"), struct.Struct("=qq")  # to read doubles' bits as int64


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


def _triangular_into(
    out: np.ndarray, minimum: float, mode: float, maximum: float, u: np.ndarray, work: np.ndarray
) -> None:
    # The inverse CDF of Triangular(minimum, mode, maximum) at each u in [0, 1),
    # into out: the constant for minimum == maximum. The parameters are finite
    # with minimum <= mode <= maximum; work is scratch the size of u and may be
    # u itself, which is then overwritten.
    if minimum == maximum:
        out.fill(minimum)
        return
    span = maximum - minimum
    mode_cdf = (mode - minimum) / span
    # Below mode_cdf, minimum + sqrt((u * span) * (mode - minimum)); at or above
    # it, maximum - sqrt(((1 - u) * span) * (maximum - mode)). Each sample takes
    # one branch: the sign bit of d * span (in work) tells the branches apart
    # and selects each sample's constants bitwise, with one square root and no
    # temporary array.
    np.greater_equal(u, mode_cdf, out=out)  # 1.0 at and above mode_cdf, read before work may overwrite u
    np.subtract(u, out, out=work)  # d: u >= +0.0 below, u - 1 == -(1 - u) exactly above
    work *= span
    bits, work_bits = out.view(np.int64), work.view(np.int64)
    # rounding is symmetric in sign, so ((u - 1) * span) * -(maximum - mode)
    # is the upper branch's argument, bit for bit
    _select_into(bits, work_bits, mode - minimum, -(maximum - mode))
    out *= work
    np.sqrt(out, out=out)
    np.copysign(out, work, out=out)  # -s at and above mode_cdf
    _select_into(work_bits, work_bits, minimum, maximum)
    out += work  # maximum + -s is maximum - s
    # the sqrt can overshoot the support by one ulp at the edges
    np.clip(out, minimum, maximum, out=out)


def _select_into(out_bits: np.ndarray, signed_bits: np.ndarray, low: float, high: float) -> None:
    # the bits of high where signed_bits has its sign bit set, of low elsewhere;
    # out_bits may be signed_bits
    low_bits, high_bits = _TWO_INT64S.unpack(_TWO_FLOATS.pack(low, high))
    np.right_shift(signed_bits, 63, out=out_bits)  # arithmetic: all ones or all zeros
    out_bits &= low_bits ^ high_bits
    out_bits ^= low_bits


def sorted_quantiles(values: np.ndarray, levels: Sequence[float]) -> np.ndarray:
    """np.quantile(values, levels) bit for bit, after sorting the float64 vector values in place.

    numpy's default, linear interpolation (type 7 of Hyndman & Fan), reads two
    order statistics per level q: a and b at below = floor((n - 1) * q) and
    below + 1, both clipped to n - 1. It returns a + (b - a) * g, or
    b - (b - a) * (1 - g) where g >= 0.5, g being (n - 1) * q - below; the
    same array arithmetic here raises or warns as the caller's error state
    says. A NaN sorts last and makes every level NaN. Where -0.0 and +0.0 tie
    at a rank, np.quantile's partition order picks the zero, so the sign of a
    zero result can differ; the engine's vectors hold no -0.0 (each block
    vector starts at +0.0).
    """
    values.sort()
    n = values.size
    virtual = (n - 1) * np.asarray(levels, dtype=np.float64)
    below = np.floor(virtual)
    gamma = virtual - below
    a, b = values[np.minimum([below, below + 1], n - 1).astype(np.intp)]
    diff = b - a
    result = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    if np.isnan(values[-1]):
        result.fill(values[-1])
    return result


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Monte Carlo sample set with its mean, sd and quantiles."""

    samples: np.ndarray
    mean: float
    sd: float
    quantiles: dict[float, float] = field(default_factory=dict)

    @classmethod
    def from_samples(cls, samples: np.ndarray, mean: float, sd: float) -> "EmpiricalDistribution":
        """Quantiles of samples, kept in their order beside the mean and sd the caller computed
        (analytic_mean's and analytic_sd's exact values). The quantiles are sorted_quantiles' read
        of one copy, which draw_vector counts, sorted in place: np.quantile's numbers bit for bit
        for a vector without -0.0, as the engine's are. Like draw_vector, it runs under
        np.errstate(over="raise", invalid="raise"): a quantile interpolated past the float range
        raises FloatingPointError instead of coming out inf."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.size == 0:
            raise ValueError("cannot build a distribution from zero samples")
        with np.errstate(over="raise", invalid="raise"):
            values = sorted_quantiles(samples.copy(), DEFAULT_QUANTILE_LEVELS)
        return cls(
            samples=samples,
            mean=mean,
            sd=sd,
            quantiles={float(q): float(v) for q, v in zip(DEFAULT_QUANTILE_LEVELS, values)},
        )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _for_each_block(make_task: Callable[[], Callable[[int], None]], starts: Sequence[int], workers: int) -> None:
    # Run task(start) for each block start; tasks must write disjoint data.
    # There are W = workers shares (the caller's min(blocks, usable CPUs)):
    # the calling thread takes starts 0, W, 2W, ... and the W - 1 threads of
    # this run's own pool the other strided shares, each in a copy of the
    # caller's context, so under the caller's numpy error state. One share
    # runs inline and starts no thread. The arithmetic of a block is the same
    # on any thread, so W never changes a result. Each share's task comes from
    # make_task(), called here before any share starts, so that scratch a task
    # owns exists for the whole run and the memory peak never depends on
    # thread timing.
    tasks = [make_task() for _ in range(workers)]

    def share(k: int) -> None:
        for start in starts[k::workers]:
            tasks[k](start)

    if workers == 1:
        share(0)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1, thread_name_prefix="hdce-block") as pool:
        futures = [pool.submit(contextvars.copy_context().run, share, k) for k in range(1, workers)]
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


def draw_vector(
    model: CausalModel,
    ch: ProjectCharacterization,
    kinds: Sequence[FactorKind],
    cfg: SimulationConfig,
    combine: Callable[..., np.ndarray] | None = None,
) -> np.ndarray:
    """combine of ch's sample vectors of each kind in kinds (predict_defects_found's samples), or
    without a combine the one kind's own vector, for a summary that copies it (from_samples).

    The caller checks model and ch first (check_portfolio). A vector of a
    kind is +0.0 plus level/3 times each of the kind's factor draws, in model
    order; only ch's nonzero-level factors are drawn. One pass over blocks of
    BLOCK_SIZE samples draws one factor at a time into a single row and adds
    the row into the block vector of its kind; each block of the returned
    vector is combine of those, in kinds' order. The pass runs under
    np.errstate(over="raise", invalid="raise"), so a product that leaves the
    float range raises FloatingPointError instead of coming out clipped or
    inf. A combined vector is the caller's to reorder in place. Nothing but
    (model, ch, kinds, seed, sample_count) changes it.
    """
    n = cfg.sample_count
    # planned from n alone, so that the memory bound below comes first at any n
    starts = range(0, n, BLOCK_SIZE)
    width = min(n, BLOCK_SIZE)
    workers = min(len(starts), _usable_cpus())
    # per drawn factor: its multiplier, stream, kind's index and level/3
    params = [
        (f.multiplier, factor_stream(f.id), k, ch.levels[f.id] / MAX_LEVEL)
        for k, kind in enumerate(kinds)
        for f in model.factors_of_kind(kind)
        if ch.levels[f.id]
    ]
    # the returned vector, plus without a combine the copy its summary takes; then each
    # share's scratch: the draw row, the uniforms' two temporaries and a block vector per kind
    needed = (2 if combine is None else 1) * n * 8 + workers * (3 + len(kinds)) * width * 8
    if needed > _physical_memory():
        raise MemoryError(f"{n} samples of {len(params)} factors need {needed} bytes, more than physical memory")
    vector = np.empty(n, dtype=np.float64)

    def make_task() -> Callable[[int, int], None]:
        row = np.empty(width, dtype=np.float64)
        scratch = np.empty((len(kinds), width), dtype=np.float64)

        def task(start: int) -> None:
            stop = min(start + width, n)
            draws = row[: stop - start]
            # each block vector starts at +0.0, so its first term gives +0.0 +
            # term: a draw of -0.0 (a minimum of -0.0) still gives +0.0
            block_vectors = scratch[:, : stop - start]
            block_vectors.fill(0.0)
            for mult, stream, k, weight in params:
                # the variates go straight into the row, with the fresh
                # uniforms as scratch; the caller's check_portfolio has checked the multipliers
                u = counter_uniforms(cfg.seed, stream, start, stop - start)
                _triangular_into(draws, mult.min, mult.most_likely, mult.max, u, u)
                # u takes the product; a level-3 term (x * 1.0) is the row itself
                block_vectors[k] += draws if weight == 1.0 else np.multiply(draws, weight, out=u)
                del u  # before the next factor's uniforms are drawn
            vector[start:stop] = combine(*block_vectors) if combine else block_vectors[0]

        return task

    with np.errstate(over="raise", invalid="raise"):  # every share runs under it
        _for_each_block(make_task, starts, workers)
    return vector


def simulate(
    model: CausalModel, ch: ProjectCharacterization, kind: FactorKind, cfg: SimulationConfig
) -> EmpiricalDistribution:
    """Simulate the accumulated relative increase (DDIF or EIF) for one project.

    Deterministic for fixed (model, characterization, kind, seed, sample_count):
    the block size never changes the sample vector. The mean and sd are analytic_mean's and
    analytic_sd's, exact and taken before any draw; the mean is the one plan, predict and
    validate use for this project.
    """
    check_portfolio(model, [ch], (kind,))
    mean, sd = analytic_mean(model, ch, kind), analytic_sd(model, ch, kind)
    return EmpiricalDistribution.from_samples(draw_vector(model, ch, (kind,), cfg), mean, sd)
