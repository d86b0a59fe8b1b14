"""Monte Carlo engine producing DDIF and EIF distributions from a quantified model.

Each factor's multiplier is treated as a triangular distribution over its
(min, most_likely, max) estimate; a project contributes level/3 of each draw and
contributions add up across the factors of one kind (no interaction terms).

Sampling is counter-based: the uniform variate for (seed, factor, sample index)
is derived by hashing, never by advancing shared generator state. Chunked runs
therefore produce bit-identical sample vectors, and since the draws never
depend on the project, each factor is drawn once for a whole portfolio, and
one pass draws every kind. The chunks are leaves of numpy's pairwise summation
tree, so a factor's draws are summed a chunk at a time, bit for bit as np.mean
sums them whole. A project's mean follows by linearity from the factor means,
without forming its vector.
"""

from __future__ import annotations

import contextvars
import hashlib
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .diagnostics import ModelValidationError, error, has_errors
from .model import (
    MAX_LEVEL,
    CausalModel,
    FactorKind,
    ProjectCharacterization,
    validate_characterization,
    validate_model,
)

DEFAULT_SAMPLE_COUNT = 10_000
DEFAULT_QUANTILE_LEVELS = (0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95)
# samples drawn per block; any block size gives the same vectors and means
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
    """Monte Carlo sample set with its mean, sd and quantiles."""

    samples: np.ndarray
    mean: float
    sd: float
    quantiles: dict[float, float] = field(default_factory=dict)

    @classmethod
    def from_samples(cls, samples: np.ndarray, mean: float) -> "EmpiricalDistribution":
        """sd and quantiles of samples, kept in their order beside their mean as the caller computed
        it (draw_portfolio's linear mean); the quantiles read a copy, which draw_portfolio counts."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.size == 0:
            raise ValueError("cannot build a distribution from zero samples")
        values = np.quantile(samples, DEFAULT_QUANTILE_LEVELS)
        return cls(
            samples=samples,
            mean=mean,
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


def _share_count(blocks: Sequence[tuple[int, int]]) -> int:
    return 1 if len(blocks) == 1 else min(len(blocks), _usable_cpus())


def _for_each_block(make_task: Callable[[], Callable[[int, int], None]], blocks: Sequence[tuple[int, int]]) -> None:
    # Run task(start, stop) over the given blocks; tasks must write disjoint
    # data. There are W = min(blocks, usable CPUs) shares: the calling thread
    # takes blocks 0, W, 2W, ... and the W - 1 threads of this run's own pool
    # the other strided shares, each in a copy of the caller's context, so
    # under the caller's numpy error state. One block or one CPU runs inline
    # and starts no thread. The arithmetic of a block is the same on any
    # thread, so W never changes a result. Each share's task comes from
    # make_task(), called here before any share starts, so that scratch a task
    # owns exists for the whole run and the memory peak never depends on
    # thread timing.
    workers = _share_count(blocks)
    tasks = [make_task() for _ in range(workers)]

    def share(k: int) -> None:
        for start, stop in blocks[k::workers]:
            tasks[k](start, stop)

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


# numpy's pairwise summation adds up a node of at most this many elements in one loop
_PAIRWISE_LEAF = 128


def _pairwise_split(m: int) -> int:
    # where np.add.reduce splits a node of m contiguous elements (half of it,
    # rounded down to a multiple of 8), or 0 for a node the engine takes as
    # one block; numpy never splits a node of _PAIRWISE_LEAF or fewer, so
    # neither may the engine, whatever BLOCK_SIZE is
    if m <= max(BLOCK_SIZE, _PAIRWISE_LEAF):
        return 0
    half = m // 2
    return half - half % 8


def _pairwise_blocks(start: int, stop: int) -> list[tuple[int, int]]:
    # the blocks of range(start, stop), in order: the nodes of numpy's
    # pairwise-sum tree that _pairwise_split leaves whole
    split = _pairwise_split(stop - start)
    if not split:
        return [(start, stop)]
    return _pairwise_blocks(start, start + split) + _pairwise_blocks(start + split, stop)


def _pairwise_total(leaf_sums: Iterator, m: int):
    # the sum of m elements from the sums of their _pairwise_blocks, in order,
    # added as numpy adds those nodes: np.add.reduce of all m, bit for bit
    # (np.add.reduce starts each leaf sum at +0.0, which can change only the
    # sign of a zero, and it starts its own total at +0.0 too)
    split = _pairwise_split(m)
    if not split:
        return next(leaf_sums)
    return _pairwise_total(leaf_sums, split) + _pairwise_total(leaf_sums, m - split)


def _physical_memory() -> float:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # this platform does not report it
        return math.inf


def draw_portfolio(
    model: CausalModel,
    characterizations: Sequence[ProjectCharacterization],
    kinds: Sequence[FactorKind],
    cfg: SimulationConfig,
    target: int | None = None,
    combine: Callable[..., np.ndarray] | None = None,
) -> tuple[list[list[float]], np.ndarray | None]:
    """Means of the accumulated relative increases (DDIF, EIF), a list per kind in kinds with a
    mean per characterization, and combine of the target's vectors of each kind (or None).

    check_portfolio runs first, on these characterizations and kinds. A
    characterization's vector of a kind is +0.0 plus level/3 times each of the
    kind's factor draws, in model order. One pass over the blocks draws one
    factor at a time into a single row, records the row's sum and adds the row
    into the target's block vector of its kind; each block of the returned
    vector is combine of those, in kinds' order. Without a combine, the one
    kind's own vector is returned, for a summary that copies it
    (EmpiricalDistribution.from_samples); a combined vector is the caller's to
    reorder in place. The blocks are leaves of np.mean's pairwise summation
    tree, so each factor's mean is np.mean of its draws, bit for bit, and by
    linearity a characterization's mean is +0.0 plus level/3 times each
    factor's mean, in model order, level-0 factors skipped. Nothing but
    (model, characterization, kind, seed, sample_count) changes them.
    """
    check_portfolio(model, characterizations, kinds)
    if not characterizations:
        return [[] for _ in kinds], None
    by_kind = [model.factors_of_kind(kind) for kind in kinds]
    factors = [f for kind_factors in by_kind for f in kind_factors]
    n = cfg.sample_count
    blocks = _pairwise_blocks(0, n)
    width = max(stop - start for start, stop in blocks)
    weights = [[ch.levels[f.id] / MAX_LEVEL for f in factors] for ch in characterizations]
    # the returned vector, plus without a combine the copy its summary takes; then each
    # share's scratch: the draw row, the uniforms' two temporaries and a target block per kind
    vectors, accumulators = (0, 0) if target is None else (2 if combine is None else 1, len(kinds))
    needed = vectors * n * 8 + _share_count(blocks) * (3 + accumulators) * width * 8
    if needed > _physical_memory():
        raise MemoryError(f"{n} samples of {len(factors)} factors need {needed} bytes, more than physical memory")
    vector = None if target is None else np.empty(n, dtype=np.float64)
    # per factor: its multiplier, stream, kind's index and the target's level/3,
    # where 0.0 leaves the term out (the draws are >= 0)
    kind_index = [k for k, kind_factors in enumerate(by_kind) for _ in kind_factors]
    target_weights = [0.0] * len(factors) if target is None else weights[target]
    params = [(f.multiplier, factor_stream(f.id), k, w) for f, k, w in zip(factors, kind_index, target_weights)]
    leaf_sums: dict[int, np.ndarray] = {}

    def make_task() -> Callable[[int, int], None]:
        row = np.empty(width, dtype=np.float64)
        scratch = np.empty((accumulators, width), dtype=np.float64)

        def task(start: int, stop: int) -> None:
            draws = row[: stop - start]
            # each block vector starts at +0.0, so its first term gives +0.0 +
            # term: a draw of -0.0 (a minimum of -0.0) still gives +0.0
            block_vectors = scratch[:, : stop - start]
            block_vectors.fill(0.0)
            sums = np.empty(len(factors))
            for i, (mult, stream, k, weight) in enumerate(params):
                # the variates go straight into the row, with the fresh
                # uniforms as scratch; check_portfolio has checked the multipliers
                u = counter_uniforms(cfg.seed, stream, start, stop - start)
                _triangular_into(draws, mult.min, mult.most_likely, mult.max, u, u)
                sums[i] = np.add.reduce(draws)
                if weight != 0.0:
                    # u takes the product; a level-3 term (x * 1.0) is the row itself
                    block_vectors[k] += draws if weight == 1.0 else np.multiply(draws, weight, out=u)
                del u  # before the next factor's uniforms are drawn
            leaf_sums[start] = sums
            if vector is not None:
                vector[start:stop] = combine(*block_vectors) if combine else block_vectors[0]

        return task

    _for_each_block(make_task, blocks)
    factor_means = (_pairwise_total(iter([leaf_sums[start] for start, _ in blocks]), n) / n).tolist()
    # plain float additions in model order: not sum(), which compensates its
    # additions from Python 3.12 on, nor a matrix product, whose order is the
    # BLAS build's
    means_by_kind = [[0.0] * len(characterizations) for _ in kinds]
    for j, row_weights in enumerate(weights):
        for k, weight, factor_mean in zip(kind_index, row_weights, factor_means):
            if weight != 0.0:
                means_by_kind[k][j] += weight * factor_mean
    return means_by_kind, vector


def simulate(
    model: CausalModel, ch: ProjectCharacterization, kind: FactorKind, cfg: SimulationConfig
) -> EmpiricalDistribution:
    """Simulate the accumulated relative increase (DDIF or EIF) for one project.

    Deterministic for fixed (model, characterization, kind, seed, sample_count):
    the block size never changes the sample vector. The mean is draw_portfolio's,
    the one plan, predict and validate use for this project.
    """
    ((mean,),), samples = draw_portfolio(model, [ch], (kind,), cfg, target=0)
    return EmpiricalDistribution.from_samples(samples, mean)


def analytic_mean(model: CausalModel, ch: ProjectCharacterization, kind: FactorKind) -> float:
    """Expected value of the simulated sum: sum of (level/3)*(min+mode+max)/3."""
    total = 0.0
    for f in model.factors_of_kind(kind):
        m = f.multiplier
        if m is None:
            raise ValueError(f"factor {f.id!r} is not quantified")
        total += (ch.levels[f.id] / MAX_LEVEL) * (m.min + m.most_likely + m.max) / 3.0
    return total
