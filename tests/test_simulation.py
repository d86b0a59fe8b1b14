import concurrent.futures
import math
import os
import signal
import sys
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hdce import simulation
from hdce.diagnostics import ModelValidationError
from hdce.evaluation import project_factor_means
from hdce.model import CausalModel, Factor, FactorKind, Multiplier
from hdce.simulation import (
    BLOCK_SIZE,
    DEFAULT_QUANTILE_LEVELS,
    EmpiricalDistribution,
    SimulationConfig,
    analytic_mean,
    check_portfolio,
    counter_uniforms,
    draw_vector,
    simulate,
    sorted_quantiles,
)
from helpers import (
    characterization,
    former_counter_uniforms,
    former_triangular_inverse_cdf,
    reference_model,
    reference_samples,
    scale_for,
    use_cpus,
)


class TestCounterUniforms:
    def test_chunk_invariance(self):
        full = counter_uniforms(9, 1234, 0, 1000)
        parts = np.concatenate([counter_uniforms(9, 1234, s, 100) for s in range(0, 1000, 100)])
        assert np.array_equal(full, parts)

    def test_range(self):
        u = counter_uniforms(1, 2, 0, 10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_streams_differ(self):
        a = counter_uniforms(5, 10, 0, 100)
        b = counter_uniforms(5, 11, 0, 100)
        assert not np.array_equal(a, b)


def triangular(minimum, mode, maximum, u):
    """The engine's kernel at each u, into a new array."""
    u = np.array(u, dtype=np.float64, ndmin=1)
    out = np.empty_like(u)
    simulation._triangular_into(out, minimum, mode, maximum, u, u.copy())
    return out


class TestTriangular:
    def test_support_endpoints(self):
        low, high = triangular(0.1, 0.2, 0.3, [0.0, 1.0 - 1e-12])
        assert low == 0.1
        assert high == pytest.approx(0.3, abs=1e-6)

    def test_degenerate_constant(self):
        assert np.all(triangular(0.0, 0.0, 0.0, [0.0, 0.3, 0.999]) == 0.0)

    def test_mode_at_minimum_and_maximum(self):
        assert triangular(0.2, 0.2, 0.5, 0.0)[0] == pytest.approx(0.2, abs=1e-12)
        assert triangular(0.2, 0.5, 0.5, 0.0)[0] == 0.2

    def test_sample_mean_matches_analytic(self):
        u = counter_uniforms(777, 1, 0, 100_000)
        draws = triangular(0.1, 0.2, 0.3, u)
        assert np.mean(draws) == pytest.approx(0.2, rel=0.01)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.999999),
    )
    def test_output_within_support_and_monotone_in_u(self, low, d1, d2, u):
        mode, high = low + d1, low + d1 + d2
        x, next_x = triangular(low, mode, high, [u, min(u + 1e-6, 1 - 1e-9)])
        assert low <= x <= high
        assert next_x >= x - 1e-15


_EDGE_U = np.array([0.0, 1.0 - 2.0**-53])


@st.composite
def ordered_triples(draw):
    """(min, mode, max) with min <= mode <= max, often with two or all three equal."""
    values = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3, max_size=3)))
    shape = draw(st.sampled_from(["distinct", "mode-at-min", "mode-at-max", "constant"]))
    low, mode, high = values
    if shape == "mode-at-min":
        mode = low
    elif shape == "mode-at-max":
        mode = high
    elif shape == "constant":
        mode = high = low
    return low, mode, high


@st.composite
def zero_minimum_triples(draw):
    """ordered_triples, often moved so that the minimum is exactly 0.0 or -0.0."""
    low, mode, high = draw(ordered_triples())
    zero = draw(st.sampled_from([None, 0.0, -0.0]))
    if zero is None:
        return low, mode, high
    return zero, zero if mode == low else mode, zero if high == low else high


def branch_boundary_u(triple, uniforms):
    """The edge u values, mode_cdf and its two neighbours where they lie in [0, 1), then uniforms."""
    low, mode, high = triple
    u = list(_EDGE_U)
    if low != high:
        mode_cdf = (mode - low) / (high - low)
        u += [mode_cdf, np.nextafter(mode_cdf, 0.0), np.nextafter(mode_cdf, 1.0)]
    return np.concatenate([[x for x in u if 0.0 <= x < 1.0], uniforms])


class TestKernelBits:
    """The in-place kernels give the bits of the former allocating ones."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**48),
        st.integers(min_value=1, max_value=5000),
    )
    def test_uniforms_equal_former(self, seed, stream, start, count):
        assert np.array_equal(
            counter_uniforms(seed, stream, start, count), former_counter_uniforms(seed, stream, start, count)
        )

    @settings(max_examples=300, deadline=None)
    @given(ordered_triples(), st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=3000))
    def test_engine_kernel_over_its_own_uniforms_equals_former(self, triple, seed, count):
        # the engine writes into a row view and uses the fresh uniforms as scratch
        u = np.concatenate([_EDGE_U, counter_uniforms(seed, 1, 0, count)])
        expected = former_triangular_inverse_cdf(*triple, u)
        row = np.full(u.size + 2, -1.0)
        simulation._triangular_into(row[1:-1], *triple, u, u)
        assert np.array_equal(row[1:-1], expected)
        assert row[0] == row[-1] == -1.0

    @settings(max_examples=300, deadline=None)
    @given(zero_minimum_triples(), st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=200))
    @example((0.0, 0.3, 0.7), 1, 10)
    @example((-0.0, 0.3, 0.7), 1, 10)
    @example((-0.0, -0.0, 0.7), 1, 10)
    @example((0.2, 0.2, 0.7), 1, 10)
    @example((0.2, 0.7, 0.7), 1, 10)
    @example((-0.0, 0.7, 0.7), 1, 10)
    def test_branch_boundary_and_zero_minimum_equal_former(self, triple, seed, count):
        # u at mode_cdf and one ulp either side of it picks the branch as the former kernel did
        u = branch_boundary_u(triple, counter_uniforms(seed, 2, 0, count))
        expected = former_triangular_inverse_cdf(*triple, u)
        row = np.full(u.size, -1.0)
        simulation._triangular_into(row, *triple, u, u)
        assert np.array_equal(row, expected)
        assert row.tobytes() == expected.tobytes()


class TestFactorContribution:
    """A factor at level L adds L/3 of its multiplier draw, seen through simulate
    with a degenerate (constant) multiplier so every draw equals 0.30."""

    cfg = SimulationConfig(seed=1, sample_count=64)

    def lone_dc(self, level):
        model = single_factor_model(0.30, 0.30, 0.30)
        ch = characterization(model, {"lone-dc": level, "lone-eff": 0})
        return simulate(model, ch, FactorKind.DEFECT_CONTENT, self.cfg).samples

    def test_level_zero_contributes_nothing(self):
        assert np.all(self.lone_dc(0) == 0.0)

    def test_level_three_full_impact(self):
        assert np.all(self.lone_dc(3) == 0.30)

    def test_level_one_third_impact(self):
        assert self.lone_dc(1) == pytest.approx(np.full(64, 0.10))

    def test_unquantified_rejected(self):
        model = single_factor_model(0.30, 0.30, 0.30)
        bare = model.factors[0]
        model = CausalModel(
            context=model.context,
            factors=(Factor(bare.id, bare.name, bare.kind, bare.category, bare.scale, None), model.factors[1]),
        )
        ch = characterization(model, {"lone-dc": 2, "lone-eff": 0})
        with pytest.raises(ModelValidationError, match="'lone-dc' has no multiplier"):
            simulate(model, ch, FactorKind.DEFECT_CONTENT, self.cfg)

    def test_bad_level_rejected(self):
        with pytest.raises(ModelValidationError, match="level 4"):
            self.lone_dc(4)


def single_factor_model(low, mode, high, extra=None):
    factors = [
        Factor(
            id="lone-dc",
            name="lone dc",
            kind=FactorKind.DEFECT_CONTENT,
            category=reference_model().factors[0].category,
            scale=scale_for("lone-dc"),
            multiplier=Multiplier(low, mode, high),
        ),
        Factor(
            id="lone-eff",
            name="lone eff",
            kind=FactorKind.EFFECTIVENESS,
            category=reference_model().factors[0].category,
            scale=scale_for("lone-eff"),
            multiplier=Multiplier(0.1, 0.2, 0.3),
        ),
    ]
    if extra is not None:
        factors.insert(1, extra)
    return CausalModel(context="single factor", factors=tuple(factors))


class TestSimulate:
    def test_all_levels_zero_gives_constant_zero(self):
        model = reference_model()
        dist = simulate(model, characterization(model, 0), FactorKind.DEFECT_CONTENT, SimulationConfig(seed=1, sample_count=500))
        assert dist.mean == 0.0
        assert dist.sd == 0.0
        assert np.all(dist.samples == 0.0)

    def test_single_factor_mean_converges(self):
        model = single_factor_model(0.1, 0.2, 0.3)
        ch = characterization(model, {"lone-dc": 3, "lone-eff": 0})
        dist = simulate(model, ch, FactorKind.DEFECT_CONTENT, SimulationConfig(seed=11, sample_count=100_000))
        assert dist.mean == pytest.approx(0.2, rel=0.01)

    def test_two_factor_means_add(self):
        extra = Factor(
            id="second-dc",
            name="second dc",
            kind=FactorKind.DEFECT_CONTENT,
            category=reference_model().factors[0].category,
            scale=scale_for("second-dc"),
            multiplier=Multiplier(0.0, 0.1, 0.2),
        )
        model = single_factor_model(0.1, 0.2, 0.3, extra=extra)
        ch = characterization(model, {"lone-dc": 3, "second-dc": 3, "lone-eff": 0})
        dist = simulate(model, ch, FactorKind.DEFECT_CONTENT, SimulationConfig(seed=12, sample_count=100_000))
        assert dist.mean == pytest.approx(0.3, rel=0.01)

    def test_deterministic_and_parallel_identical(self, monkeypatch):
        model = reference_model()
        ch = characterization(model, 2)
        cfg = SimulationConfig(seed=99, sample_count=20_000)
        serial = simulate(model, ch, FactorKind.EFFECTIVENESS, cfg)
        rerun = simulate(model, ch, FactorKind.EFFECTIVENESS, cfg)
        monkeypatch.setattr(simulation, "BLOCK_SIZE", 1024)
        chunked = simulate(model, ch, FactorKind.EFFECTIVENESS, cfg)
        monkeypatch.setattr(simulation, "BLOCK_SIZE", 3001)
        uneven = simulate(model, ch, FactorKind.EFFECTIVENESS, cfg)
        assert np.array_equal(serial.samples, rerun.samples)
        assert np.array_equal(serial.samples, chunked.samples)
        assert np.array_equal(serial.samples, uneven.samples)

    def test_different_seeds_differ(self):
        model = reference_model()
        ch = characterization(model, 2)
        a = simulate(model, ch, FactorKind.DEFECT_CONTENT, SimulationConfig(seed=1, sample_count=1000))
        b = simulate(model, ch, FactorKind.DEFECT_CONTENT, SimulationConfig(seed=2, sample_count=1000))
        assert not np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("factor_id", ["novelty-to-developer", "project-complexity"])
    def test_raising_one_level_never_decreases_samples(self, factor_id):
        model = reference_model()
        levels = {f.id: 1 for f in model.factors}
        cfg = SimulationConfig(seed=4, sample_count=5_000)
        low = simulate(model, characterization(model, dict(levels)), FactorKind.DEFECT_CONTENT, cfg)
        levels[factor_id] = 3
        high = simulate(model, characterization(model, dict(levels)), FactorKind.DEFECT_CONTENT, cfg)
        assert np.all(high.samples >= low.samples)

    def test_support_bounds(self):
        model = reference_model()
        levels = {f.id: (i % 4) for i, f in enumerate(model.factors)}
        ch = characterization(model, levels)
        cfg = SimulationConfig(seed=21, sample_count=10_000)
        dist = simulate(model, ch, FactorKind.DEFECT_CONTENT, cfg)
        dc_factors = model.factors_of_kind(FactorKind.DEFECT_CONTENT)
        lower = sum((levels[f.id] / 3) * f.multiplier.min for f in dc_factors)
        upper = sum((levels[f.id] / 3) * f.multiplier.max for f in dc_factors)
        assert np.all(dist.samples >= lower - 1e-12)
        assert np.all(dist.samples <= upper + 1e-12)

    def test_sample_mean_close_to_the_exact_mean(self):
        model = reference_model()
        levels = {f.id: (i % 4) for i, f in enumerate(model.factors)}
        ch = characterization(model, levels)
        for kind in FactorKind:
            dist = simulate(model, ch, kind, SimulationConfig(seed=5, sample_count=100_000))
            assert dist.mean == analytic_mean(model, ch, kind)
            assert np.mean(dist.samples) == pytest.approx(dist.mean, rel=0.01)

    def test_quantiles_non_decreasing(self):
        model = reference_model()
        ch = characterization(model, 2)
        dist = simulate(model, ch, FactorKind.DEFECT_CONTENT, SimulationConfig(seed=6, sample_count=5_000))
        levels = sorted(dist.quantiles)
        values = [dist.quantiles[q] for q in levels]
        assert values == sorted(values)

    def test_summary_recomputable_from_samples(self):
        model = reference_model()
        ch = characterization(model, 3)
        cfg = SimulationConfig(seed=7, sample_count=4_000)
        dist = simulate(model, ch, FactorKind.EFFECTIVENESS, cfg)
        assert dist.mean == analytic_mean(model, ch, FactorKind.EFFECTIVENESS)
        recomputed = EmpiricalDistribution.from_samples(dist.samples, dist.mean)
        assert recomputed.sd == dist.sd
        assert recomputed.quantiles == dist.quantiles

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_sd_and_quantiles_are_numpys_bit_for_bit(self, level):
        # the sd is taken over samples scaled by a power of two, which is exact
        model = reference_model()
        cfg = SimulationConfig(seed=level, sample_count=3_000)
        rng = np.random.default_rng(level)
        vectors = [simulate(model, characterization(model, level), kind, cfg).samples for kind in FactorKind]
        vectors += [rng.normal(size=n) * 10.0 ** rng.integers(-150, 150) for n in (1, 2, 999)]
        for samples in vectors:
            dist = EmpiricalDistribution.from_samples(samples, 0.0)
            assert dist.sd == float(np.std(samples))
            assert list(dist.quantiles.values()) == np.quantile(samples, DEFAULT_QUANTILE_LEVELS).tolist()

    def test_unquantified_factor_rejected(self):
        base = reference_model()
        factors = tuple(
            Factor(f.id, f.name, f.kind, f.category, f.scale, None) if i == 0 else f
            for i, f in enumerate(base.factors)
        )
        model = CausalModel(context="c", factors=factors)
        ch = characterization(model, 1)
        with pytest.raises(ModelValidationError):
            simulate(model, ch, FactorKind.DEFECT_CONTENT, SimulationConfig(seed=1, sample_count=10))

    def test_invalid_characterization_rejected(self):
        model = reference_model()
        ch = characterization(model, {f.id: 1 for f in model.factors[:-1]})
        with pytest.raises(ModelValidationError):
            simulate(model, ch, FactorKind.DEFECT_CONTENT, SimulationConfig(seed=1, sample_count=10))


def identity(vector):
    return vector


def exact_means(model, chs, kinds):
    """The reported means: check_portfolio, then analytic_mean of each characterization, a list per kind."""
    simulation.check_portfolio(model, chs, kinds)
    return [[analytic_mean(model, ch, kind) for ch in chs] for kind in kinds]


def draw_all(model, chs, kind, cfg):
    """exact_means of one kind, and draw_vector of each characterization with an identity combine."""
    (means,) = exact_means(model, chs, (kind,))
    return means, [draw_vector(model, ch, (kind,), cfg, combine=identity) for ch in chs]


def reference_means_and_bytes(model, chs, kind, cfg):
    means = [analytic_mean(model, ch, kind) for ch in chs]
    return means, [reference_samples(model, ch, kind, cfg).tobytes() for ch in chs]


class TestPortfolioEngine:
    """draw_vector against the per-factor reference loop, byte for byte, and the checked means against
    analytic_mean."""

    @staticmethod
    def portfolio(model, count):
        return [
            characterization(model, {f.id: (i + j) % 4 for j, f in enumerate(model.factors)}, f"P{i}")
            for i in range(count)
        ]

    @pytest.mark.parametrize("block", [None, 1000, 3001, 65537])
    def test_simulate_matches_reference(self, monkeypatch, block):
        # 70,000 samples span two default blocks of 65,536
        model = reference_model()
        ch = self.portfolio(model, 2)[1]
        cfg = SimulationConfig(seed=31, sample_count=70_000)
        if block is not None:
            monkeypatch.setattr(simulation, "BLOCK_SIZE", block)
        for kind in FactorKind:
            dist, reference = simulate(model, ch, kind, cfg), reference_samples(model, ch, kind, cfg)
            assert dist.samples.tobytes() == reference.tobytes()
            assert dist.sd == float(np.std(reference))
            assert list(dist.quantiles.values()) == np.quantile(reference, list(dist.quantiles)).tolist()

    @pytest.mark.parametrize("block", [None, 7])
    def test_every_portfolio_vector_matches_reference(self, monkeypatch, block):
        model = reference_model()
        chs = self.portfolio(model, 9)
        cfg = SimulationConfig(seed=8, sample_count=500)
        if block is not None:
            monkeypatch.setattr(simulation, "BLOCK_SIZE", block)
        for kind in FactorKind:
            means, vectors = draw_all(model, chs, kind, cfg)
            assert (means, [v.tobytes() for v in vectors]) == reference_means_and_bytes(model, chs, kind, cfg)

    @pytest.mark.parametrize("samples", [500, BLOCK_SIZE + 3])
    def test_zero_levels_and_first_term_weights_match_reference(self, monkeypatch, samples):
        # the first non-zero term starts the sum: weight 1, weight 1/3, after a level-0 factor, or none at all
        model = reference_model()
        first, second = (f.id for f in model.factors_of_kind(FactorKind.DEFECT_CONTENT)[:2])
        chs = [
            characterization(model, 0, "zero"),
            characterization(model, {**dict.fromkeys((f.id for f in model.factors), 2), first: 3}, "first-weight-1"),
            characterization(model, {**dict.fromkeys((f.id for f in model.factors), 2), first: 1}, "first-weight-1/3"),
            characterization(model, {**dict.fromkeys((f.id for f in model.factors), 0), second: 1}, "second-only"),
        ]
        cfg = SimulationConfig(seed=23, sample_count=samples)
        for cpus in (1, 4):
            use_cpus(monkeypatch, cpus)
            for kind in FactorKind:
                means, vectors = draw_all(model, chs, kind, cfg)
                expected_means, expected = reference_means_and_bytes(model, chs, kind, cfg)
                assert means == expected_means, kind
                for ch, values, reference in zip(chs, vectors, expected):
                    assert values.tobytes() == reference, (ch.project_id, kind)

    def test_negative_zero_first_draw_sums_to_positive_zero(self, monkeypatch):
        # a multiplier of -0.0 draws -0.0, and every vector and mean still starts at +0.0
        # (validate_model rejects a multiplier whose max is not > 0, so the check is left out)
        monkeypatch.setattr(simulation, "check_portfolio", lambda *_args: None)
        zero = single_factor_model(-0.0, -0.0, -0.0)
        chs = [characterization(zero, {"lone-dc": level, "lone-eff": 0}, f"L{level}") for level in (1, 3)]
        cfg = SimulationConfig(seed=3, sample_count=5)
        means, vectors = draw_all(zero, chs, FactorKind.DEFECT_CONTENT, cfg)
        assert [np.signbit(m) for m in means] == [False, False]
        assert [v.tobytes() for v in vectors] == [np.zeros(5).tobytes()] * 2

    def test_empty_portfolio_yields_nothing(self):
        assert project_factor_means(reference_model(), []) == {}

    def test_check_portfolio_rejects_bad_characterization(self):
        model = reference_model()
        bad = characterization(model, {f.id: 1 for f in model.factors[:-1]})
        with pytest.raises(ModelValidationError):
            check_portfolio(model, [bad], (FactorKind.DEFECT_CONTENT,))


class TestMultiKindPass:
    """One pass over several kinds forms each kind's vector as a one-kind pass does."""

    BLOCKS_AND_CPUS = pytest.mark.parametrize("block, cpus", [(b, c) for b in (None, 7, 1000) for c in (1, 4)])

    @staticmethod
    def config(monkeypatch, block, cpus, seed):
        # more than one block at any of the block sizes
        cfg = SimulationConfig(seed=seed, sample_count=BLOCK_SIZE + 3 if block is None else 3 * block + 300)
        if block is not None:
            monkeypatch.setattr(simulation, "BLOCK_SIZE", block)
        use_cpus(monkeypatch, cpus)
        assert cfg.sample_count > simulation.BLOCK_SIZE
        return cfg

    @staticmethod
    def pick(k):
        # a combine that returns the target's block vector of the k-th kind
        return lambda *vectors: vectors[k]

    @BLOCKS_AND_CPUS
    def test_every_vector_of_each_kind_matches_reference(self, monkeypatch, block, cpus):
        model = reference_model()
        chs = TestPortfolioEngine.portfolio(model, 4)  # levels 0-3, so every weight occurs
        cfg = self.config(monkeypatch, block, cpus, seed=37)
        expected = {kind: reference_means_and_bytes(model, chs, kind, cfg) for kind in FactorKind}
        for kinds in (tuple(FactorKind), tuple(reversed(FactorKind))):
            assert exact_means(model, chs, kinds) == [expected[kind][0] for kind in kinds]
            for target, ch in enumerate(chs):
                for k, kind in enumerate(kinds):
                    vector = draw_vector(model, ch, kinds, cfg, combine=self.pick(k))
                    assert vector.tobytes() == expected[kind][1][target], (kinds, target, kind)

    @BLOCKS_AND_CPUS
    def test_negative_zero_first_draw_of_either_kind_sums_to_positive_zero(self, monkeypatch, block, cpus):
        monkeypatch.setattr(simulation, "check_portfolio", lambda *_args: None)  # as above
        zero = single_factor_model(-0.0, -0.0, -0.0)
        chs = [characterization(zero, {"lone-dc": level, "lone-eff": 0}, f"L{level}") for level in (1, 3)]
        cfg = self.config(monkeypatch, block, cpus, seed=3)
        means = exact_means(zero, chs, tuple(FactorKind))
        assert [np.signbit(m) for kind_means in means for m in kind_means] == [False] * 4
        for ch in chs:
            for k in range(2):
                vector = draw_vector(zero, ch, tuple(FactorKind), cfg, combine=self.pick(k))
                assert vector.tobytes() == np.zeros(cfg.sample_count).tobytes()


class TestBlockParallelism:
    """Blocks drawn and accumulated on several threads give the serial vectors, byte for byte."""

    @pytest.mark.parametrize("count", [1, 6])
    @pytest.mark.parametrize("samples", [BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 7])
    def test_vectors_match_reference_for_any_cpu_count(self, monkeypatch, samples, count):
        model = reference_model()
        chs = TestPortfolioEngine.portfolio(model, count)  # levels 0-3, so every weight occurs
        cfg = SimulationConfig(seed=19, sample_count=samples)
        for kind in FactorKind:
            expected = reference_means_and_bytes(model, chs, kind, cfg)
            for cpus in (1, 4):
                use_cpus(monkeypatch, cpus)
                means, vectors = draw_all(model, chs, kind, cfg)
                assert (means, [v.tobytes() for v in vectors]) == expected, (kind, cpus)

    def test_blocks_run_on_more_than_one_thread(self, monkeypatch):
        threads = set()
        uniforms = simulation.counter_uniforms

        def recorded(*args):
            threads.add(threading.get_ident())
            return uniforms(*args)

        use_cpus(monkeypatch, 4)
        monkeypatch.setattr(simulation, "counter_uniforms", recorded)
        model = reference_model()
        simulate(model, characterization(model, 2), FactorKind.DEFECT_CONTENT,
                 SimulationConfig(seed=4, sample_count=3 * BLOCK_SIZE + 7))
        assert threading.get_ident() in threads
        assert len(threads) > 1

    @pytest.mark.parametrize("cpus, samples", [(4, 1), (4, BLOCK_SIZE), (1, 3 * BLOCK_SIZE + 7)])
    def test_one_block_or_one_cpu_creates_no_pool(self, monkeypatch, cpus, samples):
        def no_pool(*_args, **_kwargs):
            raise AssertionError("a run on one block or one CPU needs no thread pool")

        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        model = reference_model()
        ch = characterization(model, 3)
        cfg = SimulationConfig(seed=5, sample_count=samples)
        vector = simulate(model, ch, FactorKind.EFFECTIVENESS, cfg).samples
        assert vector.tobytes() == reference_samples(model, ch, FactorKind.EFFECTIVENESS, cfg).tobytes()

    def test_many_small_blocks_on_more_workers_than_cores(self, monkeypatch):
        model = reference_model()
        chs = TestPortfolioEngine.portfolio(model, 3)
        cfg = SimulationConfig(seed=23, sample_count=2 * BLOCK_SIZE + 5)
        expected = reference_means_and_bytes(model, chs, FactorKind.EFFECTIVENESS, cfg)
        use_cpus(monkeypatch, 8)
        monkeypatch.setattr(simulation, "BLOCK_SIZE", 997)
        assert -(-cfg.sample_count // simulation.BLOCK_SIZE) == 132
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # 132 blocks in 8 shares
            means, vectors = draw_all(model, chs, FactorKind.EFFECTIVENESS, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert (means, [v.tobytes() for v in vectors]) == expected

    def test_each_pass_starts_one_thread_per_share(self, monkeypatch):
        # a pass of 2 blocks, then one of 16 blocks in 4 shares; each share waits at its
        # first block until all 4 have started, so no thread can take two shares
        model = reference_model()
        ch = characterization(model, 2)
        use_cpus(monkeypatch, 4)
        monkeypatch.setattr(simulation, "BLOCK_SIZE", 1000)
        simulate(model, ch, FactorKind.DEFECT_CONTENT, SimulationConfig(seed=4, sample_count=2000))
        started = threading.Barrier(4, timeout=10)
        threads = set()
        uniforms = simulation.counter_uniforms

        def recorded(*args):
            if threading.get_ident() not in threads:
                threads.add(threading.get_ident())
                started.wait()
            return uniforms(*args)

        monkeypatch.setattr(simulation, "counter_uniforms", recorded)
        cfg = SimulationConfig(seed=4, sample_count=16_000)
        assert cfg.sample_count == 16 * simulation.BLOCK_SIZE
        vector = simulate(model, ch, FactorKind.DEFECT_CONTENT, cfg).samples
        assert len(threads) == 4
        assert vector.tobytes() == reference_samples(model, ch, FactorKind.DEFECT_CONTENT, cfg).tobytes()

    def test_shares_run_under_the_callers_numpy_error_state(self):
        seen = []

        def task(start):
            seen.append(np.geterr()["over"])

        with np.errstate(over="raise"):
            simulation._for_each_block(lambda: task, range(8), 4)
        assert seen == ["raise"] * 8

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_runs_its_blocks(self, monkeypatch):
        # a child forked after a pass above one block runs its own pass
        use_cpus(monkeypatch, 2)
        model = reference_model()
        ch = characterization(model, 2)
        cfg = SimulationConfig(seed=9, sample_count=3 * BLOCK_SIZE + 7)
        expected = reference_samples(model, ch, FactorKind.DEFECT_CONTENT, cfg).tobytes()
        assert simulate(model, ch, FactorKind.DEFECT_CONTENT, cfg).samples.tobytes() == expected
        pid = os.fork()
        if pid == 0:  # the child exits 0 only when its own run above one block gives the same vector
            code = 1
            try:
                code = 0 if simulate(model, ch, FactorKind.DEFECT_CONTENT, cfg).samples.tobytes() == expected else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if waited[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert waited[0] == pid, "the forked child did not finish within 30 s"
        assert os.waitstatus_to_exitcode(waited[1]) == 0

    def test_failed_share_is_raised_after_every_share_ends(self):
        done = []

        def task(start):
            if start == 2:
                raise MemoryError("block 2")
            done.append(start)

        with pytest.raises(MemoryError, match="block 2"):
            simulation._for_each_block(lambda: task, range(10), 4)
        # W = 4: the share of blocks 2 and 6 stops at 2; every other share runs to its end
        assert sorted(done) == [0, 1, 3, 4, 5, 7, 8, 9]

    @pytest.mark.parametrize(
        "kinds, combine, vectors",
        [
            # simulate: the target's vector, and the copy its summary takes
            ((FactorKind.DEFECT_CONTENT,), None, 2),
            # predict: one combined vector, which the caller reorders in place
            (tuple(FactorKind), lambda ddif, eif: ddif + eif, 1),
        ],
        ids=["one-kind-uncombined", "two-kinds-combined"],
    )
    def test_memory_bound_is_checked_before_allocating(self, monkeypatch, kinds, combine, vectors):
        model = reference_model()
        samples = 3 * BLOCK_SIZE + 7
        shares = 4  # one block each
        # each share's draw row and two uniform temporaries, whatever the factor count,
        # and its block vector of each kind
        needed = vectors * samples * 8 + shares * (3 + len(kinds)) * BLOCK_SIZE * 8
        cfg = SimulationConfig(seed=6, sample_count=samples)
        ch = characterization(model, 1)
        use_cpus(monkeypatch, 4)
        monkeypatch.setattr(simulation, "_physical_memory", lambda: needed - 1)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)  # no thread may start
        monkeypatch.setattr(simulation.np, "empty", None)  # and no array be allocated
        monkeypatch.setattr(simulation.np, "zeros", None)
        with pytest.raises(MemoryError, match=f"need {needed} bytes"):
            draw_vector(model, ch, kinds, cfg, combine=combine)
        monkeypatch.undo()
        use_cpus(monkeypatch, 4)
        expected = [reference_samples(model, ch, kind, cfg) for kind in kinds]
        monkeypatch.setattr(simulation, "_physical_memory", lambda: needed)
        values = draw_vector(model, ch, kinds, cfg, combine=combine)
        assert values.tobytes() == (combine or identity)(*expected).tobytes()


def with_multipliers(model, triples):
    """model with the multipliers of its first len(triples) factors replaced by triples."""
    factors = [Factor(f.id, f.name, f.kind, f.category, f.scale, Multiplier(*triple)) for f, triple in zip(model.factors, triples)]
    return CausalModel(context=model.context, factors=(*factors, *model.factors[len(triples):]))


class TestExactMeans:
    """analytic_mean, the one mean: the former formula's bits, the exact sum within rounding, and
    an overflow raised, not returned."""

    @staticmethod
    def former_analytic_mean(model, ch, kind):
        # analytic_mean before it skipped level-0 factors
        total = 0.0
        for f in model.factors_of_kind(kind):
            m = f.multiplier
            total += (ch.levels[f.id] / 3) * (m.min + m.most_likely + m.max) / 3.0
        return total

    PORTFOLIO = (st.lists(ordered_triples(), min_size=10, max_size=10),
                 st.lists(st.integers(0, 3), min_size=10, max_size=10))

    @settings(max_examples=200, deadline=None)
    @given(*PORTFOLIO)
    def test_skipping_level_zero_changes_no_bit(self, triples, levels):
        model = with_multipliers(reference_model(), triples)
        ch = characterization(model, dict(zip((f.id for f in model.factors), levels)))
        for kind in FactorKind:
            assert analytic_mean(model, ch, kind).hex() == self.former_analytic_mean(model, ch, kind).hex()

    @settings(max_examples=200, deadline=None)
    @given(*PORTFOLIO)
    def test_within_rounding_of_the_exact_sum(self, triples, levels):
        # the bound is relative, so it holds while every term stays a normal float: a term below
        # that range rounds absolutely (5e-324 at level 1 gives 0.0), and no rounding is wrong there
        assume(all(high == 0.0 or high >= 1e-300 for _, _, high in triples))
        model = with_multipliers(reference_model(), triples)
        ch = characterization(model, dict(zip((f.id for f in model.factors), levels)))
        for kind in FactorKind:
            exact = sum(
                Fraction(ch.levels[f.id], 3) * sum(map(Fraction, (f.multiplier.min, f.multiplier.most_likely,
                                                                  f.multiplier.max))) / 3
                for f in model.factors_of_kind(kind)
            )
            # every term is >= 0: five roundings per term and four additions, each within eps
            assert abs(Fraction(analytic_mean(model, ch, kind)) - exact) <= 10 * Fraction(np.finfo(float).eps) * exact

    @pytest.mark.parametrize(
        "triples",
        [[(0.0, 1e307, 1.7e308)], [(1e308, 1e308, 1e308)] * 2, [(0.0, 0.0, 1.7e308)] * 5],
        ids=["one-factor-sum", "two-factors", "terms-add-up"],  # the last: each term is finite
    )
    def test_overflow_raises_before_any_draw(self, monkeypatch, triples):
        monkeypatch.setattr(simulation, "counter_uniforms", None)
        model = with_multipliers(reference_model(), triples)
        ch = characterization(model, 3)
        with pytest.raises(FloatingPointError, match="^overflow encountered in add$"):
            analytic_mean(model, ch, FactorKind.DEFECT_CONTENT)
        with pytest.raises(FloatingPointError, match="^overflow encountered in add$"):
            simulate(model, ch, FactorKind.DEFECT_CONTENT, SimulationConfig(seed=1, sample_count=10))


class TestWideMultipliers:
    """A drawn factor whose triangular kernel products leave the float range raises numpy's own
    error: under numpy's default error state the clip once turned them into wrong draws."""

    WIDE = (0.0, 1e200, 2e200)  # a finite mean, but (u * span) * (mode - min) reaches 2e400

    @pytest.mark.parametrize("triple", [WIDE, (0.0, 0.0, 2e200), (0.0, 2e200, 2e200)])
    def test_raises_and_warns_nothing(self, triple):
        model = with_multipliers(reference_model(), [triple])
        ch = characterization(model, 3)
        cfg = SimulationConfig(seed=1, sample_count=10)
        assert math.isfinite(analytic_mean(model, ch, FactorKind.DEFECT_CONTENT))
        before = np.geterr()
        assert before["over"] == "warn"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError, match="^overflow encountered in multiply$"):
                simulate(model, ch, FactorKind.DEFECT_CONTENT, cfg)
            with pytest.raises(FloatingPointError, match="^overflow encountered in multiply$"):
                draw_vector(model, ch, tuple(FactorKind), cfg, combine=np.add)
        assert [str(w.message) for w in caught] == []
        assert np.geterr() == before

    def test_level_zero_wide_factor_changes_no_vector(self):
        # at level 0 the wide factor is not drawn, and the vectors are those of any other multiplier
        model = reference_model()
        wide = with_multipliers(model, [self.WIDE])
        ch = characterization(model, {f.id: 0 if f is model.factors[0] else 2 for f in model.factors})
        cfg = SimulationConfig(seed=1, sample_count=10)
        for kind in FactorKind:
            assert simulate(wide, ch, kind, cfg).samples.tobytes() == simulate(model, ch, kind, cfg).samples.tobytes()

    # each branch's product stays below (mode - min)^2 or (max - mode)^2, so these reach about
    # 1e308 but draw, though span * max(mode - min, max - mode) overflows for the first two
    @pytest.mark.parametrize(
        "triple",
        [(0.0, 1e154, 2e154), (0.0, 1.2e154, 2e154), (0.0, 1e153, 2e153), (0.0, 0.0, 1.3e154), (0.0, 1.3e154, 1.3e154)],
    )
    def test_widest_finite_products_draw_without_overflow(self, triple):
        model = with_multipliers(reference_model(), [triple])
        ch = characterization(model, 3)
        cfg = SimulationConfig(seed=1, sample_count=1000)
        samples = draw_vector(model, ch, (FactorKind.DEFECT_CONTENT,), cfg)
        with np.errstate(over="raise", invalid="raise"):
            reference = reference_samples(model, ch, FactorKind.DEFECT_CONTENT, cfg)
        assert samples.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("triple", [(0.0, 0.0, 1.3e154), (0.0, 1e154, 2e154), (0.0, 1.3e154, 1.3e154)])
    def test_sd_past_the_square_root_of_the_float_range_is_finite(self, triple):
        # np.std of these samples squares values past 1.3e154, which overflows
        model = with_multipliers(reference_model(), [triple])
        ch = characterization(model, {f.id: 3 if f is model.factors[0] else 0 for f in model.factors})
        cfg = SimulationConfig(seed=1, sample_count=2_000)
        with np.errstate(over="raise", invalid="raise"):
            dist = simulate(model, ch, FactorKind.DEFECT_CONTENT, cfg)
        a, c, b = (v / triple[2] for v in triple)  # the triangular sd, in units of the maximum
        expected = triple[2] * math.sqrt((a * a + b * b + c * c - a * b - a * c - b * c) / 18)
        assert dist.sd == pytest.approx(expected, rel=0.05)


class TestSummaryErrorState:
    """The summary reads its quantiles under numpy's raising error state: the library, not its
    caller, keeps an interval end past the float range from coming out inf."""

    def test_quantile_past_the_float_range_raises_and_warns_nothing(self):
        # at numpy's default error state this once gave quantiles of inf and -inf with a RuntimeWarning
        before = np.geterr()
        assert before["over"] == "warn"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError, match="^overflow encountered in subtract$"):
                EmpiricalDistribution.from_samples(np.array([-1.7e308, 1.7e308]), 0.0)
        assert [str(w.message) for w in caught] == []
        assert np.geterr() == before


@st.composite
def quantile_inputs(draw):
    """(values, levels): 1 to 5,000 float64 values of magnitude 0 or 1e-300 to 1e300, either many
    ties of a few values or spread out, and levels with 0, 1, 0.5, random ones and repeats."""
    magnitudes = st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e300))
    pool = draw(st.lists(st.tuples(magnitudes, st.booleans()), min_size=1, max_size=6))
    # no -0.0: where both zeros tie at a rank, np.quantile's partition order picks the zero
    pool = np.array([m if m == 0.0 or positive else -m for m, positive in pool])
    size = draw(st.integers(min_value=1, max_value=5_000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    if draw(st.booleans()):
        values = rng.choice(pool, size=size)
    else:
        values = rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-300, 300, size=size)
    levels = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(min_value=0.0, max_value=1.0)),
                           min_size=1, max_size=8))
    return values, levels + draw(st.lists(st.sampled_from(levels), max_size=3))


class TestSortedQuantiles:
    """sorted_quantiles gives np.quantile's numbers bit for bit, reading two order statistics per
    level from one in-place sort. Vectors hold no -0.0, as the engine's never do: where -0.0 and
    +0.0 tie at a rank, which zero np.quantile returns depends on its partition order."""

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.int64).tolist()

    @settings(max_examples=300, deadline=None)
    @given(quantile_inputs())
    def test_equals_numpy_bit_for_bit(self, inputs):
        values, levels = inputs
        expected = np.quantile(values, levels)
        in_place = values.copy()
        assert self.bits(sorted_quantiles(in_place, levels)) == self.bits(expected)
        assert self.bits(in_place) == self.bits(np.sort(values))

    def test_a_nan_makes_every_level_nan(self):
        values = np.array([3.0, np.nan, -1.0, 2.0])
        levels = [0.0, 0.5, 1.0]
        assert np.isnan(np.quantile(values, levels)).all()
        assert np.isnan(sorted_quantiles(values, levels)).all()

    def test_interpolation_past_the_float_range_raises(self):
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError, match="^overflow encountered in subtract$"):
                np.quantile(np.array([-1.7e308, 1.7e308]), [0.5])
            with pytest.raises(FloatingPointError, match="^overflow encountered in subtract$"):
                sorted_quantiles(np.array([-1.7e308, 1.7e308]), [0.5])


class TestSimulationConfig:
    def test_defaults(self):
        cfg = SimulationConfig(seed=3)
        assert cfg.sample_count == 10_000

    def test_bad_sample_count(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=1, sample_count=0)

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=-1)
        with pytest.raises(ValueError):
            SimulationConfig(seed=2**64)
