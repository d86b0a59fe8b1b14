import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdce import simulation
from hdce.diagnostics import ModelValidationError
from hdce.model import CausalModel, Factor, FactorKind, Multiplier
from hdce.simulation import (
    BLOCK_SIZE,
    EmpiricalDistribution,
    SimulationConfig,
    analytic_mean,
    counter_uniforms,
    simulate,
    simulate_portfolio,
    triangular_inverse_cdf,
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


class TestTriangular:
    def test_support_endpoints(self):
        assert triangular_inverse_cdf(0.1, 0.2, 0.3, 0.0) == pytest.approx(0.1, abs=0)
        assert triangular_inverse_cdf(0.1, 0.2, 0.3, 1.0 - 1e-12) == pytest.approx(0.3, abs=1e-6)

    def test_degenerate_constant(self):
        for u in (0.0, 0.3, 0.999):
            assert triangular_inverse_cdf(0.0, 0.0, 0.0, u) == 0.0

    def test_mode_at_minimum_and_maximum(self):
        assert triangular_inverse_cdf(0.2, 0.2, 0.5, 0.0) == pytest.approx(0.2, abs=1e-12)
        assert triangular_inverse_cdf(0.2, 0.5, 0.5, 0.0) == pytest.approx(0.2, abs=0)

    def test_ordering_violation_rejected(self):
        with pytest.raises(ValueError):
            triangular_inverse_cdf(0.3, 0.2, 0.4, 0.5)

    def test_u_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            triangular_inverse_cdf(0.1, 0.2, 0.3, 1.0)
        with pytest.raises(ValueError):
            triangular_inverse_cdf(0.1, 0.2, 0.3, -0.001)

    def test_sample_mean_matches_analytic(self):
        u = counter_uniforms(777, 1, 0, 100_000)
        draws = triangular_inverse_cdf(0.1, 0.2, 0.3, u)
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
        x = triangular_inverse_cdf(low, mode, high, u)
        assert low <= x <= high
        assert triangular_inverse_cdf(low, mode, high, min(u + 1e-6, 1 - 1e-9)) >= x - 1e-15


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
    def test_triangular_equals_former(self, triple, seed, count):
        u = np.concatenate([_EDGE_U, counter_uniforms(seed, 1, 0, count)])
        assert np.array_equal(triangular_inverse_cdf(*triple, u), former_triangular_inverse_cdf(*triple, u))

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

    @settings(max_examples=200, deadline=None)
    @given(ordered_triples(), st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53]) | st.floats(0.0, 1.0, exclude_max=True))
    def test_scalar_u_gives_the_former_float(self, triple, u):
        value = triangular_inverse_cdf(*triple, u)
        assert type(value) is float
        assert value == former_triangular_inverse_cdf(*triple, u)


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

    def test_deterministic_and_parallel_identical(self):
        model = reference_model()
        ch = characterization(model, 2)
        cfg = SimulationConfig(seed=99, sample_count=20_000)
        serial = simulate(model, ch, FactorKind.EFFECTIVENESS, cfg)
        rerun = simulate(model, ch, FactorKind.EFFECTIVENESS, cfg)
        chunked = simulate(model, ch, FactorKind.EFFECTIVENESS, cfg, chunk_size=1024)
        uneven = simulate(model, ch, FactorKind.EFFECTIVENESS, cfg, chunk_size=3001)
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

    def test_empirical_mean_close_to_analytic(self):
        model = reference_model()
        levels = {f.id: (i % 4) for i, f in enumerate(model.factors)}
        ch = characterization(model, levels)
        for kind in FactorKind:
            dist = simulate(model, ch, kind, SimulationConfig(seed=5, sample_count=100_000))
            assert dist.mean == pytest.approx(analytic_mean(model, ch, kind), rel=0.01)

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
        dist = simulate(model, ch, FactorKind.EFFECTIVENESS, SimulationConfig(seed=7, sample_count=4_000))
        recomputed = EmpiricalDistribution.from_samples(dist.samples)
        assert recomputed.mean == dist.mean
        assert recomputed.sd == dist.sd
        assert recomputed.quantiles == dist.quantiles

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


class TestPortfolioEngine:
    """simulate_portfolio against the per-factor reference loop, byte for byte."""

    @staticmethod
    def portfolio(model, count):
        return [
            characterization(model, {f.id: (i + j) % 4 for j, f in enumerate(model.factors)}, f"P{i}")
            for i in range(count)
        ]

    @pytest.mark.parametrize("chunk_size", [None, 1000, 3001, 65537])
    def test_simulate_matches_reference(self, chunk_size):
        # 70,000 samples span two default blocks of 65,536
        model = reference_model()
        ch = self.portfolio(model, 2)[1]
        cfg = SimulationConfig(seed=31, sample_count=70_000)
        for kind in FactorKind:
            samples = simulate(model, ch, kind, cfg, chunk_size=chunk_size).samples
            assert samples.tobytes() == reference_samples(model, ch, kind, cfg).tobytes()

    @pytest.mark.parametrize("chunk_size", [None, 7])
    def test_every_portfolio_vector_matches_reference(self, chunk_size):
        model = reference_model()
        chs = self.portfolio(model, 9)
        cfg = SimulationConfig(seed=8, sample_count=500)
        for kind in FactorKind:
            vectors = list(simulate_portfolio(model, chs, kind, cfg, chunk_size=chunk_size))
            assert len(vectors) == len(chs)
            for ch, values in zip(chs, vectors):
                assert values.tobytes() == reference_samples(model, ch, kind, cfg).tobytes()

    def test_empty_portfolio_yields_nothing(self):
        model = reference_model()
        assert list(simulate_portfolio(model, [], FactorKind.DEFECT_CONTENT, SimulationConfig(seed=1))) == []

    def test_checks_before_returning(self):
        # the error comes from the call itself, not from iterating its result
        model = reference_model()
        bad = characterization(model, {f.id: 1 for f in model.factors[:-1]})
        with pytest.raises(ModelValidationError):
            simulate_portfolio(model, [bad], FactorKind.DEFECT_CONTENT, SimulationConfig(seed=1))

    def test_bad_chunk_size_rejected(self):
        model = reference_model()
        with pytest.raises(ValueError, match="chunk_size"):
            simulate_portfolio(model, [characterization(model, 1)], FactorKind.DEFECT_CONTENT,
                               SimulationConfig(seed=1), chunk_size=0)


class TestBlockParallelism:
    """Blocks drawn and accumulated on several threads give the serial vectors, byte for byte."""

    @pytest.mark.parametrize("count", [1, 6])
    @pytest.mark.parametrize("samples", [BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 7])
    def test_vectors_match_reference_for_any_cpu_count(self, monkeypatch, samples, count):
        model = reference_model()
        chs = TestPortfolioEngine.portfolio(model, count)  # levels 0-3, so every weight occurs
        cfg = SimulationConfig(seed=19, sample_count=samples)
        for kind in FactorKind:
            expected = [reference_samples(model, ch, kind, cfg).tobytes() for ch in chs]
            for cpus in (1, 4):
                use_cpus(monkeypatch, cpus)
                vectors = [v.tobytes() for v in simulate_portfolio(model, chs, kind, cfg)]
                assert vectors == expected, (kind, cpus)

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
        def no_pool(_threads):
            raise AssertionError("a run on one block or one CPU needs no thread pool")

        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(simulation, "_block_pool", no_pool)
        model = reference_model()
        ch = characterization(model, 3)
        cfg = SimulationConfig(seed=5, sample_count=samples)
        vector = simulate(model, ch, FactorKind.EFFECTIVENESS, cfg).samples
        assert vector.tobytes() == reference_samples(model, ch, FactorKind.EFFECTIVENESS, cfg).tobytes()

    def test_many_small_blocks_on_more_workers_than_cores(self, monkeypatch):
        model = reference_model()
        chs = TestPortfolioEngine.portfolio(model, 3)
        cfg = SimulationConfig(seed=23, sample_count=2 * BLOCK_SIZE + 5)
        expected = [reference_samples(model, ch, FactorKind.EFFECTIVENESS, cfg).tobytes() for ch in chs]
        use_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # 132 draw blocks in 8 shares, then 3 accumulation blocks in 3
            vectors = [v.tobytes() for v in simulate_portfolio(model, chs, FactorKind.EFFECTIVENESS, cfg,
                                                               chunk_size=997)]
        finally:
            sys.setswitchinterval(interval)
        assert vectors == expected

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_runs_its_blocks(self, monkeypatch):
        # the child inherits the pool object but none of its threads
        use_cpus(monkeypatch, 2)
        model = reference_model()
        ch = characterization(model, 2)
        cfg = SimulationConfig(seed=9, sample_count=3 * BLOCK_SIZE + 7)
        expected = reference_samples(model, ch, FactorKind.DEFECT_CONTENT, cfg).tobytes()
        assert simulate(model, ch, FactorKind.DEFECT_CONTENT, cfg).samples.tobytes() == expected  # starts the pool
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

    def test_failed_share_is_raised_after_every_share_ends(self, monkeypatch):
        use_cpus(monkeypatch, 4)
        done = []

        def task(start, stop):
            if start == 2:
                raise MemoryError("block 2")
            done.append((start, stop))

        with pytest.raises(MemoryError, match="block 2"):
            simulation._for_each_block(lambda: task, 10, 1)
        # W = 4: the share of blocks 2 and 6 stops at 2; every other share runs to its end
        assert sorted(done) == [(s, s + 1) for s in (0, 1, 3, 4, 5, 7, 8, 9)]

    def test_memory_bound_is_checked_before_allocating(self, monkeypatch):
        model = reference_model()
        factors = model.factors_of_kind(FactorKind.DEFECT_CONTENT)
        samples = 3 * BLOCK_SIZE + 7
        needed = (len(factors) + 2) * samples * 8
        cfg = SimulationConfig(seed=6, sample_count=samples)
        ch = characterization(model, 1)
        use_cpus(monkeypatch, 4)
        monkeypatch.setattr(simulation, "_physical_memory", lambda: needed - 1)
        monkeypatch.setattr(simulation, "_block_pool", None)  # no thread may start
        monkeypatch.setattr(simulation.np, "empty", None)  # and no draw matrix be allocated
        with pytest.raises(MemoryError, match=f"need {needed} bytes"):
            simulate_portfolio(model, [ch], FactorKind.DEFECT_CONTENT, cfg)
        monkeypatch.undo()
        monkeypatch.setattr(simulation, "_physical_memory", lambda: needed)
        (values,) = simulate_portfolio(model, [ch], FactorKind.DEFECT_CONTENT, cfg)
        assert values.tobytes() == reference_samples(model, ch, FactorKind.DEFECT_CONTENT, cfg).tobytes()


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
