"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hdce import simulation
from hdce.cli import main
from hdce.elicitation import RankingSheet, kendalls_w, select_factors
from hdce.estimation import estimate_baseline, expected_defects_found, predict_defects_found
from hdce.evaluation import Variant, run_validation, wilcoxon_signed_rank
from hdce.io import write_json
from hdce.model import FactorKind
from hdce.planning import build_risk_chart
from hdce.simulation import SimulationConfig, analytic_mean, simulate
from hdce.synthetic import build_synthetic_model, generate_projects
from helpers import (
    DC,
    EXPECTED_DC_SELECTION,
    EXPECTED_EFF_SELECTION,
    PROCESS,
    REFERENCE_MEAN_RANKS,
    brute_force_w,
    characterization,
    exact_model,
    exact_projects,
    model_to_dict,
    oracle_wilcoxon,
    project_to_dict,
    reference_model,
    write_rankings_csv,
)


@contextmanager
def criterion(number, name, budget_seconds=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    if budget_seconds is not None and elapsed > budget_seconds:
        print(f"[acceptance] criterion {number} ({name}): FAIL (took {elapsed:.2f}s > {budget_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s")
    print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_factor_selection():
    with criterion(1, "reference mean ranks select the 5+5 factor set", budget_seconds=1.0):
        selected = select_factors(REFERENCE_MEAN_RANKS)
        dc_selected = {f for f in selected if any(f in REFERENCE_MEAN_RANKS[k] for k in REFERENCE_MEAN_RANKS if k[0] is DC)}
        eff_selected = selected - dc_selected
        assert dc_selected == EXPECTED_DC_SELECTION
        assert eff_selected == EXPECTED_EFF_SELECTION
        assert len(selected) == 10


def test_criterion_2_kendalls_w_oracle():
    with criterion(2, "concordance formula matches brute-force oracle", budget_seconds=5.0):
        rnd = random.Random(20240817)
        for _ in range(200):
            m = rnd.randint(2, 5)
            n = rnd.randint(2, 6)
            rows = []
            for _ in range(m):
                row = list(range(1, n + 1))
                rnd.shuffle(row)
                rows.append(row)
            sheets = [
                RankingSheet(f"e{i}", DC, PROCESS, dict(zip([f"f{j}" for j in range(n)], map(float, row))))
                for i, row in enumerate(rows)
            ]
            assert kendalls_w(sheets) == pytest.approx(brute_force_w(rows), abs=1e-12)

        identical = [
            RankingSheet(f"e{i}", DC, PROCESS, {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
            for i in range(4)
        ]
        assert kendalls_w(identical) == 1.0


def test_criterion_3_monte_carlo_convergence_and_determinism():
    with criterion(3, "Monte Carlo mean within 1% and bit-identical reruns", budget_seconds=10.0):
        model = reference_model()
        level_patterns = [
            {f.id: 3 for f in model.factors},
            {f.id: (i % 4) for i, f in enumerate(model.factors)},
            {f.id: (1 if f.kind is FactorKind.DEFECT_CONTENT else 2) for f in model.factors},
        ]
        cfg = SimulationConfig(seed=424242, sample_count=100_000)
        for levels in level_patterns:
            ch = characterization(model, levels)
            for kind in FactorKind:
                expected = analytic_mean(model, ch, kind)
                dist = simulate(model, ch, kind, cfg)
                assert dist.mean == expected  # the reported mean is exact; the samples converge to it
                assert abs(float(np.mean(dist.samples)) - expected) / expected < 0.01
        ch = characterization(model, level_patterns[1])
        serial = simulate(model, ch, FactorKind.DEFECT_CONTENT, cfg)
        rerun = simulate(model, ch, FactorKind.DEFECT_CONTENT, cfg)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "BLOCK_SIZE", 8192)
            chunked = simulate(model, ch, FactorKind.DEFECT_CONTENT, cfg)
        assert np.array_equal(serial.samples, rerun.samples)
        assert np.array_equal(serial.samples, chunked.samples)


def test_criterion_4_equation_round_trip():
    with criterion(4, "prediction inverts the per-project baseline equation"):
        rng = np.random.default_rng(99)
        model = build_synthetic_model(rng)
        projects = generate_projects(model, 8, rng, noise_sigma=0.3)
        cfg = SimulationConfig(seed=31, sample_count=3000)
        for project in projects:
            ddif = simulate(model, project.characterization, FactorKind.DEFECT_CONTENT, cfg)
            eif = simulate(model, project.characterization, FactorKind.EFFECTIVENESS, cfg)
            pid = project.project_id
            baseline = estimate_baseline([project], {pid: (ddif.mean, eif.mean)})
            scale = expected_defects_found(project.size, ddif.samples, eif.samples)
            prediction = predict_defects_found(project.size, (ddif.mean, eif.mean), scale, baseline)
            assert prediction.point == pytest.approx(project.defects_found, rel=1e-12)


def test_criterion_5_exact_wilcoxon():
    with criterion(5, "exact signed-rank test matches full enumeration"):
        rnd = random.Random(5150)
        for _ in range(100):
            k = rnd.randint(1, 10)
            x = [rnd.uniform(0, 1) for _ in range(k)]
            y = [rnd.uniform(0, 1) for _ in range(k)]
            if rnd.random() < 0.3 and k > 1:
                y[0] = x[0]  # force a zero difference
            result = wilcoxon_signed_rank(x, y)
            assert result.p_value == pytest.approx(oracle_wilcoxon(x, y), abs=1e-12)

        all_positive = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1.0, 1.5, 1.8, 2.0, 2.1])
        assert all_positive.p_value == 0.0625


def test_criterion_6_synthetic_loocv_ordering():
    with criterion(6, "variant ordering holds in >= 80% of 25 replications", budget_seconds=60.0):
        hits = 0
        replications = 25
        for rep in range(replications):
            rng = np.random.default_rng(1000 + rep)
            model = build_synthetic_model(rng)
            projects = generate_projects(model, 6, rng, noise_sigma=0.2)
            cfg = SimulationConfig(seed=6000 + rep, sample_count=2000)
            report = run_validation(
                model, projects, cfg, variants=(Variant.HDCE, Variant.DF_PLUS_SIZE, Variant.DF_ONLY)
            )
            mmre = report.mmre
            hits += mmre[Variant.HDCE] < mmre[Variant.DF_PLUS_SIZE] < mmre[Variant.DF_ONLY]
        assert hits >= 0.8 * replications, f"ordering held in only {hits}/{replications} replications"


def test_criterion_7_risk_chart_invariants():
    with criterion(7, "risk chart mean-centering and scale invariance"):
        rng = np.random.default_rng(7)
        triples = [(f"p{i}", float(rng.uniform(0, 2)), float(rng.uniform(0, 1))) for i in range(7)]
        reference_chart = build_risk_chart(triples, f=1.0)
        assert abs(sum(p.relative_dd for p in reference_chart.points)) < 1e-12
        assert abs(sum(p.relative_eff for p in reference_chart.points)) < 1e-12
        reference_quadrants = [p.quadrant for p in reference_chart.points]
        for f in (0.5, 1.0, 2.0, 10.0):
            chart = build_risk_chart(triples, f=f)
            assert [p.quadrant for p in chart.points] == reference_quadrants


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "every subcommand reruns byte-identically"):
        model_path = tmp_path / "model.json"
        projects_path = tmp_path / "projects.json"
        rankings_path = tmp_path / "rankings.csv"
        write_json(model_path, model_to_dict(exact_model()))
        write_json(projects_path, [project_to_dict(p) for p in exact_projects()])
        write_rankings_csv(rankings_path)

        def run_twice(name, args, outputs):
            artifacts = []
            for tag in ("one", "two"):
                run_dir = tmp_path / f"{name}-{tag}"
                run_dir.mkdir()
                paths = {key: run_dir / filename for key, filename in outputs.items()}
                argv = [arg.format(**{k: str(v) for k, v in paths.items()}) for arg in args]
                assert main(argv) == 0, f"{name} failed"
                artifacts.append({key: path.read_bytes() for key, path in paths.items()})
            assert artifacts[0] == artifacts[1], f"{name} output differs between reruns"

        run_twice(
            "rank-analyze",
            ["rank-analyze", "--rankings", str(rankings_path), "--out", "{out}"],
            {"out": "analysis.json"},
        )
        run_twice(
            "model-check",
            ["model-check", "--model", str(model_path), "--projects", str(projects_path), "--out", "{out}"],
            {"out": "diagnostics.json"},
        )
        run_twice(
            "simulate",
            [
                "simulate", "--model", str(model_path), "--projects", str(projects_path),
                "--project", "E1", "--kind", "dc", "--seed", "21", "--samples", "1500",
                "--out", "{out}", "--emit-samples",
            ],
            {"out": "distribution.json"},
        )
        run_twice(
            "plan",
            [
                "plan", "--model", str(model_path), "--projects", str(projects_path),
                "--seed", "21", "--samples", "1500", "--out", "{out}", "--svg", "{svg}",
            ],
            {"out": "chart.csv", "svg": "chart.svg"},
        )
        run_twice(
            "predict",
            [
                "predict", "--model", str(model_path), "--projects", str(projects_path),
                "--target", "E1", "--seed", "21", "--samples", "1500", "--out", "{out}",
            ],
            {"out": "prediction.json"},
        )
        run_twice(
            "validate",
            [
                "validate", "--model", str(model_path), "--projects", str(projects_path),
                "--seed", "21", "--samples", "800", "--out", "{out}", "--re-csv", "{csv}",
            ],
            {"out": "report.json", "csv": "report.re.csv"},
        )
