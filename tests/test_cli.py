import concurrent.futures
import errno
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import hdce
from hdce import evaluation, planning, simulation
from hdce.cli import main
from hdce.elicitation import MAX_GROUP_SIZE
from hdce.io import MAX_INPUT_BYTES, load_model, load_projects, sha256_file, write_json
from hdce.synthetic import build_synthetic_model, generate_projects
from helpers import (
    EXPECTED_DC_SELECTION,
    EXPECTED_EFF_SELECTION,
    exact_model,
    exact_projects,
    former_prediction,
    model_to_dict,
    project_to_dict,
    reference_model,
    use_cpus,
    write_rankings_csv,
)


@pytest.fixture
def rankings_csv(tmp_path):
    path = tmp_path / "rankings.csv"
    write_rankings_csv(path)
    return path


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    write_json(path, model_to_dict(exact_model()))
    return path


@pytest.fixture
def projects_file(tmp_path):
    path = tmp_path / "projects.json"
    rows = [project_to_dict(p) for p in exact_projects()]
    # one planned project without measured defects
    planned = project_to_dict(exact_projects()[0])
    planned["project_id"] = "NEW"
    del planned["defects_found"]
    rows.append(planned)
    write_json(path, rows)
    return path


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


EXAMPLES = Path(__file__).resolve().parents[1] / "schemas" / "examples"


class TestRankAnalyze:
    def test_full_pipeline_selects_five_plus_five(self, rankings_csv, tmp_path):
        out = tmp_path / "analysis.json"
        code = main(["rank-analyze", "--rankings", str(rankings_csv), "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert set(report["selected"]) == EXPECTED_DC_SELECTION | EXPECTED_EFF_SELECTION
        assert len(report["categories"]) == 6
        starred = {
            (c["kind"], c["category"]): c["significant"] for c in report["categories"]
        }
        assert starred[("DefectContent", "ProcessPersonnel")] is True
        assert starred[("Effectiveness", "Product")] is False
        assert (tmp_path / "analysis.json.manifest.json").exists()

    def test_empty_file_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "rankings.csv"
        empty.write_text("", encoding="utf-8")
        code = main(["rank-analyze", "--rankings", str(empty), "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: [empty-input] rankings file {empty} is empty\n"

    def test_single_expert_reports_w_unavailable(self, tmp_path):
        path = tmp_path / "rankings.csv"
        path.write_text(
            "expert_id,kind,category,factor_id,rank\n"
            "e1,DefectContent,Product,f1,1\n"
            "e1,DefectContent,Product,f2,2\n",
            encoding="utf-8",
        )
        out = tmp_path / "analysis.json"
        assert main(["rank-analyze", "--rankings", str(path), "--out", str(out)]) == 0
        report = read_json(out)
        category = report["categories"][0]
        assert category["kendalls_w"] is None
        assert "fewer than 2 experts" in category["w_note"]
        assert report["selected"] == ["f1"]

    def test_malformed_row_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "rankings.csv"
        path.write_text(
            "expert_id,kind,category,factor_id,rank\ne1,DefectContent,Product,f1\n", encoding="utf-8"
        )
        code = main(["rank-analyze", "--rankings", str(path), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("factors, code", [(MAX_GROUP_SIZE, 0), (MAX_GROUP_SIZE + 1, 1)])
    def test_group_size_bound(self, factors, code, tmp_path, capsys):
        # two experts in opposite orders; one factor past the bound is an input error with no output
        rows = [f"e{e},DefectContent,Product,f{i},{i + 1 if e == 1 else factors - i}"
                for e in (1, 2) for i in range(factors)]
        path = tmp_path / "rankings.csv"
        path.write_text("expert_id,kind,category,factor_id,rank\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "analysis.json"
        assert main(["rank-analyze", "--rankings", str(path), "--out", str(out)]) == code
        if code:
            assert capsys.readouterr().err == (
                f"error: [input-format] category DefectContent/Product has {factors} factors; at most {MAX_GROUP_SIZE} are supported\n"
            )
            assert list(tmp_path.iterdir()) == [path]
        else:
            assert read_json(out)["categories"][0]["p_value"] == 1.0  # W = 0: complete disagreement

    def test_field_over_the_csv_limit_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "rankings.csv"
        path.write_text(f"expert_id,kind,category,factor_id,rank\ne1,DefectContent,Product,{'x' * 200_000},1\n",
                        encoding="utf-8")
        out = tmp_path / "o.json"
        assert main(["rank-analyze", "--rankings", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [input-format] {path}:2: field larger than field limit (131072)\n"
        assert not out.exists()


class TestModelCheck:
    def test_valid_model_passes(self, model_file, projects_file, tmp_path):
        out = tmp_path / "diag.json"
        code = main(
            ["model-check", "--model", str(model_file), "--projects", str(projects_file), "--out", str(out)]
        )
        assert code == 0
        assert read_json(out)["errors"] == 0

    def test_broken_model_fails(self, tmp_path, capsys):
        data = model_to_dict(reference_model())
        data["factors"][0]["multiplier"] = {"min": 0.3, "most_likely": 0.2, "max": 0.4}
        path = tmp_path / "model.json"
        write_json(path, data)
        code = main(["model-check", "--model", str(path)])
        assert code == 1
        assert "multiplier-order" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["model-check", "--model", str(tmp_path / "nope.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: [file-not-found] file not found: {tmp_path / 'nope.json'}\n"

    def test_non_utf8_model_is_input_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_bytes(bytes(range(128, 256)))
        assert main(["model-check", "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: [input-format] model file {path}: not UTF-8 text" in err

    def test_strict_mode_rejects_unknown_fields(self, tmp_path):
        data = model_to_dict(exact_model())
        data["future_field"] = 1
        path = tmp_path / "model.json"
        write_json(path, data)
        assert main(["model-check", "--model", str(path)]) == 0
        assert main(["model-check", "--model", str(path), "--strict"]) == 1


class TestSimulate:
    def test_output_and_determinism(self, model_file, projects_file, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = [
            "simulate", "--model", str(model_file), "--projects", str(projects_file),
            "--project", "E1", "--kind", "dc", "--seed", "7", "--samples", "2000",
        ]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = read_json(out_a)
        assert payload["mean"] == pytest.approx(0.25)
        assert "samples" not in payload
        assert set(payload["quantiles"]) == {"0.05", "0.1", "0.25", "0.5", "0.75", "0.9", "0.95"}

    def test_emit_samples(self, model_file, projects_file, tmp_path):
        out = tmp_path / "s.json"
        code = main([
            "simulate", "--model", str(model_file), "--projects", str(projects_file),
            "--project", "E1", "--kind", "eff", "--seed", "3", "--samples", "50",
            "--out", str(out), "--emit-samples",
        ])
        assert code == 0
        assert len(read_json(out)["samples"]) == 50

    def test_seed_is_required(self, model_file, projects_file, tmp_path, capsys):
        code = main([
            "simulate", "--model", str(model_file), "--projects", str(projects_file),
            "--project", "E1", "--kind", "dc", "--out", str(tmp_path / "o.json"),
        ])
        assert code == 2
        capsys.readouterr()

    def test_unknown_project_is_validation_error(self, model_file, projects_file, tmp_path, capsys):
        code = main([
            "simulate", "--model", str(model_file), "--projects", str(projects_file),
            "--project", "GHOST", "--kind", "dc", "--seed", "1", "--out", str(tmp_path / "o.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: [not-found] project 'GHOST' not found in {projects_file}\n"

    def test_out_of_memory_is_a_coded_error(self, model_file, projects_file, tmp_path, capsys, monkeypatch):
        # stands in for --samples 2000000000, whose draws cannot be allocated
        def exhausted(*_args, **_kwargs):
            raise MemoryError

        monkeypatch.setattr(simulation, "draw_vector", exhausted)
        out = tmp_path / "o.json"
        code = main([
            "simulate", "--model", str(model_file), "--projects", str(projects_file),
            "--project", "E1", "--kind", "dc", "--seed", "1", "--samples", "2000000000", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: [out-of-memory] out of memory" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestPlan:
    def test_chart_csv_and_svg(self, model_file, projects_file, tmp_path, capsys):
        out = tmp_path / "chart.csv"
        svg = tmp_path / "chart.svg"
        code = main([
            "plan", "--model", str(model_file), "--projects", str(projects_file),
            "--seed", "5", "--samples", "1000", "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "project_id,relative_dd,relative_eff,quadrant"
        assert len(lines) == 1 + 6  # five historical + one planned
        assert svg.read_text(encoding="utf-8").startswith("<svg")
        err = capsys.readouterr().err
        assert "E1: Q" in err

    def test_rerun_is_byte_identical(self, model_file, projects_file, tmp_path):
        args = [
            "plan", "--model", str(model_file), "--projects", str(projects_file),
            "--seed", "5", "--samples", "500",
        ]
        out_a, svg_a = tmp_path / "a.csv", tmp_path / "a.svg"
        out_b, svg_b = tmp_path / "b.csv", tmp_path / "b.svg"
        assert main(args + ["--out", str(out_a), "--svg", str(svg_a)]) == 0
        assert main(args + ["--out", str(out_b), "--svg", str(svg_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert svg_a.read_bytes() == svg_b.read_bytes()

    def test_svg_is_opened_with_lf_endings(self, model_file, projects_file, tmp_path, monkeypatch):
        # Path.write_text would write the platform's line ending (CRLF on Windows)
        opened = []

        def recording_open(file, mode="r", **kwargs):
            opened.append((os.path.basename(file), mode, kwargs.get("newline")))
            return open(file, mode, **kwargs)

        monkeypatch.setattr(hdce.io, "open", recording_open, raising=False)
        svg = tmp_path / "chart.svg"
        assert main([
            "plan", "--model", str(model_file), "--projects", str(projects_file), "--seed", "5",
            "--out", str(tmp_path / "chart.csv"), "--svg", str(svg),
        ]) == 0
        assert [(mode, newline) for name, mode, newline in opened
                if name.startswith(".chart.svg.") and mode != "rb"] == [("w", "\n")]
        assert svg.read_bytes().count(b"\n") > 1 and b"\r" not in svg.read_bytes()


    def test_missing_history_is_reported_before_any_draw(self, model_file, tmp_path, monkeypatch, capsys):
        # no project has defects_found, and one has a level the engine would refuse
        rows = [project_to_dict(p) for p in exact_projects()]
        for row in rows:
            del row["defects_found"]
        rows[1]["levels"]["exact-dc-1"] = 4
        projects = tmp_path / "projects.json"
        write_json(projects, rows)

        def no_draw(*_args):
            raise AssertionError("plan draws nothing for a portfolio without history")

        monkeypatch.setattr(evaluation, "project_factor_means", no_draw)
        out = tmp_path / "chart.csv"
        code = main([
            "plan", "--model", str(model_file), "--projects", str(projects),
            "--seed", "5", "--samples", "1000", "--out", str(out),
        ])
        assert code == 1
        assert "error: [no-history] no historical project (with defects_found) to anchor the chart" in capsys.readouterr().err
        assert not out.exists()


class TestPredict:
    def test_predict_planned_project(self, model_file, projects_file, tmp_path):
        out = tmp_path / "prediction.json"
        code = main([
            "predict", "--model", str(model_file), "--projects", str(projects_file),
            "--target", "NEW", "--seed", "11", "--samples", "2000", "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        # NEW clones E1 (size 64, degenerate factors): baseline is exactly 0.25
        assert payload["baseline"] == pytest.approx(0.25)
        assert payload["point"] == pytest.approx(64 * 1.25 * 1.25 * 0.25)
        assert payload["interval"][0] <= payload["point"] <= payload["interval"][1]
        assert len(payload["per_project_eq5_values"]) == 5

    def test_missing_target_is_validation_error(self, model_file, projects_file, tmp_path, capsys):
        code = main([
            "predict", "--model", str(model_file), "--projects", str(projects_file),
            "--target", "GHOST", "--seed", "1", "--out", str(tmp_path / "o.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: [not-found] target project 'GHOST' not found in {projects_file}\n"

    def test_custom_quantiles(self, model_file, projects_file, tmp_path):
        out = tmp_path / "prediction.json"
        code = main([
            "predict", "--model", str(model_file), "--projects", str(projects_file),
            "--target", "E1", "--seed", "11", "--samples", "500",
            "--quantiles", "0.25,0.75", "--out", str(out),
        ])
        assert code == 0
        assert read_json(out)["quantile_pair"] == [0.25, 0.75]


class TestOneMeanPerProject:
    """simulate, plan, predict and validate report one mean for a project: the exact analytic_mean."""

    @pytest.mark.parametrize("samples", [1000, 70_000])
    def test_every_reported_mean_is_the_analytic_mean(self, tmp_path, monkeypatch, samples):
        files = ["--model", str(EXAMPLES / "model.json"), "--projects", str(EXAMPLES / "projects.json")]
        seeded = ["--seed", "7", "--samples", str(samples)]
        model = load_model(EXAMPLES / "model.json")
        exact = {p.project_id: tuple(simulation.analytic_mean(model, p.characterization, kind)
                                     for kind in simulation.FactorKind)
                 for p in load_projects(EXAMPLES / "projects.json")}
        simulated = []
        for kind in ("dc", "eff"):
            out = tmp_path / f"{kind}.json"
            assert main(["simulate", *files, "--project", "review-c", "--kind", kind, *seeded, "--out", str(out)]) == 0
            simulated.append(read_json(out)["mean"])
        assert tuple(simulated) == exact["review-c"]
        charted, validated = {}, []
        build_risk_chart, fold_columns = planning.build_risk_chart, evaluation._fold_columns

        def recorded_chart(triples, *args, **kwargs):
            charted.update((pid, (ddif, eif)) for pid, ddif, eif in triples)
            return build_risk_chart(triples, *args, **kwargs)

        def recorded_fold_columns(usable, means):
            validated.append(dict(means))
            return fold_columns(usable, means)

        monkeypatch.setattr(planning, "build_risk_chart", recorded_chart)
        monkeypatch.setattr(evaluation, "_fold_columns", recorded_fold_columns)
        assert main(["plan", *files, *seeded, "--out", str(tmp_path / "chart.csv")]) == 0
        assert charted == exact
        for target in ("review-c", "review-next"):
            out = tmp_path / f"prediction-{target}.json"
            assert main(["predict", *files, "--target", target, *seeded, "--out", str(out)]) == 0
            predicted = read_json(out)
            assert (predicted["ddif_mean"], predicted["eif_mean"]) == exact[target]
        assert main(["validate", *files, *seeded, "--out", str(tmp_path / "report.json")]) == 0
        history = {pid: pair for pid, pair in exact.items() if pid != "review-next"}
        assert validated == [history]  # one set of fold columns, shared by every variant


class TestExactMeans:
    """plan and validate draw nothing: their outputs depend on neither --seed nor --samples."""

    FILES = ["--model", str(EXAMPLES / "model.json"), "--projects", str(EXAMPLES / "projects.json")]

    def outputs(self, tmp_path, command, seed, samples):
        run = tmp_path / f"{command}-{seed}-{samples}"
        run.mkdir()
        argv = [command, *self.FILES, "--seed", str(seed), "--samples", str(samples)]
        if command == "plan":
            argv += ["--out", str(run / "chart.csv"), "--svg", str(run / "chart.svg")]
        else:
            argv += ["--out", str(run / "report.json")]
        assert main(argv) == 0
        return {path.name: path.read_bytes() for path in run.iterdir() if not path.name.endswith(".manifest.json")}

    @pytest.mark.parametrize("command", ["plan", "validate"])
    def test_outputs_do_not_depend_on_seed_or_samples(self, tmp_path, command):
        reference = self.outputs(tmp_path, command, 1, 1)
        assert len(reference) == 2  # chart.csv and chart.svg, or report.json and its re.csv
        for seed, samples in [(2, 1), (1, 100_000), (2, 100_000)]:
            assert self.outputs(tmp_path, command, seed, samples) == reference, (seed, samples)

    @pytest.mark.parametrize("command", ["plan", "validate"])
    def test_draws_no_uniform(self, tmp_path, monkeypatch, command):
        def no_draw(*_args):
            raise AssertionError(f"{command} draws nothing")

        monkeypatch.setattr(simulation, "counter_uniforms", no_draw)
        assert len(self.outputs(tmp_path, command, 7, 10_000)) == 2


class TestPredictOnePass:
    """predict draws only the target's factors, each once; the history's means are exact."""

    EXAMPLES = Path(__file__).resolve().parents[1] / "schemas" / "examples"

    def run(self, tmp_path, samples, target="review-next"):
        out = tmp_path / "prediction.json"
        code = main([
            "predict", "--model", str(self.EXAMPLES / "model.json"), "--projects", str(self.EXAMPLES / "projects.json"),
            "--target", target, "--seed", "7", "--samples", str(samples), "--out", str(out),
        ])
        assert code == 0
        return read_json(out)

    def test_output_equals_former_two_simulate_path(self, tmp_path):
        model = load_model(self.EXAMPLES / "model.json")
        projects = {p.project_id: p for p in load_projects(self.EXAMPLES / "projects.json")}
        target = projects.pop("review-next")
        history = [p for p in projects.values() if p.defects_found is not None]
        cfg = simulation.SimulationConfig(seed=7, sample_count=20_000)
        point, interval, ddif_mean, eif_mean = former_prediction(model, history, target, cfg)
        payload = self.run(tmp_path, 20_000)
        assert (payload["point"], tuple(payload["interval"])) == (point, interval)
        assert (payload["ddif_mean"], payload["eif_mean"]) == (ddif_mean, eif_mean)

    @pytest.mark.parametrize("target", ["review-next", "review-c"])  # review-c has level-0 factors of both kinds
    def test_draws_exactly_the_targets_nonzero_level_factors_once(self, tmp_path, monkeypatch, target):
        drawn = {}
        counter_uniforms = simulation.counter_uniforms

        def recorded(seed, stream, start, count):
            drawn.setdefault(stream, []).append((start, count))
            return counter_uniforms(seed, stream, start, count)

        def no_summary(*_args, **_kwargs):
            raise AssertionError("predict needs no simulate call and no quantile summary")

        monkeypatch.setattr(simulation, "counter_uniforms", recorded)
        monkeypatch.setattr(simulation, "simulate", no_summary)
        monkeypatch.setattr(simulation.EmpiricalDistribution, "from_samples", no_summary)
        samples = 100_000  # two blocks per factor
        self.run(tmp_path, samples, target)
        model = load_model(self.EXAMPLES / "model.json")
        levels = next(p for p in load_projects(self.EXAMPLES / "projects.json") if p.project_id == target).characterization.levels
        assert set(drawn) == {simulation.factor_stream(f.id) for f in model.factors if levels[f.id]}
        blocks = [(0, simulation.BLOCK_SIZE), (simulation.BLOCK_SIZE, samples - simulation.BLOCK_SIZE)]
        for ranges in drawn.values():
            assert sum(count for _, count in ranges) == samples
            assert sorted(ranges) == blocks


class TestPredictOnSeveralCpus:
    """predict above one block: the same bytes on any CPU count, and coded memory errors."""

    SAMPLES = 3 * simulation.BLOCK_SIZE + 7

    def run(self, out):
        return main([
            "predict", "--model", str(EXAMPLES / "model.json"), "--projects", str(EXAMPLES / "projects.json"),
            "--target", "review-next", "--seed", "7", "--samples", str(self.SAMPLES), "--out", str(out),
        ])

    def test_prediction_bytes_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch):
        outputs = []
        for cpus in (1, 4):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / f"prediction-{cpus}.json"
            assert self.run(out) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_memory_error_in_a_later_block_is_a_coded_error(self, tmp_path, monkeypatch, capsys):
        counter_uniforms = simulation.counter_uniforms

        def exhausted_after_first_block(seed, stream, start, count):
            if start > 0:  # with 4 CPUs, every block after the first is drawn on a block thread
                raise MemoryError
            return counter_uniforms(seed, stream, start, count)

        use_cpus(monkeypatch, 4)
        monkeypatch.setattr(simulation, "counter_uniforms", exhausted_after_first_block)
        out = tmp_path / "prediction.json"
        assert self.run(out) == 1
        err = capsys.readouterr().err
        assert "error: [out-of-memory] out of memory" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_draws_beyond_physical_memory_are_refused_before_any_thread(self, tmp_path, monkeypatch, capsys):
        model = load_model(EXAMPLES / "model.json")
        factors = len(model.factors)  # one pass draws both kinds, and review-next has no level-0 factor
        # predict keeps one vector, the target's per-sample scale; each of the 4 shares holds a block
        # of one draw row, two uniform temporaries and the target's DDIF and EIF, whatever the factor count
        needed = self.SAMPLES * 8 + 4 * 5 * simulation.BLOCK_SIZE * 8

        def no_pool(*_args, **_kwargs):
            raise AssertionError("no thread may start before the memory bound is checked")

        use_cpus(monkeypatch, 4)
        monkeypatch.setattr(simulation, "_physical_memory", lambda: needed - 1)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        out = tmp_path / "prediction.json"
        assert self.run(out) == 1
        err = capsys.readouterr().err
        assert f"error: [out-of-memory] out of memory: {self.SAMPLES} samples of {factors} factors " \
               f"need {needed} bytes, more than physical memory; a smaller --samples needs less" in err
        assert not out.exists()


def _address_space_limit():
    # a child that planned per block before its memory bound would grow until the limit, not
    # until the machine runs out
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestSampleCountBeyondMemory:
    """The engine's memory bound comes before any per-block work, so any --samples ends in
    [out-of-memory] at once."""

    @pytest.mark.parametrize("subcommand", [
        ["simulate", "--project", "review-c", "--kind", "dc"],
        ["predict", "--target", "review-next"],
    ], ids=["simulate", "predict"])
    def test_10_to_the_18_samples_refused_within_seconds(self, subcommand, tmp_path):
        out = tmp_path / "out.json"
        # one BLAS thread, so that numpy's own address space stays far below the limit
        env = dict(os.environ, PYTHONPATH=str(Path(hdce.__file__).parents[1]), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "hdce.cli", *subcommand, "--model", str(EXAMPLES / "model.json"),
             "--projects", str(EXAMPLES / "projects.json"), "--seed", "7", "--samples", str(10**18),
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60, preexec_fn=_address_space_limit,
        )
        assert time.monotonic() - started < 10
        assert proc.returncode == 1
        assert f"error: [out-of-memory] out of memory: {10**18} samples" in proc.stderr
        assert "more than physical memory" in proc.stderr
        assert list(tmp_path.iterdir()) == []


class TestValidate:
    def test_full_run_covers_all_variants(self, model_file, projects_file, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "validate", "--model", str(model_file), "--projects", str(projects_file),
            "--seed", "13", "--samples", "500", "--out", str(out),
        ])
        assert code == 0
        report = read_json(out)
        assert len(report["variants"]) == 6
        assert all(len(report["records"][v]) == 5 for v in report["variants"])
        assert len(report["comparisons"]) == 15
        # exact noise-free fixture: the full model inverts the generator
        assert report["mmre"]["HDCE"] == 0.0
        re_csv = tmp_path / "report.json.re.csv"
        lines = re_csv.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "variant,project_id,re"
        assert len(lines) == 1 + 6 * 5

    def test_variant_subset(self, model_file, projects_file, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "validate", "--model", str(model_file), "--projects", str(projects_file),
            "--seed", "13", "--samples", "200", "--variants", "HDCE,DF_only", "--out", str(out),
        ])
        assert code == 0
        assert read_json(out)["variants"] == ["HDCE", "DF_only"]

    def test_unknown_variant_is_usage_error(self, model_file, projects_file, tmp_path, capsys):
        code = main([
            "validate", "--model", str(model_file), "--projects", str(projects_file),
            "--seed", "13", "--variants", "Turbo", "--out", str(tmp_path / "o.json"),
        ])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("variants", ["HDCE,HDCE", "DF_only, HDCE,DF_only"])
    def test_repeated_variant_is_usage_error(self, variants, model_file, projects_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "validate", "--model", str(model_file), "--projects", str(projects_file),
            "--seed", "13", "--samples", "200", "--variants", variants, "--out", str(out),
        ])
        assert code == 2
        repeated = variants.split(",")[0]
        assert f"variant {repeated!r} is listed more than once" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.glob("report.json*"))

    def test_rerun_is_byte_identical(self, model_file, projects_file, tmp_path):
        args = [
            "validate", "--model", str(model_file), "--projects", str(projects_file),
            "--seed", "13", "--samples", "300",
        ]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.json.re.csv").read_bytes() == (tmp_path / "b.json.re.csv").read_bytes()


class TestNonFiniteInputs:
    """Non-finite numbers end in a coded exit, never a hang or a traceback."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["rank-analyze", "--rankings", "{rankings}", "--threshold={value}"],
            ["rank-analyze", "--rankings", "{rankings}", "--alpha={value}"],
            ["plan", "--model", "{model}", "--projects", "{projects}", "--seed", "1", "--scale-factor={value}"],
            ["validate", "--model", "{model}", "--projects", "{projects}", "--seed", "1", "--alpha={value}"],
        ],
        ids=["threshold", "rank-alpha", "scale-factor", "validate-alpha"],
    )
    def test_float_flags_rejected_before_any_output(
        self, argv, value, rankings_csv, model_file, projects_file, tmp_path, capsys
    ):
        out = tmp_path / "out"
        paths = {"rankings": rankings_csv, "model": model_file, "projects": projects_file}
        code = main([a.format(value=value, **paths) for a in argv] + ["--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "1", "2", "-0.05"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["rank-analyze", "--rankings", "{rankings}", "--alpha={value}"],
            ["validate", "--model", "{model}", "--projects", "{projects}", "--seed", "1", "--alpha={value}"],
        ],
        ids=["rank-alpha", "validate-alpha"],
    )
    def test_alpha_outside_unit_interval_rejected_before_any_output(
        self, argv, value, rankings_csv, model_file, projects_file, tmp_path, capsys
    ):
        out = tmp_path / "out"
        paths = {"rankings": rankings_csv, "model": model_file, "projects": projects_file}
        code = main([a.format(value=value, **paths) for a in argv] + ["--out", str(out)])
        assert code == 2
        assert "probability in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-0.0", "-1"])
    def test_scale_factor_not_positive_rejected_before_any_output(
        self, value, model_file, projects_file, tmp_path, capsys, monkeypatch
    ):
        def no_input(*_args, **_kwargs):
            raise AssertionError("read an input before rejecting --scale-factor")

        monkeypatch.setattr(hdce.io, "load_model", no_input)
        out = tmp_path / "chart.csv"
        code = main([
            "plan", "--model", str(model_file), "--projects", str(projects_file), "--seed", "1",
            f"--scale-factor={value}", "--out", str(out),
        ])
        assert code == 2
        assert "expected a number > 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("chart.csv*"))

    @pytest.mark.parametrize("value", ["0.5"])
    def test_threshold_below_one_rejected_before_any_output(self, value, rankings_csv, tmp_path, capsys, monkeypatch):
        def no_input(*_args, **_kwargs):
            raise AssertionError("read an input before rejecting --threshold")

        monkeypatch.setattr(hdce.io, "load_rankings", no_input)
        out = tmp_path / "analysis.json"
        code = main(["rank-analyze", "--rankings", str(rankings_csv), f"--threshold={value}", "--out", str(out)])
        assert code == 2
        assert "expected a number >= 1.0" in capsys.readouterr().err
        assert not list(tmp_path.glob("analysis.json*"))

    @pytest.mark.parametrize("literal", ["Infinity", "NaN", "1e400"])
    @pytest.mark.parametrize("field", ["size", "max"])
    def test_json_literal_is_input_error(self, field, literal, model_file, projects_file, tmp_path):
        # let through, these give NaN MRE differences and the Wilcoxon ranking never ends
        target = projects_file if field == "size" else model_file
        text = re.sub(rf'("{field}": )[^,\n]+', rf"\g<1>{literal}", target.read_text(encoding="utf-8"), count=1)
        target.write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(hdce.__file__).parents[1]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "hdce.cli", "validate", "--model", str(model_file),
                "--projects", str(projects_file), "--seed", "1", "--samples", "64",
                "--out", str(tmp_path / "report.json"),
            ],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f'.{field}: expected a finite number' in proc.stderr


class TestNonFiniteResults:
    """Finite inputs whose results overflow the float range end in one coded error, no warning."""

    SAMPLES = 3 * simulation.BLOCK_SIZE + 7
    CAUSES = "an input near the largest double, or a tiny size against a huge defect count"
    ADD = f"error: [non-finite-result] overflow encountered in add: {CAUSES}"
    MULTIPLY = f"error: [non-finite-result] overflow encountered in multiply: {CAUSES}"
    DIVIDE = f"error: [non-finite-result] overflow encountered in divide: {CAUSES}"

    @staticmethod
    def inputs(tmp_path, multipliers=(), sizes=None, defects=None):
        model, projects = read_json(EXAMPLES / "model.json"), read_json(EXAMPLES / "projects.json")
        for factor, multiplier in zip(model["factors"], multipliers):
            factor["multiplier"] = multiplier
        for project in projects:
            project["size"] = (sizes or {}).get(project["project_id"], project["size"])
            if project["project_id"] in (defects or {}):
                project["defects_found"] = defects[project["project_id"]]
        write_json(tmp_path / "model.json", model)
        write_json(tmp_path / "projects.json", projects)
        return ["--model", str(tmp_path / "model.json"), "--projects", str(tmp_path / "projects.json")]

    def assert_one_coded_error(self, argv, tmp_path, capsys, message, samples=SAMPLES):
        out = tmp_path / "out" / "result"
        out.parent.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--seed", "1", "--samples", str(samples), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert [str(w.message) for w in caught] == []
        assert not list(out.parent.iterdir())

    COMMANDS = pytest.mark.parametrize(
        "command",
        [["simulate", "--project", "review-a", "--kind", "dc"], ["plan"], ["predict", "--target", "review-next"],
         ["validate"]],
        ids=["simulate", "plan", "predict", "validate"],
    )

    @pytest.mark.parametrize("cpus", [1, 4])
    @COMMANDS
    def test_huge_multiplier(self, command, cpus, tmp_path, capsys, monkeypatch):
        # 0 + 1e307 + 1.7e308 overflows in the exact mean, before any draw
        use_cpus(monkeypatch, cpus)
        files = self.inputs(tmp_path, [{"min": 0, "most_likely": 1e307, "max": 1.7e308}])
        self.assert_one_coded_error(command + files, tmp_path, capsys, self.ADD)

    @COMMANDS
    def test_mean_overflow_of_two_factors(self, command, tmp_path, capsys):
        # the first two defect-content multipliers are all 1e308: a Python float sum, which
        # overflows to inf silently, once ended plan in "non-finite float -inf cannot be serialized"
        files = self.inputs(tmp_path, [{"min": 1e308, "most_likely": 1e308, "max": 1e308}] * 2)
        self.assert_one_coded_error(command + files, tmp_path, capsys, self.ADD, samples=1)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_huge_target_size(self, cpus, tmp_path, capsys, monkeypatch):
        use_cpus(monkeypatch, cpus)
        files = self.inputs(tmp_path, sizes={"review-next": 1.7e308})
        self.assert_one_coded_error(["predict", "--target", "review-next"] + files, tmp_path, capsys, self.MULTIPLY)

    def test_point_overflow_with_finite_samples(self, tmp_path, capsys):
        # the one sample at seed 1 lies below the means, so only the point's Python float product overflows
        model = load_model(EXAMPLES / "model.json")
        ch = next(p for p in load_projects(EXAMPLES / "projects.json") if p.project_id == "review-next").characterization
        ddif, eif = (simulation.analytic_mean(model, ch, kind) for kind in simulation.FactorKind)
        files = self.inputs(tmp_path, sizes={"review-next": 1.7976e308 / ((1 + ddif) * (1 + eif)) * 1.01})
        argv = ["predict", "--target", "review-next"] + files
        self.assert_one_coded_error(argv, tmp_path, capsys, self.MULTIPLY, samples=1)

    @pytest.mark.parametrize("command", [["validate"], ["predict", "--target", "review-next"]],
                             ids=["validate", "predict"])
    def test_huge_history_size(self, command, tmp_path, capsys):
        # a history project's scale Size*(1+DDIF)*(1+EIF) overflows: validate once reported "paired
        # samples must be finite", and predict wrote an eq. 5 value of DF/inf = 0 and exited 0
        files = self.inputs(tmp_path, sizes={"review-a": 1.7e308})
        self.assert_one_coded_error(command + files, tmp_path, capsys, self.MULTIPLY)

    @staticmethod
    def eq5_overflow(tmp_path, count):
        # eq. 5 gives DF / (Size*(1+DDIF)*(1+EIF)) = 1e300 / (about 1e-300) for the first count history projects
        ids = ["review-a", "review-b", "review-c"][:count]
        return TestNonFiniteResults.inputs(tmp_path, sizes=dict.fromkeys(ids, 1e-300),
                                           defects=dict.fromkeys(ids, 10**300))

    @pytest.mark.parametrize("command, count", [(["predict", "--target", "review-next"], 1), (["validate"], 3)],
                             ids=["predict", "validate"])
    def test_eq5_overflow(self, command, count, tmp_path, capsys):
        # predict once ended in "non-finite float inf cannot be serialized"; validate, whose fold
        # medians are inf once most of a fold overflows, in "paired samples must be finite"
        self.assert_one_coded_error(command + self.eq5_overflow(tmp_path, count), tmp_path, capsys, self.DIVIDE)

    def test_eq5_overflow_of_one_project_leaves_validate_finite(self, tmp_path, capsys):
        # one inf ratio among five: every fold's median stays finite, so validate reports as before
        out = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["validate"] + self.eq5_overflow(tmp_path, 1) + ["--seed", "1", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        records = [r for records in read_json(out)["records"].values() for r in records]
        assert len(records) == 6 * 5 and all(math.isfinite(r["predicted"]) for r in records)

    def test_sd_of_samples_past_1e154(self, tmp_path, capsys):
        # np.std's squares of these samples overflow: simulate once ended in "overflow encountered in reduce"
        files = self.inputs(tmp_path, [{"min": 0, "most_likely": 0, "max": 1.3e154}])
        out = tmp_path / "ddif.json"
        argv = ["simulate", "--project", "review-c", "--kind", "dc", "--seed", "1", "--out", str(out)]
        assert main(argv + files) == 0, capsys.readouterr().err
        assert 1e153 < read_json(out)["sd"] < 1e154

    def test_svg_of_a_huge_scale_factor(self, tmp_path, capsys):
        # the chart is finite, but the SVG's margin around it once overflowed into nan coordinates
        out = tmp_path / "chart.csv"
        argv = ["plan", "--seed", "1", "--scale-factor", "1.7e308", "--out", str(out), "--svg", str(tmp_path / "c.svg")]
        assert main(argv + self.inputs(tmp_path)) == 0, capsys.readouterr().err
        assert "nan" not in out.read_text(encoding="utf-8") and "inf" not in out.read_text(encoding="utf-8")
        svg = (tmp_path / "c.svg").read_text(encoding="utf-8")
        assert "nan" not in svg and "inf" not in svg

    @pytest.mark.parametrize(
        "multipliers, scale_factor, message",
        [
            ([{"min": 0, "most_likely": 0, "max": 1.3e154}], "1e200", MULTIPLY),  # (DDIF - average) * f
            ([{"min": 5.9e307, "most_likely": 5.9e307, "max": 5.9e307}] * 2, "1", ADD),  # the averages' sums
        ],
        ids=["relative-value", "average"],
    )
    def test_chart_past_the_float_range(self, multipliers, scale_factor, message, tmp_path, capsys):
        # every mean is finite, but the chart's Python floats overflowed silently, and plan once
        # ended in the uncoded "non-finite float -inf cannot be serialized"
        svg = str(tmp_path / "out" / "chart.svg")
        argv = ["plan", "--scale-factor", scale_factor, "--svg", svg] + self.inputs(tmp_path, multipliers)
        self.assert_one_coded_error(argv, tmp_path, capsys, message)

    # a finite mean of 1e200, but the triangular kernel's products reach 2e200 * 1e200
    WIDE = [{"min": 0, "most_likely": 1e200, "max": 2e200}]

    @pytest.mark.parametrize(
        "command", [["simulate", "--project", "review-c", "--kind", "dc"], ["predict", "--target", "review-next"]],
        ids=["simulate", "predict"],
    )
    def test_wide_multiplier_drawn(self, command, tmp_path, capsys):
        self.assert_one_coded_error(command + self.inputs(tmp_path, self.WIDE), tmp_path, capsys, self.MULTIPLY)

    @pytest.mark.parametrize("command", [["plan"], ["validate"]], ids=["plan", "validate"])
    def test_wide_multiplier_not_drawn(self, command, tmp_path, capsys):
        out = tmp_path / "result"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(command + self.inputs(tmp_path, self.WIDE) + ["--seed", "1", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert out.exists()


class TestUnreadablePaths:
    """A path that exists but cannot be read or written is a usage error naming it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["model-check", "--model", "{dir}"],
            ["rank-analyze", "--rankings", "{dir}", "--out", "{tmp}/analysis.json"],
            ["rank-analyze", "--rankings", "{rankings}", "--out", "{dir}"],
            ["plan", "--model", "{model}", "--projects", "{projects}", "--seed", "1", "--samples", "50",
             "--out", "{tmp}/chart.csv", "--svg", "{dir}"],
        ],
        ids=["model-dir", "rankings-dir", "out-dir", "svg-dir"],
    )
    def test_directory_is_usage_error(self, argv, rankings_csv, model_file, projects_file, tmp_path, capsys):
        directory = tmp_path / "a-directory"
        directory.mkdir()
        paths = {"dir": directory, "tmp": tmp_path, "rankings": rankings_csv, "model": model_file,
                 "projects": projects_file}
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert f"error: [cannot-use] cannot use {directory}: " in err
        assert "Traceback" not in err
        # a failed run leaves no output behind, and so no output without its manifest
        assert not (tmp_path / "chart.csv").exists()
        assert not list(tmp_path.glob("*.manifest.json"))


_FILES = ["--model", "{model}", "--projects", "{projects}"]
_SEEDED = ["--seed", "7", "--samples", "200"]

# subcommand: (argv, extra flags of a rerun whose outputs differ); {run} is the output directory
WRITING_RUNS = {
    "rank-analyze": (["rank-analyze", "--rankings", "{rankings}", "--out", "{run}/analysis.json"],
                     ["--threshold", "1.5"]),
    "model-check": (["model-check", *_FILES, "--out", "{run}/check.json"], ["--require-quantified"]),
    "simulate": (["simulate", *_FILES, *_SEEDED, "--project", "E1", "--kind", "dc", "--out", "{run}/ddif.json"],
                 ["--seed", "8"]),
    "plan": (["plan", *_FILES, *_SEEDED, "--out", "{run}/chart.csv", "--svg", "{run}/chart.svg"], ["--seed", "8"]),
    "predict": (["predict", *_FILES, *_SEEDED, "--target", "NEW", "--out", "{run}/prediction.json"],
                ["--seed", "8"]),
    "validate": (["validate", *_FILES, *_SEEDED, "--out", "{run}/report.json"], ["--seed", "8"]),
}


def snapshot(directory):
    """Every file in directory: its bytes, inode and mtime, so that a rewrite with equal bytes shows too."""
    return {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in directory.iterdir() if p.is_file()}


class TestRunOutputs:
    """A run writes all its outputs and their manifest, or nothing at all."""

    @pytest.fixture
    def paths(self, rankings_csv, model_file, projects_file, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        return {"run": run, "rankings": rankings_csv, "model": model_file, "projects": projects_file}

    @pytest.mark.parametrize("command", sorted(WRITING_RUNS))
    def test_failed_rerun_leaves_the_directory_as_it_was(self, command, paths, monkeypatch, capsys):
        argv, rerun_flags = WRITING_RUNS[command]
        argv = [a.format(**paths) for a in argv]
        assert main(argv) == 0
        before = snapshot(paths["run"])
        assert len(before) >= 2  # the outputs and their manifest

        writes = []

        def fail_after_first_write(real):
            def write(path, *args):
                if writes:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                real(path, *args)
                writes.append(path)
            return write

        monkeypatch.setattr(hdce.io, "write_json", fail_after_first_write(hdce.io.write_json))
        monkeypatch.setattr(hdce.io, "write_csv", fail_after_first_write(hdce.io.write_csv))
        capsys.readouterr()
        assert main(argv + rerun_flags) == 1  # a failed write, not a wrong flag
        err = capsys.readouterr().err
        assert "error: [write-failed] [Errno 28] No space left on device" in err
        assert "[cannot-use]" not in err
        assert len(writes) == 1
        assert snapshot(paths["run"]) == before  # no new or temporary file, no output rewritten

    def test_re_csv_directory_writes_nothing(self, paths, capsys):
        directory = paths["run"] / "re-values"
        directory.mkdir()
        argv = [a.format(**paths) for a in WRITING_RUNS["validate"][0]]
        assert main(argv + ["--re-csv", str(directory)]) == 2
        assert f"error: [cannot-use] cannot use {directory}: " in capsys.readouterr().err
        assert [p.name for p in paths["run"].iterdir()] == ["re-values"]
        assert not list(directory.iterdir())

    @pytest.mark.parametrize("command", ["plan", "validate"])
    def test_manifest_path_directory_writes_nothing(self, command, paths, capsys):
        argv = [a.format(**paths) for a in WRITING_RUNS[command][0]]
        manifest = Path(argv[argv.index("--out") + 1] + ".manifest.json")
        manifest.mkdir()
        assert main(argv) == 2
        assert f"error: [cannot-use] cannot use {manifest}: " in capsys.readouterr().err
        assert [p.name for p in paths["run"].iterdir()] == [manifest.name]

    @pytest.mark.parametrize("command", ["predict", "validate"])
    @pytest.mark.parametrize("out, named", [("", "."), ("{run}/new-directory/", "{run}/new-directory/")])
    def test_output_path_without_a_file_name_is_a_directory(self, command, out, named, paths, monkeypatch, capsys):
        monkeypatch.chdir(paths["run"])
        argv = [a.format(**paths) for a in WRITING_RUNS[command][0] + ["--out", out]]
        assert main(argv) == 2
        assert f"error: [cannot-use] cannot use {named.format(**paths)}: not a regular file" in capsys.readouterr().err
        assert list(paths["run"].iterdir()) == []

    @pytest.mark.parametrize(
        "command, flags, named, role",
        [
            ("predict", ["--out", "{projects}"], "{projects}", "an input"),
            ("predict", ["--out", "{model}"], "{model}", "an input"),
            ("predict", ["--out", "{run}/alias.json"], "{run}/alias.json", "an input"),
            ("rank-analyze", ["--out", "{rankings}"], "{rankings}", "an input"),
            ("plan", ["--svg", "{run}/chart.csv"], "{run}/chart.csv", "another output"),
            ("validate", ["--re-csv", "{run}/report.json"], "{run}/report.json", "another output"),
            ("validate", ["--re-csv", "{run}/report.json.manifest.json"], "{run}/report.json.manifest.json",
             "another output"),
            ("predict", ["--out", "{run}/linked.json"], "{run}/linked.json.manifest.json", "an input"),
        ],
        ids=["out-is-projects", "out-is-model", "out-is-a-hard-link-to-projects", "out-is-rankings",
             "svg-is-out", "re-csv-is-out", "re-csv-is-manifest", "manifest-is-a-hard-link-to-projects"],
    )
    def test_colliding_output_is_usage_error_and_changes_nothing(self, command, flags, named, role, paths, capsys):
        os.link(paths["projects"], paths["run"] / "alias.json")
        os.link(paths["projects"], paths["run"] / "linked.json.manifest.json")
        inputs = paths["run"].parent
        before = snapshot(inputs), snapshot(paths["run"])
        argv = [a.format(**paths) for a in WRITING_RUNS[command][0] + flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: [cannot-use] cannot use {named.format(**paths)}: output path is also {role} of this run" in err
        assert (snapshot(inputs), snapshot(paths["run"])) == before

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664), (0o077, 0o600)])
    def test_output_modes_follow_the_umask(self, umask, mode, paths):
        argv = [a.format(**paths) for a in WRITING_RUNS["plan"][0]]
        previous = os.umask(umask)
        try:
            assert main(argv) == 0
        finally:
            os.umask(previous)
        written = sorted(paths["run"].iterdir())
        assert [p.name for p in written] == ["chart.csv", "chart.csv.manifest.json", "chart.svg"]
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in written} == dict.fromkeys(
            [p.name for p in written], mode)

    def test_model_check_writes_its_report_when_the_model_has_errors(self, tmp_path):
        data = model_to_dict(reference_model())
        data["factors"][0]["multiplier"] = {"min": 0.3, "most_likely": 0.2, "max": 0.4}
        model = tmp_path / "model.json"
        write_json(model, data)
        out = tmp_path / "check.json"
        assert main(["model-check", "--model", str(model), "--out", str(out)]) == 1
        assert read_json(out)["errors"] >= 1
        assert read_json(tmp_path / "check.json.manifest.json")["outputs"] == {str(out): sha256_file(out)}


class TestFailurePath:
    """Every failure prints one coded line, error: [code] message, and exits with its status."""

    def test_argparse_error_prints_the_usage_line_and_one_coded_line(self, model_file, projects_file, capsys):
        argv = ["plan", "--model", str(model_file), "--projects", str(projects_file), "--seed", "1",
                "--out", "chart.csv", "--scale-factor", "nan"]
        assert main(argv) == 2
        usage, *rest = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: hdce plan ")
        assert rest[-1] == "error: [usage] hdce plan: argument --scale-factor: expected a finite number, got 'nan'"

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: [usage] hdce: the following arguments are required: command")

    def test_predict_without_history_is_a_coded_error(self, model_file, tmp_path, capsys):
        projects = tmp_path / "planned.json"
        write_json(projects, [{**project_to_dict(exact_projects()[0]), "defects_found": None}])
        out = tmp_path / "prediction.json"
        argv = ["predict", "--model", str(model_file), "--projects", str(projects), "--target", "E1",
                "--seed", "1", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: [no-history] no historical project (with defects_found) to estimate the baseline\n")
        assert not out.exists()

    def test_validate_on_an_empty_portfolio_is_a_coded_error(self, model_file, tmp_path, capsys):
        projects = tmp_path / "empty.json"
        projects.write_text("[]", encoding="utf-8")
        out = tmp_path / "report.json"
        argv = ["validate", "--model", str(model_file), "--projects", str(projects), "--seed", "1",
                "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: [invalid-input] leave-one-out needs at least 3 usable projects, got 0\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.json", "model.json"]


def _run_cli(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(hdce.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "hdce.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=30, **kwargs)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="FIFOs and /dev/fd as on Linux")
class TestSpecialFiles:
    """An input is read once, so a FIFO or a /dev/fd/N pipe works and its manifest digest is that of
    the bytes parsed; an output path that exists and is no regular file is refused, not replaced."""

    @staticmethod
    def plan_argv(model, projects, tmp_path):
        return ["plan", "--model", str(model), "--projects", str(projects), "--seed", "1", "--samples", "50",
                "--out", str(tmp_path / "chart.csv")]

    def test_fifo_input_is_read_once(self, model_file, projects_file, tmp_path):
        data = model_file.read_bytes()
        fifo = tmp_path / "model.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as handle:
                handle.write(data)

        threading.Thread(target=feed, daemon=True).start()  # one writer: a second read would never end
        proc = _run_cli(self.plan_argv(fifo, projects_file, tmp_path))
        assert proc.returncode == 0, proc.stderr
        inputs = read_json(tmp_path / "chart.csv.manifest.json")["inputs"]
        assert inputs[str(fifo)] == hashlib.sha256(data).hexdigest()

    def test_dev_fd_input_digest_is_that_of_the_bytes_parsed(self, model_file, projects_file, tmp_path):
        data = model_file.read_bytes()
        read_end, write_end = os.pipe()
        os.write(write_end, data)  # a model file fits in the pipe's buffer
        os.close(write_end)
        try:
            proc = _run_cli(self.plan_argv(f"/dev/fd/{read_end}", projects_file, tmp_path), pass_fds=(read_end,))
        finally:
            os.close(read_end)
        assert proc.returncode == 0, proc.stderr
        inputs = read_json(tmp_path / "chart.csv.manifest.json")["inputs"]
        assert inputs[f"/dev/fd/{read_end}"] == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("name", ["ddif.json", "ddif.json.manifest.json"])
    def test_fifo_output_is_refused_and_stays_a_fifo(self, name, model_file, projects_file, tmp_path, capsys):
        fifo = tmp_path / name
        os.mkfifo(fifo)
        argv = ["simulate", "--model", str(model_file), "--projects", str(projects_file), "--project", "E1",
                "--kind", "dc", "--seed", "1", "--samples", "50", "--out", str(tmp_path / "ddif.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: [cannot-use] cannot use {fifo}: not a regular file\n"
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([model_file.name, projects_file.name, name])


class TestInputBound:
    """Each input is read to at most io.MAX_INPUT_BYTES + 1 bytes; a longer one is an input error."""

    def test_one_byte_over_the_bound_is_an_input_error_and_writes_nothing(self, projects_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        with open(model, "wb") as handle:
            handle.truncate(MAX_INPUT_BYTES + 1)  # sparse: no disk block is written
        argv = ["plan", "--model", str(model), "--projects", str(projects_file), "--seed", "1",
                "--out", str(tmp_path / "chart.csv")]
        assert main(argv) == 1
        expected = f"error: [input-format] model file {model}: longer than {MAX_INPUT_BYTES} bytes\n"
        assert capsys.readouterr().err == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([model.name, projects_file.name])

    def test_an_input_at_the_bound_is_parsed(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        with open(model, "wb") as handle:
            handle.truncate(MAX_INPUT_BYTES)
        assert main(["model-check", "--model", str(model)]) == 1
        assert capsys.readouterr().err.startswith(f"error: [input-format] model file {model}: invalid JSON")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_input_ends_in_an_input_error_within_bounded_memory(self):
        import resource

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = _run_cli(["model-check", "--model", "/dev/zero"], preexec_fn=limit_address_space)
        assert proc.returncode == 1
        assert proc.stderr == f"error: [input-format] model file /dev/zero: longer than {MAX_INPUT_BYTES} bytes\n"

    @pytest.mark.parametrize("command, hint", [("model-check", False), ("validate", False), ("simulate", True)])
    def test_out_of_memory_names_samples_only_where_they_are_drawn(
        self, command, hint, model_file, projects_file, tmp_path, monkeypatch, capsys
    ):
        def exhausted(*_args, **_kwargs):
            raise MemoryError

        monkeypatch.setattr(hdce.io, "_read_text", exhausted)
        argv = {
            "model-check": ["model-check", "--model", str(model_file)],
            "validate": ["validate", "--model", str(model_file), "--projects", str(projects_file), "--seed", "1",
                         "--out", str(tmp_path / "report.json")],
            "simulate": ["simulate", "--model", str(model_file), "--projects", str(projects_file), "--project", "E1",
                         "--kind", "dc", "--seed", "1", "--out", str(tmp_path / "ddif.json")],
        }[command]
        assert main(argv) == 1
        expected = "out of memory; a smaller --samples needs less" if hint else "out of memory"
        assert capsys.readouterr().err == f"error: [out-of-memory] {expected}\n"


_IMPORT_PROBE = """
import json, sys

def modules_of(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

package = sys.argv[2]
import hdce
loaded = {"import hdce": [0, modules_of(package)]}
import hdce.cli
loaded["import hdce.cli"] = [0, modules_of(package)]
for name, argv in json.loads(sys.argv[1]):
    loaded[name] = [hdce.cli.main(argv), modules_of(package)]
print(json.dumps(loaded))
"""

# the subcommands that draw no sample come first, so that a probe can tell what they load
DRAW_FREE = ("rank-analyze", "model-check", "plan", "validate", "validate-normal-approximation")
PROBED = ("import hdce", "import hdce.cli", *DRAW_FREE, "simulate", "predict")


def probe_imports(tmp_path, package, runs=PROBED[2:]):
    """In a fresh interpreter: {import or run: [exit code, modules of package loaded so far]},
    after import hdce, after import hdce.cli and then after each of runs in order: a subcommand on
    the examples (N=1000), or validate-normal-approximation, a validate on a synthetic 30-project
    portfolio, whose Wilcoxon tests take the normal approximation."""
    model, projects = str(EXAMPLES / "model.json"), str(EXAMPLES / "projects.json")
    files = ["--model", model, "--projects", projects]
    stochastic = ["--seed", "7", "--samples", "1000"]
    rng = np.random.default_rng(30)
    synthetic_model = build_synthetic_model(rng)
    write_json(tmp_path / "synthetic-model.json", model_to_dict(synthetic_model))
    write_json(tmp_path / "synthetic-projects.json",
               [project_to_dict(p) for p in generate_projects(synthetic_model, 30, rng)])
    commands = {
        "model-check": ["model-check", *files, "--require-quantified"],
        "simulate": ["simulate", *files, *stochastic, "--project", "review-c", "--kind", "dc",
                     "--out", str(tmp_path / "ddif.json")],
        "plan": ["plan", *files, *stochastic, "--out", str(tmp_path / "chart.csv"), "--svg", str(tmp_path / "chart.svg")],
        "predict": ["predict", *files, *stochastic, "--target", "review-next", "--out", str(tmp_path / "prediction.json")],
        "validate": ["validate", *files, *stochastic, "--out", str(tmp_path / "report.json")],
        "validate-normal-approximation": ["validate", "--model", str(tmp_path / "synthetic-model.json"),
                                          "--projects", str(tmp_path / "synthetic-projects.json"), *stochastic,
                                          "--out", str(tmp_path / "report-normal.json")],
        "rank-analyze": ["rank-analyze", "--rankings", str(EXAMPLES / "rankings.csv"),
                         "--out", str(tmp_path / "analysis.json")],
    }
    env = dict(os.environ, PYTHONPATH=str(Path(hdce.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps([[name, commands[name]] for name in runs]), package],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestNumpyImports:
    """numpy loads only where samples are drawn: import hdce and the subcommands that draw
    nothing start without it, simulate and predict load it, and nothing loads numpy.ma."""

    @pytest.mark.parametrize("drawing", ["simulate", "predict"])
    def test_only_the_drawing_subcommands_load_numpy(self, drawing, tmp_path):
        loaded = probe_imports(tmp_path, "numpy", [*DRAW_FREE, drawing])
        code, modules = loaded.pop(drawing)
        assert loaded == {name: [0, []] for name in (*PROBED[:2], *DRAW_FREE)}
        assert code == 0 and "numpy" in modules

    def test_no_subcommand_loads_numpy_ma(self, tmp_path):
        # np.quantile's np.unique call imported all of numpy.ma in simulate and predict
        loaded = probe_imports(tmp_path, "numpy.ma")
        assert loaded == {name: [0, []] for name in PROBED}


class TestScipyImports:
    """No subcommand loads scipy: both p-values come from math."""

    def test_no_subcommand_loads_scipy(self, tmp_path):
        loaded = probe_imports(tmp_path, "scipy")
        assert loaded == {name: [0, []] for name in PROBED}
        report = json.loads((tmp_path / "report-normal.json").read_text(encoding="utf-8"))
        assert {c["method"] for c in report["comparisons"]} == {"normal-approximation"}


class TestThreadPoolImports:
    """A run of one sample block neither starts nor imports the block thread pool."""

    def test_no_subcommand_at_one_block_loads_concurrent_futures(self, tmp_path):
        loaded = probe_imports(tmp_path, "concurrent.futures")
        assert loaded == {name: [0, []] for name in PROBED}


# the hdce modules each subcommand runs, beyond the package and hdce.cli
_EVERY_RUN = ("diagnostics", "model", "io")
MODULES_RUN = {
    "rank-analyze": {*_EVERY_RUN, "elicitation", "pvalues"},
    "model-check": {*_EVERY_RUN},
    "simulate": {*_EVERY_RUN, "simulation"},
    "plan": {*_EVERY_RUN, "estimation", "evaluation", "pvalues", "planning"},
    "predict": {*_EVERY_RUN, "estimation", "evaluation", "pvalues", "simulation"},
    "validate": {*_EVERY_RUN, "estimation", "evaluation", "pvalues"},
}


class TestModuleImports:
    """import hdce and import hdce.cli load no other hdce module, each subcommand loads only the
    modules it runs, none loads statistics, and of the others than rank-analyze only simulate
    loads fractions."""

    @pytest.mark.parametrize("command", MODULES_RUN)
    def test_each_subcommand_loads_exactly_its_modules(self, command, tmp_path):
        loaded = probe_imports(tmp_path, "hdce", [command])  # a fresh interpreter per subcommand
        assert loaded == {
            "import hdce": [0, ["hdce"]],
            "import hdce.cli": [0, ["hdce", "hdce.cli"]],
            command: [0, sorted(["hdce", "hdce.cli", *(f"hdce.{m}" for m in MODULES_RUN[command])])],
        }

    def test_no_subcommand_loads_statistics(self, tmp_path):
        # loading only grows, so nothing loaded after every subcommand has run means none loads it
        loaded = probe_imports(tmp_path, "statistics", PROBED[2:])
        assert loaded == {name: [0, []] for name in PROBED}

    def test_of_the_others_only_simulate_loads_fractions(self, tmp_path):
        # analytic_sd imports it in its body; rank-analyze's summarize_ranks sums its variance in it
        others = [name for name in PROBED[2:] if name not in ("rank-analyze", "simulate")]
        loaded = probe_imports(tmp_path, "fractions", [*others, "simulate"])
        assert loaded.pop("simulate") == [0, ["fractions"]]
        assert loaded == {name: [0, []] for name in (*PROBED[:2], *others)}
