import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hdce
from hdce import cli, simulation
from hdce.cli import main
from hdce.io import load_model, load_projects, write_json
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
        assert "usage error" in capsys.readouterr().err

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
        assert "file not found" in capsys.readouterr().err

    def test_non_utf8_model_is_input_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_bytes(bytes(range(128, 256)))
        assert main(["model-check", "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"input error: model file {path}: not UTF-8 text" in err

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
        assert "not found" in capsys.readouterr().err

    def test_out_of_memory_is_a_coded_error(self, model_file, projects_file, tmp_path, capsys, monkeypatch):
        # stands in for --samples 2000000000, whose draws cannot be allocated
        def exhausted(*_args, **_kwargs):
            raise MemoryError

        monkeypatch.setattr(simulation, "simulate_portfolio", exhausted)
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
        assert "not found" in capsys.readouterr().err

    def test_custom_quantiles(self, model_file, projects_file, tmp_path):
        out = tmp_path / "prediction.json"
        code = main([
            "predict", "--model", str(model_file), "--projects", str(projects_file),
            "--target", "E1", "--seed", "11", "--samples", "500",
            "--quantiles", "0.25,0.75", "--out", str(out),
        ])
        assert code == 0
        assert read_json(out)["quantile_pair"] == [0.25, 0.75]


class TestPredictOnePass:
    """predict draws each factor once, for the history and the target together."""

    EXAMPLES = Path(__file__).resolve().parents[1] / "schemas" / "examples"

    def run(self, tmp_path, samples):
        out = tmp_path / "prediction.json"
        code = main([
            "predict", "--model", str(self.EXAMPLES / "model.json"), "--projects", str(self.EXAMPLES / "projects.json"),
            "--target", "review-next", "--seed", "7", "--samples", str(samples), "--out", str(out),
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

    def test_each_factor_draws_its_uniforms_exactly_once(self, tmp_path, monkeypatch):
        drawn = {}
        counter_uniforms = simulation.counter_uniforms

        def recorded(seed, stream, start, count):
            drawn.setdefault(stream, []).append((start, count))
            return counter_uniforms(seed, stream, start, count)

        def no_summary(*_args, **_kwargs):
            raise AssertionError("predict needs no simulate call and no quantile summary")

        monkeypatch.setattr(simulation, "counter_uniforms", recorded)
        monkeypatch.setattr(cli, "simulate", no_summary)
        monkeypatch.setattr(simulation.EmpiricalDistribution, "from_samples", no_summary)
        samples = 100_000  # two blocks per factor
        self.run(tmp_path, samples)
        model = load_model(self.EXAMPLES / "model.json")
        assert set(drawn) == {simulation.factor_stream(f.id) for f in model.factors}
        for ranges in drawn.values():
            assert sum(count for _, count in ranges) == samples
            assert sorted(ranges) == [(start, min(simulation.BLOCK_SIZE, samples - start))
                                      for start in range(0, samples, simulation.BLOCK_SIZE)]


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
            if start > 0:  # with 4 CPUs, every block after the first is drawn on a pool thread
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
        factors = len(load_model(EXAMPLES / "model.json").factors_of_kind(simulation.FactorKind.DEFECT_CONTENT))
        needed = (factors + 2) * self.SAMPLES * 8

        def no_pool(_threads):
            raise AssertionError("no thread may start before the memory bound is checked")

        use_cpus(monkeypatch, 4)
        monkeypatch.setattr(simulation, "_physical_memory", lambda: needed - 1)
        monkeypatch.setattr(simulation, "_block_pool", no_pool)
        out = tmp_path / "prediction.json"
        assert self.run(out) == 1
        err = capsys.readouterr().err
        assert f"error: [out-of-memory] out of memory: {self.SAMPLES} samples of {factors} factors " \
               f"need {needed} bytes, more than physical memory; a smaller --samples needs less" in err
        assert not out.exists()


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
        assert f"usage error: cannot use {directory}: " in err
        assert "Traceback" not in err
        # a failed run leaves no output behind, and so no output without its manifest
        assert not (tmp_path / "chart.csv").exists()
        assert not list(tmp_path.glob("*.manifest.json"))


_IMPORT_PROBE = """
import json, sys
import hdce.cli

def modules_of(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

package = sys.argv[2]
loaded = {"import": [0, modules_of(package)]}
for name, argv in json.loads(sys.argv[1]):
    loaded[name] = [hdce.cli.main(argv), modules_of(package)]
print(json.dumps(loaded))
"""

def probe_imports(tmp_path, package):
    """In a fresh interpreter: {"import" or subcommand: [exit code, modules of package loaded so far]},
    after import hdce.cli and then after each subcommand on the examples (N=1000)."""
    model, projects = str(EXAMPLES / "model.json"), str(EXAMPLES / "projects.json")
    files = ["--model", model, "--projects", projects]
    stochastic = ["--seed", "7", "--samples", "1000"]
    commands = [
        ["model-check", ["model-check", *files, "--require-quantified"]],
        ["simulate", ["simulate", *files, *stochastic, "--project", "review-c", "--kind", "dc",
                      "--out", str(tmp_path / "ddif.json")]],
        ["plan", ["plan", *files, *stochastic, "--out", str(tmp_path / "chart.csv"),
                  "--svg", str(tmp_path / "chart.svg")]],
        ["predict", ["predict", *files, *stochastic, "--target", "review-next",
                     "--out", str(tmp_path / "prediction.json")]],
        ["validate", ["validate", *files, *stochastic, "--out", str(tmp_path / "report.json")]],
        ["rank-analyze", ["rank-analyze", "--rankings", str(EXAMPLES / "rankings.csv"),
                          "--out", str(tmp_path / "analysis.json")]],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(hdce.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands), package],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestScipyImports:
    """Only the two p-values load scipy, and only scipy.special."""

    def test_only_rank_analyze_loads_scipy_special(self, tmp_path):
        loaded = probe_imports(tmp_path, "scipy")
        for name in ("import", "model-check", "simulate", "plan", "predict", "validate"):
            assert loaded[name] == [0, []], name
        code, modules = loaded["rank-analyze"]
        assert code == 0
        assert "scipy.special" in modules
        assert "scipy.stats" not in modules


class TestThreadPoolImports:
    """A run of one sample block neither starts nor imports the block thread pool."""

    def test_no_subcommand_at_one_block_loads_concurrent_futures(self, tmp_path):
        loaded = probe_imports(tmp_path, "concurrent.futures")
        # rank-analyze runs last and draws nothing; the scipy.special it loads imports concurrent.futures
        for name in ("import", "model-check", "simulate", "plan", "predict", "validate"):
            assert loaded[name] == [0, []], name
