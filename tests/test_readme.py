"""The README's "Command-line tour" and "Library use" example run as written, and the package binds
only its names."""

import dataclasses
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import hdce
import hdce.io
from hdce.estimation import estimate_baseline
from hdce.model import project_factor_means
from helpers import readme_error_codes

ROOT = Path(__file__).resolve().parents[1]


def tour_commands() -> list[list[str]]:
    """The argument lists of the hdce lines in README's "Command-line tour" sh block."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Command-line tour\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hdce ")]


@pytest.mark.parametrize("argv", tour_commands(), ids=lambda argv: argv[0])
def test_command_line_tour_runs_as_written(tmp_path, argv):
    shutil.copytree(ROOT / "schemas" / "examples", tmp_path / "schemas" / "examples")
    env = dict(os.environ, PYTHONPATH=str(Path(hdce.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hdce.cli", *argv], cwd=tmp_path, capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    outputs = {argv[i + 1] for i, flag in enumerate(argv) if flag in ("--out", "--svg")}
    assert all((tmp_path / path).is_file() for path in outputs)
    if outputs:  # one manifest, beside the --out file, lists every file the run writes
        manifest = json.loads((tmp_path / f"{argv[argv.index('--out') + 1]}.manifest.json").read_text(encoding="utf-8"))
        assert outputs <= set(manifest["outputs"])
        assert all((tmp_path / path).is_file() for path in manifest["outputs"])


def test_tour_covers_every_subcommand():
    assert [argv[0] for argv in tour_commands()] == ["rank-analyze", "model-check", "simulate", "plan", "predict",
                                                     "validate"]


def library_use_code() -> str:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_runs_from_the_repo_root(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the example names its inputs relative to the repo root
    namespace = {}
    exec(compile(library_use_code(), "README.md", "exec"), namespace)
    prediction = namespace["prediction"]
    low, high = prediction.interval
    assert math.isfinite(prediction.point)
    assert math.isfinite(low) and low <= high and math.isfinite(high)
    assert capsys.readouterr().out == f"{prediction.point} {prediction.interval}\n"


def test_library_use_overflow_raises_in_the_draw_without_a_warning(monkeypatch):
    # history sizes 1e-6 of the sample's put the baseline near 1.2e5, and the target's size puts its
    # point at 0.97 of the largest double: the point is finite, the samples above the means are not
    load_projects = hdce.io.load_projects
    model = hdce.io.load_model(ROOT / "schemas" / "examples" / "model.json")

    def huge_target(path):
        projects = [p if p.defects_found is None else dataclasses.replace(p, size=p.size * 1e-6)
                    for p in load_projects(path)]
        history = [p for p in projects if p.defects_found is not None]
        baseline = estimate_baseline(history, project_factor_means(model, history)).estimate
        assert 1e5 < baseline < 1.5e5
        (ddif, eif), = project_factor_means(model, [p for p in projects if p.project_id == "review-next"]).values()
        size = 0.97 * sys.float_info.max / ((1 + ddif) * (1 + eif) * baseline)
        return [dataclasses.replace(p, size=size) if p.project_id == "review-next" else p for p in projects]

    monkeypatch.setattr(hdce.io, "load_projects", huge_target)
    monkeypatch.chdir(ROOT)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FloatingPointError, match="^overflow encountered in multiply$"):
            exec(compile(library_use_code(), "README.md", "exec"), {})
    assert [str(w.message) for w in caught] == []


def test_package_resolves_the_library_use_names_and_binds_nothing_up_front():
    assert hdce.SimulationConfig is hdce.model.SimulationConfig
    assert hdce.estimate_baseline is hdce.estimation.estimate_baseline
    assert hdce.predict_defects_found is hdce.estimation.predict_defects_found
    names = {
        name for name, value in vars(hdce).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert names == set()
    with pytest.raises(AttributeError, match="has no attribute 'analytic_mean'"):
        hdce.analytic_mean


def test_every_error_code_readme_lists_is_one_the_package_prints():
    codes = readme_error_codes()
    assert {"usage", "file-not-found", "cannot-use", "input-format", "not-found"} <= codes
    source = "\n".join(path.read_text(encoding="utf-8") for path in (ROOT / "src" / "hdce").glob("*.py"))
    assert sorted(code for code in codes if f'"{code}"' not in source) == []
