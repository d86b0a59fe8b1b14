"""The README's "Library use" example runs as written, and the package binds only its names."""

import math
import re
import types
from pathlib import Path

import hdce

ROOT = Path(__file__).resolve().parents[1]


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


def test_package_binds_only_the_library_use_names():
    names = {
        name for name, value in vars(hdce).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert names == {"SimulationConfig", "estimate_baseline", "predict_defects_found"}
