import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hdce.evaluation import ALL_VARIANTS, run_validation
from hdce.model import SimulationConfig
from hdce.synthetic import build_synthetic_model, generate_projects

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
RECORDED = Path(__file__).with_name("artifact_digests.txt")


def import_artifact_digests():
    sys.path.insert(0, str(SCRIPTS))
    try:
        import artifact_digests
    finally:
        sys.path.remove(str(SCRIPTS))
    return artifact_digests


def test_artifact_digests_prints_one_line_per_artifact():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "artifact_digests.py")], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    expected = []
    for run, outputs in [
        ("rank-analyze", ["analysis.json", "analysis.json.manifest.json"]),
        ("model-check", ["model-check.json", "model-check.json.manifest.json"]),
        ("simulate", ["ddif.json", "ddif.json.manifest.json"]),
        ("plan", ["chart.csv", "chart.csv.manifest.json", "chart.svg"]),
        ("predict", ["prediction.json", "prediction.json.manifest.json"]),
        ("validate", ["report.json", "report.json.manifest.json", "report.json.re.csv"]),
        ("predict-1000000", ["prediction.json", "prediction.json.manifest.json"]),
        ("predict-200001", ["prediction.json", "prediction.json.manifest.json"]),
        ("simulate-eff-samples-300000", ["eif.json", "eif.json.manifest.json"]),
        ("validate-150000", ["report.json", "report.json.manifest.json", "report.json.re.csv"]),
        ("plan-200001", ["chart.csv", "chart.csv.manifest.json", "chart.svg"]),
        ("rank-analyze-threshold-1.5", ["analysis.json", "analysis.json.manifest.json"]),
        ("plan-scale-factor-0.5", ["chart.csv", "chart.csv.manifest.json", "chart.svg"]),
        ("validate-synthetic-30", ["report.json", "report.json.manifest.json", "report.json.re.csv"]),
    ]:
        expected += [f"{run}/{name}" for name in outputs] + [f"{run}/stderr", f"{run}/exit"]
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    assert [line.split("  ")[1] for line in lines] == expected
    exit_zero = hashlib.sha256(b"0").hexdigest()
    assert all(line == f"{exit_zero}  {line.split('  ')[1]}" for line in lines if line.endswith("/exit"))
    # the determinism contract: every artifact keeps the bytes recorded in the file
    recorded = RECORDED.read_text(encoding="utf-8").splitlines()
    moved = sorted({line.split("  ")[1] for line in set(lines) ^ set(recorded)})
    assert not moved, f"artifacts whose bytes differ from tests/artifact_digests.txt: {moved}"


def test_artifact_digests_synthetic_validate_takes_the_normal_approximation(tmp_path):
    artifact_digests = import_artifact_digests()
    from hdce.cli import main

    model = json.loads((artifact_digests.EXAMPLES / "model.json").read_text(encoding="utf-8"))
    portfolio = artifact_digests.synthetic_projects(model, artifact_digests.SYNTHETIC_PROJECTS,
                                                    artifact_digests.SYNTHETIC_SEED)
    (tmp_path / "projects.json").write_text(json.dumps(portfolio), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["validate", "--model", str(artifact_digests.EXAMPLES / "model.json"),
            "--projects", str(tmp_path / "projects.json"), "--seed", "7", "--samples", "10000", "--out", str(out)]
    assert main(argv) == 0
    comparisons = json.loads(out.read_text(encoding="utf-8"))["comparisons"]
    assert len(comparisons) == 15
    assert {c["method"] for c in comparisons} == {"normal-approximation"}


# the digest runs that hold a p-value, and the lines that a math function one ulp off moves: only the
# 1-dof tails of the Wilcoxon normal approximation take math.erfc and math.exp from the C library
P_VALUE_RUNS = ("rank-analyze", "rank-analyze-threshold-1.5", "validate", "validate-150000", "validate-synthetic-30")
LIBM_DEPENDENT = ["validate-synthetic-30/report.json", "validate-synthetic-30/report.json.manifest.json"]
NUDGED = ("erfc", "erf", "exp", "expm1", "log", "log1p", "log2", "log10", "pow", "lgamma", "gamma")


@pytest.mark.parametrize("toward", ["math.inf", "-math.inf"], ids=["up", "down"])
def test_a_libm_one_ulp_off_moves_only_the_declared_digest_lines(toward, tmp_path, monkeypatch):
    # a sitecustomize module on PYTHONPATH runs in each hdce process before hdce loads, and moves
    # every result of the NUDGED math functions one ulp toward `toward`, as another C library might
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(f"""import math
for _name in {NUDGED!r}:
    def _nudged(*args, _exact=getattr(math, _name)):
        return math.nextafter(_exact(*args), {toward})
    setattr(math, _name, _nudged)
""", encoding="utf-8")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(site), os.environ.get("PYTHONPATH")])))
    artifact_digests = import_artifact_digests()
    runs = tmp_path / "runs"
    runs.mkdir()
    lines = [line for name, argv in artifact_digests.RUNS if name in P_VALUE_RUNS
             for line in artifact_digests.digest_run(name, argv, runs)]
    recorded = dict(line.split("  ")[::-1] for line in RECORDED.read_text(encoding="utf-8").splitlines())
    assert [label for _, label in lines] == [label for label in recorded if label.split("/")[0] in P_VALUE_RUNS]
    assert [label for digest, label in lines if recorded[label] != digest] == LIBM_DEPENDENT


def test_synthetic_study_prints_every_variant_and_writes_the_in_process_mmres(tmp_path):
    out = tmp_path / "study.json"
    src = str(SCRIPTS.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_synthetic_study.py"), "--replications", "3", "--projects", "8",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[0] for line in proc.stdout.splitlines()[2:2 + len(ALL_VARIANTS)]]
    assert rows == [v.value for v in ALL_VARIANTS]
    written = json.loads(out.read_text(encoding="utf-8"))
    assert len(written["replications"]) == 3
    # the script's defaults: base seed 1000, replication r on seed 1000 + r, noise sigma 0.2
    for rep, row in enumerate(written["replications"]):
        rng = np.random.default_rng(1000 + rep)
        model = build_synthetic_model(rng)
        report = run_validation(model, generate_projects(model, 8, rng, noise_sigma=0.2), SimulationConfig(seed=1000))
        assert row["mmre"] == {v.value: report.mmre[v] for v in ALL_VARIANTS}
