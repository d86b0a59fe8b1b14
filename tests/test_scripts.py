import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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


def test_artifact_digests_synthetic_validate_takes_the_normal_approximation(tmp_path):
    sys.path.insert(0, str(SCRIPTS))
    try:
        import artifact_digests
    finally:
        sys.path.remove(str(SCRIPTS))
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
