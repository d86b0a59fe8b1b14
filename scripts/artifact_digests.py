#!/usr/bin/env python3
"""SHA-256 digests of every CLI artifact over a fixed set of runs.

Runs `python -m hdce.cli` on the sample inputs in schemas/examples/, and on a
synthetic portfolio of SYNTHETIC_PROJECTS historical projects of the sample
model, and on a rankings file whose one group has two factors, one subprocess per
run, in a temporary directory, with the hdce package of this checkout. The
synthetic portfolio is large enough that `validate`'s Wilcoxon tests take the
normal approximation, which the sample projects never reach; the 2-factor group
takes `rank-analyze` through the 1-dof chi-square tail, which the sample
rankings (4 to 12 factors per group) never reach. The script then prints
`<sha256>  <run>/<name>` in a fixed order for:

- every file the run writes;
- its stderr;
- its exit code;
- its manifests, with the `timestamp` field removed.

Two checkouts give the same output bytes when their digest lists are equal:

    python scripts/artifact_digests.py > after.txt
    (cd ../parent && python scripts/artifact_digests.py) > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "schemas" / "examples"

_FILES = ["--model", "model.json", "--projects", "projects.json"]

SYNTHETIC = "synthetic-projects.json"
SYNTHETIC_PROJECTS = 30
SYNTHETIC_SEED = 20241

TWO_FACTORS = "rankings-2-factors.csv"
# three experts, two of whom agree: Kendall's W is 1/9, chi-square 1/3 at 1 dof
TWO_FACTOR_RANKINGS = """expert_id,kind,category,factor_id,rank
expert-1,DefectContent,Product,autonomous,1
expert-1,DefectContent,Product,novelty-to-developer,2
expert-2,DefectContent,Product,autonomous,1
expert-2,DefectContent,Product,novelty-to-developer,2
expert-3,DefectContent,Product,autonomous,2
expert-3,DefectContent,Product,novelty-to-developer,1
"""


def _seeded(samples: int) -> list[str]:
    return ["--seed", "7", "--samples", str(samples)]


# (run name, hdce arguments); every path is relative to the run directory
RUNS: tuple[tuple[str, list[str]], ...] = (
    ("rank-analyze", ["rank-analyze", "--rankings", "rankings.csv", "--out", "analysis.json"]),
    ("model-check", ["model-check", *_FILES, "--require-quantified", "--out", "model-check.json"]),
    ("simulate", ["simulate", *_FILES, "--project", "review-c", "--kind", "dc", *_seeded(10_000),
                  "--out", "ddif.json"]),
    ("plan", ["plan", *_FILES, *_seeded(10_000), "--out", "chart.csv", "--svg", "chart.svg"]),
    ("predict", ["predict", *_FILES, "--target", "review-next", *_seeded(10_000), "--out", "prediction.json"]),
    ("validate", ["validate", *_FILES, *_seeded(10_000), "--out", "report.json"]),
    ("predict-1000000", ["predict", *_FILES, "--target", "review-next", *_seeded(1_000_000),
                         "--out", "prediction.json"]),
    ("predict-200001", ["predict", *_FILES, "--target", "review-next", *_seeded(200_001),
                        "--out", "prediction.json"]),
    ("simulate-eff-samples-300000", ["simulate", *_FILES, "--project", "review-c", "--kind", "eff",
                                     *_seeded(300_000), "--emit-samples", "--out", "eif.json"]),
    ("validate-150000", ["validate", *_FILES, *_seeded(150_000), "--out", "report.json"]),
    ("plan-200001", ["plan", *_FILES, *_seeded(200_001), "--out", "chart.csv", "--svg", "chart.svg"]),
    ("rank-analyze-threshold-1.5", ["rank-analyze", "--rankings", "rankings.csv", "--threshold", "1.5",
                                    "--out", "analysis.json"]),
    ("plan-scale-factor-0.5", ["plan", *_FILES, *_seeded(10_000), "--scale-factor", "0.5", "--out", "chart.csv",
                               "--svg", "chart.svg"]),
    (f"validate-synthetic-{SYNTHETIC_PROJECTS}", ["validate", "--model", "model.json", "--projects", SYNTHETIC,
                                                  *_seeded(10_000), "--out", "report.json"]),
    ("rank-analyze-2-factors", ["rank-analyze", "--rankings", TWO_FACTORS, "--out", "analysis.json"]),
)


def synthetic_projects(model: dict, count: int, seed: int) -> list[dict]:
    """`count` historical projects of `model` (a model-file object), drawn with
    random.Random(seed).random() alone, whose sequence Python keeps fixed across
    versions: every factor level uniform on 0-3, sizes log-uniform on 20-2000,
    defects from the model's analytic means at baseline 0.2 with noise in [0.8, 1.25)."""
    rng = random.Random(seed)
    projects = []
    for i in range(count):
        levels = {f["id"]: int(4 * rng.random()) for f in model["factors"]}
        size = round(20.0 * 100.0 ** rng.random(), 1)
        index = {"DefectContent": 0.0, "Effectiveness": 0.0}
        for f in model["factors"]:
            m = f["multiplier"]
            index[f["kind"]] += levels[f["id"]] / 3 * (m["min"] + m["most_likely"] + m["max"]) / 3
        defects = size * 0.2 * (1.0 + index["DefectContent"]) * (1.0 + index["Effectiveness"])
        projects.append({
            "project_id": f"synthetic-{i + 1:02d}",
            "size": size,
            "defects_found": max(1, round(defects * (0.8 + 0.45 * rng.random()))),
            "levels": dict(sorted(levels.items())),
        })
    return projects


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _artifact_bytes(path: Path) -> bytes:
    if not path.name.endswith(".manifest.json"):
        return path.read_bytes()
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest.pop("timestamp", None)
    return json.dumps(manifest, indent=2).encode("utf-8")


def digest_run(name: str, argv: list[str], workdir: Path) -> list[tuple[str, str]]:
    """Run `hdce <argv>` in workdir/name over copies of the sample inputs, the
    synthetic portfolio and the 2-factor rankings; (digest, label) pairs."""
    rundir = workdir / name
    rundir.mkdir()
    for example in EXAMPLES.iterdir():
        shutil.copyfile(example, rundir / example.name)
    model = json.loads((EXAMPLES / "model.json").read_text(encoding="utf-8"))
    portfolio = synthetic_projects(model, SYNTHETIC_PROJECTS, SYNTHETIC_SEED)
    (rundir / SYNTHETIC).write_text(json.dumps(portfolio, indent=2) + "\n", encoding="utf-8")
    (rundir / TWO_FACTORS).write_text(TWO_FACTOR_RANKINGS, encoding="utf-8")
    inputs = {p.name for p in rundir.iterdir()}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "hdce.cli", *argv], cwd=rundir, env=env, capture_output=True, check=False
    )
    written = sorted(p for p in rundir.iterdir() if p.name not in inputs)
    lines = [(_sha256(_artifact_bytes(p)), f"{name}/{p.name}") for p in written]
    lines.append((_sha256(proc.stderr), f"{name}/stderr"))
    lines.append((_sha256(str(proc.returncode).encode("ascii")), f"{name}/exit"))
    return lines


def main() -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    with tempfile.TemporaryDirectory(prefix="hdce-digests-") as tmp:
        for name, argv in RUNS:
            for digest, label in digest_run(name, argv, Path(tmp)):
                print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
