#!/usr/bin/env python3
"""SHA-256 digests of every CLI artifact over a fixed set of runs.

Runs `python -m hdce.cli` on the sample inputs in schemas/examples/, one
subprocess per run, in a temporary directory, with the hdce package of this
checkout. It then prints `<sha256>  <run>/<name>` in a fixed order for:

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
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "schemas" / "examples"

_FILES = ["--model", "model.json", "--projects", "projects.json"]


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
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _artifact_bytes(path: Path) -> bytes:
    if not path.name.endswith(".manifest.json"):
        return path.read_bytes()
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest.pop("timestamp", None)
    return json.dumps(manifest, indent=2).encode("utf-8")


def digest_run(name: str, argv: list[str], workdir: Path) -> list[tuple[str, str]]:
    """Run `hdce <argv>` in workdir/name over copies of the sample inputs; (digest, label) pairs."""
    rundir = workdir / name
    rundir.mkdir()
    for example in EXAMPLES.iterdir():
        shutil.copyfile(example, rundir / example.name)
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
