#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and report each metric's spread.

    python3 perfbench/steady.py --workload portfolio-loocv --runs 10 --seed 100

For each workload, ``--runs`` untraced runs use seeds seed, seed+1, ...; each
end-to-end metric is reported as median, quartiles (``statistics.quantiles``,
n=4) and the interquartile range as a share of the median, next to the bound
BENCHMARK.json fixes for it; a spread above the bound is a problem. Every run
lasts BENCHMARK.json's ``run_seconds``. Two traced runs then repeat the first
seed: every count metric must read the same in both, and the traced self times
must sum to no more than the traced op wall time.
Runs go one at a time, so they never compete with each other for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TRACE_RUNS = 2
COUNT_SUFFIXES = ("_calls", "uniforms_generated", "wilcoxon_exact_patterns", "bytes_written",
                  "quantile_summaries", "uniforms_per_logical_draw")


def run(workload: str, seed: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=240,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    for line in lines[:-1]:
        if line.startswith(("FAILED", "setup_s samples")):
            print(f"  {workload} seed {seed}: {line}")
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median if median else float("inf")}


def check_workload(workload: str, runs: int, seed: int) -> list[str]:
    """Print the workload's spreads and checks; return the problems found."""
    untraced = [run(workload, seed + k, 0) for k in range(runs)]
    problems: list[str] = []
    failed = sum(r["failed"] for r in untraced)
    attempted = sum(r["attempted"] for r in untraced)
    walls = [r["wall_s"] for r in untraced]
    print(f"{workload}: {runs} runs, {attempted} ops, {failed} failed, all correct: "
          f"{all(r['correct'] for r in untraced)}; run wall time median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s")
    for m in SPEC["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in untraced]
        s = spread(values)
        verdict = "ok"
        if s["iqr_share"] > m["bound"]:
            verdict = "SPREAD ABOVE BOUND"
            problems.append(f"{m['name']} spread {s['iqr_share']:.3f} > bound {m['bound']}")
        elif s["iqr_share"] > m["bound"] / 3:
            verdict = "spread above bound/3"
        print(f"  {m['name']:<14} median {s['median']:.6g} {m['unit']:<3} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"iqr/median {s['iqr_share']:.3f} (bound {m['bound']}) {verdict}")
        print(f"  {'':<14} runs: {' '.join(f'{v:.4g}' for v in values)}")

    traced = [run(workload, seed, 1) for _ in range(TRACE_RUNS)]
    if any(not r["correct"] for r in untraced + traced):
        problems.append("some run reported correct: false")
    for name in (m["name"] for m in SPEC["per_layer"]):
        if name.endswith(COUNT_SUFFIXES):
            values = {r["metrics"][name]["value"] for r in traced}
            if len(values) > 1:
                problems.append(f"count {name} differs between traced runs: {sorted(values)}")
    for r in traced:
        self_sum = r["metrics"]["trace.self_sum_s"]["value"]
        wall = r["metrics"]["trace.op_wall_s"]["value"]
        if self_sum > wall:
            problems.append(f"traced self times {self_sum:.6g} s exceed op wall {wall:.6g} s")
    print(f"  {len(traced)} traced runs of seed {seed}: counts repeat exactly and self times fit in the "
          f"op wall time: {not any(p.startswith(('count', 'traced')) for p in problems)}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    problems = [p for w in workloads for p in check_workload(w, args.runs, args.seed)]
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
