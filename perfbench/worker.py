"""Benchmark worker: sets up one workload, then runs its ops in a closed loop.

Started by run.py with the checkout root as working directory and ``src`` on
PYTHONPATH. It talks to run.py through stdout, one JSON object per line:

  {"ready": {...input sizes}}   set-up is done; with --setup-only it then exits
  {"op": {...}}                 one op: phase, wall seconds, ok, error, per-command times
  {"done": {...}}               peak RSS and, in traced runs, the per-layer totals

One op runs at a time, and the next starts only when the previous one and its
output check are done. Only the op itself is timed; checks run between ops.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from hdce import cli, evaluation, io, synthetic
from hdce.model import FactorKind
from hdce.simulation import SimulationConfig

from checks import (
    CheckFailed,
    check_manifest,
    check_mc_mean,
    check_prediction,
    check_records,
    check_report,
    check_validation,
    require,
    sha256_file,
)
from tracer import Tracer, merge_totals

EXAMPLES = "schemas/examples"
MODEL = f"{EXAMPLES}/model.json"
PROJECTS = f"{EXAMPLES}/projects.json"
RANKINGS = f"{EXAMPLES}/rankings.csv"
# a CLI subcommand that takes longer than this counts as failed (normal: ~2 s)
SUBCOMMAND_TIMEOUT_S = 30.0
IMPORT_PROBES = 3


def _emit(kind: str, payload) -> None:
    sys.stdout.write(json.dumps({kind: payload}) + "\n")
    sys.stdout.flush()


KINDS = (FactorKind.DEFECT_CONTENT, FactorKind.EFFECTIVENESS)


def _logical_draws(model, projects, sample_count: int, kinds=KINDS) -> int:
    """(project, factor, sample) triples a computation needs, however it draws them."""
    return sum(len(model.factors_of_kind(k)) for k in kinds) * len(projects) * sample_count


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _Validation:
    """Shared op and check for the two in-process run_validation workloads."""

    def _run(self, model, projects, cfg):
        return evaluation.run_validation(model, projects, cfg)

    def _check(self, key, model, projects, cfg, report) -> None:
        digest = check_report(report)
        if key not in self.digests:
            # first sight of these inputs: check the predictions against analytic means once
            check_validation(model, projects, cfg, report)
            self.digests[key] = digest
        require(self.digests[key] == digest, f"{key}: run_validation output changed between ops")


class PortfolioLoocv(_Validation):
    PROJECTS = 200
    SAMPLES = 10_000
    cycle = 1
    warmup = True

    def __init__(self, seed: int, tmp: Path):
        rng = np.random.default_rng(seed)
        self.model = synthetic.build_synthetic_model(rng, n_dc=5, n_eff=5)
        self.projects = synthetic.generate_projects(self.model, self.PROJECTS, rng)
        self.cfg = SimulationConfig(seed=seed, sample_count=self.SAMPLES)
        self.digests: dict = {}
        self.sizes = {"projects": self.PROJECTS, "samples": self.SAMPLES, "dc_factors": 5, "eff_factors": 5}
        self.logical_draws = _logical_draws(self.model, self.projects, self.SAMPLES)

    def op(self, i: int):
        return self._run(self.model, self.projects, self.cfg)

    def check(self, i: int, report) -> None:
        self._check("portfolio", self.model, self.projects, self.cfg, report)


class ReplicationStudy(_Validation):
    REPLICATIONS = 20
    PROJECTS = 20
    SAMPLES = 2_000
    warmup = True

    def __init__(self, seed: int, tmp: Path):
        self.replications = []
        for rep in range(self.REPLICATIONS):
            rng = np.random.default_rng([seed, rep])
            model = synthetic.build_synthetic_model(rng)
            projects = synthetic.generate_projects(model, self.PROJECTS, rng)
            cfg = SimulationConfig(seed=(seed + 5000 + rep) % 2**64, sample_count=self.SAMPLES)
            self.replications.append((model, projects, cfg))
        self.cycle = self.REPLICATIONS
        self.digests: dict = {}
        self.sizes = {"replications": self.REPLICATIONS, "projects": self.PROJECTS, "samples": self.SAMPLES,
                      "dc_factors": 5, "eff_factors": 5}
        self.logical_draws = sum(_logical_draws(m, p, self.SAMPLES) for m, p, _ in self.replications)

    def op(self, i: int):
        return self._run(*self.replications[i % self.cycle])

    def check(self, i: int, report) -> None:
        rep = i % self.cycle
        self._check(f"replication {rep}", *self.replications[rep], report)


def _example_inputs():
    model = io.load_model(MODEL)
    projects = {p.project_id: p for p in io.load_projects(PROJECTS)}
    return model, projects


class PredictLargeN:
    SAMPLES = 1_000_000
    TARGET = "review-next"
    cycle = 1
    warmup = True

    def __init__(self, seed: int, tmp: Path):
        self.model, self.projects = _example_inputs()
        self.out = tmp / "prediction.json"
        self.argv = ["predict", "--model", MODEL, "--projects", PROJECTS, "--target", self.TARGET,
                     "--seed", str(seed), "--samples", str(self.SAMPLES), "--quantiles", "0.10,0.90",
                     "--out", str(self.out)]
        self.digest = None
        used = [p for p in self.projects.values() if p.defects_found is not None or p.project_id == self.TARGET]
        self.sizes = {"projects": len(used), "samples": self.SAMPLES,
                      "dc_factors": len(self.model.factors_of_kind(KINDS[0])),
                      "eff_factors": len(self.model.factors_of_kind(KINDS[1]))}
        self.logical_draws = _logical_draws(self.model, used, self.SAMPLES)

    def op(self, i: int):
        return cli.main(self.argv)  # looked up per op, so a traced run calls the wrapper

    def check(self, i: int, exit_code) -> None:
        require(exit_code == 0, f"predict exited {exit_code}")
        digest = sha256_file(self.out)
        check_manifest(self.out.with_name(self.out.name + ".manifest.json"), Path.cwd())
        if self.digest is None:
            payload = json.loads(self.out.read_text(encoding="utf-8"))
            check_prediction(payload, "predict")
            ch = self.projects[self.TARGET].characterization
            for kind, key in zip(KINDS, ("ddif_mean", "eif_mean")):
                check_mc_mean(self.model, ch, kind, payload[key], self.SAMPLES, f"predict {key}")
            self.digest = digest
        require(digest == self.digest, "prediction.json changed between ops")


class CliTour:
    """The README's six subcommands, each a fresh ``python -m hdce.cli`` process."""

    SAMPLES = 10_000
    cycle = 1
    # the set-up probes already load every file a tour reads; a warm-up tour
    # would add ~10 s to each run and warm nothing more
    warmup = False

    def __init__(self, seed: int, tmp: Path):
        self.model, self.projects = _example_inputs()
        s = ["--seed", str(seed), "--samples", str(self.SAMPLES)]
        files = ["--model", MODEL, "--projects", PROJECTS]
        self.commands = {
            "rank-analyze": ["rank-analyze", "--rankings", RANKINGS, "--out", str(tmp / "analysis.json")],
            "model-check": ["model-check", *files, "--require-quantified"],
            "simulate": ["simulate", *files, "--project", "review-c", "--kind", "dc", *s, "--out", str(tmp / "ddif.json")],
            "plan": ["plan", *files, *s, "--out", str(tmp / "chart.csv"), "--svg", str(tmp / "chart.svg")],
            "predict": ["predict", *files, "--target", "review-next", *s, "--quantiles", "0.10,0.90",
                        "--out", str(tmp / "prediction.json")],
            "validate": ["validate", *files, *s, "--alpha", "0.05", "--variants", "all", "--out", str(tmp / "report.json")],
        }
        self.artifacts = [tmp / n for n in ("analysis.json", "ddif.json", "chart.csv", "chart.svg",
                                            "prediction.json", "report.json", "report.json.re.csv")]
        self.manifests = [tmp / f"{n}.manifest.json" for n in ("analysis.json", "ddif.json", "chart.csv",
                                                                "prediction.json", "report.json")]
        self.tmp = tmp
        self.digests = None
        self.traced = False
        self.trace_parts: list[dict] = []
        history = [p for p in self.projects.values() if p.defects_found]
        n = self.SAMPLES
        self.logical_draws = (
            _logical_draws(self.model, [self.projects["review-c"]], n, KINDS[:1])  # simulate
            + _logical_draws(self.model, list(self.projects.values()), n)  # plan
            + _logical_draws(self.model, [p for p in self.projects.values()  # predict
                                          if p.defects_found is not None or p.project_id == "review-next"], n)
            + _logical_draws(self.model, history, n)  # validate
        )
        self.sizes = {"projects": len(self.projects), "samples": n,
                      "dc_factors": len(self.model.factors_of_kind(KINDS[0])),
                      "eff_factors": len(self.model.factors_of_kind(KINDS[1]))}

    def op(self, i: int):
        times = {}
        for name, argv in self.commands.items():
            if self.traced:
                trace_file = self.tmp / f"trace-{name}.json"
                cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(trace_file), *argv]
            else:
                cmd = [sys.executable, "-m", "hdce.cli", *argv]
            start = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=SUBCOMMAND_TIMEOUT_S)
            times[name] = time.perf_counter() - start
            if proc.returncode != 0:
                raise CheckFailed(f"{name} exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
            if self.traced:
                self.trace_parts.append(json.loads(trace_file.read_text(encoding="utf-8")))
        return times

    def check(self, i: int, times) -> None:
        for manifest in self.manifests:
            check_manifest(manifest, Path.cwd())
        digests = [sha256_file(p) for p in self.artifacts]
        if self.digests is None:
            self._check_contents()
            self.digests = digests
        changed = [p.name for p, a, b in zip(self.artifacts, digests, self.digests) if a != b]
        require(not changed, f"artifacts changed between tours: {', '.join(changed)}")

    def _check_contents(self) -> None:
        ddif = json.loads((self.tmp / "ddif.json").read_text(encoding="utf-8"))
        check_mc_mean(self.model, self.projects["review-c"].characterization, FactorKind.DEFECT_CONTENT,
                      ddif["mean"], self.SAMPLES, "simulate review-c dc")
        prediction = json.loads((self.tmp / "prediction.json").read_text(encoding="utf-8"))
        check_prediction(prediction, "predict")
        ch = self.projects["review-next"].characterization
        for kind, key in zip(KINDS, ("ddif_mean", "eif_mean")):
            check_mc_mean(self.model, ch, kind, prediction[key], self.SAMPLES, f"predict {key}")
        report = json.loads((self.tmp / "report.json").read_text(encoding="utf-8"))
        check_records(report["records"], "validate")
        rows = (self.tmp / "chart.csv").read_text(encoding="utf-8").splitlines()[1:]
        require(len(rows) == len(self.projects), "plan: chart.csv lacks projects")
        for row in rows:
            _, dd, eff, quadrant = row.split(",")
            require(quadrant in {"Q1", "Q2", "Q3", "Q4"} and all(v not in {"nan", "inf", "-inf"} for v in (dd, eff)),
                    f"plan: bad chart row {row!r}")


WORKLOADS = {
    "cli-tour": CliTour,
    "portfolio-loocv": PortfolioLoocv,
    "replication-study": ReplicationStudy,
    "predict-large-n": PredictLargeN,
}


# ---------------------------------------------------------------------------
# import probes
# ---------------------------------------------------------------------------


def import_wall() -> float:
    """Wall seconds of a fresh interpreter importing hdce.cli: cli-tour's set-up."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hdce.cli"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=SUBCOMMAND_TIMEOUT_S, check=True)
    return time.perf_counter() - start


_IMPORTTIME = re.compile(r"^import time:\s*\d+ \|\s*(\d+) \|( *)(\S+)\s*$")


def import_probe() -> dict[str, float]:
    """Cumulative import seconds of hdce.cli and scipy.stats in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hdce.cli"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(3) in ("hdce.cli", "scipy.stats") and m.group(3) not in found:
            if m.group(3) == "hdce.cli" and m.group(2) != " ":
                continue  # only the top-level entry covers the whole import
            found[m.group(3)] = int(m.group(1)) / 1e6
    return {"import.hdce_cli_s": found.get("hdce.cli", 0.0), "import.scipy_stats_s": found.get("scipy.stats", 0.0)}


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------


def _run_op(workload, i: int, phase: str, tracer: Tracer | None = None) -> None:
    record = {"i": i, "phase": phase, "ok": True, "error": None}
    start = time.perf_counter()
    try:
        output = workload.op(i)
        record["s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False  # the check's own hdce calls are not part of the op
        workload.check(i, output)
        if isinstance(workload, CliTour):
            record["cmd"] = output
    except Exception as exc:  # any failure of one op is counted, and the loop goes on
        record.setdefault("s", time.perf_counter() - start)
        record.update(ok=False, error=f"{type(exc).__name__}: {exc}"[:500])
    finally:
        if tracer is not None:
            tracer.active = True
    _emit("op", record)


def _traced_phase(workload, seconds: float, start_index: int) -> dict:
    tracer = None
    if isinstance(workload, CliTour):
        workload.traced = True
    else:
        tracer = Tracer()
        tracer.install()
    cycle_counts = None
    i = start_index
    ops = 0
    started = time.perf_counter()
    while ops < workload.cycle or time.perf_counter() - started < seconds:
        _run_op(workload, i, "traced", tracer)
        i += 1
        ops += 1
        if ops == workload.cycle:
            totals = merge_totals(workload.trace_parts) if tracer is None else tracer.totals()
            cycle_counts = {"calls": totals["calls"], "counts": totals["counts"]}
    totals = merge_totals(workload.trace_parts) if tracer is None else tracer.totals()
    return {"ops": ops, "cycle": workload.cycle, "cycle_counts": cycle_counts, "totals": totals,
            "logical_draws_per_cycle": workload.logical_draws}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="directory for the op outputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path("src").resolve()
    require(Path(cli.__file__).resolve().is_relative_to(src), f"hdce imported from {cli.__file__}, not {src}")
    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed % 2**64, tmp)
    _emit("ready", workload.sizes)
    if args.setup_only:
        return 0

    if workload.warmup:
        _run_op(workload, 0, "warm")
    timed = args.seconds / 2 if args.trace else args.seconds
    # cli-tour's set-up samples: one before the tours and one after each
    probe_setup = isinstance(workload, CliTour) and not args.trace
    setups = [import_wall()] if probe_setup else []
    i = 1
    started = time.perf_counter()
    while time.perf_counter() - started < timed:
        _run_op(workload, i, "timed")
        if probe_setup:
            setups.append(import_wall())
        i += 1
    done = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            "setups": setups}
    if args.trace:
        done["trace"] = _traced_phase(workload, args.seconds / 2, i)
        probes = [import_probe() for _ in range(IMPORT_PROBES)]
        done["trace"]["imports"] = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
    _emit("done", done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
