#!/usr/bin/env python3
"""hdce benchmark: one command that runs a workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it finds the checkout root from its own
path and runs hdce from ``src``. Workloads (see perfbench/README.md for why each
exists): cli-tour, portfolio-loocv, replication-study, predict-large-n.

The load is a closed loop with one client: run.py spawns one worker process
(worker.py) at a time, and the worker starts an op only after the previous op
and its output check are done. Every wait on the worker has a deadline; an op
that misses it counts as failed and ends the run instead of stalling it.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run; the metric names
and units are those listed in BENCHMARK.json. Earlier lines report the
environment, every metric computed, and the reasons for any failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-tour", "portfolio-loocv", "replication-study", "predict-large-n")
CLI_COMMANDS = ("rank-analyze", "model-check", "simulate", "plan", "predict", "validate")
# deadlines: one worker message (an op, or a set-up) and the whole run
OP_TIMEOUT_S = 90.0
RUN_LIMIT_S = 170.0
EXIT_GRACE_S = 10.0  # for a worker that has sent its last message to exit on its own
TAIL_MIN_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot produce a result (not an op failure)."""


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Worker:
    """One worker process whose stdout lines are read with deadlines."""

    def __init__(self, argv: list[str], log_path: Path):
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        # a process group of its own, so that stop() can kill any CLI process it started too
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv], stdout=subprocess.PIPE, stderr=self._log,
            cwd=ROOT, env=_worker_env(), text=True, start_new_session=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def next(self, deadline: float) -> dict | None:
        """The next message; None at end of output. TimeoutError past the deadline."""
        timeout = min(OP_TIMEOUT_S, deadline - time.perf_counter())
        try:
            line = self._lines.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            raise TimeoutError from None
        return None if line is None else json.loads(line)

    def stop(self, grace: float = 0.0) -> int:
        """Give the worker `grace` seconds to exit, then kill its process group; return its exit code."""
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
        code = self.proc.wait()
        self._reader.join()
        self.proc.stdout.close()
        self._log.close()
        return code


def _log_tail(log_path: Path, limit: int = 2000) -> str:
    try:
        return log_path.read_text(encoding="utf-8", errors="replace")[-limit:]
    except FileNotFoundError:
        return ""


def _worker_args(args, tmp: Path, *extra: str) -> list[str]:
    return ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--tmp", str(tmp), *extra]


def _setup_worker(args, tmp: Path, log: Path, deadline: float) -> float:
    """Spawn a --setup-only worker; return the seconds from spawn to ready."""
    worker = Worker(_worker_args(args, tmp, "--setup-only"), log)
    msg = None
    try:
        msg = worker.next(deadline)
        elapsed = time.perf_counter() - worker.started
    except TimeoutError:
        raise BenchError("set-up timed out") from None
    finally:
        code = worker.stop(grace=EXIT_GRACE_S if msg else 0.0)
    if not msg or "ready" not in msg or code != 0:
        raise BenchError(f"set-up failed (exit {code}):\n{_log_tail(log)}")
    return elapsed


def measure(args, tmp: Path) -> dict:
    """Run set-ups and the measuring worker; return everything the worker reported."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    log = tmp / "worker.log"
    # In-process workloads: one set-up before the measuring worker, its own, and
    # one after it, so the samples span the run rather than its first seconds.
    # cli-tour's worker probes `import hdce.cli` between tours instead.
    in_process = args.trace == 0 and args.workload != "cli-tour"
    setups: list[float] = []
    if in_process:
        setups.append(_setup_worker(args, tmp, log, deadline))

    ops: list[dict] = []
    done = None
    timed_out = False
    worker = Worker(_worker_args(args, tmp), log)
    try:
        try:
            msg = worker.next(deadline)
        except TimeoutError:
            raise BenchError("worker set-up timed out") from None
        if not msg or "ready" not in msg:
            raise BenchError(f"worker set-up failed:\n{_log_tail(log)}")
        sizes = msg["ready"]
        if in_process:
            setups.append(time.perf_counter() - worker.started)
        while True:
            msg = worker.next(deadline)
            if msg is None or "done" in msg:
                done = msg and msg["done"]
                break
            ops.append(msg["op"])
    except TimeoutError:
        timed_out = True
        ops.append({"phase": "timed", "s": OP_TIMEOUT_S, "ok": False,
                    "error": "op timed out; worker killed and run ended"})
    finally:
        code = worker.stop(grace=EXIT_GRACE_S if done is not None else 0.0)
    if done is None and not timed_out:
        ops.append({"phase": "timed", "s": 0.0, "ok": False,
                    "error": f"worker exited {code} mid-run:\n{_log_tail(log)}"})
    if in_process and not timed_out:
        setups.append(_setup_worker(args, tmp, log, deadline))
    setups += (done or {}).get("setups", [])
    return {"setups": setups, "sizes": sizes, "ops": ops, "done": done or {}}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with TAIL_MIN_BEYOND values beyond it.

    None when that percentile would not lie above the median.
    """
    n = len(values)
    q = 1.0 - TAIL_MIN_BEYOND / n if n else 0.0
    if q <= 0.5:
        return None
    return 100.0 * q, sorted(values)[n - TAIL_MIN_BEYOND - 1]


def end_to_end(args, result: dict) -> tuple[dict, list[str]]:
    timed = [op for op in result["ops"] if op["phase"] == "timed"]
    times = [op["s"] for op in timed]
    notes = []
    rss_kb = result["done"].get("children_rss_kb" if args.workload == "cli-tour" else "rss_kb")
    if rss_kb is None:  # the worker was killed: fall back to every child's peak
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not result["setups"]:
        raise BenchError("no set-up was measured")
    metrics = {
        "setup_s": statistics.median(result["setups"]),
        "op_s_p50": statistics.median(times),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    t = tail(times)
    if t is None:
        notes.append(f"op_s_tail omitted: {len(times)} ops leave no percentile above the median "
                     f"with {TAIL_MIN_BEYOND} ops beyond it")
    else:
        metrics["op_s_tail"] = t[1]
        notes.append(f"op_s_tail is p{t[0]:.1f} of {len(times)} ops")
    for name in CLI_COMMANDS:
        cmd_times = [op["cmd"][name] for op in timed if name in op.get("cmd", {})]
        if cmd_times:
            metrics[f"cmd.{name}_s"] = statistics.median(cmd_times)
    return metrics, notes


def per_layer(args, result: dict) -> tuple[dict, list[str]]:
    from tracer import COUNT_NAMES, SPAN_NAMES

    trace = result["done"].get("trace")
    if trace is None:
        raise BenchError("the traced phase did not finish")
    ops = result["ops"]
    untraced = [op["s"] for op in ops if op["phase"] == "timed"]
    traced = [op["s"] for op in ops if op["phase"] == "traced"]
    n, cycle = trace["ops"], trace["cycle"]
    totals, first = trace["totals"], trace["cycle_counts"]
    metrics = dict(trace["imports"])
    for name in SPAN_NAMES:
        metrics[f"{name}_s"] = totals["self_s"].get(name, 0.0) / n
        metrics[f"{name}_total_s"] = totals["total_s"].get(name, 0.0) / n
        metrics[f"{name}_calls"] = first["calls"].get(name, 0) / cycle
    for name in COUNT_NAMES:
        metrics[name] = first["counts"].get(name, 0) / cycle
    metrics["simulation.quantile_summaries"] = metrics["simulation.quantile_calls"]
    metrics["simulation.uniforms_per_logical_draw"] = (
        first["counts"].get("simulation.uniforms_generated", 0) / trace["logical_draws_per_cycle"]
    )
    # every listed metric must be printed, so workloads without subcommand processes report 0
    for name in CLI_COMMANDS:
        cmd_times = [op["cmd"][name] for op in ops if op["phase"] == "timed" and name in op.get("cmd", {})]
        metrics[f"cmd.{name}_s"] = statistics.median(cmd_times) if cmd_times else 0.0
    op_wall = statistics.fmean(traced)
    self_sum = sum(totals["self_s"].values()) / n
    metrics.update({
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        "trace.op_wall_s": op_wall,
        "trace.self_sum_s": self_sum,
        "trace.unattributed_s": op_wall - self_sum,
    })
    notes = [f"per-layer times are seconds per op over {n} traced ops (_s: self, _total_s: with children); "
             f"counts are per op over the first cycle of {cycle} op(s)"]
    if args.workload != "cli-tour":
        notes.append("cmd.*_s read 0: this workload starts no subcommand process")
    if totals["missing"]:
        notes.append("not traced (function absent): " + ", ".join(totals["missing"]))
    if self_sum > op_wall:
        notes.append(f"traced self times ({self_sum:.6g} s) exceed the op wall time ({op_wall:.6g} s)")
    return metrics, notes


def environment(args, sizes: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": sizes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hdce" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no hdce sources (src/hdce) or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]

    tmp = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, tmp)
        metrics, notes = (per_layer if args.trace else end_to_end)(args, result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = len(result["ops"])
    failed = sum(not op["ok"] for op in result["ops"])
    print(f"env {json.dumps(environment(args, result['sizes']))}")
    if args.trace == 0:
        print(f"setup_s samples: {[round(s, 4) for s in result['setups']]}")
    for op in result["ops"]:
        if not op["ok"]:
            print(f"FAILED op ({op['phase']}): {op['error']}")
    print(f"fail_ratio = {failed / attempted} ({failed} of {attempted} ops, warm-up and traced ops included)")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units.get(name, 's' if name.endswith('_s') else '')}".rstrip())
    for note in notes:
        print(f"note: {note}")
    absent = [m["name"] for m in listed if m["name"] not in metrics]
    if absent:
        print(f"error: metrics listed in BENCHMARK.json but not measured: {', '.join(absent)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
