"""Span wrappers around hdce's public functions, for the benchmark's traced runs.

A Tracer replaces each target function with a wrapper in every loaded ``hdce``
module that binds it (``hdce.simulate``, ``hdce.evaluation.simulate``, ...), so
calls made through any import path are timed. Spans nest: a span's self time is
its duration minus the durations of the spans it encloses. Alongside times the
tracer counts the work done at the same boundaries (uniforms generated, exact
Wilcoxon sign patterns enumerated, bytes written).

Run as a script, it traces one CLI invocation in a fresh interpreter::

    python perfbench/tracer.py TRACE_OUT.json <hdce subcommand and flags>

which runs ``hdce.cli.main`` under the tracer, writes the tracer's totals to
TRACE_OUT.json and exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name). Several functions may share a span name; the
# per-layer metric for a name is then the sum over them.
TARGETS = (
    ("hdce.cli", "main", "cli.main"),
    ("hdce.io", "load_model", "io.load"),
    ("hdce.io", "load_projects", "io.load"),
    ("hdce.io", "load_rankings", "io.load"),
    ("hdce.io", "write_json", "io.write"),
    ("hdce.io", "write_csv", "io.write"),
    ("hdce.io", "sha256_file", "io.manifest"),
    ("hdce.elicitation", "analyze_rankings", "elicitation.analyze_rankings"),
    ("hdce.model", "validate_model", "model.validate"),
    ("hdce.model", "validate_characterization", "model.validate_characterization"),
    ("hdce.simulation", "simulate", "simulation.simulate"),
    ("hdce.simulation", "factor_stream", "simulation.factor_stream"),
    ("hdce.simulation", "counter_uniforms", "simulation.counter_uniforms"),
    ("hdce.simulation", "triangular_inverse_cdf", "simulation.triangular"),
    ("hdce.simulation", "EmpiricalDistribution.from_samples", "simulation.quantile"),
    ("hdce.estimation", "estimate_baseline", "estimation.estimate_baseline"),
    ("hdce.estimation", "predict_defects_found", "estimation.predict"),
    ("hdce.evaluation", "run_validation", "evaluation.run_validation"),
    ("hdce.evaluation", "project_factor_means", "evaluation.project_factor_means"),
    ("hdce.evaluation", "loocv", "evaluation.loocv"),
    ("hdce.evaluation", "compare_variants", "evaluation.compare_variants"),
    ("hdce.evaluation", "wilcoxon_signed_rank", "evaluation.wilcoxon"),
    ("hdce.planning", "build_risk_chart", "planning.chart"),
    ("hdce.planning", "risk_chart_svg", "planning.chart"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))
COUNT_NAMES = ("simulation.uniforms_generated", "evaluation.wilcoxon_exact_patterns", "io.bytes_written")


def _count_uniforms(args, kwargs, _result) -> tuple[str, int]:
    count = args[3] if len(args) > 3 else kwargs["count"]
    return "simulation.uniforms_generated", int(count)


def _count_exact_patterns(_args, _kwargs, result) -> tuple[str, int]:
    return "evaluation.wilcoxon_exact_patterns", 2**result.n_nonzero if result.method == "exact" else 0


def _count_bytes(args, kwargs, _result) -> tuple[str, int]:
    path = args[0] if args else kwargs["path"]
    return "io.bytes_written", os.path.getsize(path)


_COUNTERS = {
    ("hdce.simulation", "counter_uniforms"): _count_uniforms,
    ("hdce.evaluation", "wilcoxon_signed_rank"): _count_exact_patterns,
    ("hdce.io", "write_json"): _count_bytes,
    ("hdce.io", "write_csv"): _count_bytes,
}


class Tracer:
    """Accumulates self time, total time and calls per span name, plus work counters."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.active = True  # while False, wrapped functions run untraced
        self._stack: list[list[float]] = []  # per open span: [child seconds]

    def _wrap(self, fn, name: str, counter):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self.self_s[name] += duration - frame[0]
                self.total_s[name] += duration
                self.calls[name] += 1
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                self.counts[key] += amount
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in each loaded hdce module that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "hdce" or n.startswith("hdce.")]
        for module_name, attr, name in TARGETS:
            counter = _COUNTERS.get((module_name, attr))
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name, None)
                raw = cls.__dict__.get(method) if cls is not None else None
                if not isinstance(raw, classmethod):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(cls, method, classmethod(self._wrap(raw.__func__, name, counter)))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def totals(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }


def merge_totals(parts: list[dict]) -> dict:
    """Sum several tracer totals (for example one per CLI subprocess)."""
    sections = ("self_s", "total_s", "calls", "counts")
    merged = {section: defaultdict(int) for section in sections}
    merged["missing"] = []
    for part in parts:
        for section in sections:
            for key, value in part[section].items():
                merged[section][key] += value
        merged["missing"] += [m for m in part["missing"] if m not in merged["missing"]]
    return {k: (dict(v) if isinstance(v, defaultdict) else v) for k, v in merged.items()}


def _trace_cli(trace_out: str, argv: list[str]) -> int:
    import hdce.cli

    tracer = Tracer()
    tracer.install()
    try:
        return hdce.cli.main(argv)
    finally:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.totals(), handle)


if __name__ == "__main__":
    sys.exit(_trace_cli(sys.argv[1], sys.argv[2:]))
