"""Output checks behind the benchmark's failure count.

Each check raises CheckFailed with a one-line reason. The checks do not trust
the code they check more than they must: Monte Carlo means are compared with
``simulation.analytic_mean`` using a standard error computed from the model's
triangular variances, and artifact digests are recomputed from the files.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from hdce import evaluation
from hdce.model import FactorKind
from hdce.simulation import analytic_mean

MC_SIGMAS = 5.0


class CheckFailed(Exception):
    pass


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def analytic_sd(model, ch, kind) -> float:
    """Standard deviation of one simulated DDIF/EIF sample.

    The sample is a sum of independent Triangular(a, c, b) draws scaled by
    level/3; a triangular variance is (a^2 + b^2 + c^2 - ab - ac - bc) / 18.
    """
    variance = 0.0
    for f in model.factors_of_kind(kind):
        a, c, b = f.multiplier.min, f.multiplier.most_likely, f.multiplier.max
        weight = ch.levels[f.id] / 3.0
        variance += weight * weight * (a * a + b * b + c * c - a * b - a * c - b * c) / 18.0
    return math.sqrt(variance)


def check_mc_mean(model, ch, kind, mean: float, sample_count: int, what: str) -> None:
    """The simulated mean lies within MC_SIGMAS standard errors of the analytic mean."""
    expected = analytic_mean(model, ch, kind)
    tolerance = _mc_tolerance(model, ch, kind, sample_count)
    require(_finite(mean), f"{what}: mean {mean!r} is not finite")
    require(
        abs(mean - expected) <= tolerance,
        f"{what}: mean {mean!r} is {abs(mean - expected):.3g} from the analytic {expected!r} "
        f"(allowed {tolerance:.3g})",
    )


def _mc_tolerance(model, ch, kind, sample_count: int) -> float:
    return MC_SIGMAS * analytic_sd(model, ch, kind) / math.sqrt(sample_count)


def check_validation(model, projects, cfg, report) -> None:
    """The report's LOOCV predictions agree with those built from analytic means.

    The reference is ``evaluation.loocv`` with every project's analytic DDIF
    and EIF means in place of simulated ones. A prediction is
    size * (1+DDIF) * (1+EIF) of its target times the median of
    DF / (size * (1+DDIF) * (1+EIF)) over its training projects, so if each
    mean the op used lies within MC_SIGMAS standard errors of its analytic
    value, the log of a prediction moves by at most the target's own log shift
    plus the largest one among the training projects.
    """
    means = {}
    shifts = []
    for p in projects:
        ch = p.characterization
        pair, shift = [], 0.0
        for kind in (FactorKind.DEFECT_CONTENT, FactorKind.EFFECTIVENESS):
            mean = analytic_mean(model, ch, kind)
            tol = _mc_tolerance(model, ch, kind, cfg.sample_count)
            require(mean - tol > -1.0, f"{p.project_id} {kind.value}: 1 + mean may reach 0")
            shift += max(math.log1p(mean + tol) - math.log1p(mean), math.log1p(mean) - math.log1p(mean - tol))
            pair.append(mean)
        means[p.project_id] = tuple(pair)
        shifts.append(shift)
    allowed = 2.0 * max(shifts)
    for variant in report.variants:
        reference, _ = evaluation.loocv(model, projects, variant, cfg, means=means)
        records = report.records[variant]
        require([r.project_id for r in records] == [r.project_id for r in reference],
                f"run_validation: {variant.value} covers other projects than the reference")
        for r, ref in zip(records, reference):
            require(r.predicted > 0, f"run_validation: {variant.value} {r.project_id} predicted {r.predicted!r}")
            off = abs(math.log(r.predicted / ref.predicted))
            require(
                off <= allowed,
                f"run_validation: {variant.value} {r.project_id} predicted {r.predicted!r}, analytic means give "
                f"{ref.predicted!r} (log ratio {off:.3g}, allowed {allowed:.3g})",
            )


def check_records(records: dict, what: str) -> None:
    """LOOCV records ({variant: [{project_id, actual, predicted, re, mre}]}) are finite and ordered."""
    require(records, f"{what}: no LOOCV records")
    reference = None
    for variant, rows in records.items():
        ids = [r["project_id"] for r in rows]
        require(ids == sorted(ids), f"{what}: {variant} records are not ordered by project id")
        require(reference is None or ids == reference, f"{what}: {variant} covers other projects")
        reference = ids
        for r in rows:
            require(
                _finite(r["actual"], r["predicted"], r["re"], r["mre"]),
                f"{what}: {variant} record for {r['project_id']} is not finite",
            )
            require(r["actual"] > 0 and r["mre"] == abs(r["re"]), f"{what}: {variant} {r['project_id']} RE/MRE mismatch")


def check_report(report) -> str:
    """Check a ValidationReport; return a digest of its contents for determinism checks."""
    records = {
        v.value: [
            {"project_id": r.project_id, "actual": r.actual, "predicted": r.predicted, "re": r.re, "mre": r.mre}
            for r in report.records[v]
        ]
        for v in report.variants
    }
    check_records(records, "run_validation")
    for v in report.variants:
        mres = [r["mre"] for r in records[v.value]]
        require(math.isclose(report.mmre[v], sum(mres) / len(mres), rel_tol=1e-9),
                f"run_validation: {v.value} MMRE is not the mean of its MREs")
    for c in report.comparisons:
        require(_finite(c.p_value) and 0.0 <= c.p_value <= 1.0, f"run_validation: p-value {c.p_value!r} out of [0, 1]")
    summary = (records, sorted((v.value, m) for v, m in report.mmre.items()),
               [(c.variant_a.value, c.variant_b.value, c.p_value, c.method) for c in report.comparisons])
    return hashlib.sha256(repr(summary).encode()).hexdigest()


def check_prediction(payload: dict, what: str) -> None:
    low, high = payload["interval"]
    require(_finite(payload["point"], low, high, payload["baseline"]), f"{what}: non-finite prediction")
    require(0.0 < low <= high, f"{what}: interval {low!r}..{high!r} is not ordered")


def check_manifest(manifest_path: Path, root: Path) -> None:
    """Every digest in a run manifest matches the file it names."""
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    for section in ("inputs", "outputs"):
        for name, digest in manifest[section].items():
            require(sha256_file(root / name) == digest, f"{manifest_path.name}: {section} digest of {name} is stale")
