"""Command-line interface: rank-analyze, model-check, simulate, plan, predict, validate.

Exit codes: 0 success, 1 validation/data or write error, 2 usage error. Diagnostics go
to stderr; data goes to the --out files. A failure is an HdceError with a code and an exit
status, raised by a handler, the library or the parser (as [usage]); main makes one of an
OSError, MemoryError, FloatingPointError or ValueError, and prints it once as `error:
[code] message`. Every stochastic subcommand requires an explicit --seed so reruns are
reproducible; plan and validate use exact means, so their outputs depend on neither
--seed nor --samples. A run's outputs and their manifest (input digests, seed, tool
version) are written together or not at all.

Each subcommand loads only the hdce modules it runs: importing this module loads no
other, main and build_parser load diagnostics and model, and each handler imports
what it calls (io, and numpy only for simulate and predict). A default that lives in
a library module is read there when its subcommand runs, never restated here.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .diagnostics import Diagnostic
    from .evaluation import Variant
    from .io import RunOutputs

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2

# --kind's spellings, each naming a model.FactorKind member
_KIND_ALIASES = {"dc": "DEFECT_CONTENT", "eff": "EFFECTIVENESS"}
# both ways a finite input can overflow: every message ends with them
_NON_FINITE_CAUSES = "an input near the largest double, or a tiny size against a huge defect count"


def _print_diagnostics(diagnostics: list[Diagnostic]) -> None:
    for d in diagnostics:
        print(str(d), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Prints the usage line and fails as every other error does: error: [usage] <prog>: <message>, exit 2."""

    def error(self, message: str):
        from .diagnostics import HdceError

        self.print_usage(sys.stderr)
        raise HdceError(f"{self.prog}: {message}", code="usage", exit_status=EXIT_USAGE)


def _parse_quantiles(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated probabilities, e.g. 0.10,0.90")
    try:
        low, high = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"quantiles must be numbers, got {text!r}") from None
    if not 0.0 <= low <= high <= 1.0:
        raise argparse.ArgumentTypeError("quantiles must satisfy 0 <= low <= high <= 1")
    return low, high


def _parse_variants(text: str) -> tuple[Variant, ...]:
    from .evaluation import ALL_VARIANTS, Variant

    if text == "all":
        return ALL_VARIANTS
    variants = []
    for name in text.split(","):
        name = name.strip()
        try:
            variant = Variant(name)
        except ValueError:
            known = ", ".join(v.value for v in ALL_VARIANTS)
            raise argparse.ArgumentTypeError(f"unknown variant {name!r}; known: all, {known}") from None
        if variant in variants:
            raise argparse.ArgumentTypeError(f"variant {name!r} is listed more than once")
        variants.append(variant)
    if not variants:
        raise argparse.ArgumentTypeError("empty variant list")
    return tuple(variants)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _threshold(text: str) -> float:
    value = _finite_float(text)
    if not value >= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number >= 1.0, got {text!r}")
    return value


def _probability(text: str) -> float:
    value = _finite_float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a probability in (0, 1), got {text!r}")
    return value


def _seed_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _sample_count_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"sample count must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("sample count must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    from .model import DEFAULT_SAMPLE_COUNT

    parser = _Parser(
        prog="hdce",
        description="Hybrid defect content and effectiveness modeling for QA planning and controlling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common_files = argparse.ArgumentParser(add_help=False)
    common_files.add_argument("--model", required=True, help="model JSON file")
    common_files.add_argument("--strict", action="store_true", help="treat unknown input fields as errors")

    stochastic = argparse.ArgumentParser(add_help=False)
    stochastic.add_argument("--seed", type=_seed_type, required=True, help="simulation seed (required)")
    stochastic.add_argument("--samples", type=_sample_count_type, default=DEFAULT_SAMPLE_COUNT, help="Monte Carlo sample count")

    p = sub.add_parser("rank-analyze", help="analyze expert ranking questionnaires")
    p.add_argument("--rankings", required=True, help="rankings CSV file")
    p.add_argument("--out", required=True, help="analysis report JSON")
    p.add_argument("--threshold", type=_threshold, help="selection threshold on the minimal mean rank")
    p.add_argument("--alpha", type=_probability, default=0.05, help="significance level for Kendall's W")
    p.set_defaults(handler=cmd_rank_analyze)

    p = sub.add_parser("model-check", parents=[common_files], help="validate a model (and optionally projects)")
    p.add_argument("--projects", help="projects JSON file to check against the model")
    p.add_argument("--require-quantified", action="store_true", help="error on unquantified factors")
    p.add_argument("--out", help="optional diagnostics JSON")
    p.set_defaults(handler=cmd_model_check)

    p = sub.add_parser("simulate", parents=[common_files, stochastic], help="simulate a DDIF or EIF distribution")
    p.add_argument("--projects", required=True, help="projects JSON file")
    p.add_argument("--project", required=True, help="project id to simulate")
    p.add_argument("--kind", required=True, choices=sorted(_KIND_ALIASES), help="dc = defect content, eff = effectiveness")
    p.add_argument("--out", required=True, help="distribution JSON")
    p.add_argument("--emit-samples", action="store_true", help="include the raw sample vector in the output")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("plan", parents=[common_files, stochastic], help="build the QA-planning risk chart")
    p.add_argument("--projects", required=True, help="projects JSON file")
    p.add_argument("--scale-factor", type=_positive_float, default=1.0, help="fixed scaling factor f for the chart")
    p.add_argument("--out", required=True, help="risk chart CSV")
    p.add_argument("--svg", help="optional standalone SVG chart")
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser("predict", parents=[common_files, stochastic], help="predict defects found for a project")
    p.add_argument("--projects", required=True, help="projects JSON file")
    p.add_argument("--target", required=True, help="project id to predict")
    p.add_argument("--quantiles", type=_parse_quantiles, help="interval quantile pair, e.g. 0.10,0.90")
    p.add_argument("--out", required=True, help="prediction JSON")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("validate", parents=[common_files, stochastic], help="run the LOOCV validation harness")
    p.add_argument("--projects", required=True, help="projects JSON file")
    p.add_argument("--alpha", type=_probability, default=0.05, help="significance level for pairwise Wilcoxon tests")
    p.add_argument("--variants", type=_parse_variants, default="all", help="all or a comma-separated variant list")
    p.add_argument("--out", required=True, help="validation report JSON")
    p.add_argument("--re-csv", help="per-project RE values CSV (default: <out>.re.csv)")
    p.set_defaults(handler=cmd_validate)

    return parser


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def cmd_rank_analyze(args) -> int:
    from . import io
    from .elicitation import DEFAULT_SELECTION_THRESHOLD, analyze_rankings

    threshold = DEFAULT_SELECTION_THRESHOLD if args.threshold is None else args.threshold
    sheets = io.load_rankings(args.rankings)
    analysis = analyze_rankings(sheets, threshold=threshold, alpha=args.alpha)
    _print_diagnostics(list(analysis.advisories))
    report = {
        "threshold": analysis.threshold,
        "alpha": analysis.alpha,
        "categories": [
            {
                "kind": c.kind.value,
                "category": c.category.value,
                "experts": c.expert_count,
                "kendalls_w": c.w,
                "w_note": c.w_note,
                "p_value": c.p_value,
                "small_n_approximation": c.small_n_approximation,
                "significant": c.significant,
                "factors": [
                    {
                        "factor_id": s.factor_id,
                        "mean_rank": s.mean,
                        "min": s.min,
                        "max": s.max,
                        "sd": s.sd,
                        "selected": s.factor_id in c.selected,
                    }
                    for s in c.stats
                ],
            }
            for c in analysis.categories
        ],
        "selected": sorted(analysis.selected),
    }
    with io.RunOutputs("rank-analyze", [args.rankings],
                       parameters={"threshold": threshold, "alpha": args.alpha}) as run:
        io.write_json(run.path(args.out), report)
    return EXIT_OK


def cmd_model_check(args) -> int:
    from . import io
    from .diagnostics import Severity, has_errors
    from .model import validate_characterization, validate_model

    parse_diags: list[Diagnostic] = []
    model = io.load_model(args.model, strict=args.strict, diagnostics=parse_diags)
    diagnostics = parse_diags + validate_model(model, require_quantified=args.require_quantified)
    if args.projects:
        projects = io.load_projects(args.projects, strict=args.strict, diagnostics=diagnostics)
        for project in projects:
            diagnostics.extend(validate_characterization(model, project.characterization))
    _print_diagnostics(diagnostics)
    if args.out:
        with io.RunOutputs("model-check", [args.model] + ([args.projects] if args.projects else [])) as run:
            io.write_json(run.path(args.out), {
                "errors": sum(d.severity is Severity.ERROR for d in diagnostics),
                "warnings": sum(d.severity is Severity.WARNING for d in diagnostics),
                "advisories": sum(d.severity is Severity.ADVISORY for d in diagnostics),
                "diagnostics": [
                    {"severity": d.severity.value, "code": d.code, "message": d.message}
                    for d in diagnostics
                ],
            })
    if has_errors(diagnostics):
        return EXIT_VALIDATION
    print(f"model ok: {len(model.factors)} factors", file=sys.stderr)
    return EXIT_OK


def _load_checked(args):
    from . import io

    diagnostics: list[Diagnostic] = []
    model = io.load_model(args.model, strict=args.strict, diagnostics=diagnostics)
    projects = io.load_projects(args.projects, strict=args.strict, diagnostics=diagnostics)
    _print_diagnostics(diagnostics)
    return model, projects


def _stochastic_run(command: str, args, **parameters) -> RunOutputs:
    from .io import RunOutputs

    return RunOutputs(command, [args.model, args.projects], seed=args.seed, sample_count=args.samples,
                      parameters=parameters)


def cmd_simulate(args) -> int:
    from . import io
    from .diagnostics import HdceError
    from .model import FactorKind, SimulationConfig
    from .simulation import simulate  # numpy loads only for the subcommands that draw

    model, projects = _load_checked(args)
    by_id = {p.project_id: p for p in projects}
    if args.project not in by_id:
        raise HdceError(f"project {args.project!r} not found in {args.projects}", code="not-found")
    kind = FactorKind[_KIND_ALIASES[args.kind]]
    cfg = SimulationConfig(seed=args.seed, sample_count=args.samples)
    distribution = simulate(model, by_id[args.project].characterization, kind, cfg)
    payload = {
        "project_id": args.project,
        "kind": kind.value,
        "mean": distribution.mean,
        "sd": distribution.sd,
        "quantiles": {format(q, "g"): v for q, v in sorted(distribution.quantiles.items())},
    }
    samples = ("samples", distribution.samples) if args.emit_samples else None
    with _stochastic_run("simulate", args, project=args.project, kind=args.kind,
                         emit_samples=bool(args.emit_samples)) as run:
        io.write_json(run.path(args.out), payload, samples)
    return EXIT_OK


def cmd_plan(args) -> int:
    from . import io, planning
    from .diagnostics import HdceError
    from .evaluation import project_factor_means

    model, projects = _load_checked(args)
    baseline_ids = {p.project_id for p in projects if p.defects_found is not None}
    if not baseline_ids:
        raise HdceError("no historical project (with defects_found) to anchor the chart", code="no-history")
    means = project_factor_means(model, projects)
    triples = [(p.project_id, *means[p.project_id]) for p in projects]
    chart = planning.build_risk_chart(triples, f=args.scale_factor, baseline_ids=baseline_ids)
    rows = [[p.project_id, p.relative_dd, p.relative_eff, p.quadrant.value] for p in chart.points]
    with _stochastic_run("plan", args, scale_factor=args.scale_factor) as run:
        io.write_csv(run.path(args.out), ["project_id", "relative_dd", "relative_eff", "quadrant"], rows)
        if args.svg:
            io.write_text(run.path(args.svg), planning.risk_chart_svg(chart))
        for point in chart.points:
            print(planning.risk_narrative(point), file=sys.stderr)
    return EXIT_OK


def cmd_predict(args) -> int:
    from . import io
    from .diagnostics import HdceError
    from .estimation import DEFAULT_PREDICTION_QUANTILES, estimate_baseline, predict_defects_found
    from .evaluation import project_factor_means
    from .model import SimulationConfig

    quantiles = DEFAULT_PREDICTION_QUANTILES if args.quantiles is None else args.quantiles
    model, projects = _load_checked(args)
    by_id = {p.project_id: p for p in projects}
    if args.target not in by_id:
        raise HdceError(f"target project {args.target!r} not found in {args.projects}", code="not-found")
    target = by_id[args.target]
    historical = [p for p in projects if p.defects_found is not None and p.project_id != args.target]
    if not historical:
        raise HdceError("no historical project (with defects_found) to estimate the baseline", code="no-history")

    means = project_factor_means(model, [*historical, target])
    diagnostics: list[Diagnostic] = []
    baseline = estimate_baseline(historical, means, diagnostics)
    cfg = SimulationConfig(seed=args.seed, sample_count=args.samples)
    prediction = predict_defects_found(model, target, means, baseline, cfg, quantile_pair=quantiles)
    _print_diagnostics(diagnostics)
    with _stochastic_run("predict", args, target=args.target, quantiles=list(quantiles)) as run:
        io.write_json(run.path(args.out), {
            "target": args.target,
            "point": prediction.point,
            "interval": list(prediction.interval),
            "quantile_pair": list(quantiles),
            "baseline": baseline.estimate,
            "per_project_eq5_values": baseline.per_project_values,
            "ddif_mean": prediction.ddif_mean,
            "eif_mean": prediction.eif_mean,
        })
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import io
    from .evaluation import run_validation
    from .model import SimulationConfig

    model, projects = _load_checked(args)
    cfg = SimulationConfig(seed=args.seed, sample_count=args.samples)
    report = run_validation(model, projects, cfg, variants=args.variants, alpha=args.alpha)
    _print_diagnostics(list(report.excluded))
    payload = {
        "alpha": report.alpha,
        "variants": [v.value for v in report.variants],
        "mmre": {v.value: report.mmre[v] for v in report.variants},
        "records": {
            v.value: [
                {
                    "project_id": r.project_id,
                    "actual": r.actual,
                    "predicted": r.predicted,
                    "re": r.re,
                    "mre": r.mre,
                }
                for r in report.records[v]
            ]
            for v in report.variants
        },
        "comparisons": [
            {
                "variant_a": c.variant_a.value,
                "variant_b": c.variant_b.value,
                "p_value": c.p_value,
                "significant": c.significant,
                "method": c.method,
            }
            for c in report.comparisons
        ],
        "excluded": [
            {"severity": d.severity.value, "code": d.code, "message": d.message}
            for d in report.excluded
        ],
    }
    re_csv = args.re_csv or os.path.join(os.path.dirname(args.out), os.path.basename(args.out) + ".re.csv")
    rows = [[v.value, r.project_id, r.re] for v in report.variants for r in report.records[v]]
    with _stochastic_run("validate", args, alpha=args.alpha, variants=[v.value for v in args.variants]) as run:
        io.write_json(run.path(args.out), payload)
        io.write_csv(run.path(re_csv), ["variant", "project_id", "re"], rows)
    for v in report.variants:
        print(f"{v.value}: MMRE = {report.mmre[v]:.6g}", file=sys.stderr)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    from .diagnostics import HdceError

    command = None
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        return args.handler(args)
    except (HdceError, OSError, MemoryError, FloatingPointError, ValueError) as exc:
        match exc:
            case HdceError():
                failure = exc
            case FileNotFoundError():
                failure = HdceError(f"file not found: {exc.filename}", code="file-not-found", exit_status=EXIT_USAGE)
            case OSError(filename=None):  # no path to blame: a full disk while writing, ...
                failure = HdceError(str(exc), code="write-failed")
            case OSError():  # a path that is a directory, not permitted, ...
                failure = HdceError(f"cannot use {exc.filename}: {exc.strerror}", code="cannot-use",
                                    exit_status=EXIT_USAGE)
            case MemoryError():
                detail = f": {exc}" if str(exc) else ""
                if command in ("simulate", "predict"):  # the subcommands that draw --samples
                    detail += "; a smaller --samples needs less"
                failure = HdceError(f"out of memory{detail}", code="out-of-memory")
            case FloatingPointError():  # the library raises it where a float result overflows
                failure = HdceError(f"{exc}: {_NON_FINITE_CAUSES}", code="non-finite-result")
            case _:  # any other ValueError the library raises on its input
                failure = HdceError(str(exc))
    _print_diagnostics(failure.diagnostics)
    return failure.exit_status


if __name__ == "__main__":
    sys.exit(main())
