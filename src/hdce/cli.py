"""Command-line interface: rank-analyze, model-check, simulate, plan, predict, validate.

Exit codes: 0 success, 1 validation/data or write error, 2 usage error. Diagnostics go
to stderr; data goes to the --out files. Every stochastic subcommand requires an
explicit --seed so reruns are reproducible; plan and validate use exact means, so
their outputs depend on neither --seed nor --samples. A run's outputs and their
manifest (input digests, seed, tool version) are written together or not at all.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import estimation, io, planning
from .diagnostics import (
    Diagnostic,
    EmptyInputError,
    HdceError,
    InputFormatError,
    ModelValidationError,
    Severity,
    error,
    has_errors,
)
from .elicitation import DEFAULT_SELECTION_THRESHOLD, analyze_rankings
from .evaluation import ALL_VARIANTS, Variant, project_factor_means, run_validation
from .model import DEFAULT_SAMPLE_COUNT, FactorKind, SimulationConfig, validate_characterization, validate_model

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2

_KIND_ALIASES = {"dc": FactorKind.DEFECT_CONTENT, "eff": FactorKind.EFFECTIVENESS}
# both ways a finite input can overflow: every message ends with them
_NON_FINITE_CAUSES = "an input near the largest double, or a tiny size against a huge defect count"


def _print_diagnostics(diagnostics: list[Diagnostic]) -> None:
    for d in diagnostics:
        print(str(d), file=sys.stderr)


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
    parser = argparse.ArgumentParser(
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
    p.add_argument("--threshold", type=_threshold, default=DEFAULT_SELECTION_THRESHOLD, help="selection threshold on the minimal mean rank")
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
    p.add_argument("--quantiles", type=_parse_quantiles, default=estimation.DEFAULT_PREDICTION_QUANTILES, help="interval quantile pair, e.g. 0.10,0.90")
    p.add_argument("--out", required=True, help="prediction JSON")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("validate", parents=[common_files, stochastic], help="run the LOOCV validation harness")
    p.add_argument("--projects", required=True, help="projects JSON file")
    p.add_argument("--alpha", type=_probability, default=0.05, help="significance level for pairwise Wilcoxon tests")
    p.add_argument("--variants", type=_parse_variants, default=ALL_VARIANTS, help="all or a comma-separated variant list")
    p.add_argument("--out", required=True, help="validation report JSON")
    p.add_argument("--re-csv", help="per-project RE values CSV (default: <out>.re.csv)")
    p.set_defaults(handler=cmd_validate)

    return parser


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def cmd_rank_analyze(args) -> int:
    sheets = io.load_rankings(args.rankings)
    analysis = analyze_rankings(sheets, threshold=args.threshold, alpha=args.alpha)
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
                       parameters={"threshold": args.threshold, "alpha": args.alpha}) as run:
        io.write_json(run.path(args.out), report)
    return EXIT_OK


def cmd_model_check(args) -> int:
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


def _load_checked(args, diagnostics: list[Diagnostic]):
    model = io.load_model(args.model, strict=args.strict, diagnostics=diagnostics)
    projects = io.load_projects(args.projects, strict=args.strict, diagnostics=diagnostics)
    return model, projects


def _stochastic_run(command: str, args, **parameters) -> io.RunOutputs:
    return io.RunOutputs(command, [args.model, args.projects], seed=args.seed, sample_count=args.samples,
                         parameters=parameters)


def cmd_simulate(args) -> int:
    from .simulation import simulate  # numpy loads only for the subcommands that draw

    diagnostics: list[Diagnostic] = []
    model, projects = _load_checked(args, diagnostics)
    _print_diagnostics(diagnostics)
    by_id = {p.project_id: p for p in projects}
    if args.project not in by_id:
        print(f"error: project {args.project!r} not found in {args.projects}", file=sys.stderr)
        return EXIT_VALIDATION
    cfg = SimulationConfig(seed=args.seed, sample_count=args.samples)
    distribution = simulate(model, by_id[args.project].characterization, _KIND_ALIASES[args.kind], cfg)
    payload = {
        "project_id": args.project,
        "kind": _KIND_ALIASES[args.kind].value,
        "mean": distribution.mean,
        "sd": distribution.sd,
        "quantiles": {format(q, "g"): v for q, v in sorted(distribution.quantiles.items())},
    }
    if args.emit_samples:
        payload["samples"] = distribution.samples.tolist()
    with _stochastic_run("simulate", args, project=args.project, kind=args.kind,
                         emit_samples=bool(args.emit_samples)) as run:
        io.write_json(run.path(args.out), payload)
    return EXIT_OK


def cmd_plan(args) -> int:
    diagnostics: list[Diagnostic] = []
    model, projects = _load_checked(args, diagnostics)
    _print_diagnostics(diagnostics)
    baseline_ids = {p.project_id for p in projects if p.defects_found is not None}
    if not baseline_ids:
        print("error: no historical project (with defects_found) to anchor the chart", file=sys.stderr)
        return EXIT_VALIDATION
    means = project_factor_means(model, projects)
    triples = [(p.project_id, *means[p.project_id]) for p in projects]
    chart = planning.build_risk_chart(triples, f=args.scale_factor, baseline_ids=baseline_ids)
    rows = [[p.project_id, p.relative_dd, p.relative_eff, p.quadrant.value] for p in chart.points]
    with _stochastic_run("plan", args, scale_factor=args.scale_factor) as run:
        io.write_csv(run.path(args.out), ["project_id", "relative_dd", "relative_eff", "quadrant"], rows)
        if args.svg:
            Path(run.path(args.svg)).write_text(planning.risk_chart_svg(chart), encoding="utf-8")
        for point in chart.points:
            print(planning.risk_narrative(point), file=sys.stderr)
    return EXIT_OK


def cmd_predict(args) -> int:
    diagnostics: list[Diagnostic] = []
    model, projects = _load_checked(args, diagnostics)
    by_id = {p.project_id: p for p in projects}
    if args.target not in by_id:
        _print_diagnostics(diagnostics)
        print(f"error: target project {args.target!r} not found in {args.projects}", file=sys.stderr)
        return EXIT_VALIDATION
    target = by_id[args.target]
    historical = [p for p in projects if p.defects_found is not None and p.project_id != args.target]
    if not historical:
        _print_diagnostics(diagnostics)
        print("error: no historical project (with defects_found) to estimate the baseline", file=sys.stderr)
        return EXIT_VALIDATION

    means = project_factor_means(model, [*historical, target])
    baseline = estimation.estimate_baseline(historical, means, diagnostics)
    cfg = SimulationConfig(seed=args.seed, sample_count=args.samples)
    prediction = estimation.predict_defects_found(model, target, means, baseline, cfg, quantile_pair=args.quantiles)
    _print_diagnostics(diagnostics)
    with _stochastic_run("predict", args, target=args.target, quantiles=list(args.quantiles)) as run:
        io.write_json(run.path(args.out), {
            "target": args.target,
            "point": prediction.point,
            "interval": list(prediction.interval),
            "quantile_pair": list(args.quantiles),
            "baseline": baseline.estimate,
            "per_project_eq5_values": baseline.per_project_values,
            "ddif_mean": prediction.ddif_mean,
            "eif_mean": prediction.eif_mean,
        })
    return EXIT_OK


def cmd_validate(args) -> int:
    diagnostics: list[Diagnostic] = []
    model, projects = _load_checked(args, diagnostics)
    _print_diagnostics(diagnostics)
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
    re_csv = args.re_csv or str(Path(args.out).with_name(Path(args.out).name + ".re.csv"))
    rows = [[v.value, r.project_id, r.re] for v in report.variants for r in report.records[v]]
    with _stochastic_run("validate", args, alpha=args.alpha, variants=[v.value for v in args.variants]) as run:
        io.write_json(run.path(args.out), payload)
        io.write_csv(run.path(re_csv), ["variant", "project_id", "re"], rows)
    for v in report.variants:
        print(f"{v.value}: MMRE = {report.mmre[v]:.6g}", file=sys.stderr)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other exits
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.handler(args)
    except FloatingPointError as exc:  # the library raises it where a float result overflows
        _print_diagnostics([error("non-finite-result", f"{exc}: {_NON_FINITE_CAUSES}")])
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"usage error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a path that is a directory, not permitted, ...
        if exc.filename is None:  # no path to blame: a full disk while writing, ...
            _print_diagnostics([error("write-failed", str(exc))])
            return EXIT_VALIDATION
        print(f"usage error: cannot use {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except EmptyInputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ModelValidationError as exc:
        _print_diagnostics(exc.diagnostics)
        return EXIT_VALIDATION
    except (HdceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        _print_diagnostics([error("out-of-memory", f"out of memory{detail}; a smaller --samples needs less")])
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
