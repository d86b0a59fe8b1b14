"""QA-planning risk chart: relative defect density vs. relative effectiveness.

Each project is positioned by how its mean DDIF and mean EIF compare to the
averages over a baseline set of historical projects, optionally scaled by a
fixed factor for confidentiality. The four quadrants carry the planning
heuristics; Q4 (more defects expected, weaker QA) is the one that signals risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence


class Quadrant(str, Enum):
    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"
    Q4 = "Q4"


@dataclass(frozen=True)
class RiskPoint:
    project_id: str
    relative_dd: float
    relative_eff: float
    quadrant: Quadrant


@dataclass(frozen=True)
class RiskChart:
    points: tuple[RiskPoint, ...]
    ddif_avg: float
    eif_avg: float
    scale_factor: float


def classify_quadrant(relative_dd: float, relative_eff: float) -> Quadrant:
    """Boundary values (exactly 0) fall toward the lower-density / lower-effectiveness side."""
    if relative_dd > 0:
        return Quadrant.Q1 if relative_eff > 0 else Quadrant.Q4
    return Quadrant.Q2 if relative_eff > 0 else Quadrant.Q3


def build_risk_chart(
    projects: Sequence[tuple[str, float, float]],
    f: float = 1.0,
    baseline_ids: set[str] | None = None,
) -> RiskChart:
    """Chart (project_id, mean DDIF, mean EIF) triples against baseline averages.

    Averages are computed over baseline_ids only (all charted projects by
    default), so a new project can be positioned without shifting the origin.
    Python floats overflow to inf silently, so an average or a relative value
    outside the float range raises FloatingPointError.
    """
    if not f > 0:
        raise ValueError(f"scale factor must be > 0, got {f}")
    if not projects:
        raise ValueError("no projects to chart")
    ids = [pid for pid, _, _ in projects]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate project ids in chart input")
    if baseline_ids is None:
        baseline_ids = set(ids)
    if not baseline_ids:
        raise ValueError("baseline set must not be empty")
    missing = baseline_ids - set(ids)
    if missing:
        raise ValueError(f"baseline ids not among charted projects: {sorted(missing)}")

    baseline = [(ddif, eif) for pid, ddif, eif in projects if pid in baseline_ids]
    ddif_avg = sum(d for d, _ in baseline) / len(baseline)
    eif_avg = sum(e for _, e in baseline) / len(baseline)
    if not (math.isfinite(ddif_avg) and math.isfinite(eif_avg)):
        raise FloatingPointError("overflow encountered in add")

    points = []
    for pid, ddif, eif in projects:
        rel_dd = (ddif - ddif_avg) * f
        rel_eff = (eif - eif_avg) * f
        if not (math.isfinite(rel_dd) and math.isfinite(rel_eff)):  # means are >= 0: only the product with f can overflow
            raise FloatingPointError("overflow encountered in multiply")
        points.append(RiskPoint(pid, rel_dd, rel_eff, classify_quadrant(rel_dd, rel_eff)))
    return RiskChart(points=tuple(points), ddif_avg=ddif_avg, eif_avg=eif_avg, scale_factor=f)


_NARRATIVES = {
    Quadrant.Q1: (
        "above-average defect density met by above-average effectiveness: "
        "no major quality risk expected, the strong QA activity should catch the extra defects"
    ),
    Quadrant.Q2: (
        "below-average defect density with above-average effectiveness: very low quality risk, "
        "but the QA intensity may be higher than needed (possible unnecessary cost)"
    ),
    Quadrant.Q3: (
        "below-average defect density and effectiveness: no major quality risk expected, "
        "few defects are likely to be present in the first place"
    ),
    Quadrant.Q4: (
        "above-average defect density with below-average effectiveness: quality risk, "
        "a relatively large share of defects can slip through the QA activity"
    ),
}


def risk_narrative(point: RiskPoint) -> str:
    return f"{point.project_id}: {point.quadrant.value} - {_NARRATIVES[point.quadrant]}"


def risk_chart_svg(chart: RiskChart) -> str:
    """Self-contained SVG scatter plot with origin axes and quadrant labels.

    Output is deterministic: coordinates are rounded to fixed precision and the
    document references nothing external. The points and their extent are scaled below 1 by a
    power of two, which is exact, so that a finite chart's margin cannot overflow.
    """
    width, height, margin = 640, 520, 56
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    extent = max(
        [1e-9] + [abs(p.relative_dd) for p in chart.points] + [abs(p.relative_eff) for p in chart.points]
    )
    scale = math.ldexp(1.0, -max(math.frexp(extent)[1], 0))
    limit = extent * scale * 1.15

    def px(x: float) -> float:
        return margin + (x * scale + limit) / (2 * limit) * plot_w

    def py(y: float) -> float:
        # SVG y grows downward
        return margin + (limit - y * scale) / (2 * limit) * plot_h

    cx, cy = px(0.0), py(0.0)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#999999" stroke-width="1"/>',
        f'<line x1="{cx:.2f}" y1="{margin}" x2="{cx:.2f}" y2="{margin + plot_h}" '
        f'stroke="#333333" stroke-width="1"/>',
        f'<line x1="{margin}" y1="{cy:.2f}" x2="{margin + plot_w}" y2="{cy:.2f}" '
        f'stroke="#333333" stroke-width="1"/>',
        f'<text x="{width / 2:.2f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">relative defect density</text>',
        f'<text x="16" y="{height / 2:.2f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {height / 2:.2f})">relative effectiveness</text>',
    ]
    quadrant_labels = [
        ("Q1", margin + plot_w - 18, margin + 18),
        ("Q2", margin + 18, margin + 18),
        ("Q3", margin + 18, margin + plot_h - 10),
        ("Q4", margin + plot_w - 18, margin + plot_h - 10),
    ]
    for label, lx, ly in quadrant_labels:
        lines.append(
            f'<text x="{lx}" y="{ly}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="14" fill="#777777">{label}</text>'
        )
    for p in chart.points:
        x, y = px(p.relative_dd), py(p.relative_eff)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#1f5fa8"/>')
        lines.append(
            f'<text x="{x + 7:.2f}" y="{y - 5:.2f}" font-family="sans-serif" '
            f'font-size="12">{_escape(p.project_id)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
