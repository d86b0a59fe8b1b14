import xml.etree.ElementTree as ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdce.planning import (
    Quadrant,
    RiskPoint,
    build_risk_chart,
    classify_quadrant,
    risk_chart_svg,
    risk_narrative,
)


def triples():
    return [
        ("proj-a", 0.9, 0.8),
        ("proj-b", 0.3, 0.4),
        ("proj-c", 1.5, 0.1),
        ("proj-d", 0.1, 0.2),
        ("proj-e", 0.7, 0.5),
    ]


class TestQuadrants:
    @pytest.mark.parametrize(
        "dd, eff, expected",
        [
            (1.0, 1.0, Quadrant.Q1),
            (-1.0, 1.0, Quadrant.Q2),
            (-1.0, -1.0, Quadrant.Q3),
            (1.0, -1.0, Quadrant.Q4),
            (0.0, 1.0, Quadrant.Q2),
            (0.0, -1.0, Quadrant.Q3),
            (0.0, 0.0, Quadrant.Q3),
            (1.0, 0.0, Quadrant.Q4),
            (-1.0, 0.0, Quadrant.Q3),
        ],
    )
    def test_classification_with_boundaries(self, dd, eff, expected):
        assert classify_quadrant(dd, eff) is expected


class TestBuildRiskChart:
    def test_average_project_lands_at_origin(self):
        chart = build_risk_chart([("avg", 0.5, 0.4), ("lo", 0.3, 0.2), ("hi", 0.7, 0.6)])
        point = chart.points[0]
        assert point.relative_dd == pytest.approx(0.0, abs=1e-15)
        assert point.relative_eff == pytest.approx(0.0, abs=1e-15)

    def test_mean_centering_is_exact(self):
        chart = build_risk_chart(triples())
        assert sum(p.relative_dd for p in chart.points) == pytest.approx(0.0, abs=1e-12)
        assert sum(p.relative_eff for p in chart.points) == pytest.approx(0.0, abs=1e-12)

    def test_scaling_doubles_coordinates_but_keeps_quadrants(self):
        base = build_risk_chart(triples(), f=1.0)
        doubled = build_risk_chart(triples(), f=2.0)
        for a, b in zip(base.points, doubled.points):
            assert b.relative_dd == pytest.approx(2 * a.relative_dd)
            assert b.relative_eff == pytest.approx(2 * a.relative_eff)
            assert b.quadrant is a.quadrant

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([0.5, 1.0, 2.0, 10.0]))
    def test_quadrants_invariant_under_positive_scaling(self, f):
        base = build_risk_chart(triples(), f=1.0)
        scaled = build_risk_chart(triples(), f=f)
        assert [p.quadrant for p in base.points] == [p.quadrant for p in scaled.points]

    def test_new_project_does_not_shift_origin(self):
        historical = triples()
        baseline_ids = {pid for pid, _, _ in historical}
        with_new = historical + [("new-one", 2.0, 0.0)]
        chart = build_risk_chart(with_new, baseline_ids=baseline_ids)
        reference = build_risk_chart(historical)
        assert chart.ddif_avg == reference.ddif_avg
        assert chart.eif_avg == reference.eif_avg
        new_point = chart.points[-1]
        assert new_point.project_id == "new-one"
        assert new_point.quadrant is Quadrant.Q4

    def test_equal_effectiveness_order_follows_ddif(self):
        chart = build_risk_chart([("d", 0.2, 0.3), ("b", 0.5, 0.3), ("e", 0.9, 0.3)])
        by_id = {p.project_id: p for p in chart.points}
        assert by_id["e"].relative_dd > by_id["b"].relative_dd > by_id["d"].relative_dd

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_risk_chart(triples(), f=0.0)
        with pytest.raises(ValueError):
            build_risk_chart([])
        with pytest.raises(ValueError):
            build_risk_chart(triples(), baseline_ids=set())
        with pytest.raises(ValueError):
            build_risk_chart(triples(), baseline_ids={"ghost"})
        with pytest.raises(ValueError):
            build_risk_chart([("same", 1, 1), ("same", 2, 2)])


class TestNarrative:
    def make_point(self, quadrant):
        coords = {
            Quadrant.Q1: (1.0, 1.0),
            Quadrant.Q2: (-1.0, 1.0),
            Quadrant.Q3: (-1.0, -1.0),
            Quadrant.Q4: (1.0, -1.0),
        }[quadrant]
        return RiskPoint("p", coords[0], coords[1], quadrant)

    def test_q1_no_major_risk(self):
        assert "no major quality risk" in risk_narrative(self.make_point(Quadrant.Q1))

    def test_q2_mentions_unnecessary_cost(self):
        text = risk_narrative(self.make_point(Quadrant.Q2))
        assert "very low quality risk" in text
        assert "cost" in text

    def test_q3_no_major_risk(self):
        assert "no major quality risk" in risk_narrative(self.make_point(Quadrant.Q3))

    def test_q4_flags_risk(self):
        text = risk_narrative(self.make_point(Quadrant.Q4))
        assert "quality risk" in text
        assert "slip through" in text


class TestSvg:
    def test_svg_is_valid_xml_with_all_points(self):
        chart = build_risk_chart(triples())
        svg = risk_chart_svg(chart)
        root = ElementTree.fromstring(svg)
        assert root.tag.endswith("svg")
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == len(chart.points)
        labels = {e.text for e in root.iter() if e.tag.endswith("text")}
        for pid, _, _ in triples():
            assert pid in labels
        for quadrant in ("Q1", "Q2", "Q3", "Q4"):
            assert quadrant in labels

    def test_svg_is_deterministic_and_self_contained(self):
        chart = build_risk_chart(triples(), f=2.0)
        a = risk_chart_svg(chart)
        b = risk_chart_svg(chart)
        assert a == b
        assert "http://" not in a.replace('xmlns="http://www.w3.org/2000/svg"', "")
        assert "href" not in a

    def test_scale_factor_moves_no_coordinate(self):
        # a power of two scales the points and their extent exactly, up to the end of the float
        # range, where 1.15 * extent once overflowed into nan coordinates
        projects = [*triples(), ("proj-f", 2.5, 0.3)]  # 1.5 above the average density of 1.0
        unscaled = risk_chart_svg(build_risk_chart(projects))
        assert risk_chart_svg(build_risk_chart(projects, f=2.0**1023)) == unscaled
        assert "nan" not in unscaled

    def test_project_ids_are_escaped(self):
        chart = build_risk_chart([("a<b", 1.0, 1.0), ("plain", 0.0, 0.0)])
        svg = risk_chart_svg(chart)
        assert "a<b" not in svg.replace("&lt;", "")
        ElementTree.fromstring(svg)
