import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdce.diagnostics import InputFormatError, Severity, has_errors
from hdce.model import (
    CausalModel,
    Factor,
    FactorCategory,
    FactorKind,
    FactorScale,
    HistoricalProject,
    Multiplier,
    ProjectCharacterization,
    model_from_dict,
    project_from_dict,
    validate_characterization,
    validate_model,
)
from helpers import characterization, model_to_dict, project_to_dict, reference_model, scale_for


def errors_of(diagnostics):
    return [d for d in diagnostics if d.severity is Severity.ERROR]


def advisories_of(diagnostics):
    return [d for d in diagnostics if d.severity is Severity.ADVISORY]


class TestValidateModel:
    def test_reference_model_is_clean(self):
        diagnostics = validate_model(reference_model(), require_quantified=True)
        assert diagnostics == []

    def test_multiplier_ordering_violation_is_an_error(self):
        factor = Factor(
            id="bad",
            name="bad",
            kind=FactorKind.DEFECT_CONTENT,
            category=FactorCategory.PRODUCT,
            scale=scale_for("bad"),
            multiplier=Multiplier(0.3, 0.2, 0.4),
        )
        model = reference_model()
        broken = CausalModel(context=model.context, factors=model.factors + (factor,))
        codes = {d.code for d in errors_of(validate_model(broken))}
        assert "multiplier-order" in codes

    def test_negative_multiplier_is_an_error(self):
        factor = Factor(
            id="neg",
            name="neg",
            kind=FactorKind.DEFECT_CONTENT,
            category=FactorCategory.PRODUCT,
            scale=scale_for("neg"),
            multiplier=Multiplier(-0.1, 0.2, 0.4),
        )
        model = CausalModel(context="c", factors=reference_model().factors + (factor,))
        assert any(d.code == "multiplier-order" for d in errors_of(validate_model(model)))

    @pytest.mark.parametrize("values", [(0.0, 0.1, math.inf), (0.0, math.nan, 0.4), (-math.inf, 0.0, 0.4)])
    def test_non_finite_multiplier_is_an_error(self, values):
        # a programmatic model skips the loader's finite-number check
        factor = Factor(
            id="wide",
            name="wide",
            kind=FactorKind.DEFECT_CONTENT,
            category=FactorCategory.PRODUCT,
            scale=scale_for("wide"),
            multiplier=Multiplier(*values),
        )
        model = CausalModel(context="c", factors=reference_model().factors + (factor,))
        assert [d.code for d in errors_of(validate_model(model))] == ["multiplier-non-finite"]

    def test_zero_worst_case_impact_is_an_error(self):
        factor = Factor(
            id="flat",
            name="flat",
            kind=FactorKind.EFFECTIVENESS,
            category=FactorCategory.PRODUCT,
            scale=scale_for("flat"),
            multiplier=Multiplier(0.0, 0.0, 0.0),
        )
        model = CausalModel(context="c", factors=reference_model().factors + (factor,))
        assert any(d.code == "multiplier-degenerate" for d in errors_of(validate_model(model)))

    def test_duplicate_ids_are_an_error(self):
        base = reference_model()
        model = CausalModel(context=base.context, factors=base.factors + (base.factors[0],))
        assert any(d.code == "duplicate-id" for d in errors_of(validate_model(model)))

    def test_low_factor_count_is_advisory_not_error(self):
        factors = [f for f in reference_model().factors if f.kind is FactorKind.EFFECTIVENESS]
        factors += [f for f in reference_model().factors if f.kind is FactorKind.DEFECT_CONTENT][:2]
        model = CausalModel(context="c", factors=tuple(factors))
        diagnostics = validate_model(model)
        assert errors_of(diagnostics) == []
        assert len(advisories_of(diagnostics)) == 1

    def test_missing_kind_is_an_error(self):
        factors = tuple(f for f in reference_model().factors if f.kind is FactorKind.DEFECT_CONTENT)
        model = CausalModel(context="c", factors=factors)
        assert any(d.code == "missing-kind" for d in errors_of(validate_model(model)))

    def test_unquantified_flagged_only_when_required(self):
        base = reference_model()
        factors = tuple(
            Factor(f.id, f.name, f.kind, f.category, f.scale, None) if i == 0 else f
            for i, f in enumerate(base.factors)
        )
        model = CausalModel(context="c", factors=factors)
        assert not has_errors(validate_model(model))
        assert any(d.code == "unquantified" for d in validate_model(model, require_quantified=True))

    def test_incomplete_scale_is_an_error(self):
        factor = Factor(
            id="short-scale",
            name="short",
            kind=FactorKind.DEFECT_CONTENT,
            category=FactorCategory.PROJECT,
            scale=FactorScale(("a", "b", "c")),
            multiplier=Multiplier(0.1, 0.2, 0.3),
        )
        model = CausalModel(context="c", factors=reference_model().factors + (factor,))
        assert any(d.code == "bad-scale" for d in errors_of(validate_model(model)))

    def test_validation_is_pure(self):
        model = reference_model()
        assert validate_model(model) == validate_model(model)


class TestValidateCharacterization:
    def test_complete_characterization_is_valid(self):
        model = reference_model()
        levels = {f.id: 0 for f in model.factors}
        levels["stakeholder-user-organization-count"] = 1
        assert validate_characterization(model, characterization(model, levels)) == []

    def test_level_out_of_range(self):
        model = reference_model()
        levels = {f.id: 0 for f in model.factors}
        levels["autonomous"] = 4
        diagnostics = validate_characterization(model, characterization(model, levels))
        assert any(d.code == "bad-level" for d in diagnostics)

    def test_missing_factor(self):
        model = reference_model()
        levels = {f.id: 1 for f in model.factors}
        del levels["project-complexity"]
        diagnostics = validate_characterization(model, characterization(model, levels))
        assert any(d.code == "missing-factor" for d in diagnostics)

    def test_unknown_factor(self):
        model = reference_model()
        levels = {f.id: 1 for f in model.factors}
        levels["not-a-factor"] = 2
        diagnostics = validate_characterization(model, characterization(model, levels))
        assert any(d.code == "unknown-factor" for d in diagnostics)


class TestProjectTypes:
    def test_size_must_be_positive(self):
        ch = ProjectCharacterization(project_id="p", levels={})
        with pytest.raises(ValueError):
            HistoricalProject(characterization=ch, size=0.0, defects_found=1)

    def test_defects_found_must_be_non_negative_int(self):
        ch = ProjectCharacterization(project_id="p", levels={})
        with pytest.raises(ValueError):
            HistoricalProject(characterization=ch, size=1.0, defects_found=-1)
        with pytest.raises(ValueError):
            HistoricalProject(characterization=ch, size=1.0, defects_found=True)

    def test_planned_project_has_no_defect_count(self):
        ch = ProjectCharacterization(project_id="p", levels={})
        assert HistoricalProject(characterization=ch, size=5.0).defects_found is None

    def test_project_id_must_be_token(self):
        with pytest.raises(ValueError):
            ProjectCharacterization(project_id="has space", levels={})


# random-model strategy for the round-trip property
_token = st.from_regex(r"[a-z][a-z0-9\-]{0,10}", fullmatch=True)
_text = st.text(min_size=1, max_size=20).filter(lambda s: s.strip())


@st.composite
def models(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = draw(st.lists(_token, min_size=2 * n, max_size=2 * n, unique=True))
    factors = []
    for i, fid in enumerate(ids):
        kind = FactorKind.DEFECT_CONTENT if i < n else FactorKind.EFFECTIVENESS
        category = draw(st.sampled_from(list(FactorCategory)))
        quantified = draw(st.booleans())
        multiplier = None
        if quantified:
            low = draw(st.floats(min_value=0, max_value=0.5, allow_nan=False))
            mode = low + draw(st.floats(min_value=0, max_value=0.5, allow_nan=False))
            high = mode + draw(st.floats(min_value=0.01, max_value=0.5, allow_nan=False))
            multiplier = Multiplier(low, mode, high)
        factors.append(
            Factor(
                id=fid,
                name=draw(_text),
                kind=kind,
                category=category,
                scale=FactorScale(tuple(draw(st.lists(_text, min_size=4, max_size=4)))),
                multiplier=multiplier,
            )
        )
    return CausalModel(context=draw(_text), factors=tuple(factors), provenance=draw(st.sampled_from(["", "notes"])))


class TestSerialization:
    @settings(max_examples=50, deadline=None)
    @given(models())
    def test_model_round_trip(self, model):
        parsed, unknown = model_from_dict(model_to_dict(model))
        assert unknown == []
        assert parsed == model

    def test_project_round_trip(self):
        ch = ProjectCharacterization(project_id="proj-a", levels={"x": 1, "y": 3})
        project = HistoricalProject(characterization=ch, size=120.5, defects_found=31)
        parsed, unknown = project_from_dict(project_to_dict(project), "projects[0]")
        assert unknown == []
        assert parsed == project

    def test_unknown_fields_are_reported(self):
        data = model_to_dict(reference_model())
        data["surprise"] = 1
        data["factors"][0]["extra"] = True
        _, unknown = model_from_dict(data)
        assert "model.surprise" in unknown
        assert "model.factors[0].extra" in unknown

    def test_unknown_kind_is_rejected(self):
        data = model_to_dict(reference_model())
        data["factors"][0]["kind"] = "Mystery"
        with pytest.raises(InputFormatError, match="unknown kind"):
            model_from_dict(data)

    def test_unknown_category_is_rejected(self):
        data = model_to_dict(reference_model())
        data["factors"][0]["category"] = "People"
        with pytest.raises(InputFormatError, match="unknown category"):
            model_from_dict(data)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400])
    def test_non_finite_numbers_are_rejected(self, value):
        # json reads Infinity, NaN and 1e400 as floats; a 400-digit literal stays an int
        data = model_to_dict(reference_model())
        data["factors"][0]["multiplier"]["max"] = value
        with pytest.raises(InputFormatError, match=r"multiplier\.max: expected a finite number"):
            model_from_dict(data)
        row = {"project_id": "p", "size": value, "levels": {}}
        with pytest.raises(InputFormatError, match=r"size: expected a finite number"):
            project_from_dict(row, "projects[0]")

    def test_defect_count_beyond_float_range_is_rejected(self):
        row = {"project_id": "p", "size": 10.0, "defects_found": 10**400, "levels": {}}
        with pytest.raises(InputFormatError, match="within float range"):
            project_from_dict(row, "projects[0]")
