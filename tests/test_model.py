import dataclasses
import math

import numpy as np
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
from helpers import (
    characterization,
    former_validate_characterization,
    model_to_dict,
    project_to_dict,
    reference_model,
    scale_for,
)


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


class Level(int):
    """An int subclass: not exactly int, so it takes the full scan, which accepts it."""


MODEL_IDS = sorted(f.id for f in reference_model().factors)
# values that equal a valid level, or lie next to the range, in every type a level map can hold
LEVEL_VALUES = st.one_of(
    st.integers(-2, 5),
    st.booleans(),
    st.integers(-1, 4).map(np.int64),
    st.integers(-1, 4).map(Level),
    st.sampled_from([2.0, 1.5, None, "2", [2], {}]),
    st.integers(-(2**70), 2**70),
)


@st.composite
def level_maps(draw):
    """The model's exact id set, a subset, a superset with unknown ids, or the empty map."""
    ids = draw(st.one_of(
        st.just(MODEL_IDS),
        st.lists(st.sampled_from(MODEL_IDS), unique=True),
        st.lists(st.sampled_from([*MODEL_IDS, "not-a-factor", "zz-extra"]), unique=True),
        st.just([]),
    ))
    valid = draw(st.booleans())  # half the maps hold only exact ints in range, the fast path's case
    return {i: draw(st.integers(0, 3) if valid else LEVEL_VALUES) for i in ids}


class TestValidateCharacterizationFastPath:
    """The fast path for a valid level map returns exactly what the full scan returned, for every map."""

    @settings(max_examples=400, deadline=None)
    @given(level_maps())
    def test_same_diagnostics_as_the_full_scan(self, levels):
        model = reference_model()
        ch = ProjectCharacterization("P1", levels)
        assert validate_characterization(model, ch) == former_validate_characterization(model, ch)

    @pytest.mark.parametrize("value", [True, False, np.int64(2), Level(2), 2.0, 4, -1, [2]])
    def test_each_lookalike_of_a_valid_level(self, value):
        model = reference_model()
        levels = {i: 1 for i in MODEL_IDS}
        levels[MODEL_IDS[0]] = value
        ch = ProjectCharacterization("P1", levels)
        assert validate_characterization(model, ch) == former_validate_characterization(model, ch)

    def test_empty_map_against_an_empty_model(self):
        model = CausalModel(context="empty", factors=())
        ch = ProjectCharacterization("P1", {})
        assert validate_characterization(model, ch) == former_validate_characterization(model, ch) == []


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


class TestModelCaches:
    """factors_of_kind and factor_ids are computed once per model and stay outside eq, hash and repr."""

    def test_factors_of_kind_is_the_model_order_filter_and_computed_once(self):
        model = reference_model()
        for kind in FactorKind:
            assert model.factors_of_kind(kind) == tuple(f for f in model.factors if f.kind == kind)
            assert model.factors_of_kind(kind) is model.factors_of_kind(kind)
        assert model.factor_ids == {f.id for f in model.factors}
        assert model.factor_ids is model.factor_ids

    def test_replaced_model_sees_its_own_factors(self):
        model = reference_model()
        model.factors_of_kind(FactorKind.DEFECT_CONTENT), model.factor_ids  # fill the caches
        effectiveness = model.factors_of_kind(FactorKind.EFFECTIVENESS)
        replaced = dataclasses.replace(model, factors=effectiveness)
        assert replaced.factors_of_kind(FactorKind.DEFECT_CONTENT) == ()
        assert replaced.factors_of_kind(FactorKind.EFFECTIVENESS) == effectiveness
        assert replaced.factor_ids == {f.id for f in effectiveness}

    def test_filled_cache_leaves_eq_hash_and_repr_alone(self):
        model, twin = reference_model(), reference_model()
        model.factors_of_kind(FactorKind.EFFECTIVENESS), model.factor_ids
        assert model == twin and hash(model) == hash(twin) and repr(model) == repr(twin)
        assert dataclasses.asdict(model) == dataclasses.asdict(twin)
