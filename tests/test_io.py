import json
import math
import random
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hdce
from hdce.diagnostics import InputFormatError, has_errors
from hdce.io import (
    RunOutputs,
    format_float,
    load_model,
    load_projects,
    load_rankings,
    sha256_file,
    write_csv,
    write_json,
)
from hdce.model import validate_characterization, validate_model
from helpers import exact_model, exact_projects, model_to_dict, project_to_dict, reference_model, write_rankings_csv

SCHEMAS = Path(__file__).resolve().parents[1] / "schemas"


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    write_json(path, model_to_dict(reference_model()))
    return path


@pytest.fixture
def projects_file(tmp_path):
    path = tmp_path / "projects.json"
    write_json(path, [project_to_dict(p) for p in exact_projects()])
    return path


class TestWriteJson:
    @staticmethod
    def written(tmp_path, obj) -> str:
        path = tmp_path / "out.json"
        write_json(path, obj)
        return path.read_bytes().decode("utf-8")

    def test_floats_in_shortest_round_trip_form(self, tmp_path):
        text = self.written(tmp_path, {"x": 0.1, "y": 2.0})
        assert text == '{\n  "x": 0.1,\n  "y": 2.0\n}\n'
        assert type(json.loads(text)["y"]) is float

    def test_format_float_is_the_json_form_also_for_numpy_floats(self):
        assert format_float(0.1) == json.dumps(0.1) == "0.1"
        assert format_float(np.float64(2.0)) == json.dumps(np.float64(2.0)) == "2.0"  # not np.float64(2.0)

    @pytest.mark.parametrize("value", [-0.0, 5e-324, 1.7976931348623157e308])
    def test_extreme_floats_round_trip(self, tmp_path, value):
        [parsed] = json.loads(self.written(tmp_path, [value]))
        assert struct.pack("<d", parsed) == struct.pack("<d", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "out.json", {"x": [value]})
        vector = np.ones(65_537)
        vector[-1] = value  # in the second block
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(tmp_path / "out.json", {"x": 1}, ("samples", vector))
        with pytest.raises(ValueError):
            format_float(value)

    def test_text_is_the_standard_library_form_with_lf_endings(self, tmp_path):
        payload = {"k": [0.3, 7, "s", None, True], "m": {"q": 1e-12, "naïve": "café"}, "e": [], "o": {}}
        text = self.written(tmp_path, payload)
        assert text == json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
        assert "\r" not in text

    def test_large_float_array_is_streamed(self, tmp_path):
        # the text is written as it is encoded: the peak stays far below the file's size
        rng = random.Random(0)
        payload = {"samples": [rng.random() for _ in range(200_000)]}
        path = tmp_path / "samples.json"
        tracemalloc.start()
        try:
            write_json(path, payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 20

    @pytest.mark.parametrize("n", [0, 1, 65_536, 65_537])
    def test_float_vector_text_is_json_dumps_text(self, tmp_path, n):
        rng = np.random.default_rng(n)
        vector = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        vector[: min(n, 4)] = [-0.0, 5e-324, 1.7976931348623157e308, 2.0][: min(n, 4)]
        payload = {"project_id": "p", "quantiles": {"0.5": 0.1}}
        path = tmp_path / "out.json"
        write_json(path, payload, ("samples", vector))
        expected = json.dumps({**payload, "samples": vector.tolist()}, indent=2, ensure_ascii=False) + "\n"
        # as lists of lines, so that a failure names the first line that differs, not a diff of megabytes
        assert path.read_bytes().decode("utf-8").split("\n") == expected.split("\n")

    def test_float_vector_is_written_a_block_at_a_time(self, tmp_path):
        # the text of one block at a time: three blocks peak no higher than one
        peaks = []
        for blocks in (1, 3):
            vector = np.random.default_rng(blocks).random(blocks * 65_536)
            tracemalloc.start()
            try:
                write_json(tmp_path / "out.json", {"k": 1}, ("samples", vector))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


class TestModelFiles:
    def test_load_valid_model(self, model_file):
        model = load_model(model_file)
        assert model == reference_model()

    def test_unknown_field_warns_by_default(self, tmp_path):
        data = model_to_dict(reference_model())
        data["vendor_extension"] = 1
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        diagnostics = []
        load_model(path, strict=False, diagnostics=diagnostics)
        assert any(d.code == "unknown-fields" for d in diagnostics)

    def test_unknown_field_errors_in_strict_mode(self, tmp_path):
        data = model_to_dict(reference_model())
        data["vendor_extension"] = 1
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(InputFormatError, match="strict"):
            load_model(path, strict=True)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InputFormatError, match="invalid JSON"):
            load_model(path)

    def test_oversized_integer_literal_reported(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"context": 1' + "0" * 5000 + "}", encoding="utf-8")
        with pytest.raises(InputFormatError, match="invalid JSON"):
            load_model(path)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"context": "\xff\xfe"}')
        with pytest.raises(InputFormatError, match=r"model file .*model\.json: not UTF-8 text"):
            load_model(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.json")


class TestProjectFiles:
    def test_load_valid_projects(self, projects_file):
        projects = load_projects(projects_file)
        assert projects == exact_projects()

    def test_duplicate_project_id_rejected(self, tmp_path):
        rows = [project_to_dict(p) for p in exact_projects()[:2]]
        rows[1]["project_id"] = rows[0]["project_id"]
        path = tmp_path / "projects.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        with pytest.raises(InputFormatError, match="duplicate project_id"):
            load_projects(path)

    def test_non_integer_level_rejected(self, tmp_path):
        rows = [project_to_dict(p) for p in exact_projects()[:1]]
        first_factor = next(iter(rows[0]["levels"]))
        rows[0]["levels"][first_factor] = 1.5
        path = tmp_path / "projects.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        with pytest.raises(InputFormatError, match="expected an integer"):
            load_projects(path)

    def test_bad_size_rejected(self, tmp_path):
        rows = [project_to_dict(p) for p in exact_projects()[:1]]
        rows[0]["size"] = 0
        path = tmp_path / "projects.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        with pytest.raises(InputFormatError, match="size"):
            load_projects(path)


def _edit(path: tuple, value=None, delete: bool = False):
    """A change to a document: the value at path set, or deleted."""
    def apply(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if delete:
            del doc[last]
        else:
            doc[last] = value
    return apply


# where a loader deliberately differs from its schema, and whether it then accepts the document
UNKNOWN_FIELDS = "unknown fields only warn unless --strict is set"
DIVERGENCES = {
    UNKNOWN_FIELDS: True,
    "duplicate ids": False,  # the schemas cannot state that project ids are unique
    "finite numbers and the float range": False,  # json reads NaN and 1e400, and the schemas' numbers take them
    "integral floats": False,  # a draft-07 integer may be written 3.0; the loader takes only 3
    # the loader checks the shape, and validate_model or validate_characterization reject these
    "factor-id tokens": True,
    "scale completeness": True,
    "multiplier sign and order": True,
    "level range": True,
    "factors per kind": True,
}
_F0 = ("factors", 0)
_M0 = (*_F0, "multiplier")
# (case id, model or projects, change to the valid document (None: none), divergence or None)
SCHEMA_CASES = [
    ("model-valid", "model", None, None),
    *[(f"model-missing-{key}", "model", _edit((key,), delete=True), None) for key in ("context", "factors")],
    *[(f"factor-missing-{key}", "model", _edit((*_F0, key), delete=True), None)
      for key in ("id", "name", "kind", "category", "scale")],
    *[(f"multiplier-missing-{key}", "model", _edit((*_M0, key), delete=True), None)
      for key in ("min", "most_likely", "max")],
    ("model-not-an-object", "model", lambda doc: [doc], None),
    *[(f"model-{key}-wrong-type", "model", _edit((key,), value), None)
      for key, value in [("context", 1), ("provenance", 1), ("factors", {})]],
    ("factor-not-an-object", "model", _edit(_F0, "factor"), None),
    *[(f"factor-{key}-wrong-type", "model", _edit((*_F0, key), value), None)
      for key, value in [("id", 1), ("name", None), ("kind", 1), ("category", ["Product"]), ("scale", "0123"),
                         ("multiplier", [0.1, 0.2, 0.3])]],
    ("factor-scale-entry-wrong-type", "model", _edit((*_F0, "scale", 0), 0), None),
    *[(f"multiplier-{key}-wrong-type", "model", _edit((*_M0, key), value), None)
      for key, value in [("min", "0.1"), ("most_likely", None), ("max", True)]],
    ("factor-unknown-kind", "model", _edit((*_F0, "kind"), "Mystery"), None),
    ("factor-unknown-category", "model", _edit((*_F0, "category"), "People"), None),
    ("model-extra-field", "model", _edit(("vendor",), 1), UNKNOWN_FIELDS),
    ("factor-extra-field", "model", _edit((*_F0, "vendor"), 1), UNKNOWN_FIELDS),
    ("multiplier-extra-field", "model", _edit((*_M0, "vendor"), 1), UNKNOWN_FIELDS),
    ("multiplier-null", "model", _edit(_M0, None), None),
    ("multiplier-absent", "model", _edit(_M0, delete=True), None),
    ("multiplier-out-of-order", "model", _edit((*_M0, "min"), 0.9), None),  # neither checks the order
    ("factor-id-with-a-space", "model", _edit((*_F0, "id"), "exact dc 1"), "factor-id tokens"),
    ("factor-id-duplicate", "model", _edit((*_F0, "id"), "exact-dc-2"), None),  # validate_model's to report
    ("scale-of-3", "model", _edit((*_F0, "scale"), ["low", "mid", "high"]), "scale completeness"),
    ("scale-entry-empty", "model", _edit((*_F0, "scale", 0), ""), "scale completeness"),
    ("model-of-1-factor", "model", lambda doc: {**doc, "factors": doc["factors"][:1]}, "factors per kind"),
    ("multiplier-min-negative", "model", _edit((*_M0, "min"), -0.25), "multiplier sign and order"),
    ("multiplier-max-0", "model", _edit(_M0, {"min": 0, "most_likely": 0, "max": 0}), "multiplier sign and order"),
    ("multiplier-max-nan", "model", _edit((*_M0, "max"), math.nan), "finite numbers and the float range"),
    ("multiplier-max-1e400", "model", _edit((*_M0, "max"), "@1e400@"), "finite numbers and the float range"),
    ("projects-valid", "projects", None, None),
    ("projects-empty", "projects", lambda doc: doc.clear(), None),
    *[(f"project-missing-{key}", "projects", _edit((0, key), delete=True), None)
      for key in ("project_id", "size", "levels")],
    ("projects-not-an-array", "projects", lambda doc: {"projects": doc}, None),
    ("project-not-an-object", "projects", _edit((0,), "E1"), None),
    *[(f"project-{key}-wrong-type", "projects", _edit((0, key), value), None)
      for key, value in [("project_id", 1), ("size", "64"), ("defects_found", "20"), ("levels", [])]],
    ("project-size-bool", "projects", _edit((0, "size"), True), None),
    ("project-defects-found-fraction", "projects", _edit((0, "defects_found"), 2.5), None),
    ("project-level-wrong-type", "projects", _edit((0, "levels", "exact-dc-1"), "3"), None),
    ("project-level-fraction", "projects", _edit((0, "levels", "exact-dc-1"), 1.5), None),
    ("project-extra-field", "projects", _edit((0, "vendor"), 1), UNKNOWN_FIELDS),
    ("project-defects-found-null", "projects", _edit((0, "defects_found"), None), None),
    ("project-id-with-a-space", "projects", _edit((0, "project_id"), "E 1"), None),
    ("project-size-0", "projects", _edit((0, "size"), 0), None),
    ("project-size-negative", "projects", _edit((0, "size"), -64.0), None),
    ("project-defects-found-negative", "projects", _edit((0, "defects_found"), -1), None),
    ("project-level-7", "projects", _edit((0, "levels", "exact-dc-1"), 7), "level range"),
    ("project-level-negative", "projects", _edit((0, "levels", "exact-dc-1"), -1), "level range"),
    ("project-id-duplicate", "projects", lambda doc: [*doc, doc[0]], "duplicate ids"),
    ("project-size-nan", "projects", _edit((0, "size"), math.nan), "finite numbers and the float range"),
    ("project-size-1e400", "projects", _edit((0, "size"), "@1e400@"), "finite numbers and the float range"),
    ("project-defects-found-1e400-integer", "projects", _edit((0, "defects_found"), 10**400),
     "finite numbers and the float range"),
    ("project-defects-found-20.0", "projects", _edit((0, "defects_found"), 20.0), "integral floats"),
    ("project-level-3.0", "projects", _edit((0, "levels", "exact-dc-1"), 3.0), "integral floats"),
]


class TestSchemas:
    """The loaders accept a document if and only if its published schema does (jsonschema's
    Draft7Validator), except where DIVERGENCES says the loader deliberately differs."""

    @staticmethod
    def validator(which: str):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((SCHEMAS / f"{which}.schema.json").read_text(encoding="utf-8"))
        jsonschema.Draft7Validator.check_schema(schema)
        return jsonschema.Draft7Validator(schema)

    @staticmethod
    def loaded(path: Path, which: str, strict: bool):
        """What the loader makes of the file, or None if it rejects it."""
        try:
            return (load_model if which == "model" else load_projects)(path, strict=strict)
        except InputFormatError:
            return None

    @pytest.mark.parametrize("case_id, which, change, divergence", SCHEMA_CASES, ids=[c[0] for c in SCHEMA_CASES])
    def test_loader_accepts_what_the_schema_accepts(self, tmp_path, case_id, which, change, divergence):
        validator = self.validator(which)
        doc = model_to_dict(exact_model()) if which == "model" else [project_to_dict(p) for p in exact_projects()]
        if change is not None:
            doc = change(doc) or doc  # a change edits the document in place or returns another one
        text = json.dumps(doc).replace('"@1e400@"', "1e400")  # json.dumps would write inf as Infinity
        path = tmp_path / f"{which}.json"
        path.write_text(text, encoding="utf-8")
        schema_accepts = validator.is_valid(json.loads(text))
        loose, strict = self.loaded(path, which, strict=False), self.loaded(path, which, strict=True)
        if divergence is None:
            assert (loose is not None, strict is not None) == (schema_accepts, schema_accepts)
            return
        # a listed divergence must still be one: when the loader comes to agree, it leaves the list
        assert schema_accepts is not DIVERGENCES[divergence]
        assert (loose is not None) is DIVERGENCES[divergence]
        assert (strict is not None) is (DIVERGENCES[divergence] and divergence != UNKNOWN_FIELDS)
        if divergence != UNKNOWN_FIELDS and loose is not None:  # what the shape check lets through, meaning rejects
            diagnostics = (validate_model(loose) if which == "model" else
                           [d for p in loose for d in validate_characterization(exact_model(), p.characterization)])
            assert has_errors(diagnostics)

    @pytest.mark.parametrize("which", ["model", "projects"])
    def test_examples_meet_their_schema(self, which):
        path = SCHEMAS / "examples" / f"{which}.json"
        assert self.validator(which).is_valid(json.loads(path.read_text(encoding="utf-8")))
        assert self.loaded(path, which, strict=True) is not None


class TestRankingsCsv:
    def test_load_full_fixture(self, tmp_path):
        path = tmp_path / "rankings.csv"
        write_rankings_csv(path)
        sheets = load_rankings(path)
        assert len(sheets) == 6 * 7
        assert all(len(s.ranks) >= 4 for s in sheets)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "rankings.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InputFormatError, match="is empty"):
            load_rankings(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "rankings.csv"
        path.write_text("expert_id,kind,category,factor_id,rank\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="no data rows"):
            load_rankings(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "rankings.csv"
        path.write_text(
            "expert_id,kind,category,factor_id,rank\n"
            "e1,DefectContent,Product,f1,1\n"
            "e1,DefectContent,Product,f2\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match=":3:"):
            load_rankings(path)

    def test_bad_rank_reports_line_number(self, tmp_path):
        path = tmp_path / "rankings.csv"
        path.write_text(
            "expert_id,kind,category,factor_id,rank\n"
            "e1,DefectContent,Product,f1,best\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match=":2:.*not a number"):
            load_rankings(path)

    @staticmethod
    def rejection(tmp_path, row: str) -> str:
        path = tmp_path / "rankings.csv"
        path.write_text(f"expert_id,kind,category,factor_id,rank\n{row}\n", encoding="utf-8")
        with pytest.raises(InputFormatError) as caught:
            load_rankings(path)
        return str(caught.value).replace(f"{path}:2: ", "", 1)

    def test_unknown_kind_rejected(self, tmp_path):
        # the model file's message, with the line in place of the field path
        assert self.rejection(tmp_path, "e1,Speed,Product,f1,1") == (
            "unknown kind 'Speed'; expected one of ['DefectContent', 'Effectiveness']")

    def test_unknown_category_rejected(self, tmp_path):
        assert self.rejection(tmp_path, "e1,DefectContent,People,f1,1") == (
            "unknown category 'People'; expected one of ['Product', 'Project', 'ProcessPersonnel']")

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "rankings.csv"
        path.write_text(
            "expert_id,kind,category,factor_id,rank\n"
            "e1,DefectContent,Product,f1,1\n"
            "e1,DefectContent,Product,f1,2\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="duplicate rank"):
            load_rankings(path)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "rankings.csv"
        path.write_bytes(b"expert_id,kind,category,factor_id,rank\ne1,DefectContent,Product,f\xe9,1\n")
        with pytest.raises(InputFormatError, match=r"rankings file .*rankings\.csv: not UTF-8 text"):
            load_rankings(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "rankings.csv"
        path.write_text("expert,kind,category,factor,rank\ne1,DefectContent,Product,f1,1\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="header"):
            load_rankings(path)


class TestCsvOutput:
    def test_floats_formatted_and_lf_terminated(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [["x", 0.1], ["y", 2]])
        text = path.read_text(encoding="utf-8")
        assert text == "a,b\nx,0.1\ny,2\n"


class TestManifest:
    def test_manifest_records_digests(self, tmp_path, model_file):
        out = tmp_path / "result.json"
        with RunOutputs("simulate", [model_file], seed=7, sample_count=100, parameters={"kind": "dc"}) as run:
            write_json(run.path(out), {"ok": True})
        manifest = json.loads((tmp_path / "result.json.manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert manifest["inputs"][str(model_file)] == sha256_file(model_file)
        assert manifest["outputs"][str(out)] == sha256_file(out)
        assert manifest["timestamp"]

    def test_manifest_tool_version_is_package_version(self, tmp_path):
        out = tmp_path / "result.json"
        with RunOutputs("plan", []) as run:
            write_json(run.path(out), {"ok": True})
        manifest = json.loads((tmp_path / "result.json.manifest.json").read_text(encoding="utf-8"))
        assert manifest["tool_version"] == hdce.__version__


class TestRunOutputs:
    def test_manifest_keys_in_order_and_inputs_and_outputs_sorted(self, tmp_path, model_file, projects_file):
        first, second = tmp_path / "z.json", tmp_path / "a.csv"
        with RunOutputs("validate", [projects_file, model_file], seed=1, sample_count=2,
                        parameters={"alpha": 0.05}) as run:
            write_json(run.path(first), [1])
            write_csv(run.path(second), ["x"], [[1]])
        manifest = json.loads((tmp_path / "z.json.manifest.json").read_text(encoding="utf-8"))
        assert list(manifest) == ["command", "tool_version", "seed", "sample_count", "parameters", "inputs",
                                  "outputs", "timestamp"]
        assert list(manifest["inputs"]) == [str(model_file), str(projects_file)]
        assert list(manifest["outputs"]) == [str(second), str(first)]
        assert manifest["parameters"] == {"alpha": 0.05}

    def test_outputs_appear_only_when_the_block_ends(self, tmp_path):
        out = tmp_path / "result.json"
        with RunOutputs("plan", []) as run:
            temporary = Path(run.path(out))
            write_json(temporary, {"ok": True})
            assert temporary.parent == tmp_path and temporary.name.startswith(".result.json.")
            assert sorted(tmp_path.iterdir()) == [temporary]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json", "result.json.manifest.json"]

    def test_a_block_that_raises_writes_nothing_and_keeps_older_outputs(self, tmp_path):
        out = tmp_path / "result.json"
        out.write_text("older\n", encoding="utf-8")
        with pytest.raises(RuntimeError), RunOutputs("plan", []) as run:
            write_json(run.path(out), {"ok": True})
            write_csv(run.path(tmp_path / "second.csv"), ["x"], [[1]])
            raise RuntimeError("stop")
        assert [p.name for p in tmp_path.iterdir()] == ["result.json"]
        assert out.read_text(encoding="utf-8") == "older\n"

    def test_a_run_without_outputs_writes_no_manifest(self, tmp_path, model_file):
        with RunOutputs("model-check", [model_file]):
            pass
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_an_error_names_the_output_not_its_temporary_file(self, tmp_path):
        out = tmp_path / "missing-directory" / "result.json"
        with pytest.raises(FileNotFoundError) as caught, RunOutputs("plan", []) as run:
            write_json(run.path(out), {"ok": True})
        assert caught.value.filename == str(out)
        assert list(tmp_path.iterdir()) == []
