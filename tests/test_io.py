import json
import math
import random
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hdce
from hdce.diagnostics import InputFormatError
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
from helpers import exact_projects, model_to_dict, project_to_dict, reference_model, write_rankings_csv


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

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "rankings.csv"
        path.write_text(
            "expert_id,kind,category,factor_id,rank\n"
            "e1,Speed,Product,f1,1\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="unknown kind"):
            load_rankings(path)

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
