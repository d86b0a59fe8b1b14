"""File formats and canonical serialization.

Inputs: model JSON, projects JSON, rankings CSV, each read, shape-checked and
turned into records here; model's validate_* functions judge their meaning.
Outputs: JSON (json.dump, in the caller's key order, streamed to the file) and
CSV, both with Python's shortest round-trip floats, so identical runs are
byte-identical and every float reads back as the same double, and text (the
SVG chart); every output has LF line endings on every platform. Every run's
outputs get a sidecar run manifest carrying the input digests, seed, and tool
version (the timestamp lives only there), and RunOutputs writes them all or
none.
"""

from __future__ import annotations

import csv
import errno
import hashlib
import json
import math
import os
import sys
from contextlib import AbstractContextManager
from datetime import datetime, timezone
from enum import Enum
from io import StringIO
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .diagnostics import Diagnostic, EmptyInputError, InputFormatError, warning
from .model import (
    SCALE_SIZE,
    CausalModel,
    Factor,
    FactorCategory,
    FactorKind,
    FactorScale,
    HistoricalProject,
    Multiplier,
    ProjectCharacterization,
    is_token,
)

if TYPE_CHECKING:
    import numpy as np

    from .elicitation import RankingSheet

RANKINGS_HEADER = ["expert_id", "kind", "category", "factor_id", "rank"]
# input path -> SHA-256 of the bytes a loader last parsed from it, which a run's manifest records
_parsed_digests: dict[str, str] = {}
# floats per block that write_json turns into text at a time
FLOAT_BLOCK = 1 << 16
# the longest input file read; a longer one, or an endless one such as /dev/zero, is an input error
MAX_INPUT_BYTES = 64 << 20


# ---------------------------------------------------------------------------
# JSON and float text
# ---------------------------------------------------------------------------


def format_float(value: float) -> str:
    """Python's shortest round-trip form of a finite float, the form json.dump writes."""
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite float {value!r} cannot be serialized")
    return float.__repr__(value)  # not repr: a numpy float would print as np.float64(...)


def write_json(path: str | Path, obj, floats: tuple[str, np.ndarray] | None = None) -> None:
    """obj as JSON in the caller's key order, two-space indent, LF endings; streamed to the file.

    floats = (key, vector) adds key as the last member of the dict obj, holding the floats of
    the numpy vector as a list, in json.dump's own bytes: each block of FLOAT_BLOCK floats is
    turned into text and written in turn, so no list of all of them is ever built.
    """
    with open(path, "w", newline="\n", encoding="utf-8") as handle:
        if floats is None:
            json.dump(obj, handle, indent=2, ensure_ascii=False, allow_nan=False)
        else:
            key, vector = floats
            # json.dump's text of {..., key: []} ends in '[]\n}'; the list goes in their place
            handle.write(json.dumps({**obj, key: []}, indent=2, ensure_ascii=False, allow_nan=False)[:-4])
            opening = "[\n    "
            for start in range(0, len(vector), FLOAT_BLOCK):
                values = vector[start:start + FLOAT_BLOCK].tolist()
                if not all(map(math.isfinite, values)):  # allow_nan=False's refusal
                    raise ValueError("Out of range float values are not JSON compliant")
                handle.write(opening + ",\n    ".join(map(float.__repr__, values)))
                opening = ",\n    "
            handle.write("\n  ]\n}" if len(vector) else "[]\n}")
        handle.write("\n")


def write_text(path: str | Path, text: str) -> None:
    """text as UTF-8 with LF endings on every platform (the risk-chart SVG)."""
    with open(path, "w", newline="\n", encoding="utf-8") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------


def _apply_unknown_policy(
    unknown: list[str], strict: bool, diagnostics: list[Diagnostic] | None
) -> None:
    if not unknown:
        return
    listing = ", ".join(unknown)
    if strict:
        raise InputFormatError(f"unknown fields (strict mode): {listing}")
    if diagnostics is not None:
        diagnostics.append(warning("unknown-fields", f"ignoring unknown fields: {listing}"))


def _read_text(path: str | Path, what: str) -> str:
    # read once, as a FIFO or a /dev/fd/N pipe gives its bytes only once, and a chunk at a time:
    # read(n) allocates n bytes before it reads any
    data = bytearray()
    with open(path, "rb") as handle:
        while len(data) <= MAX_INPUT_BYTES and (chunk := handle.read(1 << 20)):
            data += chunk
    if len(data) > MAX_INPUT_BYTES:
        raise InputFormatError(f"{what} file {path}: longer than {MAX_INPUT_BYTES} bytes")
    _parsed_digests[str(path)] = hashlib.sha256(data).hexdigest()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")  # universal newlines
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{what} file {path}: not UTF-8 text ({exc})") from None


def _load_json_file(path: str | Path, what: str):
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int literal past the digit limit
        raise InputFormatError(f"{what} file {path}: invalid JSON ({exc})") from None
    except RecursionError:  # arrays or objects nested deeper than the parser recurses
        raise InputFormatError(f"{what} file {path}: invalid JSON (nested too deeply)") from None


# ---------------------------------------------------------------------------
# JSON records: each schema's shape here, its meaning in model's validate_*
# ---------------------------------------------------------------------------

_MODEL_KEYS = {"context", "factors", "provenance"}
_FACTOR_KEYS = {"id", "name", "kind", "category", "scale", "multiplier"}
_MULTIPLIER_KEYS = {"min", "most_likely", "max"}
_PROJECT_KEYS = {"project_id", "size", "defects_found", "levels"}


def _object(data: object, where: str, what: str, keys: set[str]) -> list[str]:
    """The paths of data's fields outside keys, once data is checked to be an object."""
    if not isinstance(data, dict):
        raise InputFormatError(f"{where}: {what} must be an object")
    return [f"{where}.{k}" for k in sorted(set(data) - keys)]


def _member(enum: type[Enum], text: str, where: str, what: str):
    """The member of enum (FactorKind or FactorCategory) whose value is text, in a model or rankings file."""
    try:
        return enum(text)
    except ValueError:
        raise InputFormatError(f"{where}: unknown {what} {text!r}; expected one of {[m.value for m in enum]}") from None


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise InputFormatError(f"{where}: missing required field {key!r}")
    return data[key]


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFormatError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        # json reads NaN, Infinity and 1e400 as non-finite floats
        raise InputFormatError(f"{where}: expected a finite number, got {number}")
    return number


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise InputFormatError(f"{where}: expected a string, got {value!r}")
    return value


def multiplier_from_dict(data: object, where: str, unknown: list[str]) -> Multiplier:
    unknown.extend(_object(data, where, "multiplier", _MULTIPLIER_KEYS))
    return Multiplier(
        min=_as_number(_require(data, "min", where), f"{where}.min"),
        most_likely=_as_number(_require(data, "most_likely", where), f"{where}.most_likely"),
        max=_as_number(_require(data, "max", where), f"{where}.max"),
    )


def factor_from_dict(data: object, where: str, unknown: list[str]) -> Factor:
    unknown.extend(_object(data, where, "factor", _FACTOR_KEYS))
    kind_text = _as_str(_require(data, "kind", where), f"{where}.kind")
    kind = _member(FactorKind, kind_text, f"{where}.kind", "kind")
    category_text = _as_str(_require(data, "category", where), f"{where}.category")
    category = _member(FactorCategory, category_text, f"{where}.category", "category")
    scale_raw = _require(data, "scale", where)
    if not isinstance(scale_raw, list) or not all(isinstance(s, str) for s in scale_raw):
        raise InputFormatError(f"{where}.scale: expected a list of {SCALE_SIZE} strings")
    multiplier_raw = data.get("multiplier")
    multiplier = (
        None
        if multiplier_raw is None
        else multiplier_from_dict(multiplier_raw, f"{where}.multiplier", unknown)
    )
    return Factor(
        id=_as_str(_require(data, "id", where), f"{where}.id"),
        name=_as_str(_require(data, "name", where), f"{where}.name"),
        kind=kind,
        category=category,
        scale=FactorScale(tuple(scale_raw)),
        multiplier=multiplier,
    )


def model_from_dict(data: object) -> tuple[CausalModel, list[str]]:
    """Build a model from parsed JSON; returns (model, unknown-field paths).

    Shape violations raise InputFormatError; semantic problems (bad multiplier
    ordering, duplicate ids, ...) are left for validate_model to report.
    """
    unknown = _object(data, "model", "top level", _MODEL_KEYS)
    factors_raw = _require(data, "factors", "model")
    if not isinstance(factors_raw, list):
        raise InputFormatError("model.factors: expected a list")
    factors = tuple(
        factor_from_dict(f, f"model.factors[{i}]", unknown) for i, f in enumerate(factors_raw)
    )
    provenance = data.get("provenance", "")
    model = CausalModel(
        context=_as_str(_require(data, "context", "model"), "model.context"),
        factors=factors,
        provenance=_as_str(provenance, "model.provenance"),
    )
    return model, unknown


def project_from_dict(data: object, where: str) -> tuple[HistoricalProject, list[str]]:
    unknown = _object(data, where, "project", _PROJECT_KEYS)
    project_id = _as_str(_require(data, "project_id", where), f"{where}.project_id")
    if not is_token(project_id):
        raise InputFormatError(f"{where}.project_id: {project_id!r} is not a valid token")
    size = _as_number(_require(data, "size", where), f"{where}.size")
    if not size > 0:
        raise InputFormatError(f"{where}.size: must be > 0, got {size}")
    df_raw = data.get("defects_found")
    defects_found = None if df_raw is None else _as_int(df_raw, f"{where}.defects_found")
    if defects_found is not None and not 0 <= defects_found <= sys.float_info.max:
        raise InputFormatError(f"{where}.defects_found: must be >= 0 and within float range, got {defects_found}")
    levels_raw = _require(data, "levels", where)
    if not isinstance(levels_raw, dict):
        raise InputFormatError(f"{where}.levels: expected an object mapping factor ids to levels")
    levels = {
        _as_str(k, f"{where}.levels key"): _as_int(v, f"{where}.levels[{k!r}]")
        for k, v in levels_raw.items()
    }
    project = HistoricalProject(
        characterization=ProjectCharacterization(project_id=project_id, levels=levels),
        size=size,
        defects_found=defects_found,
    )
    return project, unknown


def projects_from_list(data: object) -> tuple[list[HistoricalProject], list[str]]:
    if not isinstance(data, list):
        raise InputFormatError("projects: top level must be an array")
    projects: list[HistoricalProject] = []
    unknown: list[str] = []
    seen: set[str] = set()
    for i, entry in enumerate(data):
        project, extra = project_from_dict(entry, f"projects[{i}]")
        if project.project_id in seen:
            raise InputFormatError(f"projects[{i}]: duplicate project_id {project.project_id!r}")
        seen.add(project.project_id)
        projects.append(project)
        unknown.extend(extra)
    return projects, unknown


def load_model(
    path: str | Path, strict: bool = False, diagnostics: list[Diagnostic] | None = None
) -> CausalModel:
    model, unknown = model_from_dict(_load_json_file(path, "model"))
    _apply_unknown_policy(unknown, strict, diagnostics)
    return model


def load_projects(
    path: str | Path, strict: bool = False, diagnostics: list[Diagnostic] | None = None
) -> list[HistoricalProject]:
    projects, unknown = projects_from_list(_load_json_file(path, "projects"))
    _apply_unknown_policy(unknown, strict, diagnostics)
    return projects


def load_rankings(path: str | Path) -> list[RankingSheet]:
    """Parse the rankings CSV into one sheet per (expert, kind, category)."""
    from .elicitation import RankingSheet  # only rank-analyze loads elicitation

    reader = csv.reader(StringIO(_read_text(path, "rankings")))
    try:
        header, *rows = reader
    except ValueError:
        raise EmptyInputError(f"rankings file {path} is empty") from None
    except csv.Error as exc:  # a field over csv.field_size_limit(), ...
        raise InputFormatError(f"{path}:{reader.line_num}: {exc}") from None
    if [h.strip() for h in header] != RANKINGS_HEADER:
        raise InputFormatError(
            f"rankings file {path}: header must be {','.join(RANKINGS_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    grouped: dict[tuple[str, FactorKind, FactorCategory], dict[str, float]] = {}
    for line_no, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(RANKINGS_HEADER):
            raise InputFormatError(
                f"{path}:{line_no}: expected {len(RANKINGS_HEADER)} columns, got {len(row)}"
            )
        expert_id, kind_text, category_text, factor_id, rank_text = (c.strip() for c in row)
        if not is_token(expert_id) or not is_token(factor_id):
            raise InputFormatError(f"{path}:{line_no}: expert_id and factor_id must be tokens")
        kind = _member(FactorKind, kind_text, f"{path}:{line_no}", "kind")
        category = _member(FactorCategory, category_text, f"{path}:{line_no}", "category")
        try:
            rank = float(rank_text)
        except ValueError:
            raise InputFormatError(f"{path}:{line_no}: rank {rank_text!r} is not a number") from None
        if rank <= 0:
            raise InputFormatError(f"{path}:{line_no}: rank must be positive, got {rank}")
        key = (expert_id, kind, category)
        sheet = grouped.setdefault(key, {})
        if factor_id in sheet:
            raise InputFormatError(
                f"{path}:{line_no}: duplicate rank for expert {expert_id!r}, factor {factor_id!r}"
            )
        sheet[factor_id] = rank
    if not grouped:
        raise EmptyInputError(f"rankings file {path} contains no data rows")
    return [
        RankingSheet(expert_id=expert_id, kind=kind, category=category, ranks=ranks)
        for (expert_id, kind, category), ranks in sorted(
            grouped.items(), key=lambda item: (item[0][0], item[0][1].value, item[0][2].value)
        )
    ]


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """CSV with LF endings and floats as JSON writes them (format_float); strings and ints pass through."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format_float(cell) if isinstance(cell, float) else cell for cell in row]
            )


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist (yet)
        return os.path.realpath(a) == os.path.realpath(b)


class RunOutputs(AbstractContextManager):
    """One run's outputs and their manifest, written together or not at all.

    In ``with RunOutputs(command, inputs, ...) as run:`` each output is written
    to ``run.path(target)``, a temporary file beside it. When the block ends
    cleanly, ``<first output>.manifest.json`` records the input and output
    digests (an input's of the bytes a loader parsed, so no input is read
    twice), and each output and then the manifest is moved into place. When
    it raises, the temporary files are removed: no file is written or changed.
    """

    def __init__(self, command: str, inputs: list[str], *, seed: int | None = None,
                 sample_count: int | None = None, parameters: dict | None = None):
        self._inputs = sorted(map(str, inputs))
        self._header = {"command": command, "tool_version": __version__, "seed": seed,
                        "sample_count": sample_count, "parameters": parameters or {}}
        self._temps: dict[str, str] = {}  # output -> its temporary file

    def path(self, target: str | Path) -> str:
        """A new name beside target to write it to, created by the writer's own open() so that its mode
        follows the umask. An input, another output of the run, a directory, a FIFO or a device is refused."""
        target = str(target)
        for other, role in [(p, "an input") for p in self._inputs] + [(p, "another output") for p in self._temps]:
            if _same_file(target, other):  # an OSError, so that main() says "cannot use <target>"
                raise OSError(errno.EINVAL, f"output path is also {role} of this run", target)
        head, tail = os.path.split(target)
        if not tail or os.path.exists(target) and not os.path.isfile(target):  # "" and "name/" name a directory
            raise OSError(errno.EINVAL, "not a regular file", target or os.curdir)
        self._temps[target] = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
        return self._temps[target]

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc is not None:
                raise exc
            if self._temps:
                outputs = {t: sha256_file(temp) for t, temp in sorted(self._temps.items())}
                write_json(self.path(next(iter(self._temps)) + ".manifest.json"), {
                    **self._header,
                    "inputs": {p: _parsed_digests.get(p) or sha256_file(p) for p in self._inputs},
                    "outputs": outputs,
                    "timestamp": datetime.now(timezone.utc).isoformat(),
                })
                for target, temp in self._temps.items():
                    os.replace(temp, target)
                self._temps.clear()
        except OSError as error:  # name the user's path, not a temporary one
            error.filename = {temp: t for t, temp in self._temps.items()}.get(error.filename, error.filename)
            raise
        finally:
            for temp in self._temps.values():
                Path(temp).unlink(missing_ok=True)
