"""File formats and canonical serialization.

Inputs: model JSON, projects JSON, rankings CSV. Outputs: JSON (json.dump, in
the caller's key order, streamed to the file) and CSV, both with Python's
shortest round-trip floats, so identical runs are byte-identical and every
float reads back as the same double, and text (the SVG chart); every output has
LF line endings on every platform. Every run's outputs get a sidecar run
manifest carrying the input digests, seed, and tool version (the timestamp
lives only there), and RunOutputs writes them all or none.
"""

from __future__ import annotations

import csv
import errno
import hashlib
import json
import math
import os
from contextlib import AbstractContextManager
from datetime import datetime, timezone
from io import StringIO
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .diagnostics import Diagnostic, EmptyInputError, InputFormatError, warning
from .model import (
    CausalModel,
    FactorCategory,
    FactorKind,
    HistoricalProject,
    is_token,
    model_from_dict,
    projects_from_list,
)

if TYPE_CHECKING:
    import numpy as np

    from .elicitation import RankingSheet

RANKINGS_HEADER = ["expert_id", "kind", "category", "factor_id", "rank"]
# input path -> SHA-256 of the bytes a loader last parsed from it, which a run's manifest records
_parsed_digests: dict[str, str] = {}
# floats per block that write_json turns into text at a time
FLOAT_BLOCK = 1 << 16


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
    data = Path(path).read_bytes()  # read once: a FIFO or a /dev/fd/N pipe gives its bytes only once
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
        try:
            kind = FactorKind(kind_text)
        except ValueError:
            raise InputFormatError(f"{path}:{line_no}: unknown kind {kind_text!r}") from None
        try:
            category = FactorCategory(category_text)
        except ValueError:
            raise InputFormatError(f"{path}:{line_no}: unknown category {category_text!r}") from None
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
