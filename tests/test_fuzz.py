"""Fuzzed inputs end in a result or a coded diagnostic.

The loaders either return or raise the errors that main() turns into exit 1
or 2; main() itself exits 0, 1 or 2 without a traceback, prints at least one
`error: [code] ` line on a nonzero exit, prints no error code that README's
exit-code table does not list, and writes no NaN or Infinity. Hypothesis
deadlines guard the in-process runs against hangs, and a fixed corpus runs as
subprocesses with a timeout.
"""

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdce.cli import main
from hdce.diagnostics import HdceError
from hdce.io import load_model, load_projects, load_rankings
from helpers import readme_error_codes

EXAMPLES = Path(__file__).resolve().parent.parent / "schemas" / "examples"
SRC = Path(__file__).resolve().parent.parent / "src"
MODEL = json.loads((EXAMPLES / "model.json").read_text(encoding="utf-8"))
PROJECTS = json.loads((EXAMPLES / "projects.json").read_text(encoding="utf-8"))
RANKINGS = (EXAMPLES / "rankings.csv").read_text(encoding="utf-8").splitlines()

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.integers(),
    st.floats(),  # NaN and the infinities included: json.dumps writes them as NaN / Infinity
    st.sampled_from([-0.0, 1e-320, 1e308, 0.5, 3.0, 2**53 + 1]),
    st.text(max_size=6),
    st.sampled_from(["", "dc", "DefectContent", "Effectiveness", "Product", "Project", "nan", "review-a"]),
)
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# text that json.loads reads, or nearly reads, and that no mutation of a document produces
RAW_JSON = st.sampled_from([
    "", " ", "{", "[", "[]", "{}", "null", "0", "NaN", "-Infinity", '"model"', "[" * 5000 + "]" * 5000,
    "[" * 100_000, "1" * 5000, '{"factors": NaN}', "﻿{}", "[1e999]",
])


def _locations(doc, path=()):
    # every path into doc, the root included
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _locations(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _locations(value, path + (index,))


@st.composite
def mutated(draw, doc):
    """doc after one to three edits: a value replaced, an entry deleted, or one added or duplicated."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_locations(doc))))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if not path:
            if action == "replace":
                doc = draw(JSON_VALUES)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        target = parent[path[-1]]
        if action == "replace":
            parent[path[-1]] = draw(JSON_VALUES)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(target, dict):
            target[draw(st.text(max_size=6))] = draw(JSON_VALUES)
        elif isinstance(target, list):
            target.append(copy.deepcopy(target[0]) if target and draw(st.booleans()) else draw(JSON_VALUES))
    return doc


def json_text(doc_strategy):
    return st.one_of(doc_strategy.map(json.dumps), RAW_JSON)


@st.composite
def rankings_text(draw):
    lines = list(RANKINGS)
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(lines) - 1))
        cells = lines[index].split(",")
        action = draw(st.sampled_from(["cell", "drop", "duplicate", "raw"]))
        if action == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(
                st.sampled_from(["", "nan", "inf", "-1", "0", "1.5", "1e308", "x y", "ProcessPersonnel"])
                | st.text(max_size=5)
            )
            lines[index] = ",".join(cells)
        elif action == "drop":
            del lines[index]
        elif action == "duplicate":
            lines.insert(index, lines[index])
        else:
            lines[index] = draw(st.text(max_size=20))
        if not lines:
            break
    return "\n".join(lines) + "\n"


def loads_or_raises_coded_error(load, text, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        try:
            load(path)
        except (HdceError, ValueError):  # main() reports both as exit 1 or 2
            pass


class TestLoaders:
    @settings(max_examples=150, deadline=2000)
    @given(text=json_text(mutated(MODEL)))
    def test_model(self, text):
        loads_or_raises_coded_error(load_model, text, ".json")

    @settings(max_examples=150, deadline=2000)
    @given(text=json_text(mutated(PROJECTS)))
    def test_projects(self, text):
        loads_or_raises_coded_error(load_projects, text, ".json")

    @settings(max_examples=150, deadline=2000)
    @given(text=rankings_text() | st.text(max_size=40))
    def test_rankings(self, text):
        loads_or_raises_coded_error(load_rankings, text, ".csv")


_CODED_ERROR = re.compile(r"^error: \[([a-z0-9-]+)\] ", re.MULTILINE)
README_CODES = readme_error_codes()


def assert_coded(exit_code: int, stderr: str) -> None:
    """A nonzero exit prints a coded error line, and every error code printed is one README lists."""
    assert exit_code in (0, 1, 2), stderr
    assert "Traceback" not in stderr
    codes = set(_CODED_ERROR.findall(stderr))
    assert codes or exit_code == 0, f"exit {exit_code} without an error: [code] line:\n{stderr}"
    assert codes <= README_CODES, f"codes README does not list: {sorted(codes - README_CODES)}"


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def assert_outputs_finite(directory: Path, inputs: set[str]) -> None:
    for path in directory.iterdir():
        if path.name in inputs:
            continue
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            def refuse(constant):
                raise AssertionError(f"{path.name} holds {constant}")

            json.loads(text, parse_constant=refuse)
        else:
            assert not _NON_FINITE.search(text), f"{path.name} holds a non-finite number"


def subcommand_argv(name: str) -> list[str]:
    files = ["--model", "model.json", "--projects", "projects.json"]
    seeded = ["--seed", "3", "--samples", "300"]
    return {
        "rank-analyze": ["rank-analyze", "--rankings", "rankings.csv", "--out", "analysis.json"],
        "model-check": ["model-check", *files, "--require-quantified", "--out", "check.json"],
        "simulate": ["simulate", *files, *seeded, "--project", "review-c", "--kind", "eff", "--out", "sim.json"],
        "plan": ["plan", *files, *seeded, "--out", "chart.csv", "--svg", "chart.svg"],
        "predict": ["predict", *files, *seeded, "--target", "review-next", "--out", "prediction.json"],
        "validate": ["validate", *files, *seeded, "--out", "report.json"],
    }[name]


SUBCOMMANDS = ["rank-analyze", "model-check", "simulate", "plan", "predict", "validate"]


class TestMain:
    @settings(max_examples=120, deadline=10_000)
    @given(
        command=st.sampled_from(SUBCOMMANDS),
        model=json_text(mutated(MODEL)) | st.just(json.dumps(MODEL)),
        projects=json_text(mutated(PROJECTS)) | st.just(json.dumps(PROJECTS)),
        rankings=rankings_text(),
    )
    def test_exit_code_without_traceback_or_non_finite_output(self, command, model, projects, rankings):
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            for name, text in (("model.json", model), ("projects.json", projects), ("rankings.csv", rankings)):
                (workdir / name).write_text(text, encoding="utf-8")
            argv = [str(workdir / arg) if re.fullmatch(r"[\w-]+\.(json|csv|svg)", arg) else arg
                    for arg in subcommand_argv(command)]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert_coded(code, stderr.getvalue())
            assert_outputs_finite(workdir, {"model.json", "projects.json", "rankings.csv"})


# (name, hdce arguments, file overrides): each runs as its own process with a timeout; a later
# option overrides the same option before it
CORPUS = [
    ("deeply-nested-model", subcommand_argv("model-check"), {"model.json": "[" * 100_000}),
    ("nan-literal-multiplier", subcommand_argv("simulate"),
     {"model.json": re.sub(r'"max": [-+.\de]+', '"max": NaN', json.dumps(MODEL), 1)}),
    ("huge-integer-literal", subcommand_argv("plan"), {"projects.json": "1" * 10_000}),
    ("not-utf-8", subcommand_argv("validate"), {"projects.json": b"\xff\xfe\x00["}),
    ("empty-rankings", subcommand_argv("rank-analyze"), {"rankings.csv": ""}),
    ("nan-ranks", subcommand_argv("rank-analyze"),
     {"rankings.csv": "\n".join(line.replace(",1", ",nan") for line in RANKINGS)}),
    ("long-rankings-field", subcommand_argv("rank-analyze"),
     {"rankings.csv": f"{RANKINGS[0]}\ne1,DefectContent,Product,{'x' * 200_000},1\n"}),
    ("infinite-size", subcommand_argv("validate"),
     {"projects.json": re.sub(r'"size": [-+.\de]+', '"size": 1e999', json.dumps(PROJECTS), 1)}),
    ("duplicate-project", subcommand_argv("predict"), {"projects.json": json.dumps(PROJECTS + PROJECTS[:1])}),
    ("model-is-a-directory", subcommand_argv("model-check"), {"model.json": None}),
    ("argparse-error", [*subcommand_argv("plan"), "--scale-factor", "-1"], {}),
    ("missing-input", [*subcommand_argv("simulate"), "--projects", "missing.json"], {}),
    ("unknown-target", [*subcommand_argv("predict"), "--target", "nope"], {}),
    ("empty-portfolio", subcommand_argv("validate"), {"projects.json": "[]"}),
]


@pytest.mark.parametrize("name, argv, overrides", CORPUS, ids=[case[0] for case in CORPUS])
def test_corpus_ends_in_a_coded_exit_within_the_timeout(tmp_path, name, argv, overrides):
    inputs = {"model.json": json.dumps(MODEL), "projects.json": json.dumps(PROJECTS),
              "rankings.csv": "\n".join(RANKINGS) + "\n", **overrides}
    for file_name, content in inputs.items():
        path = tmp_path / file_name
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "hdce.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    assert_coded(proc.returncode, proc.stderr)
    assert_outputs_finite(tmp_path, set(inputs))
