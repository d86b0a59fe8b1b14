"""The determinism contract as a checked list.

Identical inputs, flags and seed must give byte-identical artifacts. Plain IEEE-754 arithmetic
(+, -, *, /, sqrt) and integer arithmetic give the same bits everywhere, but some calls do not:
a math function that is not correctly rounded comes from the platform's libm (and numpy's of the
same name from numpy's own loops), a numpy reduction adds in an order of numpy's choosing,
builtin sum compensates float additions from Python 3.12 on, and the clock, randomness and the
environment differ between runs. Every such use in src/hdce is listed in ALLOWED with the reason
it moves no output byte, or which bytes it is declared to move; an unlisted use fails with its
file and line, and an entry whose use has gone fails too, so that the list only shrinks with the
code.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hdce"

# math functions that are not correctly rounded; numpy's ufuncs of the same names are not either
LIBM = {
    "exp", "exp2", "expm1", "log", "log1p", "log2", "log10", "pow", "erf", "erfc", "gamma", "lgamma", "cbrt",
    "hypot", "dist", "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "asinh",
    "acosh", "atanh",
}
# numpy functions that add or multiply many elements in an order of numpy's choosing
NUMPY_REDUCTIONS = {
    "sum", "mean", "std", "var", "prod", "average", "dot", "vdot", "inner", "matmul", "tensordot", "einsum",
    "cumsum", "cumprod", "nansum", "nanmean", "nanstd", "nanvar", "nanprod", "trapezoid", "trapz",
}
# the same as methods of a value the scan cannot type, and a ufunc's own reductions
REDUCTION_METHODS = {"sum", "mean", "std", "var", "prod", "dot", "cumsum", "cumprod"}
UFUNC_REDUCTIONS = {"reduce", "accumulate", "reduceat"}
# reads of the clock, randomness or the environment, by dotted-name prefix
OUTSIDE_STATE = (
    "time.", "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today", "random.", "secrets.", "uuid.", "numpy.random.", "os.urandom", "os.getrandom",
    "os.environ", "os.getenv", "os.sched_getaffinity", "os.sysconf", "os.cpu_count", "os.getpid", "platform.",
)

# (module, enclosing function, dotted name) -> why it moves no output byte, or which it may move
ALLOWED = {
    ("pvalues", "_erfc_sqrt", "math.erfc"):
        "the 1-dof chi-square tail, whose last bits README declares platform-dependent",
    ("pvalues", "_erfc_sqrt", "math.exp"):
        "the first-order correction of that 1-dof tail",
    ("pvalues", "_exp_neg", "math.log"):
        "picks the range reduction of e^-x only; the fixed-point series fixes the bits",
    ("pvalues", "chi_square_sf", "math.log"):
        "bounds the tail to pick the working precision and the underflow cut-off only",
    ("io", "RunOutputs.__exit__", "datetime.datetime.now"):
        "the manifest's timestamp, the one field the contract leaves out",
    ("io", "RunOutputs.path", "os.urandom"):
        "temporary file names, each renamed onto its output",
    ("simulation", "_usable_cpus", "os.sched_getaffinity"):
        "the thread count; a block's arithmetic is the same on any thread",
    ("simulation", "_usable_cpus", "os.cpu_count"):
        "the thread count where there are no affinity masks",
    ("simulation", "_physical_memory", "os.sysconf"):
        "the memory bound, which decides whether a run starts, not what it writes",
    ("synthetic", "build_synthetic_model", "numpy.random.Generator"):
        "the caller's seeded generator; synthetic inputs for tests, scripts and the benchmark",
    ("synthetic", "generate_projects", "numpy.random.Generator"):
        "the caller's seeded generator, as above",
    ("synthetic", "generate_projects", "math.exp"):
        "synthetic project sizes; no subcommand loads the generator",
    ("synthetic", "generate_projects", "math.log"):
        "synthetic project sizes, as above",
    ("synthetic", "generate_projects", "numpy.exp"):
        "synthetic defects-found noise, as above",
    ("cli", "cmd_model_check", "sum"):
        "integer counts of diagnostics by severity",
    ("evaluation", "_exact_two_sided", "sum"):
        "an integer sum of doubled Wilcoxon ranks",
    ("evaluation", "_normal_two_sided", "sum"):
        "integer sums of doubled Wilcoxon ranks and of their squares",
    ("evaluation", "wilcoxon_signed_rank", "sum"):
        "the integer doubled rank sum W+",
    ("elicitation", "kendalls_w", "sum"):
        "integer tie terms t^3 - t",
}

Use = tuple[tuple[str, str, str], int, str]  # (module, function, name), line, why it is listed


def classify(name: str, method_call: bool) -> str | None:
    """Why a use of the dotted name may depend on the platform, a version or the outside, or None.
    method_call: the name is called as a method of a value, not of an imported name."""
    module, _, attr = name.rpartition(".")
    if module in ("math", "numpy") and attr in LIBM:
        return "not correctly rounded"
    if (module == "numpy" and attr in NUMPY_REDUCTIONS or name.startswith("numpy.linalg.")
            or module.startswith("numpy.") and attr in UFUNC_REDUCTIONS or method_call and attr in REDUCTION_METHODS):
        return "numpy reduction"
    if name == "sum":
        return "builtin sum"
    if name.startswith(OUTSIDE_STATE):
        return "clock, randomness or environment"
    return None


class Scanner(ast.NodeVisitor):
    """The uses in one module's tree, each Name or Attribute chain taken whole and resolved through
    the module's absolute imports."""

    def __init__(self, module: str, tree: ast.Module):
        self.module = module
        self.imports: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    self.imports[a.asname or a.name.split(".")[0]] = a.name if a.asname else a.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                for a in node.names:
                    self.imports[a.asname or a.name] = f"{node.module}.{a.name}"
        self.scope: list[str] = []
        self.uses: list[Use] = []
        self.visit(tree)

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_scope

    def visit_Call(self, node: ast.Call):
        if isinstance(node.func, (ast.Name, ast.Attribute)):
            self.chain(node.func, called=True)
        else:
            self.visit(node.func)
        for argument in (*node.args, *node.keywords):
            self.visit(argument)

    def visit_Attribute(self, node: ast.Attribute):
        self.chain(node)

    visit_Name = visit_Attribute

    def visit_BinOp(self, node: ast.BinOp):
        if isinstance(node.op, ast.MatMult):
            self.record("@", node, "numpy reduction")
        self.generic_visit(node)

    def chain(self, node: ast.Attribute | ast.Name, called: bool = False):
        attrs = []
        root = node
        while isinstance(root, ast.Attribute):
            attrs.append(root.attr)
            root = root.value
        if isinstance(root, ast.Name):
            base = self.imports.get(root.id, root.id)
        else:
            self.visit(root)  # a call or subscript at the root holds uses of its own
            base = "?"
        name = ".".join([base, *reversed(attrs)])
        method_call = called and bool(attrs) and not (isinstance(root, ast.Name) and root.id in self.imports)
        why = classify(name, method_call)
        if why is not None:
            self.record(name, node, why)

    def record(self, name: str, node: ast.AST, why: str):
        self.uses.append(((self.module, ".".join(self.scope) or "<module>", name), node.lineno, why))


def scan(source: str, module: str) -> list[Use]:
    return Scanner(module, ast.parse(source)).uses


def scan_package() -> list[Use]:
    return [use for path in sorted(SRC.glob("*.py")) for use in scan(path.read_text(encoding="utf-8"), path.stem)]


def test_every_use_is_listed_with_its_reason():
    unlisted = [f"src/hdce/{module}.py:{line}: {name} in {function} ({why})"
                for (module, function, name), line, why in scan_package() if (module, function, name) not in ALLOWED]
    assert unlisted == []


def test_every_listed_use_is_still_there():
    found = {key for key, _, _ in scan_package()}
    assert sorted(key for key in ALLOWED if key not in found) == []


def test_no_numpy_reduction_in_the_package():
    # every mean and sd comes from the model, so no output byte depends on numpy's summation order
    assert [key for key, _, why in scan_package() if why == "numpy reduction"] == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import numpy as np\ndef f(x):\n    return np.sum(x)\n", [(("m", "f", "numpy.sum"), 3)]),
        ("import numpy\nclass C:\n    def f(self, x):\n        return numpy.add.reduce(x)\n",
         [(("m", "C.f", "numpy.add.reduce"), 4)]),
        ("def f(x):\n    return x.mean() + x.T.sum() + (x @ x)\n",
         [(("m", "f", "@"), 2), (("m", "f", "x.mean"), 2), (("m", "f", "x.T.sum"), 2)]),
        ("def f(x):\n    return x.mean + f(x)[0].std()\n", [(("m", "f", "?.std"), 2)]),
        ("from math import log as ln\nvalues = list(map(ln, [1.0]))\n", [(("m", "<module>", "math.log"), 2)]),
        ("import numpy as np\ny = np.exp(1.0)\n", [(("m", "<module>", "numpy.exp"), 2)]),
        ("import os\nhome = os.environ.get('HOME')\n", [(("m", "<module>", "os.environ.get"), 2)]),
        ("from datetime import datetime\nnow = datetime.now().isoformat()\n",
         [(("m", "<module>", "datetime.datetime.now"), 2)]),
        ("total = sum([0.1, 0.2])\n", [(("m", "<module>", "sum"), 1)]),
        ("import math\nimport numpy as np\nr = math.sqrt(math.fsum([1.0])) + np.sqrt(2.0) + max([1])\n", []),
    ],
    ids=["np-sum", "ufunc-reduce", "methods-and-matmul", "field-is-no-call", "aliased-libm", "numpy-libm",
         "environ", "clock", "builtin-sum", "correctly-rounded"],
)
def test_scan_finds_each_kind_of_use(source, expected):
    assert sorted((key, line) for key, line, _ in scan(source, "m")) == sorted(expected)
