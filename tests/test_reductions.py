"""Every sum, max or argmax over an axis in the package goes through the
helpers of `labelshift.simplex`: `row_sums`, `row_max`, `row_argmax` and
`column_sums`. They return numpy's bits without numpy's per-row reduction
loop, which at two classes takes 5 to 50 times as long as the helpers.

A call counts when it is a `.sum(`/`.max(`/`.argmax(` method call or
`np.sum`/`np.max`/`np.argmax` and passes an axis, by keyword or by position.
The helpers themselves hand some shapes to numpy, so calls inside them are
not checked.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "labelshift").glob("*.py"))
HELPERS = {"row_sums", "row_max", "row_argmax", "column_sums"}


def axis_reductions(source: str, allowed=frozenset()) -> list[str]:
    """The axis-passing sums, maxes and argmaxes of a module, outside the
    functions named in `allowed`."""
    found = []

    def visit(node, inside_helper):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside_helper = inside_helper or node.name in allowed
        if (
            not inside_helper
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("sum", "max", "argmax")
        ):
            func = node.func
            on_numpy = isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
            if any(kw.arg == "axis" for kw in node.keywords) or len(node.args) > on_numpy:
                found.append(f"{ast.unparse(func)} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, inside_helper)

    visit(ast.parse(source), False)
    return found


def test_checker_flags_what_it_should():
    src = (
        "import numpy as np\n"
        "def row_sums(a):\n"
        "    return a.sum(axis=-1)\n"
        "def f(a, b):\n"
        "    a.sum() + np.max(np.abs(a)) + a.argmax(axis=1) + max(a, b) + sum(a, 1)\n"
        "    a.sum(axis=1, keepdims=True)\n"
        "    (a * b).max(1)\n"
        "    np.sum(a, axis=0)\n"
        "    numpy.max(a, 0)\n"
    )
    assert axis_reductions(src, {"row_sums"}) == [
        "a.argmax (line 5)", "a.sum (line 6)", "(a * b).max (line 7)", "np.sum (line 8)",
        "numpy.max (line 9)",
    ]
    assert axis_reductions(src)[0] == "a.sum (line 3)"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_axis_reductions_go_through_the_helpers(path):
    allowed = HELPERS if path.name == "simplex.py" else frozenset()
    assert axis_reductions(path.read_text(encoding="utf-8"), allowed) == []
