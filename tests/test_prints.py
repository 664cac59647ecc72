"""The package prints from two places: `cli.main` writes each command's
stdout document and `cli._fail` writes the error line on stderr. Commands
return their document, so that every output passes through one
`json.dumps(..., allow_nan=False)`.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "labelshift").glob("*.py"))
ALLOWED = {"cli.main", "cli._fail"}


def print_calls(source: str, module: str) -> list[str]:
    """`module.function (line n)` for each print call of a module, naming
    the outermost function that holds it, or `module` at top level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and where == module:
            where = f"{module}.{node.name}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            found.append(f"{where} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def test_checker_flags_what_it_should():
    src = (
        "print('top')\n"
        "def main():\n"
        "    print('ok')\n"
        "def cmd():\n"
        "    def inner():\n"
        "        print('nested')\n"
        "    return sys.stdout.write('x') or printer()\n"
    )
    assert print_calls(src, "cli") == ["cli (line 1)", "cli.main (line 3)", "cli.cmd (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_print_only_in_main_and_fail(path):
    calls = print_calls(path.read_text(encoding="utf-8"), path.stem)
    assert [c for c in calls if c.split(" ")[0] not in ALLOWED] == []
