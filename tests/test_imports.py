"""Every module of the package, the tests and the study scripts uses each
name it imports.

Package `__init__.py` files re-export what they import, and `from __future__`
imports switch on language features, so neither is checked.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for d in (ROOT / "src" / "labelshift", ROOT / "tests", ROOT / "scripts")
    for p in d.glob("*.py") if p.name != "__init__.py"
)


def _dotted(node):
    """`a.b.c` for a chain of attribute loads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads. `import a.b` counts as used
    when some expression reads `a.b` or an attribute of it."""
    tree = ast.parse(source)
    imported = {}  # bound or dotted name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = _dotted(node)
            if dotted:
                parts = dotted.split(".")
                used.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # a string annotation such as "ProbVector"
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_what_it_should():
    src = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport numpy as np\nfrom a import b, c as d\n"
        "def f(x: 'b') -> None:\n    return np.zeros(os.sep)\n"
    )
    assert unused_imports(src) == ["d (line 5)", "os.path (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
