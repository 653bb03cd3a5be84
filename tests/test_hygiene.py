"""Source hygiene checks that need no lint tool: stdlib `ast` only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hrstnet"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names in `__all__` count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    src = "import os\nimport numpy as np\nfrom .x import a, b\n__all__ = ['b']\nnp.zeros(1)\n"
    assert unused_imports(src) == ["a (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports_in_src(path):
    assert unused_imports(path.read_text()) == []
