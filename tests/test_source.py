"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "halphen"


def test_no_floating_point_literals():
    """The library is exact arithmetic: no float constant appears in it."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, (float, complex))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
