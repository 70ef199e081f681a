"""The runtime stays stdlib-only: every absolute import in the package names
a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ellink").glob("*.py"))


def _absolute_imports(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "efun.py", "theta.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [
        name for name in _absolute_imports(tree)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
