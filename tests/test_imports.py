"""Unused-import guard over the package sources, by the ast module."""

import ast
from pathlib import Path

import pytest

import pinning_lab

MODULES = sorted(Path(pinning_lab.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module,
    except those listed in a literal __all__."""
    tree = ast.parse(source)
    bound, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_name():
    src = ("from __future__ import annotations\nimport os, numpy as np\n"
           "from a.b import c, d as e\nfrom f import g\n__all__ = ['g']\n"
           "np.zeros(e)\n")
    assert unused_imports(src) == ["c (line 3)", "os (line 2)"]
