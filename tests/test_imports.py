"""Guards over the sources, by the ast module: no unused import in the
package or its tests, and no module-level private function or class of the
package that no module of it references."""

import ast
from pathlib import Path

import pytest

import pinning_lab

MODULES = sorted(Path(pinning_lab.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """The module-level _private functions and classes, as module.name, whose
    name no module of sources reads: by a bare name, an attribute or an
    import."""
    defined, used = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                defined[f"{module}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(k for k, name in defined.items() if name not in used)


@pytest.mark.parametrize(
    "path", MODULES + TESTS,
    ids=lambda p: p.name if p in MODULES else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_name():
    src = ("from __future__ import annotations\nimport os, numpy as np\n"
           "from a.b import c, d as e\nfrom f import g\n__all__ = ['g']\n"
           "np.zeros(e)\n")
    assert unused_imports(src) == ["c (line 3)", "os (line 2)"]


def test_no_unreferenced_private_definitions():
    assert unreferenced_private({p.stem: p.read_text() for p in MODULES}) == []


def test_private_guard_flags_an_unreferenced_name():
    # a name counts as read by a bare name, an attribute or an import, in
    # any module; methods and dunders are not module-level private names
    sources = {
        "a": ("def _dead():\n    pass\n\ndef _imported():\n    pass\n\n"
              "class _Gone:\n    def _method(self):\n        pass\n\n"
              "def __getattr__(name):\n    return _by_name\n\n"
              "def _by_name():\n    pass\n"),
        "b": ("import a\nfrom a import _imported\n\n"
              "def _by_attribute():\n    return a._by_attribute()\n"),
    }
    assert unreferenced_private(sources) == ["a._Gone", "a._dead"]
