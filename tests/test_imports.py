"""Guards over the sources, by the ast module: no unused import in the
package or its tests, no module-level private function or class of the
package that no module of it references, no public one, nor a public
method of a public class, that only the tests read, and no module of the
package that reads another one's private name."""

import ast
from pathlib import Path

import pytest

import pinning_lab

MODULES = sorted(Path(pinning_lab.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))

# public names that only the tests read, each with its reason
ORACLES = {
    "continuum.chaos_kernel",  # the continuum chaos kernel, an exact oracle
    "continuum.second_moment_term",  # one series term, checked by quadrature
    "continuum.cdpm_fdd_density",  # the quenched density, an exact oracle
    "closed_sets.fm_distance",  # the Fell-Matheron metric, an exact oracle
    "renewal.two_point_kernel",  # criterion 1's hand-check kernel
    "closed_sets.box_count_slope",  # criterion 4's dimension estimate
}


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


def loads(tree: ast.AST, skip: ast.AST | None = None,
          kinds=(ast.Name, ast.Attribute)) -> set[str]:
    """The names that tree reads in load context by nodes of the given
    kinds (a bare name, an attribute), outside the subtree skip."""
    inside = {id(n) for n in ast.walk(skip)} if skip else set()
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree) if id(n) not in inside
            and isinstance(n, kinds) and isinstance(n.ctx, ast.Load)}


def unread_public(sources: dict[str, str], readers: list[str]) -> list[str]:
    """The module-level public functions, classes and constants of sources,
    as module.name, that neither a module of sources outside the name's own
    definition nor a source of readers reads (a bare name or an attribute,
    in load context)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {module: loads(tree) for module, tree in trees.items()}
    by_readers = set().union(*(loads(ast.parse(s)) for s in readers))
    unread = []
    for module, tree in trees.items():
        elsewhere = by_readers.union(*(names for other, names in read.items()
                                       if other != module))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names
                       if not name.startswith("_") and name not in elsewhere
                       and name not in loads(tree, skip=node)]
    return sorted(unread)


def unread_methods(sources: dict[str, str], readers: list[str]) -> list[str]:
    """The public methods and properties of the module-level public classes
    of sources, as module.Class.name, whose name no attribute in load
    context reads, neither in sources outside the method's own definition
    nor in a source of readers. As in unread_public, the match is by name
    alone: an attribute of that name on any object counts as a read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    attrs = {module: loads(tree, kinds=ast.Attribute)
             for module, tree in trees.items()}
    by_readers = set().union(*(loads(ast.parse(s), kinds=ast.Attribute)
                               for s in readers))
    unread = []
    for module, tree in trees.items():
        elsewhere = by_readers.union(*(names for other, names in attrs.items()
                                       if other != module))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            unread += [f"{module}.{cls.name}.{fn.name}" for fn in cls.body
                       if isinstance(fn, ast.FunctionDef)
                       and not fn.name.startswith("_")
                       and fn.name not in elsewhere
                       and fn.name not in loads(tree, fn, ast.Attribute)]
    return sorted(unread)


def private_reads(sources: dict[str, str]) -> list[str]:
    """The reads of another module's _private name, as "reader: module.name",
    by a module of sources: an attribute of a name that an import bound to a
    module of sources, or a from-import out of one. As in the other guards,
    the match is by name alone: an import binds a module of sources when the
    last part of its dotted name is one of theirs, and an alias counts
    wherever its name appears in the reader."""
    reads = set()
    for reader, source in sources.items():
        tree = ast.parse(source)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update((a.asname or a.name, a.name.split(".")[-1])
                               for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                owner = (node.module or "").split(".")[-1]
                for a in node.names:
                    aliases[a.asname or a.name] = a.name
                    if owner in sources and owner != reader:
                        reads.add((reader, owner, a.name))
        reads.update((reader, aliases[n.value.id], n.attr)
                     for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                     and isinstance(n.value, ast.Name)
                     and aliases.get(n.value.id) in sources
                     and aliases[n.value.id] != reader)
    return sorted(f"{reader}: {module}.{name}"
                  for reader, module, name in reads
                  if name.startswith("_") and not name.startswith("__"))


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


def test_no_public_name_only_tests_read():
    unread = unread_public({p.stem: p.read_text() for p in MODULES},
                           [p.read_text() for p in PERFBENCH])
    assert unread == sorted(ORACLES)


def test_public_guard_flags_an_unread_name():
    # a recursive call, a class's own methods and a store read nothing; a
    # name counts as read in any module outside its definition, or by a
    # reader
    sources = {
        "a": ("LIMIT = 3\nUNREAD = 4\n\ndef used():\n    return LIMIT\n\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
              "class Gone:\n    def copy(self):\n        return Gone()\n\n"
              "def by_bench():\n    pass\n\n"
              "def _private():\n    return used()\n"),
        "b": "import a\na.UNREAD = 5\n",
    }
    assert unread_public(sources, ["import a\na.by_bench()\n"]) == [
        "a.Gone", "a.UNREAD", "a.recursive"]


def test_no_public_method_only_tests_read():
    assert unread_methods({p.stem: p.read_text() for p in MODULES},
                          [p.read_text() for p in PERFBENCH]) == []


def test_method_guard_flags_an_unread_method():
    # a method counts as read by an attribute anywhere outside its own
    # definition, in a source or a reader; a recursive call reads nothing,
    # and private methods and private classes are skipped
    sources = {
        "a": ("class Box:\n"
              "    def unread(self):\n        pass\n\n"
              "    def by_other(self):\n        return self.by_sibling()\n\n"
              "    def by_sibling(self):\n        pass\n\n"
              "    def recursive(self, n):\n"
              "        return self.recursive(n - 1) if n else 0\n\n"
              "    def by_reader(self):\n        pass\n\n"
              "    @property\n    def size(self):\n        return 0\n\n"
              "    @property\n    def shown(self):\n        return 1\n\n"
              "    def _private(self):\n        pass\n\n"
              "class _Hidden:\n    def unread(self):\n        pass\n"),
        "b": ("import a\n\n"
              "def use(box):\n    box.unread = 1\n"
              "    return box.by_other(), box.shown\n"),
    }
    assert unread_methods(sources, ["import a\na.Box().by_reader()\n"]) == [
        "a.Box.recursive", "a.Box.size", "a.Box.unread"]


def test_no_module_reads_another_modules_private_name():
    assert private_reads({p.stem: p.read_text() for p in MODULES}) == []


def test_private_read_guard_flags_a_read():
    # an attribute of an imported module alias, a from-import out of a
    # module and a module imported whole each read; a module's own private
    # names, dunders, public names and modules outside sources do not
    sources = {
        "a": "import a as me\n\ndef _x():\n    return me._x\n",
        "b": ("import a\nimport numpy as np\n"
              "from pkg import a as m\nfrom pkg.a import _y, z\n\n"
              "m._x(), a._z, m.__name__, m.public, np._private, z._w\n"),
    }
    assert private_reads(sources) == ["b: a._x", "b: a._y", "b: a._z"]
