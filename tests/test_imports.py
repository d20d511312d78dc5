"""Every name a package module imports is used in that module, every
private module-level helper and private method is read somewhere in the
package, and every code reference in a docstring or comment names code that
exists.

Deleting code tends to leave its imports, its helpers and the prose that cites
it behind; these checks read each module of `src/beliefbound` with `ast` and,
for comments, `tokenize` (no third-party linter).  The first lists the
imported names a module never reads; a name read only in an annotation,
quoted or not, counts as used.  The second lists the module-level `_name`s
(functions, classes, assignments; not dunders) that no module reads outside
their own definition.  The third lists the private methods of the package's
classes (cached properties included; not dunders) that no module reads as an
attribute.  The fourth lists the backticked references in docstrings and
comments that name no definition.
"""

from __future__ import annotations

import ast
import builtins
import io
import re
import tokenize
from pathlib import Path
from typing import Iterator

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "beliefbound"


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= used_names(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    return sorted(imported_names(tree) - used_names(tree))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_unused_and_annotation_only_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import Mapping, Sequence\n"
        "from functools import cached_property\n"
        "def f(x: Mapping) -> 'Sequence[int]':\n"
        "    return np.zeros(x)\n"
    )
    assert unused_imports(source) == ["cached_property", "os"]


def _defined(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """`module._name` for each private module-level definition in `sources`
    (module name -> source) whose name no statement other than its own reads,
    in any module, as a plain name or as an attribute."""
    defined, read = set(), set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _defined(stmt)
            defined |= {
                (module, n) for n in own if n.startswith("_") and not n.startswith("__")
            }
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    read.add(name)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_every_private_helper_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_helpers(sources) == []


def test_check_sees_orphaned_helpers():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def _emit(x):\n"
            "    return _emit(x - 1) if x else _LIMIT\n"  # reads only itself
            "def _helper():\n"
            "    return 1\n"
            "class _Box:\n"
            "    pass\n"
            "__version__ = '0'\n"
        ),
        "b": "import a\nfrom a import _helper\nVALUE = a._Box, _helper()\n",
    }
    assert orphaned_helpers(sources) == ["a._UNUSED", "a._emit"]


def orphaned_methods(sources: dict[str, str]) -> list[str]:
    """`module.Class._name` for each private method (a `def` in a class body,
    cached properties included; not dunders) in `sources` that no module reads
    as an attribute ``.name``."""
    defined, read = set(), set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                defined |= {
                    (module, node.name, f.name)
                    for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and f.name.startswith("_") and not f.name.startswith("__")
                }
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{m}.{c}.{name}" for m, c, name in defined if name not in read)


def test_every_private_method_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_methods(sources) == []


def test_check_sees_orphaned_methods():
    sources = {
        "a": (
            "from functools import cached_property\n"
            "class Data:\n"
            "    def __post_init__(self):\n"
            "        self._check_scope()\n"
            "    def _check_scope(self):\n"
            "        pass\n"
            "    def _check_utility(self, names):\n"  # left behind by a fold
            "        pass\n"
            "    @cached_property\n"
            "    def _index(self):\n"
            "        return {}\n"
        ),
        "b": "import a\nVALUE = a.Data()\n",
    }
    assert orphaned_methods(sources) == ["a.Data._check_utility", "a.Data._index"]
    sources["b"] += "INDEX = VALUE._index\n"
    assert orphaned_methods(sources) == ["a.Data._check_utility"]


# A single-backticked name or dotted pair; ``double`` backticks quote code.
_SPAN = re.compile(r"(?<!`)`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)`(?!`)")
_CAMEL = re.compile(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)*\Z")


def _texts(source: str) -> Iterator[tuple[int, str]]:
    """(first line, text) of every docstring and comment in `source`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


def _parameters_at(tree: ast.Module, line: int) -> set[str]:
    """The parameters of every function whose source spans `line`."""
    return {
        arg.arg
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and node.lineno <= line <= node.end_lineno
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg)
    }


def _bound_names(tree: ast.Module) -> set[str]:
    """Every name `tree` binds anywhere: functions, classes, assignment
    targets (attributes included), parameters and imports."""
    names = set(imported_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def stale_references(sources: dict[str, str]) -> list[str]:
    """`module:line `ref`` for each backticked reference in a docstring or
    comment of `sources` (module name -> source) that names no definition.

    `module.name` must be defined at the top level of that module, and
    `Class.name` in that class's body.  A bare `_private` or `CamelCase` name
    must be bound somewhere in `sources` or be a builtin.  A dotted name whose
    head is a parameter of an enclosing function reads as that parameter
    (`scm.exo` where `scm` is a model), and other dotted names, such as
    `np.add`, are not checked."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    modules = {module: set().union(*map(_defined, tree.body)) for module, tree in trees.items()}
    classes: dict[str, set[str]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, set()).update(*map(_defined, node.body))
    known = set(dir(builtins)).union(*map(_bound_names, trees.values()))
    stale = []
    for module, source in sources.items():
        for line, text in _texts(source):
            for ref in _SPAN.findall(text):
                head, _, name = ref.partition(".")
                if not name:
                    ok = ref in known or not (ref.startswith("_") or _CAMEL.match(ref))
                elif head in _parameters_at(trees[module], line):
                    ok = True
                else:
                    members = modules.get(head, classes.get(head))
                    ok = members is None or name in members
                if not ok:
                    stale.append(f"{module}:{line} `{ref}`")
    return sorted(stale)


def test_every_code_reference_names_a_definition():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert stale_references(sources) == []


def test_check_sees_stale_references():
    sources = {
        "a": (
            '"""See `b.run`, `b._gone`, `Box.size`, `Box.weight`, `_helper`,\n'
            '`Shift`, `Fraction`, `ValueError`, `np.add` and ``Missing``."""\n'
            "from fractions import Fraction\n"
            "class Box:\n"
            "    size: int = 0\n"
            "def _helper(b):\n"
            '    """Reads `b.weight`, a field of its parameter."""\n'
            "    return b  # `_removed` was folded in here\n"
        ),
        "b": "def run():\n    pass\n",
    }
    assert stale_references(sources) == [
        "a:1 `Box.weight`", "a:1 `Shift`", "a:1 `b._gone`", "a:8 `_removed`",
    ]
    sources["b"] += "_gone = 0\n"
    assert stale_references(sources) == ["a:1 `Box.weight`", "a:1 `Shift`", "a:8 `_removed`"]
