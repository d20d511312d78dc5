"""Every name a package module imports is used in that module, and every
private module-level helper and private method is read somewhere in the
package.

Deleting code tends to leave its imports and its helpers behind; these checks
read each module of `src/beliefbound` with `ast` (no third-party linter).  The
first lists the imported names a module never reads; a name read only in an
annotation, quoted or not, counts as used.  The second lists the module-level
`_name`s (functions, classes, assignments; not dunders) that no module reads
outside their own definition.  The third lists the private methods of the
package's classes (cached properties included; not dunders) that no module
reads as an attribute.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
