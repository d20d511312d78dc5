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
comments that name no definition.  The fifth keeps `numpy`, `hashlib` and
`csv` out of the module-level imports of the modules that `import
beliefbound.cli` loads: every CLI run pays for those, and only some commands
read them.  The sixth keeps the CLI's exit path single: no code but
`cli.main` calls `print` or reads `sys.stdout` or `sys.stderr`.  The seventh
keeps every input reader in `fileio`: no other module opens or reads a file,
parses JSON text, imports `csv` or reads a private name of `fileio`.
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


def module_level_imports(source: str) -> set[str]:
    """The modules `source` imports when it runs: top-level names of absolute
    imports and `.name` for relative ones, from statements at module level
    (inside `if` and `try` too, but not under `if TYPE_CHECKING` and not in a
    function or class body)."""
    found: set[str] = set()

    def visit(statements: list[ast.stmt]) -> None:
        for node in statements:
            if isinstance(node, ast.Import):
                found.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level:
                found.update(
                    [f".{node.module}"] if node.module else [f".{a.name}" for a in node.names]
                )
            elif isinstance(node, ast.ImportFrom):
                found.add(node.module.split(".")[0])
            elif isinstance(node, ast.If):
                if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                    visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.Try):
                for block in (node.body, *(h.body for h in node.handlers), node.orelse,
                              node.finalbody):
                    visit(block)

    visit(ast.parse(source).body)
    return found


def loaded_with(sources: dict[str, str], module: str) -> set[str]:
    """The package modules that importing `module` loads: the package's
    `__init__`, `module`, and what their module-level relative imports load."""
    loaded, todo = set(), ["__init__", module]
    while todo:
        name = todo.pop()
        if name not in loaded:
            loaded.add(name)
            todo += [m[1:] for m in module_level_imports(sources[name])
                     if m.startswith(".") and m[1:] in sources]
    return loaded


_CLI_MODULES = {"__init__", "bounds", "cli", "errors", "fileio", "report", "tables"}
_DEFERRED = {"csv", "hashlib", "numpy"}  # imported where they are read


def test_the_cli_imports_numpy_hashlib_and_csv_only_where_they_are_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    offenders = sorted(
        f"{m}: {name}" for m in _CLI_MODULES
        for name in module_level_imports(sources[m]) & _DEFERRED
    )
    assert offenders == []
    assert loaded_with(sources, "cli") == _CLI_MODULES


def test_check_sees_module_level_imports_only():
    source = (
        "from __future__ import annotations\n"
        "import csv, os.path\n"
        "from typing import TYPE_CHECKING\n"
        "from . import bounds as bnd, report\n"
        "from .tables import DistTable\n"
        "if TYPE_CHECKING:\n"
        "    import numpy\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    import simplejson as json\n"
        "def digest(x):\n"
        "    import hashlib\n"
        "    return hashlib.sha256(x)\n"
        "class Table:\n"
        "    from .scm import Scm\n"
    )
    assert module_level_imports(source) == {
        "__future__", "csv", "os", "typing", ".bounds", ".report", ".tables", "json", "simplejson",
    }
    sources = {"__init__": "", "cli": source, "bounds": "import numpy\n", "report": "",
               "tables": "from .errors import E\n", "errors": "", "scm": ""}
    assert loaded_with(sources, "cli") == {"__init__", "cli", "bounds", "report", "tables", "errors"}


def writers(sources: dict[str, str]) -> list[str]:
    """`module.function` (`module` at module level; methods as
    `module.Class.method`) for each place in `sources` that calls `print` or
    reads `sys.stdout` or `sys.stderr`."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "print"
            ) or (
                isinstance(child, ast.Attribute) and child.attr in ("stdout", "stderr")
                and isinstance(child.value, ast.Name) and child.value.id == "sys"
            ):
                found.append(where)
            visit(child, where)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return sorted(found)


def test_only_cli_main_writes_to_stdout_or_stderr():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert set(writers(sources)) == {"cli.main"}


def test_check_sees_planted_writes():
    sources = {
        "cli": (
            "import sys\n"
            "def main():\n"
            "    sys.stdout.write('report')\n"
            "    sys.stderr.write('error: x\\n')\n"
            "def cmd_predict(args):\n"
            "    sys.stdout.write('report')\n"
            "    return 0\n"
            "if __name__ == '__main__':\n"
            "    sys.exit(main())\n"
        ),
        "oracle": (
            "import sys\n"
            "class Polytope:\n"
            "    def explain(self):\n"
            "        print('atoms', file=sys.stderr)\n"
            "def _log(message):\n"
            "    out = sys.stderr\n"
            "    out.write(message)\n"
            "print('loaded')\n"
        ),
    }
    assert writers(sources) == [
        "cli.cmd_predict", "cli.main", "cli.main", "oracle", "oracle.Polytope.explain",
        "oracle.Polytope.explain", "oracle._log",
    ]


_OPENERS = {"open", "read_text"}  # as methods; `open` is also a builtin
_JSON_READERS = {"load", "loads"}


def file_readers(sources: dict[str, str]) -> list[str]:
    """`module: what` for each place in `sources`, outside `fileio`, that
    calls `open`, `.open` or `.read_text`, calls or imports `json.load` or
    `json.loads`, imports `csv`, or reads a `_private` name of `fileio`."""
    found = []
    for module, source in sources.items():
        if module == "fileio":
            continue
        for node in ast.walk(ast.parse(source)):
            what = None
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "open":
                    what = "open"
                elif isinstance(func, ast.Attribute) and func.attr in _OPENERS:
                    what = f".{func.attr}"
                elif (
                    isinstance(func, ast.Attribute) and func.attr in _JSON_READERS
                    and isinstance(func.value, ast.Name) and func.value.id == "json"
                ):
                    what = f"json.{func.attr}"
            elif isinstance(node, ast.Import):
                what = next((a.name for a in node.names if a.name == "csv"), None)
            elif isinstance(node, ast.ImportFrom):
                names = sorted(a.name for a in node.names)
                if node.module == "csv":
                    what = "csv"
                elif node.module == "json" and set(names) & _JSON_READERS:
                    what = f"json.{min(set(names) & _JSON_READERS)}"
                elif node.module == "fileio" and node.level:
                    what = next((f"fileio.{n}" for n in names if n.startswith("_")), None)
            elif (
                isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id == "fileio"
            ):
                what = f"fileio.{node.attr}"
            if what:
                found.append(f"{module}: {what}")
    return sorted(found)


def test_only_fileio_reads_files():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert file_readers(sources) == []


def test_check_sees_planted_readers():
    sources = {
        "fileio": (
            "import csv, json\n"
            "def _load_json(path):\n"
            "    return json.loads(path.read_text())\n"
            "def load_log(path):\n"
            "    with open(path) as handle:\n"
            "        return list(csv.reader(handle))\n"
        ),
        "cli": (
            "import json\n"
            "from . import fileio\n"
            "from .fileio import _array, load_scm\n"
            "def load(args):\n"
            "    doc = fileio._load_json(args.data)\n"
            "    return json.dumps(doc), fileio.load_input(args.data)\n"
        ),
        "fixtures": (
            "import json\n"
            "from json import loads\n"
            "def medai(path):\n"
            "    with path.open() as handle:\n"
            "        return json.load(handle), loads(path.read_text())\n"
        ),
        "report": "from csv import writer\nimport json\nTEXT = json.dumps({})\n",
    }
    assert file_readers(sources) == [
        "cli: fileio._array", "cli: fileio._load_json", "fixtures: .open", "fixtures: .read_text",
        "fixtures: json.load", "fixtures: json.loads", "report: csv",
    ]
