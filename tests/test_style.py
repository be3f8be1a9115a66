"""Source checks on the package, with the standard library only: line
length, the blank lines before each top-level definition, private names
cited in docstrings and comments that no longer exist, imports from
outside the standard library, and class statements inside functions."""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ocycles"
SOURCES = sorted(PACKAGE.glob("*.py"))
MAX_LINE = 100

# a backticked private name, bare or after its module: `_name`, `cli._name`
_CITED = re.compile(r"`(?:(\w+)\.)?(_[A-Za-z]\w*)`")


def _defined(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
DEFINED = {module: _defined(tree) for module, tree in TREES.items()}
ALL_DEFINED = set().union(*DEFINED.values())


def _prose(path: Path) -> list[tuple[int, str]]:
    """Each docstring and comment of a module, with the line it starts on."""
    text = path.read_text(encoding="utf-8")
    out = []
    for node in ast.walk(TREES[path.stem]):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                out.append((node.body[0].lineno, doc))
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            out.append((tok.start[0], tok.string))
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_line_length(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [(i, len(x)) for i, x in enumerate(lines, 1) if len(x) > MAX_LINE]
    assert long == [], f"{path.name}: lines longer than {MAX_LINE} characters (line, length)"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_two_blank_lines_before_top_level_definitions(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    wrong = []
    for node in TREES[path.stem].body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        # the first line of the definition, decorators included, 0-based
        i = min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1
        while i > 0 and lines[i - 1].lstrip().startswith("#"):
            i -= 1  # comment lines directly above belong to the definition
        blanks = 0
        while i > 0 and not lines[i - 1].strip():
            blanks += 1
            i -= 1
        if i > 0 and blanks != 2:
            wrong.append((node.name, blanks))
    assert wrong == [], f"{path.name}: definitions without two blank lines before (name, blanks)"


def _stale(prose: list[tuple[int, str]]) -> list[tuple[int, str]]:
    """The cited private names, each with its line, that the package does
    not define: in the module named, or anywhere for a bare name."""
    missing = []
    for line, text in prose:
        for m in _CITED.finditer(text):
            module, name = m.groups()
            if name not in DEFINED.get(module, ALL_DEFINED):
                missing.append((line, m.group()))
    return missing


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_cited_private_names_exist(path):
    missing = _stale(_prose(path))
    assert missing == [], f"{path.name}: docstrings or comments cite names not defined"


def test_stale_names_are_found():
    prose = [(1, "Read by ``_no_such_helper`` or `cli._word`, not `_lines`."), (2, "`cli._lines`")]
    assert _stale(prose) == [(1, "`_no_such_helper`"), (1, "`cli._word`")]


def _foreign(tree: ast.Module) -> list[tuple[int, str]]:
    """Each imported module, with its line, that is not ``__future__``, a
    relative import or in the standard library, by its top-level name."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.append((node.lineno, node.module))
    return [
        (line, name)
        for line, name in imported
        if name != "__future__" and name.split(".")[0] not in sys.stdlib_module_names
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    # the package has no dependencies: pyproject.toml declares dependencies = []
    foreign = _foreign(TREES[path.stem])
    assert foreign == [], f"{path.name}: imports from outside the standard library (line, module)"


def test_foreign_imports_are_found():
    source = (
        "from __future__ import annotations\nimport os.path, numpy.linalg\n"
        "from . import core\nfrom .core import Mode\nfrom collections import abc\n"
        "def f():\n    from hypothesis import given\n"
    )
    assert _foreign(ast.parse(source)) == [(2, "numpy.linalg"), (7, "hypothesis")]


def _local_classes(tree: ast.Module) -> list[tuple[int, str]]:
    """Each class statement, with its line and name, inside a function body."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((n.lineno, n.name) for n in ast.walk(node) if isinstance(n, ast.ClassDef))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_class_inside_a_function(path):
    # a class statement in a function builds a new class on every call; a
    # dict subclass defined inside euler_tour cost 18-35 us per tour
    local = _local_classes(TREES[path.stem])
    assert local == [], f"{path.name}: class statements inside functions (line, name)"


def test_local_classes_are_found():
    source = (
        "class A:\n    def f(self):\n        class B:\n            pass\n"
        "def g():\n    def h():\n        class C:\n            class D:\n                pass\n"
        "    return h\nclass E:\n    class F:\n        pass\n"
    )
    assert _local_classes(ast.parse(source)) == [(3, "B"), (7, "C"), (8, "D")]
