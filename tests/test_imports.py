"""Every name a ``patternpack`` module or a test file imports is used there,
every name a module defines is read somewhere, and every parameter of a
module's functions is read by its body.

No linter runs on this repository, so these are the checks that catch an
import or a helper a refactor left behind."""

import ast
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "patternpack"
# where a definition may be read: the package, its tests and the benchmark
READERS = ("src", "tests", "perfbench")


def _annotations(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.arg):
        found = [node.annotation]
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        found = [node.returns]
    elif isinstance(node, ast.AnnAssign):
        found = [node.annotation]
    else:
        found = []
    return [a for a in found if a is not None]


def unused_imports(source: str) -> list[str]:
    """Names the module imports but neither reads, lists in ``__all__`` nor
    names in a string annotation, each with the line of its first import."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0],
                                    node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        for annotation in _annotations(node):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_check_finds_an_unused_import_and_only_that():
    source = '''
from typing import TYPE_CHECKING
import numpy as np
from .master import EPS_INT, count_matrix
from .model import exported
if TYPE_CHECKING:
    from .placement import BottomLeftPacker
__all__ = ["exported"]
def f(packer: "BottomLeftPacker | None") -> float:
    return np.sum(packer) + EPS_INT
'''
    assert unused_imports(source) == ["count_matrix (line 4)"]


def test_every_module_uses_what_it_imports():
    """The package's modules and the test files; the benchmark is left out."""
    modules = sorted(PACKAGE.glob("*.py"))
    tests = sorted((REPO / "tests").glob("*.py"))
    assert len(modules) >= 10 and len(tests) >= 10
    unused = {str(path.relative_to(REPO)): names for path in modules + tests
              if (names := unused_imports(path.read_text()))}
    assert unused == {}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Each module-level function, class and constant of ``tree`` and each
    method of its classes, dunders left out, with the node defining it."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item) for item in node.body if isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in found if not _is_dunder(name)]


def reads(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name: as a variable, as an attribute, or
    as a string that is an identifier (``getattr``, a monkeypatch, the
    benchmark's tracer table, ``__all__``)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found[node.value] += 1
    return found


def unread_definitions(source: str, everywhere: Counter) -> list[str]:
    """Names ``source`` defines that ``everywhere`` reads only inside their
    own definition, each with its line."""
    return [f"{name} (line {node.lineno})"
            for name, node in definitions(ast.parse(source))
            if everywhere[name] <= reads(node)[name]]


def test_the_check_finds_an_unread_definition_and_only_that():
    source = '''
__version__ = "1"
LIMIT = 3
UNUSED = 4
class Queue:
    def __len__(self):
        return 0
    def push(self, item):
        return self.spare(item)
    def spare(self, item):
        return LIMIT
    def idle(self):
        return self.idle()
def countdown(n):
    return countdown(n - 1) if n else Queue()
'''
    everywhere = reads(ast.parse(source)) + reads(ast.parse(
        "import m\nm.countdown(2)\ngetattr(m, 'push')"))
    assert unread_definitions(source, everywhere) == [
        "UNUSED (line 4)", "idle (line 12)"]


def test_every_definition_is_read():
    everywhere = sum((reads(ast.parse(path.read_text()))
                      for top in READERS for path in (REPO / top).rglob("*.py")),
                     Counter())
    unread = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if (names := unread_definitions(path.read_text(), everywhere))}
    assert unread == {}


# (module, function) -> the parameters of it that may go unread
UNREAD_PARAMETERS = {
    # passed by position by `perfbench/solve.py`; ROADMAP item 2 deletes it
    ("search.py", "initial_columns"): ["registry"],
    # passed by position by `perfbench/solve.py`; ROADMAP item 2 deletes it
    ("search.py", "column_generation"): ["instance", "cfg", "registry"],
}


def unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for every parameter of a function or lambda in
    ``source`` that its body, nested functions included, never reads as a
    variable; ``self`` and ``cls`` left out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for part in body for n in ast.walk(part)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(getattr(node, "name", "<lambda>"), p.arg) for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")]
    return found


def test_the_check_finds_an_unread_parameter_and_only_that():
    source = '''
class Packer:
    def place(self, w, h, *spare, **options):
        return w
    @classmethod
    def build(cls, size):
        def inner(step=size):
            return lambda x, y: x + step
        return inner()
'''
    assert unread_parameters(source) == [
        ("place", "h"), ("place", "spare"), ("place", "options"), ("<lambda>", "y")]


def test_every_parameter_is_read():
    unread = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for function, parameter in unread_parameters(path.read_text()):
            unread.setdefault((path.name, function), []).append(parameter)
    assert unread == UNREAD_PARAMETERS
