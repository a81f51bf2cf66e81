"""Every name a ``patternpack`` module imports is used there.

No linter runs on this repository, so this is the check that catches an
import a refactor left behind."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "patternpack"


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
    from .placement import PlacementMemo
__all__ = ["exported"]
def f(memo: "PlacementMemo | None") -> float:
    return np.sum(memo) + EPS_INT
'''
    assert unused_imports(source) == ["count_matrix (line 4)"]


def test_every_module_uses_what_it_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    unused = {path.name: names for path in modules
              if (names := unused_imports(path.read_text()))}
    assert unused == {}
