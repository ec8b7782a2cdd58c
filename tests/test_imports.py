"""Every module-level import of the package's modules is used.

No linter runs on the package, so a stale import left by a refactor would
otherwise go unnoticed.  The check reads the source with the standard
library's ``ast`` only: a name counts as used when the module reads it
(annotations included, also those written as strings) or lists it in
``__all__``.  ``__init__.py`` is left out, since its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "lsdiv").glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def module_imports(tree: ast.Module) -> dict[str, int]:
    """The names the module's top-level imports bind, with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, in its code, in string annotations and in
    ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in module_imports(tree).items()
              if name not in used_names(tree)}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .divergence import lsd, _lse\n"
        "import json\n"
        "json = None\n"
        "__all__ = ['lsd']\n"
        "def f(x: 'np.ndarray') -> int:\n    return os.sep\n"
    )
    bound = module_imports(tree)
    assert sorted(bound) == ["_lse", "json", "lsd", "np", "os"]
    assert sorted(set(bound) - used_names(tree)) == ["_lse", "json"]
