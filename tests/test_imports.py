"""Every module-level import of the package's modules is used, every
private module-level name is read somewhere in the package, and no module
imports scipy.

No linter runs on the package, so a stale import or a private function,
class or constant left behind by a refactor would otherwise go unnoticed.
The checks read the source with the standard library's ``ast`` only: a
name counts as used when the module reads it (annotations included, also
those written as strings) or lists it in ``__all__``, and a private name
as read when any module of the package uses it, imports it or reads it as
an attribute.  ``__init__.py`` is left out of the import check, since its
imports are the package's public names.
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


def scipy_imports(tree: ast.Module) -> list[int]:
    """The lines of every import of scipy or of a scipy module, at module
    level or nested in a function, a class or a block."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.partition(".")[0] == "scipy" for module in modules):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_scipy(path):
    # the package runs on numpy and click; scipy is the tests' oracle only
    lines = scipy_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name}: imports scipy at lines {lines}"


def test_the_check_sees_a_scipy_import():
    tree = ast.parse(
        "import numpy as np, scipy\n"
        "from scipy import special\n"
        "from .scipy_like import x\n"
        "import scipyx\n"
        "def f(x):\n"
        "    from scipy.special import logsumexp\n"
        "    return logsumexp(x)\n"
        "class C:\n"
        "    if True:\n"
        "        import scipy.stats as st\n"
    )
    assert scipy_imports(tree) == [1, 2, 6, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in module_imports(tree).items()
              if name not in used_names(tree)}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def private_definitions(statement: ast.stmt) -> list[str]:
    """The private names (not dunders) a top-level statement defines: a
    function, a class or assigned names."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def dead_private_names(tree: ast.Module, package: list[ast.Module]) -> dict[str, int]:
    """The private names ``tree`` defines at its top level that no other
    top-level statement of the package's modules reads (uses, imports or
    reads as an attribute), with their lines: a function read only by its
    own body is dead."""
    reads = []
    for statement in (s for module in package for s in module.body):
        read = used_names(statement)
        for node in ast.walk(statement):
            if isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        reads.append((statement, read))
    return {
        name: statement.lineno
        for statement in tree.body
        for name in private_definitions(statement)
        if not any(name in read for other, read in reads if other is not statement)
    }


TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_private_module_level_name_is_read(path):
    dead = dead_private_names(TREES[path], list(TREES.values()))
    assert not dead, f"{path.name}: private names no module reads (name: line) {dead}"


def test_the_check_sees_a_dead_private_name():
    defining = ast.parse(
        "import numpy as np\n"
        "_STEP = 16\n"
        "_GRID, _UNUSED = np.arange(_STEP), 0\n"
        "_TABLE: dict = {}\n"
        "__version__ = '1'\n"
        "def _helper():\n    return _GRID\n"
        "def _dead():\n    return _dead()\n"
        "class _Record:\n    pass\n"
        "def public():\n    return _helper()\n"
    )
    reading = ast.parse("from .m import _TABLE\nimport m\nx = m._Record, _TABLE\n")
    assert dead_private_names(defining, [defining, reading]) == {"_UNUSED": 3, "_dead": 8}


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
