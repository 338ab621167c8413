"""Every name that an import binds in a package, test or tool module is used in that
module, and every top-level name that a package module defines is read somewhere.

No linter runs on the repository, so code deleted from a module can leave its
imports behind, and code whose last caller is deleted can stay; this reads
each module's syntax tree instead. An import made for its side effect is
marked `# noqa: F401` on its line.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qensembles"
MODULES = (
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "tools").glob("*.py"))
)
READERS = sorted(p for part in ("src", "tests", "tools", "perfbench") for p in (ROOT / part).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of `source` that it never reads.

    A name is read when it appears as an `ast.Name`; `import a.b` binds a.b,
    which must appear as the start of an attribute chain. `from __future__`
    imports and imports on a line marked `# noqa: F401` are not checked.
    """
    tree = ast.parse(source)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                parts = [node.id, *reversed(chain)]
                used.update(".".join(parts[:i]) for i in range(2, len(parts) + 1))
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import) or node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os  # noqa: F401\n"
        "import numpy as np\n"
        "import scipy.special\n"
        "import scipy.sparse\n"
        "from typing import Sequence\n"
        "from .hilbert import PureState as State, pauli_basis\n"
        "def f(x: Sequence) -> State:\n"
        "    return np.sqrt(scipy.sparse.eye(2))\n"
    )
    assert unused_imports(source) == ["math", "scipy.special", "pauli_basis"]


def read_names(source: str) -> set[str]:
    """The names that `source` reads: loaded names and attributes, and the names
    that `from ... import` takes out of a module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unread_definitions(source: str, read: set[str]) -> list[str]:
    """The top-level functions, classes and assigned names of `source` that are
    not in `read`; dunders are exempt. Names are matched without their module,
    so a read of one module's name also counts for a namesake elsewhere."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in defined if not (name.startswith("__") and name.endswith("__")) and name not in read]


def test_every_package_definition_is_read():
    read = set().union(*(read_names(path.read_text()) for path in READERS))
    unread = {
        path.name: unread_definitions(path.read_text(), read)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unread.items() if names} == {}


def test_the_check_finds_unread_definitions():
    package = (
        "__version__ = '1'\n"
        "PHASE_COLUMNS = 64\n"
        "SWITCH_DIM = 8192\n"
        "A, (B, C) = 1, (2, 3)\n"
        "class Curve:\n"
        "    k: int\n"
        "def _eigh(a):\n"
        "    return a[:PHASE_COLUMNS]\n"
        "def unused(x):\n"
        "    return _eigh(x)\n"
    )
    test = (
        "from pkg.spectral import Curve\n"
        "import pkg.spectral as sp\n"
        "SWITCH_DIM = 1\n"
        "sp.A = 2\n"
        "def test_b():\n"
        "    assert sp.B + C\n"
    )
    read = read_names(package) | read_names(test)
    assert unread_definitions(package, read) == ["SWITCH_DIM", "A", "unused"]
