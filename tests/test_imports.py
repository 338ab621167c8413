"""Every name that an import binds in a package, test or tool module is used in that
module; every top-level name that a package module defines is run by the package,
the benchmark or the tools, or is claimed by an open ROADMAP item; and every
package name that the benchmark reads exists.

No linter runs on the repository, so code deleted from a module can leave its
imports behind, and code whose last caller is deleted can stay; this reads
each module's syntax tree instead. An import made for its side effect is
marked `# noqa: F401` on its line.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qensembles"
MODULES = (
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "tools").glob("*.py"))
)
# A read in tests/ does not count: a layer that only its own tests call is not run.
READERS = sorted(p for part in ("src", "tools", "perfbench") for p in (ROOT / part).rglob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
# Package names that no reader runs yet, each kept for the ROADMAP item that gives it one.
CLAIMED = {
    "evolve_grid": 17,
    "product_form_moment": 7,
    "explicit_basis": 16,
    "basis_information_scan": 20,
    "rescaled_joint_probability_ks": 20,
}


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
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    unread = {path.name: unread_definitions(path.read_text(), read | set(CLAIMED)) for path in sources}
    assert {name: names for name, names in unread.items() if names} == {}
    # a claim ends when its name gains a reader or is deleted
    defined = set().union(*(unread_definitions(path.read_text(), set()) for path in sources))
    assert {name for name in CLAIMED if name in read or name not in defined} == set()


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
    reader = (
        "from pkg.spectral import Curve\n"
        "import pkg.spectral as sp\n"
        "SWITCH_DIM = 1\n"
        "sp.A = 2\n"
        "def run():\n"
        "    return sp.B + C\n"
    )
    test = "import pkg.spectral as sp\ndef test_unused():\n    assert sp.unused(1)\n"
    read = read_names(package) | read_names(reader)
    assert "unused" in read_names(test)  # a test's read is not a use
    assert unread_definitions(package, read) == ["SWITCH_DIM", "A", "unused"]


def benchmark_reads(source: str) -> list[tuple[str, str]]:
    """(module, name) for every name that `source` takes from a qensembles module:
    each `from` import of one, and each attribute loaded through a name bound to
    a qensembles module or package by an import."""
    tree = ast.parse(source)
    aliases, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qensembles":
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if _is_module(submodule):
                    aliases[alias.asname or alias.name] = submodule
                else:
                    reads.append((node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qensembles":
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                reads.append((aliases[node.value.id], node.attr))
    return reads


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_reads_resolve():
    reads = {path.name: benchmark_reads(path.read_text()) for path in BENCHMARK}
    assert reads["workloads.py"]  # the scan sees the calls the benchmark times and checks
    missing = [
        (path, module, name)
        for path, path_reads in reads.items()
        for module, name in path_reads
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
    # perfbench/spans.py rebinds these by name
    from qensembles import pipelines

    assert {"spectrum", "bound"} <= set(vars(pipelines.SpectrumCache))


def test_the_scan_finds_benchmark_reads():
    source = (
        "import qensembles\n"
        "from qensembles import spectral as sp, Caps\n"
        "from qensembles._util import task_rng\n"
        "sp.propagate = None\n"
        "x = qensembles.__file__, sp.diagonalize, sp.missing.attr, Caps.max_state_dim\n"
    )
    assert benchmark_reads(source) == [
        ("qensembles", "Caps"),
        ("qensembles._util", "task_rng"),
        ("qensembles", "__file__"),
        ("qensembles.spectral", "diagonalize"),
        ("qensembles.spectral", "missing"),
    ]
