"""Every name that an import binds in a package, test or tool module is used in that module.

No linter runs on the repository, so code deleted from a module can leave its
imports behind; this reads each module's syntax tree instead. An import made
for its side effect is marked `# noqa: F401` on its line.
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
