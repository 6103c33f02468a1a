"""Static checks on the package source and the demos: every module-level
import is used, the package's __all__ lists each public name once and
every name resolves, and the package imports only scipy.linalg and
scipy.special."""

import ast
from pathlib import Path

import pytest

import fpqt

MODULES = sorted(p for p in Path(fpqt.__file__).parent.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads.
    `from __future__` imports bind nothing and are skipped."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - read)


def test_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport scipy.linalg\nimport os\n"
        "from typing import BinaryIO, Optional\n"
        "def f(x: Optional[int]):\n    return np.abs(scipy.linalg.norm(x))\n"
    )
    assert unused_imports(source) == ["BinaryIO", "os"]


@pytest.mark.parametrize("path", MODULES + DEMOS,
                         ids=lambda p: f"demos/{p.name}" if p in DEMOS else p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_package_all_resolves_without_duplicates():
    assert len(fpqt.__all__) == len(set(fpqt.__all__))
    assert [name for name in fpqt.__all__ if not hasattr(fpqt, name)] == []


def test_package_uses_only_scipy_linalg_and_special():
    # scipy.stats alone would take over half of a fresh `import fpqt`
    used = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                used |= {a.name for a in node.names if a.name.split(".")[0] == "scipy"}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                used |= {f"{node.module}.{a.name}" if node.module == "scipy" else node.module
                         for a in node.names}
    assert used == {"scipy.linalg", "scipy.special"}
