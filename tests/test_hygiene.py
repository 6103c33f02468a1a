"""Static checks on the package source and the demos: every module-level
import is used, the package's __all__ lists each public name once and
every name resolves, the package imports only scipy.linalg and
scipy.special, and those only inside the functions that compute with them
(so `import fpqt` loads no scipy), no module imports another's underscore
names beyond an allow-list, and it opens files for writing only inside
tensors._replacing."""

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


def import_time_imports(source: str) -> set[str]:
    """Modules a source file imports while it is itself imported: from its
    top-level body, an if or try block or a class body, not a function body."""
    found, todo = set(), list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo += ast.iter_child_nodes(node)
    return found


def test_import_time_checker_skips_only_function_bodies():
    source = (
        "import scipy.linalg\nfrom . import tensors\n"
        "try:\n    from scipy import special\nexcept ImportError:\n    pass\n"
        "class A:\n    import scipy.sparse\n"
        "def f():\n    import scipy.stats\n"
        "async def g():\n    from scipy import optimize\n"
    )
    assert import_time_imports(source) == {"scipy.linalg", ".", "scipy", "scipy.sparse"}


@pytest.mark.parametrize("path", sorted(Path(fpqt.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_scipy_at_import_time(path):
    # gelu and gptq's Cholesky import scipy when first called; a fresh
    # `import fpqt` then loads numpy alone (tests/test_lazy_imports.py)
    assert [m for m in import_time_imports(path.read_text()) if m.split(".")[0] == "scipy"] == []


# the underscore names a package module may import from another one; a name
# leaves the list once no module imports it.  gptq's sweep snaps its rows on
# one _Grid, the snap with its constants and scratch; fpqt quantize reads the
# float32 stream and snaps on a float32 _Grid where _fits says float32 holds it.
PRIVATE_IMPORTS = {"gptq.py": {"_Grid"},
                   "cli.py": {"_Grid", "_fits", "_iter_entries", "_replacing", "_write_entries"}}


def private_imports(source: str) -> set[str]:
    """Underscore names a module imports from another fpqt module, by a
    relative import or one from fpqt itself."""
    return {a.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "fpqt")
            for a in node.names if a.name.startswith("_")}


def test_private_import_checker_finds_every_form():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .hadamard import HadamardSpec, _mix\n"
        "from fpqt.quantize import _snap as snap\n"
        "from . import _private\n"
        "def f():\n    from .tensors import _replacing\n"
    )
    assert private_imports(source) == {"_mix", "_snap", "_private", "_replacing"}


@pytest.mark.parametrize("path", sorted(Path(fpqt.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_underscore_names_are_imported_only_from_the_allow_list(path):
    assert private_imports(path.read_text()) == PRIVATE_IMPORTS.get(path.name, set())


_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def write_opens(source: str, allowed: str | None = None) -> list[int]:
    """Line numbers of calls that open a file for writing outside the
    function named allowed: open, io.open or os.fdopen with any mode but a
    literal "rb" (a default or computed mode counts), and os.open with a
    write flag."""
    tree = ast.parse(source)
    inside = {id(n) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed for n in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        f = node.func
        if isinstance(f, ast.Name):
            call = f.id
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            call = f"{f.value.id}.{f.attr}"
        else:
            continue
        second = node.args[1] if len(node.args) > 1 else None
        if call == "os.open":
            flags = second or next((k.value for k in node.keywords if k.arg == "flags"), node)
            names = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(flags)}
            if names & _WRITE_FLAGS:
                lines.append(node.lineno)
        elif call in ("open", "io.open", "os.fdopen"):
            mode = second or next((k.value for k in node.keywords if k.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and mode.value == "rb"):
                lines.append(node.lineno)
    return lines


def test_write_checker_finds_every_form():
    source = (
        "import io, os\n"
        "def f(p):\n"
        "    open(p, 'rb').close()\n"
        "    open(p, mode='rb').close()\n"
        "    os.open(p, os.O_RDONLY)\n"
        "    open(p)\n"
        "    open(p, 'w')\n"
        "    io.open(p, mode='ab')\n"
        "    os.fdopen(3, 'wb')\n"
        "    os.open(p, flags=os.O_WRONLY | os.O_CREAT)\n"
        "def g(p):\n"
        "    open(p, 'wb')\n"
    )
    assert write_opens(source) == [6, 7, 8, 9, 10, 12]
    assert write_opens(source, allowed="g") == [6, 7, 8, 9, 10]


@pytest.mark.parametrize("path", sorted(Path(fpqt.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_files_are_written_only_through_replacing(path):
    allowed = "_replacing" if path.name == "tensors.py" else None
    assert write_opens(path.read_text(), allowed) == []


def test_the_guard_sees_the_writes_of_replacing():
    source = (Path(fpqt.__file__).parent / "tensors.py").read_text()
    assert write_opens(source) != []
