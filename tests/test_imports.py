"""Every module of the package uses each name it imports, and none
assembles blocks with ``np.block``."""

import ast
from pathlib import Path

import pytest

import opsyscheck

PACKAGE = Path(opsyscheck.__file__).parent
# __init__ imports names only to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import and never read."""
    tree = ast.parse(source)
    bound: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    unused = _unused_imports((PACKAGE / module).read_text())
    assert not unused, ", ".join(f"{module}:{line} {name}" for line, name in unused)


def test_guard_flags_an_unused_import():
    source = "import math\nfrom os import path, sep\nimport numpy as np\n\nx = np.pi + math.pi\ny = sep\n"
    assert _unused_imports(source) == [(2, "path")]


def _np_block_calls(source: str) -> list[int]:
    """Lines that call ``np.block`` or ``numpy.block``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "block"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_np_block(module):
    # fields enter a matrix through systems._embed_fields, generic blocks
    # through linalg.block2x2
    lines = _np_block_calls((PACKAGE / module).read_text())
    assert not lines, ", ".join(f"{module}:{line} np.block" for line in lines)


def test_guard_flags_np_block():
    source = "import numpy as np\n\nM = np.block([[a, b], [c, d]])\nN = np.blocks(a)\nP = block(a)\n"
    assert _np_block_calls(source) == [3]
