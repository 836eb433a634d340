"""Every module of the package uses each name it imports, none assembles
blocks with ``np.block``, only ``linalg`` calls ``np.linalg.svd``, and only
``maps._blockwise`` reads the rule table ``maps._RULES``."""

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


def _svd_calls(source: str) -> list[int]:
    """Lines that call ``np.linalg.svd`` or ``numpy.linalg.svd``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "svd"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "linalg"
        and isinstance(node.func.value.value, ast.Name)
        and node.func.value.value.id in ("np", "numpy")
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "linalg.py"))
def test_no_svd_outside_linalg(module):
    # singular values come through linalg.singular_values and operator_norm
    lines = _svd_calls((PACKAGE / module).read_text())
    assert not lines, ", ".join(f"{module}:{line} np.linalg.svd" for line in lines)


def test_guard_flags_svd():
    source = "import numpy as np\n\ns = np.linalg.svd(M)\nt = svd(M)\nu = np.svd(M)\nv = scipy.linalg.svd(M)\n"
    assert _svd_calls(source) == [3]


def _rules_readers(source: str) -> list[str]:
    """The top-level functions that read ``_RULES``, in source order, with
    "" for each read outside a function."""
    readers = []
    for node in ast.parse(source).body:
        reads = any(
            isinstance(x, ast.Name) and x.id == "_RULES" and isinstance(x.ctx, ast.Load) for x in ast.walk(node)
        )
        if reads:
            readers.append(node.name if isinstance(node, ast.FunctionDef) else "")
    return readers


@pytest.mark.parametrize("module", MODULES)
def test_rules_read_only_by_blockwise(module):
    # every map acts through maps._blockwise, which alone reads the table
    readers = _rules_readers((PACKAGE / module).read_text())
    assert readers == (["_blockwise"] if module == "maps.py" else [])


def test_guard_flags_rules_readers():
    source = "_RULES = {}\n\ndef f():\n    return _RULES[k]\n\ndef g():\n    _RULES = 1\n\nx = _RULES\n"
    assert _rules_readers(source) == ["f", ""]
