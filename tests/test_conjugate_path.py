"""The conjugate path runs on closed forms, not on searches.

The penalties of the duality layer are exact or refused, and the Orlicz norm
they need is a closed form per built-in G.  Neither module may import the
one-dimensional search kernels of ``scalarmin``; read with ``ast``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scenrisk"


def imports_scalarmin(path):
    """Whether any ``import`` or ``from ... import`` in the file names scalarmin."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any("scalarmin" in name.split(".") for name in names):
            return True
    return False


@pytest.mark.parametrize("module", ["orlicz", "duality"])
def test_conjugate_path_imports_no_search(module):
    assert not imports_scalarmin(PACKAGE / f"{module}.py")


def test_the_guard_sees_the_hull_search():
    assert imports_scalarmin(PACKAGE / "risk_core.py")
