"""The conjugate path runs on closed forms, not on searches.

The penalties of the duality layer are exact or refused, and the Orlicz norm
they need is a closed form per built-in G.  The one-dimensional search of the
package lives in the generic hull ``risk_core.cash_hull``; neither module may
name it, whether imported, called or reached as an attribute.  Read with
``ast``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scenrisk"


def names_cash_hull(path):
    """Whether any name, attribute or imported name in the file is ``cash_hull``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        else:
            continue
        if "cash_hull" in names:
            return True
    return False


@pytest.mark.parametrize("module", ["orlicz", "duality"])
def test_conjugate_path_imports_no_search(module):
    assert not names_cash_hull(PACKAGE / f"{module}.py")


def test_the_guard_sees_the_hull_search():
    assert names_cash_hull(PACKAGE / "risk_core.py")
