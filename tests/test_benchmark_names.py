"""The functions the traced benchmark wraps must exist where it looks for them.

``perfbench/layers.py`` replaces each function named in its ``SPANNED`` and
``COUNTED`` tables with ``getattr(module, name)`` and no default, so a name
removed from the package breaks every traced run.  The tables are read from
the file as literals; ``perfbench`` itself is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def wrapped_names():
    tables = {}
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                tables[target.id] = ast.literal_eval(node.value)
    assert set(tables) == {"SPANNED", "COUNTED"}
    return sorted((mod, name) for table in tables.values()
                  for mod, names in table.items() for name in names)


@pytest.mark.parametrize("module, name", wrapped_names())
def test_benchmark_wraps_an_existing_function(module, name):
    mod = importlib.import_module(f"scenrisk.{module}")
    assert inspect.isfunction(getattr(mod, name, None)), f"scenrisk.{module}.{name}"
