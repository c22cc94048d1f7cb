"""The functions the benchmark calls must exist where it looks for them.

``perfbench/layers.py`` replaces each function named in its ``SPANNED`` and
``COUNTED`` tables with ``getattr(module, name)`` and no default, so a name
removed from the package breaks every traced run.  The workloads and the
untraced scaling probes reach the package through ``api.<name>`` chains
(``api`` is the imported ``scenrisk``), so a removed name there breaks every
run.  Both are read from the files with ``ast``; ``perfbench`` itself is not
imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


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


def _is_api(node):
    """``api`` or ``self.api``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "self" and node.attr == "api"
    return isinstance(node, ast.Name) and node.id == "api"


def api_chains():
    """The dotted names after ``api.`` in the workloads and the scaling probes."""
    chains = set()
    for path in (PERFBENCH / "workloads.py", LAYERS):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            while isinstance(node, ast.Attribute) and not _is_api(node):
                names.append(node.attr)
                node = node.value
            if names and _is_api(node):
                chains.add(".".join(reversed(names)))
    return sorted(chains)


def test_the_workloads_reach_the_package_through_api():
    assert {"ingest_csv", "cli.main", "Partition.from_labels"} <= set(api_chains())


@pytest.mark.parametrize("chain", api_chains())
def test_benchmark_api_chain_resolves(chain):
    obj = importlib.import_module("scenrisk")
    importlib.import_module("scenrisk.cli")  # the benchmark imports it too
    for name in chain.split("."):
        obj = getattr(obj, name, None)
        assert obj is not None, f"scenrisk.{chain}"
