"""The public API and the benchmark tracer's function tables stay resolvable.

perfbench/worker.py wraps functions by (layer, function, module) name when
it runs with --trace 1; a rename or deletion there would only show up as a
failed traced run, so these tables are read here (with ast, without
importing the benchmark) and checked against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

import mgsched

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def tracer_tables() -> dict[str, list[tuple[str, str, str]]]:
    tables = {}
    for node in ast.parse(WORKER.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("TRACED", "COUNTED")):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_every_exported_name_resolves():
    assert [name for name in mgsched.__all__
            if not hasattr(mgsched, name)] == []


@pytest.mark.parametrize("table", ["TRACED", "COUNTED"])
def test_tracer_targets_exist(table):
    entries = tracer_tables()[table]
    assert entries
    missing = [f"{module}.{fn}" for _, fn, module in entries
               if not callable(getattr(importlib.import_module(module), fn,
                                       None))]
    assert missing == []
