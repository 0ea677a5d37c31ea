"""The public API and the benchmark tracer's function tables stay resolvable.

perfbench/worker.py wraps functions by (layer, function, module) name when
it runs with --trace 1; a rename or deletion there would only show up as a
failed traced run, so these tables are read here (with ast, without
importing the benchmark) and checked against the package.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgsched

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"

# Imports the package as perfbench/worker.py's _import_mgsched does, runs
# each validate suite and a hindsight bound on a system built in Python,
# then reads a shipped config.
NO_YAML_UNTIL_A_CONFIG = """
import sys
import mgsched.cli, mgsched.dispatch, mgsched.model
import mgsched.queues, mgsched.sim, mgsched.validate
import numpy as np
from mgsched.sim import generate_traces, hindsight_lower_bound, load_config
from mgsched.validate import (random_system, run_bound_trials,
                              solver_oracle_trials, threshold_trials)

run_bound_trials(runs=1, slots=500, seed=1, k_max=5, n_max=20)
threshold_trials(slots=20, seed=1)
solver_oracle_trials(instances=20, seed=1)
config = random_system(np.random.default_rng(1), horizon=100)
hindsight_lower_bound(generate_traces(config), config, iterations=5)
assert "yaml" not in sys.modules, "PyYAML loaded before any YAML was read"
assert load_config("configs/five_day.yaml").horizon == 480
assert "yaml" in sys.modules, "load_config read YAML without PyYAML"
"""


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


def test_pyyaml_is_loaded_by_the_first_config_read():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", NO_YAML_UNTIL_A_CONFIG],
                          cwd=ROOT, env=env, stderr=subprocess.PIPE,
                          text=True)
    assert proc.returncode == 0, proc.stderr
