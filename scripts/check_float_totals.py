"""Check that float totals keep Python 3.11's bits on this interpreter.

Python 3.12 made sum() compensate float rounding. mgsched adds every float
total with model.ordered_sum, left to right as sum() did up to 3.11, so
its pinned outputs do not depend on the version. This check needs only
the standard library: it loads src/mgsched/model.py by path and compares
ordered_sum and surplus_power with values recorded on Python 3.11, on
tuples whose 3.12 sum() reads otherwise. It also parses every Python file
under src/ and scripts/ and fails on any call to the built-in sum(), but
the deliberate one below that tells the two orders apart.

Usage: python scripts/check_float_totals.py
"""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The one built-in sum() meant to stay: main() checks that 3.12's reads
# otherwise.
DELIBERATE = ("scripts/check_float_totals.py", "sum(values)")

# (values, their total as Python 3.11's sum() adds them)
RECORDED = [
    ((0.1,) * 10, 0.9999999999999999),
    ((0.1, 0.2, 0.3), 0.6000000000000001),
    ((1e16, 1.0, -1e16), 0.0),
    ((1.0, 1e-16, 1e-16, 1e-16), 1.0),
]


def builtin_sum_calls(root: Path = ROOT) -> list[str]:
    """"path:line: call" for each call to the built-in sum() in the Python
    files under root's src/ and scripts/, the deliberate one excepted."""
    found = []
    paths = [*root.glob("src/**/*.py"), *root.glob("scripts/*.py")]
    for path in sorted(paths):
        source = path.read_text(encoding="utf-8")
        name = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(source, str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"):
                call = ast.get_source_segment(source, node)
                if (name, call) != DELIBERATE:
                    found.append((name, node.lineno, call))
    return [f"{name}:{line}: {call}" for name, line, call in sorted(found)]


def load_model():
    path = ROOT / "src/mgsched/model.py"
    spec = importlib.util.spec_from_file_location("mgsched_model", path)
    module = importlib.util.module_from_spec(spec)
    # The dataclass decorator looks its module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def main() -> int:
    model = load_model()
    for values, expected in RECORDED:
        total = model.ordered_sum(values)
        assert total.hex() == expected.hex(), (values, total, expected)
        if sys.version_info >= (3, 12):
            # Otherwise the tuple would not tell the two orders apart.
            assert sum(values) != expected, values
    obs = model.SlotObservation(1.0, (0.1,) * 10, (), 0.1, 0.05)
    surplus = model.surplus_power(obs)
    assert surplus == 1.1102230246251565e-16, surplus
    calls = builtin_sum_calls()
    if calls:
        print("built-in sum() adds floats in a version-dependent order; "
              "use model.ordered_sum:", *calls, sep="\n  ", file=sys.stderr)
        return 1
    print(f"float totals match Python 3.11 on {sys.version.split()[0]}, "
          "and src/ and scripts/ call no built-in sum()")
    return 0


if __name__ == "__main__":
    sys.exit(main())
