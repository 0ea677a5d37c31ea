"""Check that float totals keep Python 3.11's bits on this interpreter.

Python 3.12 made sum() compensate float rounding. mgsched adds every float
total with model.ordered_sum, left to right as sum() did up to 3.11, so
its pinned outputs do not depend on the version. This check needs only
the standard library: it loads src/mgsched/model.py by path and compares
ordered_sum and surplus_power with values recorded on Python 3.11, on
tuples whose 3.12 sum() reads otherwise.

Usage: python scripts/check_float_totals.py
"""

import importlib.util
import sys
from pathlib import Path

# (values, their total as Python 3.11's sum() adds them)
RECORDED = [
    ((0.1,) * 10, 0.9999999999999999),
    ((0.1, 0.2, 0.3), 0.6000000000000001),
    ((1e16, 1.0, -1e16), 0.0),
    ((1.0, 1e-16, 1e-16, 1e-16), 1.0),
]


def load_model():
    path = Path(__file__).resolve().parent.parent / "src/mgsched/model.py"
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
    print(f"float totals match Python 3.11 on {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
