import numpy as np
import pytest

from mgsched import (
    BatterySpec,
    GridSpec,
    ResidentSpec,
    SystemSpec,
    SystemState,
    bound_constants,
)
from mgsched.validate import _draw_states

# The reference setup used across the suite: a 16 kWh battery with 2 kWh
# per-slot flow caps, a resident with a 7% outage target and a 2.5 kWh
# quality cap, and the price bands that give v_max = 150.


def make_battery(**overrides) -> BatterySpec:
    fields = dict(e_min=0.0, e_max=16.0, r_max=2.0, d_max=2.0, e_init=8.0)
    fields.update(overrides)
    return BatterySpec(**fields)


def make_resident(**overrides) -> ResidentSpec:
    fields = dict(delta=0.07, alpha_max=2.5, basic_range=(0.5, 6.25))
    fields.update(overrides)
    return ResidentSpec(**fields)


def make_grid(**overrides) -> GridSpec:
    fields = dict(q_max=25.0, s_max=25.0, c_min=0.05, c_max=0.10,
                  w_min=0.02, w_max=0.04)
    fields.update(overrides)
    return GridSpec(**fields)


def make_system(n_batteries: int = 1, n_residents: int = 1,
                **grid_overrides) -> SystemSpec:
    return SystemSpec(
        batteries=tuple(make_battery() for _ in range(n_batteries)),
        residents=tuple(make_resident() for _ in range(n_residents)),
        grid=make_grid(**grid_overrides))


def random_states(system: SystemSpec, rng: np.random.Generator, v: float,
                  count: int, z_scale: float = 1.25,
                  zero_prob: float = 0.3) -> list[SystemState]:
    """Draw count states of system with _draw_states, the validate suites'
    state draw: levels anywhere in band and backlogs up to z_scale times
    their cap at v (zero with probability zero_prob)."""
    z_cap = z_scale * np.array(bound_constants(system, v).z_max)
    e_min, e_max = np.array([(b.e_min, b.e_max) for b in system.batteries]).T
    e, z = _draw_states(rng, count, e_min, e_max, z_cap, zero_prob)
    return [SystemState(t=0, e=tuple(e_row), z=tuple(z_row))
            for e_row, z_row in zip(e.tolist(), z.tolist())]


@pytest.fixture
def battery() -> BatterySpec:
    return make_battery()


@pytest.fixture
def resident() -> ResidentSpec:
    return make_resident()


@pytest.fixture
def grid() -> GridSpec:
    return make_grid()


@pytest.fixture
def system() -> SystemSpec:
    return make_system()
