import pytest

from mgsched import BatterySpec, GridSpec, ResidentSpec, SystemSpec

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
