"""Microgrid system model: static component specs and per-slot checks.

Conventions used across the package: every traded or stored quantity is an
energy in kWh per time slot, prices are $/kWh, and power traces in kW are
converted at ingestion by multiplying with the slot duration in hours.
Per-slot decisions are recorded as a Dispatch; battery levels and quality
service backlogs live in SystemState.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

# Absolute tolerance for the supply/demand balance residual, scaled by
# max(1, surplus); boxes, battery bands and backlog caps use the same slack
# in kWh.
BALANCE_TOL = 1e-9


class UnservableSurplusError(RuntimeError):
    """Renewable surplus exceeded every sink (demand, storage, sale cap)."""


class TraceError(ValueError):
    """A trace file failed parsing or violated a declared bound."""


@dataclass(frozen=True, slots=True)
class BatterySpec:
    """Physical limits of one storage unit.

    e_min/e_max bound the stored energy (kWh); r_max and d_max cap the
    energy recharged or discharged within one slot. The band must be wide
    enough to absorb one full recharge plus one full discharge, which is
    what makes a safe control-parameter range exist at all.
    """

    e_min: float
    e_max: float
    r_max: float
    d_max: float
    e_init: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.e_min < self.e_max:
            raise ValueError(
                f"need 0 <= e_min < e_max, got [{self.e_min}, {self.e_max}]")
        if self.r_max <= 0.0:
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        if self.d_max <= 0.0:
            raise ValueError(f"d_max must be positive, got {self.d_max}")
        if self.e_max - self.e_min <= self.r_max + self.d_max:
            raise ValueError(
                "e_max - e_min must exceed r_max + d_max, got band "
                f"{self.e_max - self.e_min} vs caps {self.r_max + self.d_max}")
        if not self.e_min <= self.e_init <= self.e_max:
            raise ValueError(
                f"e_init {self.e_init} outside [{self.e_min}, {self.e_max}]")

    @property
    def slack(self) -> float:
        """Band width left once one recharge and one discharge are reserved."""
        return self.e_max - self.e_min - self.r_max - self.d_max


@dataclass(frozen=True, slots=True)
class ResidentSpec:
    """Demand profile of one resident.

    basic_range bounds the inelastic draw per slot (kWh); alpha_max caps the
    elastic quality-usage request. delta is the tolerated long-run fraction
    of quality demand that may go unserved.
    """

    delta: float
    alpha_max: float
    basic_range: tuple[float, float]

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.alpha_max <= 0.0:
            raise ValueError(f"alpha_max must be positive, got {self.alpha_max}")
        lo, hi = self.basic_range
        if not 0.0 <= lo <= hi:
            raise ValueError(f"basic_range must satisfy 0 <= lo <= hi, got {self.basic_range}")


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Market interface: per-slot trade caps and price bounds.

    q_max/s_max cap the energy purchased from or sold to the utility in one
    slot. Purchase prices stay within [c_min, c_max] and sell prices within
    [w_min, w_max]; every slot must quote a sell price strictly below its
    purchase price, so buying back resold energy never pays.
    """

    q_max: float
    s_max: float
    c_min: float
    c_max: float
    w_min: float
    w_max: float

    def __post_init__(self) -> None:
        if self.q_max <= 0.0:
            raise ValueError(f"q_max must be positive, got {self.q_max}")
        if self.s_max <= 0.0:
            raise ValueError(f"s_max must be positive, got {self.s_max}")
        if not 0.0 <= self.w_min <= self.w_max:
            raise ValueError(f"need 0 <= w_min <= w_max, got [{self.w_min}, {self.w_max}]")
        if not 0.0 <= self.c_min <= self.c_max:
            raise ValueError(f"need 0 <= c_min <= c_max, got [{self.c_min}, {self.c_max}]")
        if self.c_min < self.w_min:
            raise ValueError("c_min must be at least w_min")
        if self.c_max < self.w_max:
            raise ValueError("c_max must be at least w_max")
        if self.c_max <= self.w_min:
            raise ValueError("c_max must exceed w_min")


@dataclass(frozen=True)
class SystemSpec:
    """Static description of one microgrid: storage fleet, residents, market."""

    batteries: tuple[BatterySpec, ...]
    residents: tuple[ResidentSpec, ...]
    grid: GridSpec

    def __post_init__(self) -> None:
        if not self.batteries:
            raise ValueError("need at least one battery")
        if not self.residents:
            raise ValueError("need at least one resident")

    @property
    def n_batteries(self) -> int:
        return len(self.batteries)

    @property
    def n_residents(self) -> int:
        return len(self.residents)


@dataclass(frozen=True, slots=True)
class SlotObservation:
    """Exogenous inputs revealed at the start of one slot.

    u is the renewable generation (kWh), basic/alpha the per-resident
    inelastic and quality requests, c/w the purchase and sell prices.
    Construction is unchecked for speed. validate_observation audits one
    observation against every bound of the system model, and load_traces
    whole columns at ingestion, both with the one observation fault list
    of dispatch._observation_faults, which also words the first offender.
    """

    u: float
    basic: tuple[float, ...]
    alpha: tuple[float, ...]
    c: float
    w: float


@dataclass(frozen=True, slots=True)
class Dispatch:
    """One slot's decision: market trades, battery flows, quality service.

    q is energy purchased, s energy sold, r/d per-battery recharge and
    discharge, p per-resident quality service. objective is the value of the
    per-slot scheduling objective this decision attained. curtailed records
    renewable surplus discarded at zero value when curtailment is enabled
    and every sink was saturated; it stays 0.0 otherwise.
    """

    q: float
    s: float
    r: tuple[float, ...]
    d: tuple[float, ...]
    p: tuple[float, ...]
    objective: float
    curtailed: float = 0.0


@dataclass(frozen=True, slots=True)
class SystemState:
    """Slot index, battery energies, and per-resident service backlogs."""

    t: int
    e: tuple[float, ...]
    z: tuple[float, ...]


def width_error(t: int, name: str, width: int, n_res: int) -> ValueError:
    """The error for slot t's observation field name holding width entries
    where the system has n_res residents."""
    return ValueError(
        f"slot {t}: observation {name} has {width} entries, expected {n_res}")


def ordered_sum(values):
    """values added left to right from 0, as sum() does up to Python 3.11.

    Python 3.12 made sum() compensate float rounding, which changes the
    last bits of some totals; every float total in the package goes
    through this helper, so its outputs keep one order on every version.
    """
    return reduce(add, values, 0)


# The basic-usage fault; surplus_power and _basic_usage_faults format it.
_BASIC_USAGE = ("basic usage {} exceeds generation {}; "
                "the basic-usage guarantee admits no such slot")


def surplus_power(obs: SlotObservation) -> float:
    """Renewable energy left once guaranteed basic usage is carved out.

    Raises ValueError when basic usage exceeds generation: serving basic
    demand from renewables is a hard guarantee of the model, so such a slot
    is invalid input rather than a scheduling decision.
    """
    total_basic = ordered_sum(obs.basic)
    if total_basic > obs.u:
        raise ValueError(_BASIC_USAGE.format(total_basic, obs.u))
    return obs.u - total_basic


def compute_vmax(batteries: tuple[BatterySpec, ...] | list[BatterySpec],
                 grid: GridSpec) -> float:
    """Largest control parameter keeping every battery inside its band.

    The tightest battery decides: v_max = min_k slack_k / (c_max - w_min).
    Any v in (0, v_max] keeps the energy recurrence inside [e_min, e_max]
    without ever clipping a chosen flow.
    """
    if not batteries:
        raise ValueError("need at least one battery")
    return min(b.slack for b in batteries) / (grid.c_max - grid.w_min)


def validate_observation(obs: SlotObservation, system: SystemSpec) -> list[str]:
    """Audit one observation against every bound of the system model: the
    words of dispatch._observation_faults for this one slot, or only the
    widths of requests that do not hold one entry per resident."""
    n = system.n_residents
    if problems := [f"{name} has {len(values)} entries, expected {n}"
                    for name, values in (("basic", obs.basic),
                                         ("alpha", obs.alpha))
                    if len(values) != n]:
        return problems
    # Imported here: model itself needs only the standard library.
    from .dispatch import _fault_words, _limits, _observation_faults
    return _fault_words(_observation_faults(
        [obs.u], [obs.basic], [obs.alpha], [obs.c], [obs.w],
        _limits(system)), 0)


def shape_problems(dispatch: Dispatch, system: SystemSpec,
                   obs: SlotObservation) -> list[str]:
    """Name each of the dispatch's r, d and p and the observation's alpha
    whose length differs from the system's."""
    sizes = (("r", dispatch.r, system.n_batteries),
             ("d", dispatch.d, system.n_batteries),
             ("p", dispatch.p, system.n_residents),
             ("alpha", obs.alpha, system.n_residents))
    return [f"{name} has {len(values)} entries, expected {size}"
            for name, values, size in sizes if len(values) != size]


def check_dispatch(dispatch: Dispatch, system: SystemSpec,
                   obs: SlotObservation) -> list[str]:
    """Audit one dispatch against boxes, exclusivity, and energy balance:
    the words of dispatch._balance_faults for this one slot, or only
    shape_problems' when it reports any."""
    if problems := shape_problems(dispatch, system, obs):
        return problems
    # Imported here: model itself needs only the standard library.
    from .dispatch import _balance_faults, _dispatch_row, _fault_words, _limits
    faults, _ = _balance_faults([_dispatch_row(dispatch)], [surplus_power(obs)],
                                [obs.alpha], _limits(system))
    return _fault_words(faults, 0)
