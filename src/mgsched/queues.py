"""Virtual queues that couple per-slot decisions to long-run guarantees.

Two queue families drive the scheduler. Each battery gets a shifted copy of
its energy level so that keeping the queue stable keeps the physical level
inside its band. Each resident gets a service-debt queue that grows with
unserved quality demand and drains with an allowance proportional to the
demand itself; bounding it bounds the long-run unserved fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import BatterySpec, GridSpec, SystemSpec


@dataclass(frozen=True, slots=True)
class BoundConstants:
    """Constants that size the deterministic performance guarantees.

    b bounds the one-slot quadratic drift of the queue state. z_max[n] caps
    resident n's service-debt queue under the scheduler. b_star = b plus the
    worst-case cross term sum(z_max[n] * (1 - delta[n]) * alpha_max[n]),
    and b_star / v bounds the cost gap to the best stationary policy.
    """

    b: float
    z_max: tuple[float, ...]
    b_star: float


def battery_queue(e: float, spec: BatterySpec, v: float, grid: GridSpec) -> float:
    """Shifted battery level: x = e - d_max - e_min - v * c_max.

    Recomputed from the physical level every slot, never stored, so the
    queue can not drift away from the energy it mirrors. Negative x marks a
    battery that still has mandatory-looking room to charge; x near zero
    marks one close to the level where discharging becomes attractive.
    """
    return e - spec.d_max - spec.e_min - v * grid.c_max


def update_qose_queue(z: float, alpha: float, p: float, delta: float) -> float:
    """Advance one service-debt queue: z' = max(z - delta * alpha, 0) + (alpha - p).

    The drain delta * alpha is the slack the quality-of-service guarantee
    grants this slot; the arrival alpha - p is the demand left unserved.
    This is the one-resident case of _advance_qose_queues.
    """
    return _advance_qose_queues((z,), (alpha,), (p,), (delta,))[0]


def _advance_qose_queues(z, alpha, p, deltas) -> tuple[float, ...]:
    """Advance every resident's service-debt queue one slot, resident by
    resident, as update_qose_queue states: backlogs z, quality requests
    alpha, service p and each resident's delta, one entry per resident."""
    advanced = []
    for zn, an, pn, delta in zip(z, alpha, p, deltas):
        if zn < 0.0:
            raise ValueError(f"queue level {zn} is negative")
        if an < 0.0:
            raise ValueError(f"quality demand {an} is negative")
        if pn < 0.0:
            raise ValueError(f"service {pn} is negative")
        if pn > an:
            # Tolerate rounding dust from flows assembled in several
            # pieces; anything beyond it is a real contract violation.
            if pn > an + 1e-9:
                raise ValueError(f"service {pn} exceeds demand {an}")
            pn = an
        drained = zn - delta * an
        advanced.append((0.0 if drained < 0.0 else drained) + (an - pn))
    return tuple(advanced)


def bound_constants(system: SystemSpec, v: float) -> BoundConstants:
    """Evaluate the guarantee constants for this system at parameter v."""
    if v <= 0.0:
        raise ValueError(f"control parameter must be positive, got {v}")
    b = 0.0
    for spec in system.batteries:
        m = max(spec.d_max, spec.r_max)
        b += 0.5 * m * m
    for res in system.residents:
        b += 0.5 * (2.0 + res.delta * res.delta) * res.alpha_max * res.alpha_max
    z_max = tuple(v * system.grid.c_max + res.alpha_max for res in system.residents)
    b_star = b
    for zm, res in zip(z_max, system.residents):
        b_star += zm * (1.0 - res.delta) * res.alpha_max
    return BoundConstants(b=b, z_max=z_max, b_star=b_star)


def check_qose_stability(outage_sums: tuple[float, ...] | list[float],
                         alpha_sums: tuple[float, ...] | list[float],
                         deltas: tuple[float, ...] | list[float],
                         z_max: tuple[float, ...] | list[float]) -> list[bool]:
    """Check the finite-horizon service guarantee per resident.

    Resident n passes iff its accumulated unserved quality demand stays
    within delta_n times its accumulated demand plus the queue cap z_max[n];
    the cap is exactly the slack a bounded debt queue can hide.
    """
    if not len(outage_sums) == len(alpha_sums) == len(deltas) == len(z_max):
        raise ValueError("per-resident argument lengths differ")
    return [i_sum <= delta * a_sum + zm
            for i_sum, a_sum, delta, zm in zip(outage_sums, alpha_sums, deltas, z_max)]
