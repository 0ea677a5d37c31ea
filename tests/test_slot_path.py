"""The scalar slot path against its earlier bodies, bit for bit.

run(), the bound suite and dispatch_slot solve a slot by building its
books, sweeping them and advancing the levels and backlogs. Each step is
compared with tests/slot_reference.py's copy of the body it replaced, on
random systems up to 5 batteries x 20 residents and on systems whose
prices tie across ranks on purpose.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import slot_reference
from conftest import make_system
from mgsched import merit_order_allocate, random_system, update_qose_queue
from mgsched.dispatch import _book_builder, _flow_slices, _row_total
from mgsched.sim import _advance


def outcome(f, *args):
    """f's result as its repr, which tells -0.0 from 0.0, or its
    ValueError's text."""
    try:
        return "returned", repr(f(*args))
    except ValueError as err:
        return "raised", str(err)


@st.composite
def tied_system(draw):
    """A system of dyadic specs and prices whose entries tie exactly
    across ranks: battery queues sit at -v*c, -v*w or 0, so a discharge
    costs what the purchase does and a recharge bids what a quality
    request does, and quality bids z + alpha sit at v*c or v*w. Some
    levels sit at the band's ends, so a clamped cap is 0."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 20))
    system = make_system(n_batteries=k, n_residents=n, c_min=0.0625,
                         c_max=0.125, w_min=0.0, w_max=0.0625)
    c_step = draw(st.integers(16, 32))
    c = c_step / 256
    w = draw(st.integers(0, min(c_step - 1, 16))) / 256
    v = float(draw(st.integers(1, 100)))
    # battery_queue is e - d_max - e_min - v*c_max, with d_max = 2.
    levels = st.sampled_from([-v * c, -v * w, 0.0]).map(
        lambda x: x + 2.0 + v * 0.125)
    e = tuple(draw(st.one_of(levels, st.sampled_from([0.0, 16.0])))
              for _ in range(k))
    alpha = tuple(draw(st.integers(0, 160)) / 64 for _ in range(n))
    z = tuple(max(draw(st.sampled_from([v * c, v * w])) - a, 0.0)
              for a in alpha)
    return system, v, e, z, alpha, c, w


@st.composite
def drawn_system(draw):
    """A random_system of up to 5 batteries x 20 residents, its trade caps
    kept or cut so that they saturate, with levels up to a quarter of each
    band outside it and some requests at 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    system = random_system(rng, 1, 5, 20).system
    cut = draw(st.sampled_from([None, 0.5, 3.0]))
    if cut is not None:
        system = replace(system, grid=replace(system.grid, q_max=cut,
                                              s_max=cut))
    g = system.grid
    fraction = st.floats(-0.25, 1.25)
    e = tuple(b.e_min + (b.e_max - b.e_min) * draw(fraction)
              for b in system.batteries)
    z = tuple(draw(st.floats(0.0, 25.0)) for _ in system.residents)
    alpha = tuple(res.alpha_max * draw(st.sampled_from([0.0, 1.0])
                                       | st.floats(0.0, 1.0))
                  for res in system.residents)
    c = draw(st.floats(g.c_min, g.c_max))
    w = draw(st.floats(g.w_min, g.w_max))
    return system, draw(st.floats(10.0, 150.0)), e, z, alpha, c, w


@st.composite
def slot_runs(draw):
    """A system at v with slot 0's levels, backlogs, requests and prices,
    the headroom clamp and curtailment on or off, and up to four slots'
    surpluses (0 up to past every sink); slots after 0 repeat slot 0's
    requests and prices and start from the levels and backlogs the
    earlier slots leave."""
    system, v, e, z, alpha, c, w = draw(tied_system() | drawn_system())
    surpluses = draw(st.lists(st.sampled_from([0.0, 2.0, 25.0])
                              | st.floats(0.0, 80.0), min_size=1,
                              max_size=4))
    return (system, v, draw(st.booleans()), draw(st.booleans()), e, z,
            alpha, c, w, surpluses)


class TestAgainstTheReference:
    @given(slot_runs())
    @settings(deadline=None, max_examples=300)
    def test_books_rows_and_states_are_the_references(self, case):
        system, v, clamp, curtail, e, z, alpha, c, w, surpluses = case
        k, n = system.n_batteries, system.n_residents
        deltas = [res.delta for res in system.residents]
        books = _book_builder(system, v, clamp)
        reference_books = slot_reference.book_builder(system, v, clamp)
        r_at, d_at, p_at = _flow_slices(k)
        for surplus in surpluses:
            supply, demand = books(e, z, alpha, surplus, c, w)
            assert repr((supply, demand)) == repr(
                reference_books(e, z, alpha, surplus, c, w))
            result = merit_order_allocate(supply, demand, k, n, curtail)
            assert repr(result) == repr(slot_reference.merit_order_allocate(
                supply, demand, k, n, curtail))
            if not result.feasible:
                return
            row = result.flows
            args = (e, z, alpha, row[r_at], row[d_at], row[p_at], deltas)
            state = outcome(_advance, *args)
            assert state == outcome(slot_reference.advance, *args)
            e, z = _advance(*args)


# (z, alpha, p): one resident's backlog, request and service that fail
# or are clamped.
QUEUE_FAULTS = [
    (-0.1, 1.0, 0.0),
    (-0.0, 1.0, 0.5),
    (1.0, -0.1, 0.0),
    (1.0, 1.0, -0.1),
    (1.0, 1.0, 1.0 + 5e-10),
    (0.0, 2.0, 2.0 + 5e-10),
    (1.0, 1.0, 1.0 + 2e-9),
    (0.0, 2.0, 2.0 + 1e-6),
]


class TestQueueRecurrence:
    @pytest.mark.parametrize("z,alpha,p", QUEUE_FAULTS)
    def test_one_resident_is_the_reference(self, z, alpha, p):
        assert outcome(update_qose_queue, z, alpha, p, 0.07) == outcome(
            slot_reference.update_qose_queue, z, alpha, p, 0.07)

    @pytest.mark.parametrize("z,alpha,p", QUEUE_FAULTS)
    @pytest.mark.parametrize("at,n", [(0, 1), (0, 3), (2, 3), (4, 5)])
    def test_each_resident_is_the_reference(self, z, alpha, p, at, n):
        zs, alphas, ps = ([0.5] * n, [1.0] * n, [0.25] * n)
        zs[at], alphas[at], ps[at] = z, alpha, p
        args = ((8.0,), zs, alphas, (0.0,), (1.0,), ps, [0.07] * n)
        assert outcome(_advance, *args) == outcome(slot_reference.advance,
                                                   *args)

    @given(st.lists(st.tuples(
        st.floats(-1.0, 25.0), st.floats(-0.5, 2.5),
        st.floats(-0.5, 1.0) | st.sampled_from([1.0, 1.0 + 5e-10,
                                                1.0 + 2e-9]),
        st.floats(0.001, 0.5)), min_size=1, max_size=20))
    @settings(deadline=None, max_examples=300)
    def test_random_residents_are_the_reference(self, residents):
        # p is a fraction of alpha: above 1 it is rounding dust or a
        # service beyond the request, below 0 a negative service.
        z, alpha, p, deltas = zip(*[(zn, an, fraction * an, delta)
                                    for zn, an, fraction, delta in residents])
        args = ((), z, alpha, (), (), p, deltas)
        assert outcome(_advance, *args) == outcome(slot_reference.advance,
                                                   *args)


SPECIALS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])


class TestRowTotal:
    @given(hnp.arrays(np.float64, st.one_of(
        st.tuples(st.integers(1, 25)),
        st.tuples(st.integers(0, 30), st.integers(1, 25))),
        elements=SPECIALS | st.floats(allow_nan=True, allow_infinity=True)))
    @settings(deadline=None, max_examples=500)
    def test_adds_as_cumsum_does(self, a):
        before = a.tobytes()
        with np.errstate(invalid="ignore", over="ignore"):
            total = _row_total(a)
            expected = np.cumsum(a, axis=-1)[..., -1]
        assert np.asarray(total).tobytes() == expected.tobytes()
        assert a.tobytes() == before
        if a.ndim == 1:
            assert isinstance(total, np.float64)
        else:
            assert total.shape == a.shape[:-1]

    def test_a_row_of_one_column_is_a_copy(self):
        a = np.array([[-0.0], [2.0]])
        total = _row_total(a)
        total[1] = 5.0
        assert a.tolist() == [[-0.0], [2.0]]
        assert np.signbit(total[0])
