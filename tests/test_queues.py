import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgsched import (
    battery_queue,
    bound_constants,
    check_qose_stability,
    update_qose_queue,
)

from conftest import make_battery, make_grid, make_system

V_REF = 150.0


class TestBatteryQueue:
    """The shifted battery level x = e - d_max - e_min - v * c_max."""

    @pytest.mark.parametrize("e,expected", [
        (16.0, -1.0),
        (0.0, -17.0),
        (8.0, -9.0),
    ])
    def test_reference_values(self, battery, grid, e, expected):
        assert battery_queue(e, battery, V_REF, grid) == pytest.approx(expected)

    def test_zero_crossing(self, battery, grid):
        # x = 0 exactly at e = e_min + d_max + v * c_max
        e0 = 0.0 + 2.0 + V_REF * 0.10
        assert battery_queue(e0, battery, V_REF, grid) == 0.0

    @given(e=st.floats(0.0, 16.0), v=st.floats(1.0, 150.0))
    @settings(deadline=None, max_examples=100)
    def test_affine_in_level(self, e, v):
        spec, grid = make_battery(), make_grid()
        assert (battery_queue(e + 1.0, spec, v, grid)
                - battery_queue(e, spec, v, grid)) == pytest.approx(1.0)


class TestUpdateQoseQueue:
    def test_drain_then_arrival(self):
        assert update_qose_queue(5.0, 2.0, 0.0, 0.07) == pytest.approx(6.86)

    def test_floor_at_zero(self):
        # drain exceeds the level and the demand is fully served
        assert update_qose_queue(0.1, 2.0, 2.0, 0.07) == 0.0

    def test_full_service_no_debt(self):
        assert update_qose_queue(0.0, 1.5, 1.5, 0.07) == 0.0

    def test_rounding_dust_clamped(self):
        z = update_qose_queue(0.0, 2.0, 2.0 + 5e-10, 0.07)
        assert z == 0.0

    @pytest.mark.parametrize("z,alpha,p", [
        (-0.1, 1.0, 0.0),
        (1.0, -0.1, 0.0),
        (1.0, 1.0, -0.1),
        (1.0, 1.0, 1.0 + 1e-6),
    ])
    def test_rejects_bad_inputs(self, z, alpha, p):
        with pytest.raises(ValueError):
            update_qose_queue(z, alpha, p, 0.07)

    @given(z=st.floats(0.0, 50.0), alpha=st.floats(0.0, 2.5),
           frac=st.floats(0.0, 1.0), delta=st.floats(0.001, 0.5))
    @settings(deadline=None, max_examples=200)
    def test_never_negative(self, z, alpha, frac, delta):
        assert update_qose_queue(z, alpha, frac * alpha, delta) >= 0.0

    @given(z=st.floats(0.0, 50.0), alpha=st.floats(0.1, 2.5),
           p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0),
           delta=st.floats(0.001, 0.5))
    @settings(deadline=None, max_examples=200)
    def test_antitone_in_service(self, z, alpha, p1, p2, delta):
        lo, hi = sorted((p1 * alpha, p2 * alpha))
        assert (update_qose_queue(z, alpha, lo, delta)
                >= update_qose_queue(z, alpha, hi, delta))

    @given(z=st.floats(0.0, 50.0), alpha1=st.floats(0.0, 2.5),
           alpha2=st.floats(0.0, 2.5), delta=st.floats(0.001, 0.5))
    @settings(deadline=None, max_examples=200)
    def test_monotone_in_demand(self, z, alpha1, alpha2, delta):
        lo, hi = sorted((alpha1, alpha2))
        assert (update_qose_queue(z, hi, 0.0, delta)
                >= update_qose_queue(z, lo, 0.0, delta) - 1e-12)

    @given(z=st.floats(0.0, 50.0), alpha=st.floats(0.0, 2.5),
           d1=st.floats(0.001, 0.5), d2=st.floats(0.001, 0.5))
    @settings(deadline=None, max_examples=200)
    def test_antitone_in_tolerance(self, z, alpha, d1, d2):
        lo, hi = sorted((d1, d2))
        assert (update_qose_queue(z, alpha, 0.0, lo)
                >= update_qose_queue(z, alpha, 0.0, hi) - 1e-12)


class TestBoundConstants:
    def test_reference_values(self):
        consts = bound_constants(make_system(), V_REF)
        assert consts.b == pytest.approx(8.2653125)
        assert consts.z_max == pytest.approx((17.5,))
        assert consts.b_star == pytest.approx(48.9528125)

    def test_scales_with_population(self):
        consts = bound_constants(make_system(n_batteries=2, n_residents=3), V_REF)
        assert consts.b == pytest.approx(2 * 2.0 + 3 * 6.2653125)
        assert consts.z_max == pytest.approx((17.5, 17.5, 17.5))

    def test_queue_cap_grows_with_v(self):
        small = bound_constants(make_system(), 50.0)
        large = bound_constants(make_system(), V_REF)
        assert small.z_max[0] < large.z_max[0]
        assert small.b == large.b

    @pytest.mark.parametrize("v", [0.0, -1.0])
    def test_rejects_nonpositive_v(self, v):
        with pytest.raises(ValueError):
            bound_constants(make_system(), v)


class TestQoseStability:
    def test_boundary_is_inclusive(self):
        # I = delta * A + z_max passes; one unit more fails
        delta, z_max, a_sum = 0.07, 17.5, 1000.0
        budget = delta * a_sum + z_max
        assert check_qose_stability([budget], [a_sum], [delta], [z_max]) == [True]
        assert check_qose_stability([budget + 1.0], [a_sum], [delta], [z_max]) == [False]

    def test_per_resident_verdicts(self):
        verdicts = check_qose_stability(
            [0.0, 100.0], [50.0, 50.0], [0.07, 0.07], [17.5, 17.5])
        assert verdicts == [True, False]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            check_qose_stability([1.0], [1.0, 2.0], [0.07], [17.5])
