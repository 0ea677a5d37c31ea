import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import mgsched.validate
from mgsched import (
    UnservableSurplusError,
    battery_queue,
    bound_constants,
    compute_vmax,
    generate_traces,
    load_config,
    random_states,
    random_system,
    run_all_suites,
    run_bound_trials,
    solver_oracle_trials,
    surplus_power,
    threshold_trials,
    threshold_violations,
    validate_observation,
)
from mgsched.sim import outage_windows
from mgsched.validate import _block_instances, _draw_block

from conftest import make_resident


# sha256 of the reprs below: it pins the systems and traces the two
# generators draw, so a rewrite of either must reproduce it exactly.
STREAM_DIGEST = (
    "b02c936170edb663a16f79aaa29fe715455bc16ecc362ec22e749518f7c6ac80")


def _stream_digest() -> str:
    digest = hashlib.sha256()
    rng = np.random.default_rng(8)
    for horizon in range(1, 71):
        config = random_system(rng, horizon, 5, 20)
        digest.update(repr(config).encode())
        digest.update(repr(generate_traces(config, rng)).encode())
    # the next draw pins where the stream was left
    digest.update(repr(rng.random()).encode())
    for path in ("configs/five_day.yaml", "configs/seven_day.yaml"):
        digest.update(repr(generate_traces(load_config(path))).encode())
    return digest.hexdigest()


# sha256 of the reprs below: it pins the slot problems _draw_block draws
# at the oracle suite's z_scale, so the solver-oracle suite keeps checking
# the same instances.
BLOCK_STREAM_DIGEST = (
    "709bb84bb2037187c19d23d965900490f957c529cbcbf9871d8ce312d2057fcf")


def _block_stream_digest() -> str:
    digest = hashlib.sha256()
    rng = np.random.default_rng(12)
    for count, k_max, n_max in ((64, 5, 20), (1, 5, 20), (37, 5, 20),
                                (64, 3, 6), (9, 1, 1)):
        block = _draw_block(rng, count, k_max, n_max, 1.0)
        digest.update(repr(_block_instances(block, slice(None))).encode())
    # the next draw pins where the stream was left
    digest.update(repr(rng.random()).encode())
    return digest.hexdigest()


class TestScenarioGenerators:
    def test_system_and_trace_streams_are_pinned(self):
        assert _stream_digest() == STREAM_DIGEST

    def test_systems_are_well_posed_and_caps_dominate(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            config = random_system(rng, 10)
            assert config.horizon == 10
            grid = config.grid
            sum_alpha = sum(r.alpha_max for r in config.residents)
            sum_r = sum(b.r_max for b in config.batteries)
            sum_d = sum(b.d_max for b in config.batteries)
            # purchases can cover every request and recharge; sales can
            # absorb the largest surplus plus every discharge
            assert grid.q_max >= sum_alpha + sum_r
            assert grid.s_max >= config.burst_range[1] + sum_d
            assert grid.w_max < grid.c_min
            assert config.surplus_range[1] == config.burst_range[0]

    def test_observations_fit_the_system(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            config = random_system(rng, 4)
            system = config.system
            traces = generate_traces(config, rng)
            assert len(traces) == 4
            for obs in traces:
                assert validate_observation(obs, system) == []

    def test_random_states_fit_bands_and_caps(self):
        rng = np.random.default_rng(2)
        system = random_system(rng, 1, 5, 20).system
        v, z_scale, zero_prob = 10.0, 1.25, 0.3
        z_max = bound_constants(system, v).z_max
        count = math.ceil(20_000 / system.n_residents)
        states = random_states(system, rng, v, count, z_scale, zero_prob)
        assert len(states) == count
        zeros = draws = 0
        for state in states:
            assert state.t == 0
            assert len(state.e) == system.n_batteries
            assert len(state.z) == system.n_residents
            for e, spec in zip(state.e, system.batteries):
                assert spec.e_min <= e <= spec.e_max
            for z, cap in zip(state.z, z_max):
                assert z == 0.0 or 0.0 < z <= z_scale * cap
            zeros += state.z.count(0.0)
            draws += len(state.z)
        # the zero coin is fair to within 5 binomial standard deviations
        assert draws >= 20_000
        sigma = math.sqrt(zero_prob * (1.0 - zero_prob) / draws)
        assert abs(zeros / draws - zero_prob) <= 5.0 * sigma
        # each call draws afresh
        assert random_states(system, rng, v, 2) != random_states(system, rng,
                                                                 v, 2)


    @pytest.mark.parametrize("sizes, message", [
        ((0, 6), "k_max must be >= 1, got 0"),
        ((3, 0), "n_max must be >= 1, got 0"),
        ((-2, 6), "k_max must be >= 1, got -2")])
    def test_sizes_below_one_are_rejected(self, sizes, message):
        k_max, n_max = sizes
        rng = np.random.default_rng(0)
        calls = [
            lambda: random_system(rng, 1, k_max, n_max),
            lambda: _draw_block(rng, 4, k_max, n_max, 1.0),
            lambda: threshold_trials(slots=3, seed=1, k_max=k_max,
                                     n_max=n_max),
            lambda: run_bound_trials(runs=1, slots=1, seed=1, k_max=k_max,
                                     n_max=n_max),
            lambda: run_all_suites(1, seed=1, k_max=k_max, n_max=n_max)]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()


class TestOracleDraw:
    """_draw_block draws the oracle and threshold suites' blocks of
    independent slot problems with the rules random_system, random_states
    and generate_traces apply one at a time."""

    def test_oracle_stream_is_pinned(self):
        assert _block_stream_digest() == BLOCK_STREAM_DIGEST

    def test_mapping_matches_random_system_on_identical_units(self):
        # random_system's unit rows, placed in one row of a padded block
        # whose padding holds draws of its own, map to the same fields.
        rng = np.random.default_rng(9)
        fill = np.random.default_rng(10)
        for _ in range(40):
            replay = np.random.default_rng()
            replay.bit_generator.state = rng.bit_generator.state
            config = random_system(rng, 1, 5, 20)
            k = int(replay.integers(1, 6))
            n = int(replay.integers(1, 21))
            u = replay.random(5 * k + 4 * n + 6)
            bat = fill.random((3, 5, 5))
            res = fill.random((3, 20, 4))
            grid = fill.random((3, 6))
            bat[1, :k] = u[:5 * k].reshape(k, 5)
            res[1, :n] = u[5 * k:-6].reshape(n, 4)
            grid[1] = u[-6:]
            k_on = np.arange(5) < np.array([[5], [k], [1]])
            n_on = np.arange(20) < np.array([[20], [n], [1]])
            batteries, residents, grids = (
                a[1].tolist() for a in mgsched.validate._system_fields(
                    bat, res, grid, k_on, n_on))
            assert mgsched.validate._specs(
                batteries[:k], residents[:n], grids) == (
                config.batteries, config.residents, config.grid)
            assert grids[6:] == [config.surplus_range[1],
                                 config.burst_range[1]]
            assert batteries[k:] == [[0.0] * 5] * (5 - k)
            assert residents[n:] == [[0.0] * 4] * (20 - n)

    @staticmethod
    def padded(values, width):
        return [*values] + [0.0] * (width - len(values))

    def test_suite_solves_what_it_drew(self, monkeypatch):
        draws, kernel, dispatched = [], [], []
        real_draw = mgsched.validate._draw_block
        real_kernel = mgsched.validate.merit_order_columns
        real_dispatch = mgsched.validate.dispatch_slot
        monkeypatch.setattr(
            mgsched.validate, "_draw_block",
            lambda *args: draws.append((args, real_draw(*args))) or
            draws[-1][1])
        monkeypatch.setattr(
            mgsched.validate, "merit_order_columns",
            lambda *args: kernel.append(args) or real_kernel(*args))
        monkeypatch.setattr(
            mgsched.validate, "dispatch_slot",
            lambda *args: dispatched.append(args) or real_dispatch(*args))
        for suite, kwargs, k_max, n_max, z_scale in (
                (solver_oracle_trials, {"instances": 100, "seed": 6}, 5, 20,
                 1.0),
                (threshold_trials, {"slots": 100, "seed": 5, "k_max": 5,
                                    "n_max": 20}, 5, 20, 1.25),
                (threshold_trials, {"slots": 100, "seed": 5}, 3, 6, 1.25)):
            for calls in (draws, kernel, dispatched):
                calls.clear()
            self.check_solved_as_drawn(suite(**kwargs), draws, kernel,
                                       dispatched, k_max, n_max, z_scale)

    def check_solved_as_drawn(self, result, draws, kernel, dispatched,
                              k_max, n_max, z_scale):
        assert result.trials == 100 and result.passed
        assert [args[1:] for args, _ in draws] == [
            (64, k_max, n_max, z_scale), (36, k_max, n_max, z_scale)]
        blocks = [_block_instances(block, slice(None)) for _, block in draws]
        if result.name == "solver-oracle":
            # dispatch_slot solves each drawn instance once, in draw order
            assert dispatched == [inst for drawn in blocks for inst in drawn]
        else:
            assert dispatched == []
        assert len(kernel) == 2
        for args, drawn in zip(kernel, blocks):
            quality, caps, x, r_cap, d_cap, surplus, c, w, q_cap, s_cap = (
                np.asarray(a).tolist() for a in args)
            assert q_cap == [system.grid.q_max for system, *_ in drawn]
            assert s_cap == [system.grid.s_max for system, *_ in drawn]
            for i, (system, state, obs, v) in enumerate(drawn):
                k, g = system.n_batteries, system.grid
                assert [row[i] for row in quality] == self.padded(
                    [z + a for z, a in zip(state.z, obs.alpha)], n_max)
                assert [row[i] for row in caps] == self.padded(obs.alpha,
                                                               n_max)
                assert [row[i] for row in x[:k]] == [
                    battery_queue(e, spec, v, g)
                    for e, spec in zip(state.e, system.batteries)]
                assert [row[i] for row in r_cap] == self.padded(
                    [max(0.0, min(spec.r_max, spec.e_max - e))
                     for e, spec in zip(state.e, system.batteries)], k_max)
                assert [row[i] for row in d_cap] == self.padded(
                    [max(0.0, min(spec.d_max, e - spec.e_min))
                     for e, spec in zip(state.e, system.batteries)], k_max)
                assert surplus[i] == surplus_power(obs)
                assert (c[i], w[i]) == (v * obs.c, v * obs.w)

    def test_draws_follow_the_generators_distributions(self):
        # The oracle suite's backlogs reach 1x their cap, the threshold
        # suite's 1.25x.
        for z_scale in (1.0, 1.25):
            self.check_distributions(z_scale)

    def check_distributions(self, z_scale):
        # 20,032 instances in the suites' blocks of 64; every spec was built
        # through its __post_init__, and each block's fields are gathered
        # and checked against random_system's ranges at once.
        rng = np.random.default_rng(11)
        ks, ns, zeros, draws, top = set(), set(), 0, 0, 0.0
        for _ in range(313):
            block = _draw_block(rng, 64, 5, 20, z_scale)
            drawn = _block_instances(block, slice(None))
            systems = [system for system, *_ in drawn]
            ks.update(system.n_batteries for system in systems)
            ns.update(system.n_residents for system in systems)
            bats = np.array([(b.r_max, b.d_max, b.e_min, b.slack, b.e_init,
                              b.e_max, level)
                             for system, state, *_ in drawn
                             for b, level in zip(system.batteries, state.e)])
            r_max, d_max, e_min, slack, e_init, e_max, level = bats.T
            assert ((0.5 <= r_max) & (r_max < 2.0)).all()
            assert ((0.5 <= d_max) & (d_max < 2.0)).all()
            assert ((0.0 <= e_min) & (e_min < 1.5)).all()
            assert ((0.5 - 1e-12 <= slack) & (slack < 8.0 + 1e-12)).all()
            assert ((e_min <= e_init) & (e_init <= e_max)).all()
            # levels anywhere in band
            assert ((e_min <= level) & (level <= e_max)).all()
            res = np.array([(r.alpha_max, *r.basic_range, r.delta, basic, a,
                             backlog, cap)
                            for system, state, obs, v in drawn
                            for r, basic, a, backlog, cap in zip(
                                system.residents, obs.basic, obs.alpha,
                                state.z, bound_constants(system, v).z_max)])
            alpha_max, lo, hi, delta, basic, a, backlog, cap = res.T
            assert ((0.8 <= alpha_max) & (alpha_max < 2.6)).all()
            assert ((0.05 <= lo) & (lo < 0.4)).all()
            assert ((0.1 - 1e-12 <= hi - lo) & (hi - lo < 1.5)).all()
            assert ((0.02 <= delta) & (delta < 0.15)).all()
            assert ((lo <= basic) & (basic <= hi)).all()
            assert ((0.0 <= a) & (a <= alpha_max)).all()
            # backlogs up to z_scale times their cap
            assert ((0.0 <= backlog) & (backlog <= z_scale * cap)).all()
            top = max(top, float((backlog / cap).max()))
            zeros += int((backlog == 0.0).sum())
            draws += backlog.size
            grid = np.array([
                (g.w_min, g.w_max, g.c_min, g.c_max, g.q_max, g.s_max,
                 sum(r.alpha_max for r in system.residents),
                 sum(b.r_max for b in system.batteries),
                 sum(b.d_max for b in system.batteries),
                 compute_vmax(system.batteries, g), v, surplus_power(obs),
                 obs.c, obs.w)
                for (system, _, obs, v) in drawn
                for g in (system.grid,)])
            (w_min, w_max, c_min, c_max, q_max, s_max, sum_alpha, sum_r,
             sum_d, v_max, v, surplus, c, w) = grid.T
            tol = 1e-12
            assert ((0.01 <= w_min) & (w_min < 0.035)).all()
            assert ((0.004 - tol <= w_max - w_min)
                    & (w_max - w_min < 0.02 + tol)).all()
            assert ((0.002 - tol <= c_min - w_max)
                    & (c_min - w_max < 0.02 + tol)).all()
            assert ((0.01 - tol <= c_max - c_min)
                    & (c_max - c_min < 0.06 + tol)).all()
            assert q_max == pytest.approx(sum_alpha + sum_r + 2.0, rel=tol)
            burst_hi = s_max - sum_d - 2.0
            assert ((0.3 - 1e-9 <= burst_hi / (sum_alpha + sum_r))
                    & (burst_hi / (sum_alpha + sum_r) < 3.0)).all()
            assert ((0.3 <= v / v_max) & (v / v_max < 1.0)).all()
            assert ((0.0 <= surplus) & (surplus <= burst_hi * (1 + tol))).all()
            assert ((c_min <= c) & (c <= c_max)).all()
            assert ((w_min <= w) & (w <= w_max) & (w < c)).all()
            # the padded arrays hold each instance, then zero padding
            for i, (system, state, obs, _) in enumerate(drawn):
                assert block.e[i].tolist() == self.padded(state.e, 5)
                assert block.z[i].tolist() == self.padded(state.z, 20)
                assert block.alpha[i].tolist() == self.padded(obs.alpha, 20)
                assert not block.batteries[i, system.n_batteries:].any()
                assert not block.residents[i, system.n_residents:].any()
        assert ks == set(range(1, 6)) and ns == set(range(1, 21))
        # the backlogs fill their range
        assert 0.99 * z_scale < top <= z_scale
        # the zero coin is fair to within 5 binomial standard deviations
        sigma = math.sqrt(0.3 * 0.7 / draws)
        assert abs(zeros / draws - 0.3) <= 5.0 * sigma


class TestBoundSuites:
    def test_safe_parameter_passes(self):
        results = run_bound_trials(runs=3, slots=600, seed=4)
        names = [r.name for r in results]
        assert names == ["battery-band", "queue-bound", "outage-window"]
        for r in results:
            assert r.passed
            assert r.counterexample is None
        assert results[0].trials == 3 * 600
        assert results[2].trials > 0

    def test_oversized_parameter_is_caught(self):
        # doubling v past its safe maximum must break the battery band,
        # which proves the audit can actually fail
        results = run_bound_trials(runs=3, slots=600, seed=4, v_factor=2.0)
        band = results[0]
        assert not band.passed
        assert band.violations > 0
        assert "outside" in band.counterexample
        assert "state:" in band.counterexample
        # the exact counts pin the synthesizer's stream and the shared audit
        assert [(r.name, r.trials, r.violations) for r in results] == [
            ("battery-band", 1800, 535), ("queue-bound", 1800, 0),
            ("outage-window", 1111, 0)]

    def test_runs_longer_than_a_window_count_every_slot_and_window(self):
        # 1700-slot runs at up to 5x20 span several 500-slot windows; the
        # counts and the band counterexample's sha256 pin how such runs are
        # stepped and audited
        results = run_bound_trials(runs=2, slots=1700, seed=5,
                                   v_factor=1.5, k_max=5, n_max=20)
        assert [(r.name, r.trials, r.violations) for r in results] == [
            ("battery-band", 3400, 776), ("queue-bound", 3400, 0),
            ("outage-window", 16814, 0)]
        assert hashlib.sha256(
            results[0].counterexample.encode()).hexdigest() == (
            "170c5fb6ba682e741f5a8abf8f833aa61837ae2f84c2327a6a57e8dd0b645cd8")

    def test_window_sums_above_budget_are_flagged(self):
        # One resident left unserved 1.0 kWh every slot for 600 slots: each
        # of the 101 windows sums to 500, past the budget 5 + 500*0.07*2.5.
        residents = (make_resident(), make_resident())
        outage = np.zeros((600, 2))
        outage[:, 1] = 1.0
        sums, budgets = outage_windows(outage, residents, (5.0, 5.0))
        assert sums.shape == (101, 2)
        assert budgets == pytest.approx([92.5, 92.5])
        assert (sums[:, 1] == 500.0).all() and (sums[:, 0] == 0.0).all()
        assert (sums > budgets).sum() == 101

    def test_unserved_residents_break_the_window_audit(self, monkeypatch):
        real = mgsched.validate.dispatch_slot

        def serve_nobody(system, state, obs, v, **kwargs):
            dispatch = real(system, state, obs, v, **kwargs)
            return replace(dispatch, p=(0.0,) * len(dispatch.p))

        monkeypatch.setattr(mgsched.validate, "dispatch_slot", serve_nobody)
        _, queue, window = run_bound_trials(runs=1, slots=600, seed=4,
                                            k_max=2, n_max=3)
        assert window.name == "outage-window"
        # every window is flagged, so the earliest is slots 0..499 of
        # the first resident, worded as mgsched run words it
        assert window.violations == window.trials > 0
        detail = window.counterexample.split("\n", 1)[0]
        assert detail.startswith("detail: resident 0: slots 0..499 leave ")
        assert " unserved, above budget " in detail
        assert "state: SystemState(t=499," in window.counterexample
        assert queue.violations > 0


class TestOtherSuites:
    def test_oracle_suite_catches_a_wrong_dispatch_slot_objective(
            self, monkeypatch):
        real = mgsched.validate.dispatch_slot

        def off_by_a_millionth(system, state, obs, v, **kwargs):
            dispatch = real(system, state, obs, v, **kwargs)
            return replace(dispatch, objective=dispatch.objective
                           + 1e-6 * max(1.0, abs(dispatch.objective)))

        monkeypatch.setattr(mgsched.validate, "dispatch_slot",
                            off_by_a_millionth)
        suite = solver_oracle_trials(64, seed=6)
        assert suite.violations == 64
        assert "dispatch_slot objective" in suite.counterexample

    def test_oracle_suite_catches_a_wrong_kernel_objective(self,
                                                           monkeypatch):
        real = mgsched.validate.merit_order_columns

        def off_by_a_millionth(*args):
            objective, *rest = real(*args)
            return (objective + 1e-6 * np.maximum(1.0, np.abs(objective)),
                    *rest)

        monkeypatch.setattr(mgsched.validate, "merit_order_columns",
                            off_by_a_millionth)
        suite = solver_oracle_trials(64, seed=6)
        assert suite.violations == 64
        assert "merit objective" in suite.counterexample

    @staticmethod
    def drop_resident_zero(monkeypatch):
        """Patch the suites' kernel to serve resident 0 nothing; returns the
        (service dropped, surplus) of each call."""
        real = mgsched.validate.merit_order_columns
        calls = []

        def dropping(*args):
            objective, q, s, r, d, p, infeasible = real(*args)
            calls.append((p[0].copy(), args[5]))
            p[0] = 0.0
            return objective, q, s, r, d, p, infeasible

        monkeypatch.setattr(mgsched.validate, "merit_order_columns",
                            dropping)
        return calls

    @staticmethod
    def unbalanced(dropped, surplus):
        return dropped > 1e-9 * np.maximum(surplus, 1.0)

    def test_threshold_suite_counts_balance_violations(self, monkeypatch):
        calls = self.drop_resident_zero(monkeypatch)
        # With the threshold audit silenced, only the balance audit can
        # see the service that went missing.
        monkeypatch.setattr(mgsched.validate, "_threshold_mask",
                            lambda *args: False)
        suite = threshold_trials(slots=128, seed=5)
        flagged = [self.unbalanced(*call) for call in calls]
        assert suite.violations == sum(f.sum() for f in flagged) > 0
        slot = int(np.concatenate(flagged).argmax())
        assert f"detail: slot {slot}: " in suite.counterexample
        assert "balance residual" in suite.counterexample
        assert f"state: SystemState(t={slot}," in suite.counterexample

    def test_oracle_suite_audits_the_kernels_flows(self, monkeypatch):
        calls = self.drop_resident_zero(monkeypatch)
        suite = solver_oracle_trials(64, seed=6)
        assert suite.violations == self.unbalanced(*calls[0]).sum() > 0
        assert "balance residual" in suite.counterexample

    def test_threshold_suite_flags_what_threshold_violations_flags(
            self, monkeypatch):
        # Flows drawn at random inside their caps break the threshold
        # structure in many slots. With the balance audit silenced, the
        # suite's padded per-column mask must flag exactly the slots that
        # threshold_violations flags on each slot's own objects.
        flows_rng = np.random.default_rng(13)
        draws, solutions = [], []
        real_draw = mgsched.validate._draw_block

        def some(cap, share):
            # a random flow under cap on a random share of the entries
            return cap * flows_rng.random(cap.shape) * (
                flows_rng.random(cap.shape) < share)

        def random_flows(quality, caps, x, r_cap, d_cap, surplus, *_):
            ones = np.ones(surplus.size)
            # each resident is served its full request or nothing
            p = caps * (flows_rng.random(caps.shape) < 0.8)
            solutions.append((0.0 * ones, some(ones, 0.2), some(ones, 0.2),
                              some(r_cap, 0.2), some(d_cap, 0.2), p,
                              ones < 0.0))
            return solutions[-1]

        monkeypatch.setattr(
            mgsched.validate, "_draw_block",
            lambda *args: draws.append(real_draw(*args)) or draws[-1])
        monkeypatch.setattr(mgsched.validate, "merit_order_columns",
                            random_flows)
        monkeypatch.setattr(mgsched.validate, "_balance_masks",
                            lambda q, *_: (np.zeros(q.size, dtype=bool),
                                           None))
        suite = threshold_trials(slots=128, seed=5)
        expected = [
            bool(threshold_violations(
                system, state, obs, v,
                mgsched.validate._column_dispatch(solution, i, system)))
            for block, solution in zip(draws, solutions)
            for i, (system, state, obs, v) in enumerate(
                _block_instances(block, slice(None)))]
        assert 0 < sum(expected) < len(expected) == 128
        assert suite.violations == sum(expected)
        assert (f"detail: slot {expected.index(True)}: "
                in suite.counterexample)

    def test_threshold_suite_names_an_unservable_slot(self, monkeypatch):
        # A column the kernel finds infeasible raises as dispatch_slot
        # would, naming the slot and its surplus.
        real = mgsched.validate.merit_order_columns
        surpluses = []

        def sixth_infeasible(*args):
            *solution, infeasible = real(*args)
            surpluses.append(args[5][5])
            infeasible[5] = True
            return (*solution, infeasible)

        monkeypatch.setattr(mgsched.validate, "merit_order_columns",
                            sixth_infeasible)
        with pytest.raises(UnservableSurplusError) as err:
            threshold_trials(slots=128, seed=5)
        assert str(err.value).startswith(
            f"slot 5: surplus {surpluses[0]} kWh exceeds every sink")

    def test_threshold_suite_passes(self):
        suite = threshold_trials(slots=400, seed=5)
        assert suite.name == "threshold-structure"
        assert suite.trials == 400
        assert suite.passed

    def test_oracle_suite_passes(self):
        suite = solver_oracle_trials(instances=40, seed=6)
        assert suite.name == "solver-oracle"
        assert suite.trials == 40
        assert suite.passed

    def test_run_all_suites_shapes(self):
        results = run_all_suites(5, seed=7)
        assert [r.name for r in results] == [
            "battery-band", "queue-bound", "outage-window",
            "threshold-structure", "solver-oracle"]
        assert all(r.passed for r in results)

    def test_oracle_suite_imports_no_scipy(self):
        # The exact oracle is plain numpy; importing the validators must
        # not pull in an LP solver.
        src = os.path.dirname(os.path.dirname(mgsched.validate.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, mgsched.validate; "
                "assert 'scipy' not in sys.modules, 'scipy imported'")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_run_all_suites_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            run_all_suites(0, seed=0)
