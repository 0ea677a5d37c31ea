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
    validate_observation,
)
from mgsched.sim import outage_windows

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
        assert window.violations > 0
        assert "for resident" in window.counterexample
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

    def test_threshold_suite_solves_the_slots_it_always_drew(self,
                                                             monkeypatch):
        # Each block's systems, states and observations are those of
        # random_system, random_states and generate_traces in the suite's
        # order, priced as dispatch_slot prices them.
        real = mgsched.validate.merit_order_columns
        calls = []
        monkeypatch.setattr(mgsched.validate, "merit_order_columns",
                            lambda *args: calls.append(args) or real(*args))
        threshold_trials(slots=100, seed=5, k_max=5, n_max=20)
        rng = np.random.default_rng((5, 3))
        assert len(calls) == 2
        for args, size in zip(calls, (64, 36)):
            config = random_system(rng, size, 5, 20)
            system = config.system
            v = float(rng.uniform(0.3, 1.0)) * compute_vmax(
                config.batteries, config.grid)
            block = generate_traces(config, rng)
            states = random_states(system, rng, v, size)
            assert args[0].T.tolist() == [
                [z + a for z, a in zip(state.z, obs.alpha)]
                for state, obs in zip(states, block)]
            assert args[2].T.tolist() == [
                [battery_queue(e, spec, v, system.grid)
                 for e, spec in zip(state.e, system.batteries)]
                for state in states]
            assert args[3].T.tolist() == [
                [max(0.0, min(spec.r_max, spec.e_max - e))
                 for e, spec in zip(state.e, system.batteries)]
                for state in states]
            assert args[4].T.tolist() == [
                [max(0.0, min(spec.d_max, e - spec.e_min))
                 for e, spec in zip(state.e, system.batteries)]
                for state in states]
            assert args[5].tolist() == [surplus_power(obs) for obs in block]
            assert args[6].tolist() == [v * obs.c for obs in block]

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
