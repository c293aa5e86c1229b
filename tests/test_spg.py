"""Outer solver: step contracts, schedules, guards, and full tiny runs."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

import spgae.model
import spgae.spg
from spgae.data import SynthSpec, generate, preset
from spgae.model import (ModelParams, ProblemData, Variables, feasibility,
                         objective, penalty)
from spgae.smoothing import smoothed_objective
from spgae.subproblem import WbFactor
from spgae.trace import RunTrace, TraceRow
from spgae.spg import (DivergenceError, SpgConfig, default_l0,
                       estimate_local_l0, estimate_validated_l0,
                       init_point, run, spg_step, stationarity_diagnostic)

from conftest import random_problem
from helpers import plain_solve, run_step, smoothing_gap_bound


class TestConfig:
    def test_defaults_valid_but_warn(self):
        with pytest.warns(UserWarning, match="tau1\\*tau3"):
            cfg = SpgConfig()
        assert cfg.tau1 * cfg.tau3 < 1.0

    def test_warning_points_at_the_constructing_line(self):
        with pytest.warns(UserWarning, match="tau1\\*tau3") as rec:
            SpgConfig(tau1=0.5, tau3=1.5)
        assert rec[0].filename == __file__

    def test_no_warning_with_compensating_tau3(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SpgConfig(tau3=2.0)

    @pytest.mark.parametrize("kwargs", [
        {"mu0": 0.0}, {"mu0": 1.0}, {"tau1": 0.0}, {"tau1": 1.0},
        {"tau2": 0.0}, {"tau3": 0.9}, {"L0": 0.5},
        {"epsilon": 0.0}, {"epsilon": 1e-3}, {"max_outer_iters": 0},
        {"sub_max_iter": 0}, {"sub_max_iter": -5}, {"sub_tol": -1e-6},
        # NaN fails every comparison, so each check must be written to fail it
        *({name: math.nan} for name in ("mu0", "tau1", "tau2", "tau3", "L0",
                                         "epsilon", "sub_tol")),
    ])
    def test_rejects_bad_values(self, kwargs):
        base = dict(tau3=2.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SpgConfig(**base)


class TestDefaults:
    def test_default_l0_cases(self):
        # each branch of max{1, sqrt(N0 N1 / N), beta, N0/30} can win
        d, p = random_problem(75, 5, 10, seed=1)
        assert default_l0(d, p) == 1.0
        d, p = random_problem(100, 40, 40, seed=2)
        assert default_l0(d, p) == pytest.approx(4.0)
        d, p = random_problem(10000, 784, 500, seed=None or 3)
        assert default_l0(d, p) == pytest.approx(784 / 30.0)

    def test_init_in_Z_with_zero_penalty(self, tiny_problem):
        data, params = tiny_problem
        z = init_point(data, seed=5)[0]
        rep = feasibility(z, data, params, tol=0.0)
        assert rep.in_Z
        assert penalty(z, data, params) == 0.0
        assert np.all(z.b == 0.0)

    def test_init_deterministic_and_scaled(self, tiny_problem):
        data, _ = tiny_problem
        z1 = init_point(data, seed=7)[0]
        z2 = init_point(data, seed=7)[0]
        assert np.array_equal(z1.pack(), z2.pack())
        z3 = init_point(data, seed=8)[0]
        assert not np.array_equal(z1.W, z3.W)
        # randn/N scaling: entries should be O(1/N) for this tiny N
        assert np.max(np.abs(z1.W)) < 10.0 / data.n_samples


class TestStep:
    def config(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return SpgConfig()

    def test_branch_contract(self, tiny_problem):
        data, params = tiny_problem
        cfg = self.config()
        z = init_point(data, seed=1)[0]
        mu, L = cfg.mu0, 1.0
        seen = set()
        for _ in range(30):
            step = run_step(z, mu, L, data, params, cfg)
            if step.accepted:
                assert step.decrease < -cfg.tau2 * mu / L
                assert step.mu_next == mu and step.L_next == L
            else:
                assert step.decrease >= -cfg.tau2 * mu / L
                assert step.mu_next == cfg.tau1 * mu
                assert step.L_next == cfg.tau3 * L
            # the next step's "before" value, on either branch
            assert step.smoothed_next == smoothed_objective(
                step.z_next, step.mu_next, data, params)
            seen.add(step.accepted)
            z, mu, L = step.z_next, step.mu_next, step.L_next
        assert seen == {True, False}

    def test_solver_reads_the_anchors_preactivations(self, tiny_problem, monkeypatch):
        data, params = tiny_problem
        cfg = self.config()
        z = init_point(data, seed=1)[0]
        fw = spgae.model.preactivations(z, data)
        S_before = fw.S.copy()
        passed = []
        solve = spgae.spg.solve_subproblem

        def spy(spec, **kwargs):
            passed.append(kwargs.get("anchor_S"))
            return solve(spec, **kwargs)

        monkeypatch.setattr(spgae.spg, "solve_subproblem", spy)
        run_step(z, cfg.mu0, 1.0, data, params, cfg, fw=fw)
        assert passed[0] is fw.S
        assert np.array_equal(fw.S, S_before)

    def test_sample_space_step_holds_at_most_three_w_sized_arrays(self):
        """A sample-space step with a prebuilt factor allocates at most three
        N1 x N0 arrays' worth above what its caller holds: the gradient's W
        beside R, later beside the new W, but never R D^{-1} and the new W
        at once."""
        import tracemalloc

        n, n1, n0 = 30, 100, 3000
        data, params = random_problem(n, n0, n1, seed=7)
        cfg = self.config()
        z, S = init_point(data, seed=1)
        fw = spgae.model.preactivations(z, data, S=S)
        L = default_l0(data, params)
        factor = WbFactor.build(data, L, params.lambda2)
        assert factor.sample_space
        before = smoothed_objective(z, cfg.mu0, data, params, fw=fw)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            step = spg_step(z, cfg.mu0, L, data, params, cfg, fw=fw, before=before,
                            factor=factor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step.sub.converged
        assert peak - entry <= 3 * n1 * n0 * 8

    def test_zero_data_shrinks_at_fixed_point(self):
        # with X = 0 and z = 0 the subproblem returns the anchor, giving
        # zero decrease, which must take the shrink branch (tie -> shrink)
        X = np.zeros((2, 3))
        data = ProblemData.from_matrix(X, 2)
        params = ModelParams.from_data(data, theta=1.0, alpha=1.0)
        cfg = self.config()
        z = Variables.zeros(data)
        step = run_step(z, cfg.mu0, 1.0, data, params, cfg)
        assert not step.accepted
        assert step.decrease == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(step.z_next.pack(), 0.0, atol=1e-8)

    def test_sandwich_along_trajectory(self, tiny_problem):
        data, params = tiny_problem
        cfg = self.config()
        gap = smoothing_gap_bound(data, params)
        z, mu, L = init_point(data, seed=2)[0], cfg.mu0, 1.0
        for _ in range(25):
            step = run_step(z, mu, L, data, params, cfg)
            z, mu, L = step.z_next, step.mu_next, step.L_next
            o = objective(z, data, params)
            o_smooth = smoothed_objective(z, mu, data, params)
            assert o <= o_smooth + 1e-12
            assert o_smooth <= o + gap * mu + 1e-12


class TestRun:
    def config(self, **kw):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return SpgConfig(**kw)

    def test_outer_steps_run_plain_sweeps(self, monkeypatch):
        """spg.run solves every step with the plain sweep: a preset-6
        run is byte for byte the run whose solves are the hand-driven,
        unaccelerated loop."""
        n, n1, n0 = preset(6)
        X, _ = generate(SynthSpec(kind=2, n_train=n, n_test=0, n_visible=n0,
                                  eps0=0.05, seed=0))
        data = ProblemData.from_matrix(X, n1)
        params = ModelParams.from_data(data)
        cfg = self.config(max_outer_iters=60)
        ref = run(data, params, cfg, seed=0)
        seen = []

        def hand_driven(spec, tol, max_iter, *, anderson, anchor_S, factor):
            seen.append(anderson)
            return plain_solve(spec, tol, max_iter, anchor_S=anchor_S, factor=factor)

        monkeypatch.setattr(spgae.spg, "solve_subproblem", hand_driven)
        got = run(data, params, cfg, seed=0)
        assert set(seen) == {0} and len(seen) == got.iterations == 60
        assert got.z.pack().tobytes() == ref.z.pack().tobytes()
        assert ([(r.mu, r.L, r.smoothed, r.fval, r.sub_iters) for r in got.trace.rows]
                == [(r.mu, r.L, r.smoothed, r.fval, r.sub_iters) for r in ref.trace.rows])

    def test_tiny_run_terminates_at_mu_eps(self, tiny_problem):
        data, params = tiny_problem
        cfg = self.config(epsilon=1e-5)
        res = run(data, params, config=cfg, seed=3)
        assert res.trace.termination_reason == "mu<=eps"
        assert res.mu <= cfg.epsilon
        mus = [row.mu for row in res.trace.rows]
        # non-increasing, and every decrease is exactly a tau1 shrink
        for prev, cur in zip(mus, mus[1:]):
            assert cur == prev or cur == pytest.approx(cfg.tau1 * prev)
        ks = [row.k for row in res.trace.rows]
        assert ks == list(range(len(ks)))

    def test_iterates_stay_feasible(self, tiny_problem):
        data, params = tiny_problem
        cfg = self.config(epsilon=1e-4)

        class Collect:
            ks = []

            def write_row(self, row):
                self.ks.append(row.k)

        res = run(data, params, config=cfg, seed=4, trace=RunTrace(sink=Collect()))
        rep = feasibility(res.z, data, params, tol=1e-9)
        assert rep.in_Z
        assert len(Collect.ks) == len(res.trace.rows)

    def test_deterministic_reruns(self, tiny_problem):
        data, params = tiny_problem
        cfg = self.config(epsilon=1e-4)
        r1 = run(data, params, config=cfg, seed=9)
        r2 = run(data, params, config=cfg, seed=9)
        assert np.array_equal(r1.z.pack(), r2.z.pack())
        assert [t.fval for t in r1.trace.rows] == [t.fval for t in r2.trace.rows]

    def test_divergence_guard_trips(self, tiny_problem, monkeypatch):
        data, params = tiny_problem
        cfg = self.config()
        monkeypatch.setattr(spgae.spg, "DIVERGENCE_FACTOR", 1e-9)
        with pytest.raises(DivergenceError) as err:
            run(data, params, config=cfg, seed=1)
        assert err.value.trace.termination_reason == "diverged"
        assert "exceeded" in str(err.value)

    def test_max_iters_reason(self, tiny_problem):
        data, params = tiny_problem
        cfg = self.config(max_outer_iters=3)
        res = run(data, params, config=cfg, seed=1)
        assert res.trace.termination_reason == "max_iters"
        assert res.iterations == 3

    def test_validated_l0_monotone_and_bounded(self):
        data, params = random_problem(6, 2, 2, seed=44)
        l0, radius = estimate_validated_l0(data, params, mu0=1e-3, seed=0)
        assert l0 >= 8.0 * params.lambda2
        cfg = self.config(L0=min(l0, 1e11), tau3=2.0, max_outer_iters=60,
                          epsilon=1e-6, theoretical_L=True)
        res = run(data, params, config=cfg, seed=44)
        vals = [row.smoothed for row in res.trace.rows]
        for prev, cur in zip(vals, vals[1:]):
            assert cur <= prev + 1e-12
        assert float(np.max(np.abs(res.z.pack()))) <= radius

    def test_one_forward_pass_per_iterate(self, monkeypatch):
        """Each iterate's pre-activations are formed once, and the encoder
        product W X only for the start point: a step takes z_next's from
        its solve.  Every matmul with X as its right operand is counted, in
        feature space (N > N0) and in sample space."""
        products, counted_X = [], []

        class CountedX(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and inputs[1] is counted_X[-1]:
                    products.append((inputs[0].shape, "out" in kwargs))

                def plain(a):
                    return a.view(np.ndarray) if isinstance(a, CountedX) else a

                inputs = tuple(plain(a) for a in inputs)
                if "out" in kwargs:
                    kwargs["out"] = tuple(plain(a) for a in kwargs["out"])
                return getattr(ufunc, method)(*inputs, **kwargs)

        original = spgae.model.preactivations
        calls = []

        def counted(z, d, S=None):
            calls.append(1)
            return original(z, d, S=S)

        # modules that did `from .model import preactivations` hold their own
        # reference
        for name, mod in list(sys.modules.items()):
            if name.startswith("spgae") and getattr(mod, "preactivations", None) is original:
                monkeypatch.setattr(mod, "preactivations", counted)
        steps = 4
        for n, n0, n1 in ((6, 3, 2), (5, 9, 4)):
            data, params = random_problem(n, n0, n1, seed=11)
            counted_X.append(data.X.view(CountedX))
            data = dataclasses.replace(data, X=counted_X[-1])
            products.clear()
            calls.clear()
            res = run(data, params, config=self.config(max_outer_iters=steps), seed=2)
            assert res.iterations == steps
            assert len(calls) == steps + 1
            # W X itself: the start point's, with no out buffer
            assert products[0] == ((n1, n0), False)
            # the rest are the solver's: in feature space each sweep's W^ X
            # into its S buffer, in sample space each factor's G = P_W X
            rows = res.trace.rows
            if n > n0:
                want = [((n1, n0), True)] * sum(r.sub_iters for r in rows)
            else:
                want = [((n, n0), False)] * len(dict.fromkeys(r.L for r in rows[:-1]))
            assert products[1:] == want

    @pytest.mark.parametrize("shape", [(6, 3, 2), (5, 9, 4)], ids=["feature", "sample"])
    def test_infnorm_bound_raises_outside_the_box(self, shape, monkeypatch):
        """The validated-L check compares the largest |entry| over all
        blocks with the box: a box just below the first iterate's raises,
        one at it does not."""
        data, params = random_problem(*shape, seed=11)
        zmax = float(np.max(np.abs(
            run(data, params, config=self.config(max_outer_iters=1), seed=3).z.pack())))
        # the cold default L0, given, keeps the first iterate the one above
        cfg = self.config(max_outer_iters=1, L0=default_l0(data, params),
                          theoretical_L=True)
        monkeypatch.setattr(spgae.spg, "_box_radius", lambda data, params: (zmax, None))
        at = run(data, params, config=cfg, seed=3)
        assert at.iterations == 1
        monkeypatch.setattr(spgae.spg, "_box_radius",
                            lambda data, params: (zmax * (1.0 - 1e-6), None))
        with pytest.raises(RuntimeError, match="iterate left the level-set box"):
            run(data, params, config=cfg, seed=3)

    def test_accepted_steps_reuse_the_acceptance_value(self, tiny_problem, monkeypatch):
        data, params = tiny_problem
        original = spgae.spg.smoothed_objective
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spgae.spg, "smoothed_objective", counted)
        res = run(data, params, config=self.config(L0=1.0, max_outer_iters=30), seed=1)
        assert 0 < res.mu_shrinks < res.iterations
        # the start point, each step's "after", and O~(z, mu_next) after a shrink
        assert len(calls) == 1 + res.iterations + res.mu_shrinks

    def test_one_regularizer_per_iterate(self, tiny_problem, monkeypatch):
        """R(z) is formed once per iterate, for its smoothed objectives and
        its trace row alike, on accepted and on rejected steps."""
        data, params = tiny_problem
        original = spgae.model.regularizer
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("spgae") and getattr(mod, "regularizer", None) is original:
                monkeypatch.setattr(mod, "regularizer", counted)
        res = run(data, params, config=self.config(L0=1.0, max_outer_iters=30), seed=1)
        assert 0 < res.mu_shrinks < res.iterations
        assert len(calls) == 1 + res.iterations

    def test_one_factor_per_distinct_L(self, tiny_problem, monkeypatch):
        data, params = tiny_problem
        cfg = self.config(L0=1.0, max_outer_iters=30)
        original = WbFactor.build.__func__
        built = []

        def counted(cls, d, L, lambda2):
            built.append(L)
            return original(cls, d, L, lambda2)

        monkeypatch.setattr(WbFactor, "build", classmethod(counted))
        res = run(data, params, config=cfg, seed=1)
        assert res.mu_shrinks > 0
        used = [row.L for row in res.trace.rows[:-1]]   # the L each step solved at
        assert built == list(dict.fromkeys(used))
        monkeypatch.undo()
        # the same steps, each building its own factor
        z, mu, L = init_point(data, seed=1)[0], cfg.mu0, cfg.L0
        for row in res.trace.rows[1:]:
            step = run_step(z, mu, L, data, params, cfg)
            z, mu, L = step.z_next, step.mu_next, step.L_next
            assert (mu, L, step.sub.iters) == (row.mu, row.L, row.sub_iters)
            assert smoothed_objective(z, mu, data, params) == row.smoothed
        assert z.pack().tobytes() == res.z.pack().tobytes()

    def test_subnormal_start_entries_are_flushed_on_a_copy(self, tiny_problem):
        data, params = tiny_problem
        cfg = self.config(max_outer_iters=6)
        z0, flushed = init_point(data, seed=5)[0], init_point(data, seed=5)[0]
        for z, value in ((z0, 5e-324), (flushed, 0.0)):
            z.W[0] = z.b1[0] = z.V[0] = value   # a dead unit of a weight-decayed warm start
        before = z0.pack().tobytes()
        res = run(data, params, config=cfg, z0=z0)
        ref = run(data, params, config=cfg, z0=flushed)

        def without_wall(trace):
            return [dataclasses.replace(row, wall_ms=None) for row in trace.rows]

        assert z0.pack().tobytes() == before
        assert without_wall(res.trace) == without_wall(ref.trace)
        assert res.z.pack().tobytes() == ref.z.pack().tobytes()
        z = res.z.pack()
        assert not np.any((z != 0.0) & (np.abs(z) < np.finfo(np.float64).tiny))

    def test_warm_start_L0_is_the_secant_estimate_of_the_flushed_point(
            self, tiny_problem):
        data, params = tiny_problem
        cfg = self.config(max_outer_iters=2)
        # at the origin every preactivation sits on the smoothing kink, so the
        # estimate is far above the cold default
        flushed = Variables.zeros(data)
        expected = estimate_local_l0(flushed, cfg.mu0, data, params, seed=3)
        assert expected > 10.0 * default_l0(data, params)
        assert run(data, params, cfg, z0=flushed, seed=3).trace.rows[0].L == expected
        z0 = Variables.zeros(data)
        z0.W[0] = z0.b1[0] = z0.V[0] = 5e-324
        assert run(data, params, cfg, z0=z0, seed=3).trace.rows[0].L == expected

    def test_warm_start_marks_the_handoff(self, tiny_problem):
        data, params = tiny_problem
        cfg = self.config(max_outer_iters=2)
        trace = RunTrace(rows=[TraceRow(k=k) for k in range(3)])
        res = run(data, params, cfg, z0=init_point(data, seed=1)[0], trace=trace)
        assert res.trace is trace
        assert trace.handoff_index == 3
        assert [r.k for r in trace.rows] == [0, 1, 2, 3, 4, 5]
        assert run(data, params, cfg, seed=1).trace.handoff_index is None

    def test_warm_start_keeps_a_given_L0(self, tiny_problem):
        data, params = tiny_problem
        cfg = self.config(L0=2.0, max_outer_iters=2)
        res = run(data, params, cfg, z0=Variables.zeros(data))
        assert res.trace.rows[0].L == 2.0

    def test_final_stationarity_is_the_last_steps(self, tiny_problem):
        data, params = tiny_problem
        res = run(data, params, config=self.config(max_outer_iters=10), seed=2)
        # one step fewer ends at the last step's start point and L
        prev = run(data, params, config=self.config(max_outer_iters=9), seed=2)
        assert res.iterations == 10
        assert res.final_stationarity == stationarity_diagnostic(
            prev.z, res.z, prev.L, params)


class TestStationarityDiagnostic:
    def test_formula(self, tiny_problem):
        data, params = tiny_problem
        za = init_point(data, seed=1)[0]
        zb = init_point(data, seed=2)[0]
        expect = (2.0 * params.lambda2 + 3.0) * np.linalg.norm(
            za.pack() - zb.pack())
        assert stationarity_diagnostic(za, zb, 3.0, params) == \
            pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("shape", [(6, 3, 2), (5, 9, 4)])
    def test_matches_the_packed_norm(self, shape):
        """Written block by block, the difference is the packed one, so the
        value equals the packed-norm formula exactly (rel 1e-12 is the
        contract; summaries rely on the bits)."""
        data, params = random_problem(*shape, seed=12)
        rng = np.random.default_rng(13)
        za, zb = (Variables.unpack(rng.standard_normal(data.n_packed), data)
                  for _ in range(2))
        for L in (1.0, 37.5):
            packed = (2.0 * params.lambda2 + L) * np.linalg.norm(za.pack() - zb.pack())
            assert stationarity_diagnostic(za, zb, L, params) == packed

    def test_zero_for_fixed_point(self, tiny_problem):
        data, params = tiny_problem
        z = init_point(data, seed=1)[0]
        assert stationarity_diagnostic(z, z, 5.0, params) == 0.0


class TestLocalL0Estimate:
    def test_floor_and_determinism(self, tiny_problem):
        data, params = tiny_problem
        z = init_point(data, seed=1)[0]
        l_a = estimate_local_l0(z, 1e-3, data, params, seed=0)
        l_b = estimate_local_l0(z, 1e-3, data, params, seed=0)
        assert l_a == l_b
        assert l_a >= default_l0(data, params)

    def test_detects_high_curvature_at_kink(self, tiny_problem):
        data, params = tiny_problem
        # at the origin every preactivation sits on the smoothing kink, so
        # probe steps cross the band and the secant blows past the default
        z = Variables.zeros(data)
        l_est = estimate_local_l0(z, 1e-5, data, params, seed=0)
        assert l_est > 10.0 * default_l0(data, params)
