"""Inner splitting solver: closed forms, fixed points, oracle agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spgae.model import ModelParams, ProblemData, Variables, feasibility
from spgae.smoothing import GradientBlocks
from spgae.subproblem import (AdmmState, FactorizationCache, NumericError,
                              SubproblemSpec, solve_subproblem,
                              subproblem_objective, update_multipliers,
                              update_vu, update_wb, vu_closed_form)

from conftest import random_problem


def two_var_kkt_oracle(xi1, xi2, L):
    """Brute-force minimum of q(v,u) = L/2 (v+xi1)^2 + 1/2 (u+xi2)^2
    over {v >= u, v >= 0} by enumerating the KKT candidate set."""
    cands = []
    v, u = -xi1, -xi2
    if v >= u - 1e-18 and v >= -1e-18:
        cands.append((v, u))
    # v = 0 face: u = -xi2 must satisfy u <= 0
    if -xi2 <= 1e-18:
        cands.append((0.0, -xi2))
    # tied face v = u: minimize (L/2)(t+xi1)^2 + (1/2)(t+xi2)^2
    t = -(L * xi1 + xi2) / (L + 1.0)
    if t >= -1e-18:
        cands.append((t, t))
    cands.append((0.0, 0.0))
    best, bestq = None, np.inf
    for v, u in cands:
        if v < -1e-15 or v - u < -1e-15:
            continue
        q = 0.5 * L * (v + xi1) ** 2 + 0.5 * (u + xi2) ** 2
        if q < bestq - 1e-18:
            best, bestq = (v, u), q
    return best


def make_spec(n, n0, n1, seed, L=1.0, mu=1e-3, grads=None, anchor=None):
    data, params = random_problem(n, n0, n1, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    if anchor is None:
        W = rng.standard_normal((n1, n0)) / n
        anchor = Variables(W=W, b1=np.zeros(n1), b2=np.zeros(n0),
                           V=np.maximum(W @ data.X, 0.0))
    if grads is None:
        grads = GradientBlocks(g_W=rng.standard_normal((n1, n0)),
                               g_b1=rng.standard_normal(n1),
                               g_b2=rng.standard_normal(n0),
                               g_V=rng.standard_normal((n1, n)))
    return SubproblemSpec(anchor=anchor, grads=grads, L=L, mu=mu,
                          params=params, data=data)


def canceling_grads(anchor, params, data):
    """Gradients that put the anchor at the subproblem's stationary point.

    The prox objective's gradient at the anchor is g + grad R(anchor), so
    g = -grad R makes a strictly feasible anchor the unique minimizer.
    """
    return GradientBlocks(
        g_W=-2.0 * params.lambda2 * anchor.W,
        g_b1=np.zeros(data.n_hidden),
        g_b2=np.zeros(data.n_visible),
        g_V=-params.lambda1 * np.ones((data.n_hidden, data.n_samples)))


class TestVUClosedForm:
    def test_case1_frozen(self):
        v, u = vu_closed_form(np.array(-1.0), np.array(0.0), 1.0)
        assert (float(v), float(u)) == (1.0, 0.0)

    def test_case2_frozen(self):
        v, u = vu_closed_form(np.array(1.0), np.array(1.0), 1.0)
        assert (float(v), float(u)) == (0.0, -1.0)

    def test_case4_tied_frozen(self):
        v, u = vu_closed_form(np.array(-1.0), np.array(-2.0), 1.0)
        assert float(v) == pytest.approx(1.5, abs=1e-15)
        assert float(u) == pytest.approx(1.5, abs=1e-15)

    def test_case3_origin(self):
        # xi2 < 0 but L*xi1 + xi2 > 0 pins both at zero
        v, u = vu_closed_form(np.array(2.0), np.array(-1.0), 1.0)
        assert (float(v), float(u)) == (0.0, 0.0)

    @given(st.floats(-5, 5), st.floats(-5, 5),
           st.floats(0.1, 10))
    @settings(max_examples=300, deadline=None)
    def test_matches_two_var_kkt(self, xi1, xi2, L):
        v, u = vu_closed_form(np.array(xi1), np.array(xi2), L)
        bv, bu = two_var_kkt_oracle(xi1, xi2, L)
        assert float(v) == pytest.approx(bv, abs=1e-10)
        assert float(u) == pytest.approx(bu, abs=1e-10)

    def test_all_cases_exercised_and_feasible(self):
        rng = np.random.default_rng(0)
        xi1 = rng.uniform(-3, 3, 5000)
        xi2 = rng.uniform(-3, 3, 5000)
        v, u = vu_closed_form(xi1, xi2, 2.0)
        assert np.all(v >= -1e-15)
        assert np.all(v - u >= -1e-15)
        case1 = (xi2 >= xi1) & (xi1 <= 0)
        case2 = (xi2 >= 0) & (xi1 > 0)
        case4 = (xi2 < 0) & (2.0 * xi1 + xi2 <= 0)
        case3 = ~(case1 | case2 | case4)
        for mask in (case1, case2, case3, case4):
            assert mask.sum() > 100


class TestWbUpdate:
    def test_fixed_point_zero_anchor(self, tiny_problem):
        data, params = tiny_problem
        anchor = Variables.zeros(data)
        spec = SubproblemSpec(anchor=anchor,
                              grads=canceling_grads(anchor, params, data),
                              L=2.0, mu=1e-3, params=params, data=data)
        cache = FactorizationCache.build(spec)
        state = AdmmState.from_anchor(spec)
        state = update_wb(state, spec, cache)
        # g_W = 0 at W = 0, U = S(anchor) = 0, rho = 0: solves to anchor
        assert np.allclose(state.W, 0.0, atol=1e-12)
        assert np.allclose(state.b1, 0.0, atol=1e-12)
        assert np.allclose(state.b2, 0.0, atol=1e-12)

    def test_matches_dense_solve(self, tiny_problem):
        data, params = tiny_problem
        spec = make_spec(data.n_samples, data.n_visible, data.n_hidden,
                         seed=21, L=1.7)
        cache = FactorizationCache.build(spec)
        state = AdmmState.from_anchor(spec)
        rng = np.random.default_rng(4)
        state.U = rng.standard_normal(state.U.shape)
        state.rho = rng.standard_normal(state.rho.shape)
        got = update_wb(state, spec, cache)
        # dense normal-equations oracle
        n0, n1 = spec.data.n_visible, spec.data.n_hidden
        Xhat = np.vstack([spec.data.X, np.ones(spec.data.n_samples)])
        M = spec.L * np.eye(n0 + 1) + Xhat @ Xhat.T
        M[:n0, :n0] += 2.0 * spec.params.lambda2 * np.eye(n0)
        rhs = np.hstack([-spec.grads.g_W + spec.L * spec.anchor.W,
                         (-spec.grads.g_b1 + spec.L * spec.anchor.b1)[:, None]])
        rhs = rhs + (state.rho + state.U) @ Xhat.T
        Whb = rhs @ np.linalg.inv(M)
        assert np.allclose(got.W, Whb[:, :n0], atol=1e-10)
        b1 = np.clip(Whb[:, n0], -spec.params.alpha, spec.params.alpha)
        assert np.allclose(got.b1, b1, atol=1e-10)
        b2 = np.clip(spec.anchor.b2 - spec.grads.g_b2 / spec.L,
                     -spec.params.alpha, spec.params.alpha)
        assert np.allclose(got.b2, b2, atol=1e-12)

    def test_cached_constant_matches_dense_across_sweeps(self, tiny_problem):
        data, params = tiny_problem
        spec = make_spec(data.n_samples, data.n_visible, data.n_hidden,
                         seed=22, L=0.9)
        n0 = spec.data.n_visible
        Xhat = np.vstack([spec.data.X, np.ones(spec.data.n_samples)])
        M = spec.L * np.eye(n0 + 1) + Xhat @ Xhat.T
        M[:n0, :n0] += 2.0 * spec.params.lambda2 * np.eye(n0)
        Minv = np.linalg.inv(M)
        const = np.hstack([-spec.grads.g_W + spec.L * spec.anchor.W,
                           (-spec.grads.g_b1 + spec.L * spec.anchor.b1)[:, None]])
        cache = FactorizationCache.build(spec)
        state = AdmmState.from_anchor(spec)
        rng = np.random.default_rng(5)
        for _ in range(2):
            # fresh (U, rho) between calls: a stale or misplaced C shows here
            state.U = rng.standard_normal(state.U.shape)
            state.rho = rng.standard_normal(state.rho.shape)
            state = update_wb(state, spec, cache)
            assert np.allclose(cache.C, const @ Minv, atol=1e-10)
            Whb = (const + (state.rho + state.U) @ Xhat.T) @ Minv
            assert np.allclose(state.W, Whb[:, :n0], atol=1e-10)
            b1 = np.clip(Whb[:, n0], -spec.params.alpha, spec.params.alpha)
            assert np.allclose(state.b1, b1, atol=1e-10)

    def test_b2_clamp_exact(self):
        data, params = random_problem(4, 2, 2, seed=30)
        anchor = Variables.zeros(data)
        grads = GradientBlocks(g_W=np.zeros((2, 2)), g_b1=np.zeros(2),
                               g_b2=np.array([10.0 * params.alpha,
                                              -10.0 * params.alpha]),
                               g_V=np.zeros((2, 4)))
        spec = SubproblemSpec(anchor=anchor, grads=grads, L=1.0, mu=1e-3,
                              params=params, data=data)
        cache = FactorizationCache.build(spec)
        state = update_wb(AdmmState.from_anchor(spec), spec, cache)
        assert state.b2[0] == -params.alpha
        assert state.b2[1] == params.alpha


class TestMultipliers:
    def test_no_shift_when_tight(self, tiny_problem):
        data, params = tiny_problem
        spec = make_spec(6, 3, 2, seed=31)
        state = AdmmState.from_anchor(spec)
        state.U = state.S.copy()
        rho_before = state.rho.copy()
        state = update_multipliers(state)
        assert np.array_equal(state.rho, rho_before)

    def test_constant_offset(self):
        spec = make_spec(5, 2, 3, seed=32)
        state = AdmmState.from_anchor(spec)
        state.U = state.S + 0.25
        state = update_multipliers(state)
        assert np.allclose(state.rho, 0.25)


class TestSolveSubproblem:
    def test_kkt_tracks_stopping_tolerance_when_tight(self):
        """At tight stopping tolerances the returned point sits within
        ~sqrt(tol) of the minimizer and its KKT residual scales accordingly
        (the stop rule thresholds *squared* per-sweep deltas).

        This only holds once the solve is tight enough for the KKT
        certificate to resolve the active set: at loose tolerances (1e-6,
        1e-10) the iterate can still be ~1e-4 from the optimum, constraints
        that are active at the solution carry visible slack, the multiplier
        fit cannot explain the gradient, and the reported residual jumps to
        O(1) (measured up to ~2.0 on these same instances). So the ceiling
        is asserted only where the certificate is meaningful."""
        from spgae.qp_reference import kkt_residual

        for tol in (1e-12, 1e-14):
            for seed in (60, 61, 62):
                spec = make_spec(6, 2, 3, seed=seed, L=1.5)
                res = solve_subproblem(spec, tol=tol, max_iter=200000)
                assert res.converged
                kkt = kkt_residual(spec, res.z)["max"]
                assert kkt <= 10.0 * np.sqrt(tol), (tol, seed, kkt)

    def test_fixed_point_interior_anchor(self):
        data, params = random_problem(5, 2, 3, seed=33)
        rng = np.random.default_rng(34)
        W = rng.standard_normal((3, 2)) * 0.3
        b1 = rng.uniform(-0.5, 0.5, 3)
        b2 = rng.uniform(-0.5, 0.5, 2)
        V = np.maximum(W @ data.X + b1[:, None], 0.0) + 1.0
        anchor = Variables(W=W, b1=b1, b2=b2, V=V)
        spec = SubproblemSpec(anchor=anchor,
                              grads=canceling_grads(anchor, params, data),
                              L=2.0, mu=1e-3, params=params, data=data)
        res = solve_subproblem(spec, tol=1e-14)
        assert np.allclose(res.z.W, anchor.W, atol=1e-5)
        assert np.allclose(res.z.b, anchor.b, atol=1e-5)
        assert np.allclose(res.z.V, anchor.V, atol=1e-5)
        assert subproblem_objective(spec, res.z) <= \
            subproblem_objective(spec, anchor) + 1e-12

    def test_hand_instance_interior(self):
        """1x1x1 instance solved by hand.

        X=[[1]], lambda1=0.5, lambda2=0.25, L=2, alpha=1, anchor
        (W,b1,b2,V) = (0.5, 0.25, -0.5, 1.0), grads (1.0, -0.5, 1.0, -2.0).
        Stationarity per coordinate gives (0, 0.5, -1, 1.75) with every
        inequality slack (b2 lands exactly on the box edge).
        """
        X = np.array([[1.0]])
        data = ProblemData.from_matrix(X, 1)
        params = ModelParams.from_data(data, lambda1=0.5, lambda2=0.25,
                                       beta=1.0, theta=2.0, alpha=1.0)
        anchor = Variables(W=np.array([[0.5]]), b1=np.array([0.25]),
                           b2=np.array([-0.5]), V=np.array([[1.0]]))
        grads = GradientBlocks(g_W=np.array([[1.0]]), g_b1=np.array([-0.5]),
                               g_b2=np.array([1.0]), g_V=np.array([[-2.0]]))
        spec = SubproblemSpec(anchor=anchor, grads=grads, L=2.0, mu=1e-3,
                              params=params, data=data)
        res = solve_subproblem(spec, tol=1e-16, max_iter=50000)
        assert res.z.W[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert res.z.b1[0] == pytest.approx(0.5, abs=1e-6)
        assert res.z.b2[0] == pytest.approx(-1.0, abs=1e-6)
        assert res.z.V[0, 0] == pytest.approx(1.75, abs=1e-6)

    def test_hand_instance_active(self):
        """Same instance with g_V=+3.0: both v>=0 and v>=W+b1 bind.

        KKT enumeration gives (W,b1,b2,V) = (-2/9, 2/9, -1, 0) with
        multipliers 5/9 and 17/18 for the two active rows.
        """
        X = np.array([[1.0]])
        data = ProblemData.from_matrix(X, 1)
        params = ModelParams.from_data(data, lambda1=0.5, lambda2=0.25,
                                       beta=1.0, theta=2.0, alpha=1.0)
        anchor = Variables(W=np.array([[0.5]]), b1=np.array([0.25]),
                           b2=np.array([-0.5]), V=np.array([[1.0]]))
        grads = GradientBlocks(g_W=np.array([[1.0]]), g_b1=np.array([-0.5]),
                               g_b2=np.array([1.0]), g_V=np.array([[3.0]]))
        spec = SubproblemSpec(anchor=anchor, grads=grads, L=2.0, mu=1e-3,
                              params=params, data=data)
        res = solve_subproblem(spec, tol=1e-16, max_iter=50000)
        assert res.z.W[0, 0] == pytest.approx(-2.0 / 9.0, abs=1e-5)
        assert res.z.b1[0] == pytest.approx(2.0 / 9.0, abs=1e-5)
        assert res.z.b2[0] == pytest.approx(-1.0, abs=1e-6)
        assert res.z.V[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_returned_point_exactly_feasible(self):
        for seed in range(5):
            spec = make_spec(6, 3, 2, seed=40 + seed, L=1.3)
            res = solve_subproblem(spec)
            rep = feasibility(res.z, spec.data, spec.params, tol=0.0)
            assert rep.omega2_violation == 0.0
            assert rep.omega3_violation == 0.0

    def test_nan_gradient_raises(self):
        spec = make_spec(4, 2, 2, seed=50)
        bad = GradientBlocks(g_W=np.full((2, 2), np.nan),
                             g_b1=np.zeros(2), g_b2=np.zeros(2),
                             g_V=np.zeros((2, 4)))
        spec2 = SubproblemSpec(anchor=spec.anchor, grads=bad, L=1.0,
                               mu=1e-3, params=spec.params, data=spec.data)
        with pytest.raises(NumericError):
            solve_subproblem(spec2)

    def test_objective_never_above_anchor_value(self):
        # minimizer value <= model value at the anchor (feasible point)
        for seed in range(3):
            spec = make_spec(7, 2, 3, seed=60 + seed)
            res = solve_subproblem(spec, tol=1e-10)
            assert subproblem_objective(spec, res.z) <= \
                subproblem_objective(spec, spec.anchor) + 1e-9

    def test_converged_flag_and_iter_cap(self):
        spec = make_spec(6, 2, 2, seed=70)
        res = solve_subproblem(spec, tol=1e-30, max_iter=5)
        assert not res.converged
        assert res.iters == 5
        res2 = solve_subproblem(spec, tol=1e-6)
        assert res2.converged
