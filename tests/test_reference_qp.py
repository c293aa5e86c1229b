"""Reference QP solver: certificates, hand instances, and its own limits."""

import numpy as np
import pytest

from spgae.model import (ModelParams, ProblemData, Variables,
                         constraint_count, feasibility)
from spgae.qp_reference import (MAX_REFERENCE_DIM, dense_constraints,
                                kkt_residual, quadratic_terms, reference_solve)
from spgae.smoothing import GradientBlocks
from spgae.subproblem import SubproblemSpec, solve_subproblem, subproblem_objective

from conftest import random_problem
from test_subproblem import canceling_grads, make_spec


class TestDenseConstraints:
    def test_row_count_and_signs(self, tiny_problem):
        data, params = tiny_problem
        A, c = dense_constraints(data, params)
        assert A.shape == (constraint_count(data), data.n_packed)
        nv = data.n_hidden * data.n_samples
        nb = data.n_hidden + data.n_visible
        assert np.all(c[:2 * nv] == 0.0)
        assert np.all(c[2 * nv:] == params.alpha)
        assert c.size == 2 * nv + 2 * nb

    def test_slack_matches_structured_evaluation(self, tiny_problem, test_rng):
        data, params = tiny_problem
        A, c = dense_constraints(data, params)
        for _ in range(5):
            zv = test_rng.standard_normal(data.n_packed)
            z = Variables.unpack(zv, data)
            slack = A @ zv - c
            S = z.W @ data.X + z.b1[:, None]
            expect_couple = (S - z.V).flatten(order="F")
            nv = data.n_hidden * data.n_samples
            assert np.allclose(slack[:nv], expect_couple, atol=1e-12)
            assert np.allclose(slack[nv:2 * nv], -z.V.flatten(order="F"),
                               atol=1e-12)
            assert np.allclose(slack[2 * nv:2 * nv + z.b.size],
                               z.b - params.alpha, atol=1e-12)
            assert np.allclose(slack[2 * nv + z.b.size:],
                               -z.b - params.alpha, atol=1e-12)

    def test_dim_guard(self):
        data, params = random_problem(60, 5, 8, seed=7)
        assert data.n_packed > MAX_REFERENCE_DIM
        with pytest.raises(ValueError):
            dense_constraints(data, params)
        zero_grads = GradientBlocks(
            g_W=np.zeros((data.n_hidden, data.n_visible)),
            g_b1=np.zeros(data.n_hidden), g_b2=np.zeros(data.n_visible),
            g_V=np.zeros((data.n_hidden, data.n_samples)))
        spec = SubproblemSpec(anchor=Variables.zeros(data), grads=zero_grads,
                              L=1.0, params=params, data=data)
        with pytest.raises(ValueError):
            reference_solve(spec)


class TestQuadraticTerms:
    def test_matches_subproblem_objective(self, test_rng):
        spec = make_spec(5, 2, 3, seed=80)
        h, q = quadratic_terms(spec)
        # constant offset fixed by evaluating both at zero
        z0 = Variables.zeros(spec.data)
        c0 = subproblem_objective(spec, z0)
        for _ in range(5):
            zv = test_rng.standard_normal(spec.data.n_packed)
            z = Variables.unpack(zv, spec.data)
            quad = 0.5 * float(zv @ (h * zv)) + float(q @ zv) + c0
            assert subproblem_objective(spec, z) == pytest.approx(quad,
                                                                  rel=1e-10)


class TestReferenceSolve:
    def test_fixed_point_interior(self):
        data, params = random_problem(4, 2, 2, seed=90)
        rng = np.random.default_rng(91)
        W = rng.standard_normal((2, 2)) * 0.2
        anchor = Variables(W=W, b1=rng.uniform(-0.3, 0.3, 2),
                           b2=rng.uniform(-0.3, 0.3, 2),
                           V=np.maximum(W @ data.X + 0.1, 0.0) + 0.8)
        spec = SubproblemSpec(anchor=anchor,
                              grads=canceling_grads(anchor, params, data),
                              L=1.5, params=params, data=data)
        z = reference_solve(spec)
        assert np.allclose(z.pack(), anchor.pack(), atol=1e-6)

    def test_hand_instance_interior(self):
        X = np.array([[1.0]])
        data = ProblemData.from_matrix(X, 1)
        params = ModelParams.from_data(data, lambda1=0.5, lambda2=0.25,
                                       beta=1.0, theta=2.0, alpha=1.0)
        anchor = Variables(W=np.array([[0.5]]), b1=np.array([0.25]),
                           b2=np.array([-0.5]), V=np.array([[1.0]]))
        grads = GradientBlocks(g_W=np.array([[1.0]]), g_b1=np.array([-0.5]),
                               g_b2=np.array([1.0]), g_V=np.array([[-2.0]]))
        spec = SubproblemSpec(anchor=anchor, grads=grads, L=2.0,
                              params=params, data=data)
        z = reference_solve(spec)
        assert z.W[0, 0] == pytest.approx(0.0, abs=1e-7)
        assert z.b1[0] == pytest.approx(0.5, abs=1e-7)
        assert z.b2[0] == pytest.approx(-1.0, abs=1e-7)
        assert z.V[0, 0] == pytest.approx(1.75, abs=1e-7)

    def test_hand_instance_active(self):
        X = np.array([[1.0]])
        data = ProblemData.from_matrix(X, 1)
        params = ModelParams.from_data(data, lambda1=0.5, lambda2=0.25,
                                       beta=1.0, theta=2.0, alpha=1.0)
        anchor = Variables(W=np.array([[0.5]]), b1=np.array([0.25]),
                           b2=np.array([-0.5]), V=np.array([[1.0]]))
        grads = GradientBlocks(g_W=np.array([[1.0]]), g_b1=np.array([-0.5]),
                               g_b2=np.array([1.0]), g_V=np.array([[3.0]]))
        spec = SubproblemSpec(anchor=anchor, grads=grads, L=2.0,
                              params=params, data=data)
        z = reference_solve(spec)
        assert z.W[0, 0] == pytest.approx(-2.0 / 9.0, abs=1e-7)
        assert z.b1[0] == pytest.approx(2.0 / 9.0, abs=1e-7)
        assert z.b2[0] == pytest.approx(-1.0, abs=1e-7)
        assert z.V[0, 0] == pytest.approx(0.0, abs=1e-7)

    def test_kkt_certificate_random(self):
        for seed in range(4):
            spec = make_spec(5, 2, 2, seed=100 + seed, L=1.2)
            z = reference_solve(spec)
            res = kkt_residual(spec, z)
            assert res["max"] <= 1e-6
            rep = feasibility(z, spec.data, spec.params, tol=1e-9)
            assert rep.in_Z

    def test_agrees_with_splitting_solver(self):
        for seed in range(4):
            spec = make_spec(6, 3, 2, seed=110 + seed)
            z_ref = reference_solve(spec)
            res = solve_subproblem(spec, tol=1e-12)
            gap = abs(subproblem_objective(spec, res.z)
                      - subproblem_objective(spec, z_ref))
            assert gap <= 1e-7


    def test_agrees_with_splitting_solver_sample_space(self):
        # N <= N0: the (W, b) step runs in sample space; same bounds as
        # the acceptance gate on the reference QP
        for n, n0, n1, seed in ((3, 8, 2, 140), (2, 10, 3, 141), (4, 4, 3, 142),
                                (5, 20, 4, 143)):
            spec = make_spec(n, n0, n1, seed=seed, L=1.1)
            assert spec.data.n_packed <= MAX_REFERENCE_DIM
            res = solve_subproblem(spec, tol=1e-14, max_iter=200000)
            gap = abs(subproblem_objective(spec, res.z)
                      - subproblem_objective(spec, reference_solve(spec)))
            assert gap <= 1e-6
            assert kkt_residual(spec, res.z)["max"] <= 1e-5


class TestKktResidual:
    def test_zero_at_unconstrained_minimum(self):
        # gradients that cancel R at a strictly interior anchor make the
        # anchor the unconstrained minimum, so every residual vanishes
        data, params = random_problem(4, 2, 2, seed=120)
        rng = np.random.default_rng(121)
        W = rng.standard_normal((2, 2)) * 0.2
        anchor = Variables(W=W, b1=rng.uniform(-0.2, 0.2, 2),
                           b2=rng.uniform(-0.2, 0.2, 2),
                           V=np.maximum(W @ data.X + 0.2, 0.0) + 1.0)
        spec = SubproblemSpec(anchor=anchor,
                              grads=canceling_grads(anchor, params, data),
                              L=2.0, params=params, data=data)
        res = kkt_residual(spec, anchor)
        assert res["max"] <= 1e-10

    def test_flags_non_solution(self):
        spec = make_spec(5, 2, 2, seed=130)
        res = kkt_residual(spec, spec.anchor)
        # anchor with random gradients is nowhere near stationary
        assert res["max"] > 1e-3
