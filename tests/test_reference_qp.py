"""Reference QP solver: certificates, hand instances, and its own limits."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spgae.cli import bench_instance
from spgae.model import ModelParams, ProblemData, Variables, feasibility
from spgae.qp_reference import (MAX_REFERENCE_DIM, _polish, kkt_residual, nnls,
                                quadratic_terms, reference_solve, unit_blocks)
from spgae.subproblem import SubproblemSpec, solve_subproblem, subproblem_objective

from conftest import random_problem
from helpers import (constraint_count, dense_constraints, dense_kkt_stationarity,
                     dense_reference_solve)
from test_subproblem import canceling_grads, make_spec

# the qp-bench rows small enough for the reference, as (N, N1, N0)
BENCH_REFERENCE_ROWS = [(20, 5, 5), (40, 6, 4), (60, 6, 6)]


def small_alpha_spec(seed):
    """A subproblem whose bias box binds on some b1 and some b2 entries."""
    spec = make_spec(8, 3, 4, seed=seed, L=1.2)
    return dataclasses.replace(spec, params=dataclasses.replace(spec.params, alpha=0.2))


ORACLE_CASES = ([pytest.param(row, seed, id="{}-{}-{}-seed{}".format(*row, seed))
                 for row in BENCH_REFERENCE_ROWS for seed in range(4)]
                + [pytest.param(None, seed, id=f"small-alpha-{seed}")
                   for seed in (170, 171, 172)])


def oracle_spec(row, seed):
    """A bench reference row at ``seed``, or with row None a small-alpha instance."""
    return small_alpha_spec(seed) if row is None else bench_instance(*row, seed=seed)


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

    @pytest.mark.parametrize("n,n0,n1", [(5, 3, 2), (4, 2, 3), (1, 1, 1), (3, 4, 1)])
    def test_unit_blocks_permute_to_the_dense_system(self, n, n0, n1):
        # rows and columns in unit order turn A into N1 copies of the unit
        # block and one b2 box block down the diagonal
        spec = make_spec(n, n0, n1, seed=180)
        A, c = dense_constraints(spec.data, spec.params)
        h, q = quadratic_terms(spec)
        blocks = unit_blocks(spec)
        rows = np.concatenate([blk.rows.ravel() for blk in blocks])
        cols = np.concatenate([blk.cols.ravel() for blk in blocks])
        assert np.array_equal(np.sort(rows), np.arange(A.shape[0]))
        assert np.array_equal(np.sort(cols), np.arange(A.shape[1]))
        diag = np.zeros_like(A)
        r0 = c0 = 0
        for blk in blocks:
            for _ in range(blk.rows.shape[0]):
                m, k = blk.A.shape
                diag[r0:r0 + m, c0:c0 + k] = blk.A
                r0, c0 = r0 + m, c0 + k
        assert np.array_equal(A[np.ix_(rows, cols)], diag)
        for blk in blocks:
            assert np.array_equal(c[blk.rows], np.broadcast_to(blk.c, blk.rows.shape))
            assert np.array_equal(h[blk.cols], np.broadcast_to(blk.h, blk.cols.shape))
            assert np.array_equal(q[blk.cols], blk.Q)

    def test_dim_guard(self):
        data, params = random_problem(60, 5, 8, seed=7)
        assert data.n_packed > MAX_REFERENCE_DIM
        with pytest.raises(ValueError):
            dense_constraints(data, params)
        zero_grads = Variables(
            W=np.zeros((data.n_hidden, data.n_visible)),
            b1=np.zeros(data.n_hidden), b2=np.zeros(data.n_visible),
            V=np.zeros((data.n_hidden, data.n_samples)))
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
        grads = Variables(W=np.array([[1.0]]), b1=np.array([-0.5]),
                          b2=np.array([1.0]), V=np.array([[-2.0]]))
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
        grads = Variables(W=np.array([[1.0]]), b1=np.array([-0.5]),
                          b2=np.array([1.0]), V=np.array([[3.0]]))
        spec = SubproblemSpec(anchor=anchor, grads=grads, L=2.0,
                              params=params, data=data)
        z = reference_solve(spec)
        assert z.W[0, 0] == pytest.approx(-2.0 / 9.0, abs=1e-7)
        assert z.b1[0] == pytest.approx(2.0 / 9.0, abs=1e-7)
        assert z.b2[0] == pytest.approx(-1.0, abs=1e-7)
        assert z.V[0, 0] == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("row,seed", ORACLE_CASES)
    def test_matches_dense_reference(self, row, seed):
        # the same dual FISTA on the whole dense system reaches the same point
        spec = oracle_spec(row, seed)
        z = reference_solve(spec)
        assert np.abs(z.pack() - dense_reference_solve(spec).pack()).max() <= 1e-12
        if row is None:
            alpha = spec.params.alpha
            assert np.isclose(np.abs(z.b1), alpha, rtol=0, atol=1e-12).any()
            assert np.isclose(np.abs(z.b2), alpha, rtol=0, atol=1e-12).any()

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

    @pytest.mark.parametrize("row,seed", ORACLE_CASES)
    def test_matches_dense_certificate(self, row, seed):
        # per-unit NNLS against one NNLS over all active dense rows, at the
        # anchor, at qp-bench's splitting solve and at the reference optimum
        spec = oracle_spec(row, seed)
        for z in (spec.anchor, solve_subproblem(spec, tol=1e-6).z, reference_solve(spec)):
            stat = kkt_residual(spec, z)["stationarity"]
            assert stat == pytest.approx(dense_kkt_stationarity(spec, z),
                                         rel=1e-12, abs=1e-14)

    def test_flags_non_solution(self):
        spec = make_spec(5, 2, 2, seed=130)
        res = kkt_residual(spec, spec.anchor)
        # anchor with random gradients is nowhere near stationary
        assert res["max"] > 1e-3


def nnls_instance(seed, m, n, scale):
    """Random NNLS data; some draws repeat a column or make one a combination
    of two others, so that B is rank deficient."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((m, n)) * scale
    if n >= 2 and seed % 3 == 0:
        B[:, 1] = B[:, 0]
    if n >= 4 and seed % 5 == 0:
        B[:, 3] = B[:, 1] - 0.5 * B[:, 2]
    return B, rng.standard_normal(m) * scale


class TestNnls:
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_hand_case_interior(self):
        x, rnorm = nnls(self.A, np.array([2.0, 1.0, 1.0]))
        assert np.allclose(x, [1.5, 1.0], atol=1e-14)
        assert rnorm == pytest.approx(np.sqrt(0.5), rel=1e-14)

    def test_hand_case_all_clamped(self):
        x, rnorm = nnls(self.A, np.array([-1.0, -1.0, -1.0]))
        assert np.all(x == 0.0)
        assert rnorm == pytest.approx(np.sqrt(3.0), rel=1e-14)

    def test_iteration_cap_raises(self):
        # the unconstrained solution is no warm start here: three iterations
        B = np.array([[1.0, -1.0, -2.0], [-1.0, -2.0, 1.0], [0.0, 0.0, -1.0]])
        b = np.array([0.0, 2.0, -1.0])
        with pytest.raises(RuntimeError):
            nnls(B, b, maxiter=2)
        x, rnorm = nnls(B, b)
        assert np.allclose(x, [0.0, 0.0, 0.5], atol=1e-14)
        assert rnorm == pytest.approx(np.sqrt(3.5), rel=1e-14)

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), n=st.integers(1, 12),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=300, deadline=None)
    def test_kkt_conditions(self, seed, m, n, scale):
        B, b = nnls_instance(seed, m, n, scale)
        x, rnorm = nnls(B, b)
        assert np.all(x >= 0.0)
        w = B.T @ (b - B @ x)
        tol = 1e-10 * np.linalg.norm(B) * (np.linalg.norm(b)
                                           + np.linalg.norm(B) * np.linalg.norm(x))
        assert np.all(w[x == 0.0] <= tol)
        assert np.all(np.abs(w[x > 0.0]) <= tol)
        assert rnorm == pytest.approx(np.linalg.norm(B @ x - b), rel=1e-12, abs=1e-300)

    def test_rnorm_matches_scipy(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(150)
        for seed in range(300):
            m, n = (int(v) for v in rng.integers(1, 12, size=2))
            B, b = nnls_instance(seed, m, n, rng.choice([1e-3, 1.0, 1e3]))
            _, rnorm = nnls(B, b)
            _, expect = scipy_optimize.nnls(B, b)
            # the optimal residual is unique even where x is not; at a zero
            # residual both are rounding, so measure against ||b|| there
            assert abs(rnorm - expect) <= 1e-9 * max(expect, 1e-3 * np.linalg.norm(b))


class TestPolish:
    def test_duplicated_active_rows_polish_to_the_same_z(self):
        spec = make_spec(5, 3, 2, seed=160, L=1.2)
        A, c = dense_constraints(spec.data, spec.params)
        h, q = quadratic_terms(spec)
        zv = reference_solve(spec).pack()
        gamma = kkt_residual(spec, Variables.unpack(zv, spec.data))["gamma"]
        z = _polish(h, q, A, c, gamma, zv, 1e-7)
        assert z is not None
        active = np.flatnonzero((gamma > 1e-7) | (A @ zv - c > -1e-7))
        assert active.size > 1
        dup = np.concatenate([np.arange(A.shape[0]), active, active[:3]])
        z_dup = _polish(h, q, A[dup], c[dup], gamma[dup], zv, 1e-7)
        assert z_dup is not None
        assert np.allclose(z_dup, z, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n,n1,n0", BENCH_REFERENCE_ROWS)
    def test_reference_rows_certify(self, n, n1, n0):
        # the qp-bench rows checked against the reference
        spec = bench_instance(n, n1, n0)
        assert spec.data.n_packed <= MAX_REFERENCE_DIM
        assert kkt_residual(spec, reference_solve(spec))["max"] <= 1e-10
