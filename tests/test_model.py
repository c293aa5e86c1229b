"""Objective terms, feasible set, box constants, and packing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spgae.model import (ModelParams, ProblemData, Variables, compute_alpha,
                         feasibility, fidelity, objective, penalty,
                         preactivations, regularizer, relu)

from conftest import (dense_constraint_rows, loop_objective, random_feasible,
                      random_problem)
from helpers import constraint_count, constraint_residuals, project_bias_box


class TestAlpha:
    def test_identity_instance_frozen(self):
        # 2x2 identity data, one hidden unit, lambda1 = lambda2 = 1, theta = 2:
        # branch1 = 2 + sqrt(1*2*2/1)*1 = 4, branch2 = 2*2 + sqrt(2*2) + 1 = 7
        data = ProblemData.from_matrix(np.eye(2), 1)
        assert data.fro_sq == pytest.approx(2.0)
        assert data.one_norm == pytest.approx(1.0)
        alpha = compute_alpha(data, lambda1=1.0, lambda2=1.0, theta=2.0)
        assert alpha == pytest.approx(7.0, abs=1e-12)

    def test_branches_explicitly(self):
        data = ProblemData.from_matrix(np.eye(2), 1)
        theta, l1, l2 = 2.0, 1.0, 1.0
        branch1 = theta / l1 + math.sqrt(1 * 2 * theta / l2) * data.one_norm
        branch2 = (theta / l1) * math.sqrt(1 * 2 * theta / l2) \
            + math.sqrt(2 * theta) + data.one_norm
        assert branch1 == pytest.approx(4.0)
        assert branch2 == pytest.approx(7.0)

    def test_theta_too_small_rejected(self):
        data = ProblemData.from_matrix(np.eye(2), 1)
        with pytest.raises(ValueError):
            compute_alpha(data, 1.0, 1.0, theta=data.fro_sq / data.n_samples)

    def test_default_theta_pipeline(self):
        data, params = random_problem(50, 5, 8, seed=3)
        assert params.theta == pytest.approx(1.1 * data.fro_sq / data.n_samples)
        assert np.isfinite(params.alpha) and params.alpha > 0

    def test_zero_lambda_needs_explicit_alpha(self):
        data, _ = random_problem(10, 3, 2, seed=0)
        with pytest.raises(ValueError):
            ModelParams.from_data(data, lambda1=0.0)
        p = ModelParams.from_data(data, lambda1=0.0, alpha=5.0)
        assert p.alpha == 5.0

    @pytest.mark.parametrize("name", ["lambda1", "lambda2", "beta", "theta", "alpha"])
    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_params_reject_negative_and_nan(self, name, value):
        good = dict(lambda1=1e-4, lambda2=0.1, beta=0.1, theta=1.0, alpha=2.0)
        with pytest.raises(ValueError):
            ModelParams(**{**good, name: value})


class TestProblemData:
    def test_rejects_negative_entries(self):
        X = np.ones((2, 3))
        X[0, 1] = -0.5
        with pytest.raises(ValueError):
            ProblemData.from_matrix(X, 2)

    def test_one_norm_is_max_abs_column_sum(self):
        X = np.array([[1.0, 0.0, 2.0], [3.0, 1.0, 0.5]])
        data = ProblemData.from_matrix(X, 2)
        assert data.one_norm == pytest.approx(4.0)

    def test_empty_test_matrix_is_none(self):
        data = ProblemData.from_matrix(np.ones((2, 3)), 2, test_X=np.empty((2, 0)))
        assert data.test_X is None
        assert ProblemData.from_matrix(np.ones((2, 3)), 2).test_X is None

    def test_float64_test_matrix_is_held_not_copied(self):
        test_X = np.ascontiguousarray(np.arange(8.0).reshape(2, 4))
        data = ProblemData.from_matrix(np.ones((2, 3)), 2, test_X=test_X)
        assert np.shares_memory(data.test_X, test_X)
        # another dtype is converted once, into a float64 matrix of its own
        ints = ProblemData.from_matrix(np.ones((2, 3)), 2, test_X=test_X.astype(int))
        assert ints.test_X.dtype == np.float64
        assert np.array_equal(ints.test_X, test_X)

    @pytest.mark.parametrize("test_X", [np.ones((3, 4)), np.ones(4),
                                        np.array([[1.0, np.nan], [0.0, 1.0]])])
    def test_test_matrix_needs_the_training_rows_and_finite_entries(self, test_X):
        with pytest.raises(ValueError, match="finite and 2-d with the training matrix's 2"):
            ProblemData.from_matrix(np.ones((2, 3)), 2, test_X=test_X)

    def test_constraint_count_formula(self):
        # nu = 2*(N*N1 + N0 + N1)
        data, _ = random_problem(100, 5, 10, seed=1)
        assert constraint_count(data) == 2030


class TestObjective:
    def test_objective_at_zero_is_data_energy(self):
        data, params = random_problem(12, 4, 3, seed=5)
        z = Variables.zeros(data)
        assert objective(z, data, params) == pytest.approx(
            data.fro_sq / data.n_samples, rel=1e-14)
        assert fidelity(z, data) == pytest.approx(
            data.fro_sq / data.n_samples, rel=1e-14)
        assert regularizer(z, params) == 0.0
        assert penalty(z, data, params) == 0.0

    def test_perfect_reconstruction_zero_fidelity(self):
        # V = X embedded, W = [I; 0], b = 0 reconstructs X exactly
        rng = np.random.default_rng(2)
        X = rng.random((3, 7)) + 0.05
        data = ProblemData.from_matrix(X, 5)
        W = np.zeros((5, 3))
        W[:3, :3] = np.eye(3)
        V = np.zeros((5, 7))
        V[:3] = X
        z = Variables(W=W, b1=np.zeros(5), b2=np.zeros(3), V=V)
        assert fidelity(z, data) == pytest.approx(0.0, abs=1e-15)

    def test_matches_loop_oracle(self):
        data, params = random_problem(6, 3, 4, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(5):
            z = random_feasible(data, params, rng)
            want, fid, reg, pen = loop_objective(z, data, params)
            assert fidelity(z, data) == pytest.approx(fid, rel=1e-12, abs=1e-13)
            assert regularizer(z, params) == pytest.approx(reg, rel=1e-12)
            assert penalty(z, data, params) == pytest.approx(pen, rel=1e-12,
                                                             abs=1e-13)
            assert objective(z, data, params) == pytest.approx(want, rel=1e-12)

    def test_regularizer_closed_form(self):
        data, params = random_problem(9, 2, 3, seed=9)
        z = Variables.zeros(data)
        z.V[:] = 1.0
        # W = 0, V = ones: R = lambda1 * N1 * N
        assert regularizer(z, params) == pytest.approx(
            params.lambda1 * data.n_hidden * data.n_samples, rel=1e-14)

    def test_penalty_closed_form_offset(self):
        data, params = random_problem(5, 2, 3, seed=10)
        rng = np.random.default_rng(11)
        W = rng.standard_normal((3, 2))
        b1 = rng.standard_normal(3) * 0.1
        S = W @ data.X + b1[:, None]
        V = np.maximum(S, 0.0) + 1.0
        z = Variables(W=W, b1=b1, b2=np.zeros(2), V=V)
        # each of the N1*N entries exceeds the hinge by exactly 1
        assert penalty(z, data, params) == pytest.approx(
            params.beta * data.n_hidden * data.n_samples, rel=1e-12)

    def test_penalty_zero_iff_tight(self):
        data, params = random_problem(5, 2, 3, seed=12)
        rng = np.random.default_rng(13)
        W = rng.standard_normal((3, 2))
        b1 = rng.standard_normal(3) * 0.1
        V = np.maximum(W @ data.X + b1[:, None], 0.0)
        z = Variables(W=W, b1=b1, b2=np.zeros(2), V=V)
        assert penalty(z, data, params) == 0.0


class TestFeasibility:
    def test_zero_point_feasible(self):
        data, params = random_problem(8, 3, 2, seed=14)
        rep = feasibility(Variables.zeros(data), data, params)
        assert rep.in_Z
        assert rep.omega2_violation == 0.0
        assert rep.omega3_violation == 0.0

    def test_violations_reported(self):
        data, params = random_problem(8, 3, 2, seed=15)
        z = Variables.zeros(data)
        z.V[:] = -1.0
        rep = feasibility(z, data, params)
        assert not rep.in_Z
        assert rep.omega2_violation >= 1.0
        z2 = Variables.zeros(data)
        z2.b1[:] = params.alpha + 3.0
        rep2 = feasibility(z2, data, params)
        assert not rep2.in_Z
        assert rep2.omega3_violation == pytest.approx(3.0)

    def test_residuals_at_zero(self):
        data, params = random_problem(4, 2, 3, seed=16)
        res = constraint_residuals(Variables.zeros(data), data, params)
        n, n1, n0 = data.n_samples, data.n_hidden, data.n_visible
        assert res.shape == (constraint_count(data),)
        assert np.all(res[:n * n1] == 0.0)
        assert np.all(res[n * n1:2 * n * n1] == 0.0)
        assert np.allclose(res[2 * n * n1:], -params.alpha)

    def test_residuals_match_dense_oracle(self):
        data, params = random_problem(4, 2, 2, seed=17)
        rng = np.random.default_rng(18)
        for _ in range(5):
            z = random_feasible(data, params, rng)
            z.b1 += rng.standard_normal(2) * 0.01
            z.V -= rng.uniform(0, 0.5, z.V.shape)
            got = constraint_residuals(z, data, params)
            want = dense_constraint_rows(z, data, params)
            assert np.allclose(got, want, atol=1e-12)

    def test_feasible_sampler_in_Z(self):
        data, params = random_problem(7, 3, 4, seed=19)
        rng = np.random.default_rng(20)
        for _ in range(20):
            z = random_feasible(data, params, rng)
            assert feasibility(z, data, params).in_Z
            assert np.all(constraint_residuals(z, data, params) <= 1e-12)


class TestProjection:
    def test_identity_when_inside(self):
        data, params = random_problem(6, 2, 3, seed=21)
        rng = np.random.default_rng(22)
        z = random_feasible(data, params, rng, scale=0.5)
        zp = project_bias_box(z, params.alpha)
        assert np.array_equal(zp.b1, z.b1)
        assert np.array_equal(zp.b2, z.b2)

    def test_clamps_to_box(self):
        data, params = random_problem(6, 2, 3, seed=23)
        z = Variables.zeros(data)
        z.b1[:] = params.alpha + 10.0
        z.b2[:] = -params.alpha - 4.0
        zp = project_bias_box(z, params.alpha)
        assert np.all(zp.b1 == params.alpha)
        assert np.all(zp.b2 == -params.alpha)

    def test_projection_preserves_objective_on_level_set(self):
        """Negative biases below -alpha clamp without changing O.

        For points with O(z) <= theta and V >= (Wx+b1)+, a b-entry below
        -alpha has (s)+ unchanged by raising it to -alpha when the
        preactivations stay negative, and the decoder term only sees b2
        through (.)+ as well. The guarantee needs O(z) <= theta so alpha's
        derivation applies; we construct such points directly.
        """
        rng = np.random.default_rng(24)
        X = rng.random((3, 10)) * 0.5
        data = ProblemData.from_matrix(X, 2)
        params = ModelParams.from_data(data)
        hits = 0
        for _ in range(200):
            W = rng.standard_normal((2, 3)) * 0.01
            b1 = np.where(rng.random(2) < 0.5,
                          -params.alpha - rng.uniform(0.1, 5.0, 2),
                          rng.uniform(-0.01, 0.01, 2))
            b2 = np.where(rng.random(3) < 0.5,
                          -params.alpha - rng.uniform(0.1, 5.0, 3),
                          rng.uniform(-0.01, 0.01, 3))
            S = W @ X + b1[:, None]
            V = np.maximum(S, 0.0) + rng.uniform(0, 1e-3, (2, 10))
            z = Variables(W=W, b1=b1, b2=b2, V=V)
            if objective(z, data, params) > params.theta:
                continue
            hits += 1
            zp = project_bias_box(z, params.alpha)
            assert feasibility(zp, data, params).in_Z
            assert objective(zp, data, params) == pytest.approx(
                objective(z, data, params), rel=1e-12)
        assert hits >= 50

    def test_level_set_bounds(self):
        """lambda2*||W||^2 <= theta, lambda1*sum(V) <= theta, ||b+||inf <= alpha
        for feasible points with O(z) <= theta, by rejection sampling."""
        data, params = random_problem(10, 3, 4, seed=25)
        rng = np.random.default_rng(26)
        kept = 0
        for _ in range(500):
            z = random_feasible(data, params, rng,
                                scale=float(rng.uniform(0.05, 1.0)))
            if objective(z, data, params) > params.theta:
                continue
            kept += 1
            assert params.lambda2 * np.sum(z.W ** 2) <= params.theta + 1e-12
            assert params.lambda1 * np.sum(z.V) <= params.theta + 1e-12
            assert np.max(np.maximum(z.b, 0.0), initial=0.0) \
                <= params.alpha + 1e-12
        assert kept >= 20


class TestPacking:
    def test_pack_order_column_major(self):
        data, _ = random_problem(2, 2, 2, seed=27)
        z = Variables.zeros(data)
        z.W[:] = [[1.0, 3.0], [2.0, 4.0]]
        z.b1[:] = [5.0, 6.0]
        z.b2[:] = [7.0, 8.0]
        z.V[:] = [[9.0, 11.0], [10.0, 12.0]]
        assert np.array_equal(z.pack(), np.arange(1.0, 13.0))

    @given(n=st.integers(1, 5), n0=st.integers(1, 4), n1=st.integers(1, 4),
           seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_pack_unpack_roundtrip(self, n, n0, n1, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((n0, n)) + 0.01
        data = ProblemData.from_matrix(X, n1)
        z = Variables(W=rng.standard_normal((n1, n0)),
                      b1=rng.standard_normal(n1),
                      b2=rng.standard_normal(n0),
                      V=rng.standard_normal((n1, n)))
        vec = z.pack()
        assert vec.size == data.n_packed
        z2 = Variables.unpack(vec, data)
        for a, b in [(z.W, z2.W), (z.b1, z2.b1), (z.b2, z2.b2), (z.V, z2.V)]:
            assert np.array_equal(a, b)

    def test_preactivations_shapes(self):
        data, params = random_problem(5, 3, 2, seed=28)
        rng = np.random.default_rng(29)
        z = random_feasible(data, params, rng)
        Y, S = preactivations(z, data)
        assert Y.shape == (3, 5)
        assert S.shape == (2, 5)
        assert np.allclose(Y, z.W.T @ z.V + z.b2[:, None])
        assert np.allclose(S, z.W @ data.X + z.b1[:, None])


def test_relu_basics():
    assert relu(np.array([-1.0, 0.0, 2.5])).tolist() == [0.0, 0.0, 2.5]
