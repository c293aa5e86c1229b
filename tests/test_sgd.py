"""Stochastic baselines: update recurrences, backprop, and the hybrid run."""

import math
import warnings

import numpy as np
import pytest

from spgae.model import (ModelParams, ProblemData, fidelity, penalty,
                         feasibility)
from spgae.sgd import (METHODS, NetParams, SgdConfig, _Optimizer,
                       autoencoder_error, default_batch_size, minibatch_grad,
                       net_to_feasible, sgd_run, spg_ada)
from spgae.spg import DivergenceError, SpgConfig

from conftest import random_problem


def one_scalar_step(method, p0, g, lr=None):
    """Drive the real optimizer one step on a 1-element tensor."""
    t = np.array([p0])
    opt = _Optimizer(method, lr, 1)
    opt.update(t, np.array([g]))
    return float(t[0])


class TestUpdateRecurrences:
    """Each method's first step on a scalar, against the published recurrence
    evaluated by hand with the pinned constants."""

    def test_vanilla(self):
        assert one_scalar_step("vanilla", 1.0, 2.0) == pytest.approx(
            1.0 - 1e-2 * 2.0, abs=1e-15)

    def test_adam(self):
        g = 2.0
        m_hat = (0.1 * g) / (1.0 - 0.9)
        v_hat = (0.001 * g * g) / (1.0 - 0.999)
        expect = 1.0 - 1e-3 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert one_scalar_step("adam", 1.0, g) == pytest.approx(expect,
                                                                abs=1e-15)

    def test_adamax(self):
        g = 2.0
        m = 0.1 * g
        u = max(0.0, abs(g))
        expect = 1.0 - (2e-3 / (1.0 - 0.9)) * m / (u + 1e-8)
        assert one_scalar_step("adamax", 1.0, g) == pytest.approx(expect,
                                                                  abs=1e-15)

    def test_adadelta(self):
        g, rho, eps = 2.0, 0.95, 1e-6
        eg2 = (1 - rho) * g * g
        dx = -math.sqrt((0.0 + eps) / (eg2 + eps)) * g
        assert one_scalar_step("adadelta", 1.0, g) == pytest.approx(1.0 + dx,
                                                                    abs=1e-15)

    def test_adadelta_second_step_uses_update_average(self):
        g, rho, eps = 2.0, 0.95, 1e-6
        t = np.array([1.0])
        opt = _Optimizer("adadelta", None, 1)
        opt.update(t, np.array([g]))
        eg2 = (1 - rho) * g * g
        dx1 = -math.sqrt(eps / (eg2 + eps)) * g
        ed2 = (1 - rho) * dx1 * dx1
        opt.update(t, np.array([g]))
        eg2b = rho * eg2 + (1 - rho) * g * g
        dx2 = -math.sqrt((ed2 + eps) / (eg2b + eps)) * g
        assert float(t[0]) == pytest.approx(1.0 + dx1 + dx2, abs=1e-15)

    def test_adagrad(self):
        g = 2.0
        expect = 1.0 - 1e-2 * g / (math.sqrt(g * g) + 1e-8)
        assert one_scalar_step("adagrad", 1.0, g) == pytest.approx(expect,
                                                                   abs=1e-15)

    def test_adagrad_decay_divides_by_sqrt_t(self):
        g = 2.0
        t = np.array([1.0])
        opt = _Optimizer("adagrad-decay", None, 1)
        opt.update(t, np.array([g]))
        opt.update(t, np.array([g]))
        acc1 = g * g
        step1 = (1e-2 / math.sqrt(1)) * g / (math.sqrt(acc1) + 1e-8)
        acc2 = acc1 + g * g
        step2 = (1e-2 / math.sqrt(2)) * g / (math.sqrt(acc2) + 1e-8)
        assert float(t[0]) == pytest.approx(1.0 - step1 - step2, abs=1e-15)

    def test_custom_lr_scales_vanilla(self):
        assert one_scalar_step("vanilla", 1.0, 2.0, lr=0.1) == pytest.approx(
            0.8, abs=1e-15)


class TestPackedParams:
    def test_blocks_are_views_into_theta(self, tiny_problem):
        data, _ = tiny_problem
        init = NetParams.default_init(data, seed=2)
        built = NetParams(W=np.ones((2, 3)), b1=np.zeros(2), b2=np.zeros(3))
        for p in (init, init.copy(), built):
            for block in (p.W, p.b1, p.b2):
                assert np.shares_memory(p.theta, block)
        assert built.theta.size == 2 * 3 + 2 + 3
        assert not np.shares_memory(init.theta, init.copy().theta)

    def test_theta_order_is_w_row_major_then_b1_then_b2(self):
        W = np.arange(6.0).reshape(2, 3)
        p = NetParams(W=W, b1=np.array([6.0, 7.0]), b2=np.array([8.0, 9.0, 10.0]))
        assert np.array_equal(p.theta, np.arange(11.0))
        assert np.array_equal(p.W, W)

    def test_gradient_is_packed_like_params(self, tiny_problem):
        data, _ = tiny_problem
        p = NetParams.default_init(data, seed=3)
        g = minibatch_grad(p, data, np.arange(data.n_samples), lambda2=0.1)
        assert g.theta.shape == p.theta.shape
        for block in (g.W, g.b1, g.b2):
            assert np.shares_memory(g.theta, block)

    @pytest.mark.parametrize("method", METHODS)
    def test_one_update_moves_every_block(self, method):
        p = NetParams(W=np.ones((2, 3)), b1=np.ones(2), b2=np.ones(3))
        g = NetParams(W=np.full((2, 3), 0.5), b1=np.full(2, -0.5), b2=np.full(3, 2.0))
        # reference: one optimizer per block, as a per-tensor loop would run it
        blocks = [p.W.ravel().copy(), p.b1.copy(), p.b2.copy()]
        per_block = [_Optimizer(method, None, b.size) for b in blocks]
        opt = _Optimizer(method, None, p.theta.size)
        for step in range(3):
            opt.update(p.theta, g.theta)
            for o, b, gb in zip(per_block, blocks, (g.W.ravel(), g.b1, g.b2)):
                o.update(b, gb)
            if step == 0:
                assert np.all(p.W != 1.0) and np.all(p.b1 != 1.0) and np.all(p.b2 != 1.0)
            g.theta *= -0.7
        for packed, ref in zip((p.W.ravel(), p.b1, p.b2), blocks):
            assert np.array_equal(packed, ref)


class TestBackprop:
    def test_hand_1x1_chain_rule(self):
        X = np.array([[2.0]])
        data = ProblemData.from_matrix(X, 1)
        p = NetParams(W=np.array([[0.5]]), b1=np.array([0.1]),
                      b2=np.array([-0.2]))
        # pre1 = 1.1, H = 1.1, pre2 = 0.35, recon = 0.35
        # d2 = 2(0.35-2) = -3.3, d1 = 0.5 * -3.3 = -1.65
        g = minibatch_grad(p, data, np.array([0]), lambda2=0.0)
        g_W, g_b1, g_b2 = g.W, g.b1, g.b2
        assert g_W[0, 0] == pytest.approx(1.1 * -3.3 + -1.65 * 2.0, abs=1e-12)
        assert g_b1[0] == pytest.approx(-1.65, abs=1e-12)
        assert g_b2[0] == pytest.approx(-3.3, abs=1e-12)

    def test_weight_decay_is_exactly_2_lambda2_W(self, tiny_problem):
        data, _ = tiny_problem
        p = NetParams.default_init(data, seed=3)
        p.W += 0.5  # move off zero so the decay term is visible
        idx = np.arange(data.n_samples)
        bare = minibatch_grad(p, data, idx, lambda2=0.0)
        dec = minibatch_grad(p, data, idx, lambda2=0.3)
        assert np.allclose(dec.W - bare.W, 0.6 * p.W, atol=1e-12)
        assert np.allclose(dec.b1, bare.b1, atol=1e-15)
        assert np.allclose(dec.b2, bare.b2, atol=1e-15)

    def test_perfect_reconstruction_zero_gradient(self):
        X = np.array([[1.0, 2.0], [3.0, 1.0]])
        data = ProblemData.from_matrix(X, 2)
        p = NetParams(W=np.eye(2), b1=np.zeros(2), b2=np.zeros(2))
        grads = minibatch_grad(p, data, np.array([0, 1]), lambda2=0.0)
        for g in (grads.W, grads.b1, grads.b2):
            assert np.allclose(g, 0.0, atol=1e-15)
        assert autoencoder_error(p, X) == 0.0

    def test_matches_finite_differences(self):
        data, _ = random_problem(5, 3, 4, seed=21)
        rng = np.random.default_rng(22)
        p = NetParams(W=rng.standard_normal((4, 3)) * 0.4 + 0.05,
                      b1=rng.uniform(0.05, 0.3, 4),
                      b2=rng.uniform(0.05, 0.3, 3))
        idx = np.arange(data.n_samples)
        lam2 = 0.07

        def loss(pp):
            err = autoencoder_error(pp, data.X)
            return err + lam2 * float(np.sum(pp.W ** 2))

        grads = minibatch_grad(p, data, idx, lambda2=lam2)
        h = 1e-6
        flat = p.theta    # W, b1 and b2 are views into it
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss(p)
            flat[j] = orig - h
            dn = loss(p)
            flat[j] = orig
            fd = (up - dn) / (2 * h)
            got = grads.theta[j]
            assert got == pytest.approx(fd, rel=2e-5, abs=1e-7)


class TestSgdRun:
    def test_trace_shape_and_determinism(self, tiny_problem):
        data, params = tiny_problem
        cfg = SgdConfig(method="adam", epochs=5, seed=11)
        p1, t1 = sgd_run(data, params, cfg)
        p2, t2 = sgd_run(data, params, cfg)
        assert len(t1.rows) == 6          # initial row + one per epoch
        assert [r.k for r in t1.rows] == list(range(6))
        assert np.array_equal(p1.W, p2.W)
        assert [r.trainerr for r in t1.rows] == [r.trainerr for r in t2.rows]
        assert t1.termination_reason == "epochs"
        assert all(r.mu is None and r.L is None for r in t1.rows)

    def test_seed_changes_trajectory(self, tiny_problem):
        data, params = tiny_problem
        p1, _ = sgd_run(data, params, SgdConfig(method="adam", epochs=3, seed=1))
        p2, _ = sgd_run(data, params, SgdConfig(method="adam", epochs=3, seed=2))
        assert not np.array_equal(p1.W, p2.W)

    def test_zero_epochs_returns_init(self, tiny_problem):
        data, params = tiny_problem
        cfg = SgdConfig(method="vanilla", epochs=0, seed=4)
        p, trace = sgd_run(data, params, cfg)
        assert np.array_equal(p.W, NetParams.default_init(data, 4).W)
        assert len(trace.rows) == 1

    def test_testerr_column_filled_when_given(self, tiny_problem):
        data, params = tiny_problem
        test_X = np.abs(np.random.default_rng(0).standard_normal((3, 4)))
        _, trace = sgd_run(data, params,
                           SgdConfig(method="adagrad", epochs=2, seed=0),
                           test_X=test_X)
        assert all(r.testerr is not None for r in trace.rows)

    def test_adadelta_reduces_training_error(self):
        data, params = random_problem(40, 5, 10, seed=31)
        _, trace = sgd_run(data, params,
                           SgdConfig(method="adadelta", epochs=50, seed=31))
        assert trace.rows[-1].trainerr < 0.5 * trace.rows[0].trainerr

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_runs(self, method, tiny_problem):
        data, params = tiny_problem
        _, trace = sgd_run(data, params,
                           SgdConfig(method=method, epochs=2, seed=1))
        assert len(trace.rows) == 3
        assert all(np.isfinite(r.trainerr) for r in trace.rows)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            SgdConfig(method="sgdm")

    def test_default_batch_size_formula(self):
        assert default_batch_size(1000) == 10
        assert default_batch_size(5000) == 50
        assert default_batch_size(5) == 5
        assert default_batch_size(50) == 10


class TestHandoff:
    def test_feasible_with_zero_penalty_and_clamped_bias(self, tiny_problem):
        data, params = tiny_problem
        p = NetParams.default_init(data, seed=1)
        p.b1[0] = 3.0 * params.alpha
        p.b2[-1] = -2.0 * params.alpha
        z = net_to_feasible(p, data, params)
        rep = feasibility(z, data, params, tol=0.0)
        assert rep.in_Z
        assert penalty(z, data, params) == 0.0
        assert z.b1[0] == params.alpha
        assert z.b2[-1] == -params.alpha

    def test_error_metric_carries_over(self, tiny_problem):
        data, params = tiny_problem
        p, _ = sgd_run(data, params,
                       SgdConfig(method="adadelta", epochs=5, seed=2))
        z = net_to_feasible(p, data, params)
        # biases stay inside the (huge) box, so F(z) is the net's error
        assert fidelity(z, data) == pytest.approx(
            autoencoder_error(p, data.X), rel=1e-12)


class TestSpgAda:
    def test_combined_trace_layout(self, tiny_problem):
        data, params = tiny_problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = SpgConfig(max_outer_iters=4, epsilon=1e-6)
        result, trace = spg_ada(data, params, spg_config=cfg, ada_epochs=3,
                                seed=6)
        assert trace.handoff_index == 4          # rows 0..3 are the warm start
        assert [r.k for r in trace.rows] == list(range(len(trace.rows)))
        assert all(r.mu is None for r in trace.rows[:trace.handoff_index])
        assert all(r.mu is not None for r in trace.rows[trace.handoff_index:])
        assert trace.termination_reason in ("mu<=eps", "max_iters")
        # the handoff row's fidelity equals the warm start's final error
        handoff = trace.rows[trace.handoff_index]
        assert handoff.trainerr == pytest.approx(trace.rows[3].trainerr,
                                                 rel=1e-12)
        rep = feasibility(result.z, data, params, tol=1e-9)
        assert rep.in_Z

    def test_deterministic(self, tiny_problem):
        data, params = tiny_problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = SpgConfig(max_outer_iters=3, epsilon=1e-6)
        r1, t1 = spg_ada(data, params, spg_config=cfg, ada_epochs=2, seed=8)
        r2, t2 = spg_ada(data, params, spg_config=cfg, ada_epochs=2, seed=8)
        assert np.array_equal(r1.z.pack(), r2.z.pack())
        assert [r.fval for r in t1.rows] == [r.fval for r in t2.rows]

    def test_rows_stream_before_divergence(self, tiny_problem):
        data, params = tiny_problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = SpgConfig(divergence_factor=1e-12)

        class Recorder:
            def __init__(self):
                self.rows = []

            def write_row(self, row):
                self.rows.append((row.k, row.mu))

        rec = Recorder()
        with pytest.raises(DivergenceError):
            spg_ada(data, params, cfg, ada_epochs=2, seed=6, sink=rec)
        # three Adadelta rows (initial point plus two epochs), then the
        # solver's initial row and the row of the step that diverged
        assert [k for k, _ in rec.rows] == [0, 1, 2, 3, 4]
        assert all(mu is None for _, mu in rec.rows[:3])
        assert all(mu is not None for _, mu in rec.rows[3:])
