"""Smoothed objective: kernel values, sandwich bound, gradients."""

import numpy as np
import pytest

from spgae.model import Variables, objective
from spgae.rng import stream
from spgae.smoothing import (smooth_relu, smooth_relu_deriv, smoothed_loss,
                             smoothed_loss_grad, smoothed_objective)

from conftest import loop_smoothed, random_feasible, random_problem
from helpers import smoothing_gap_bound


class TestKernel:
    def test_three_branches_frozen(self):
        assert smooth_relu(np.array(-0.3), 0.1) == 0.0
        assert smooth_relu(np.array(0.05), 0.1) == pytest.approx(0.0125,
                                                                 abs=1e-15)
        assert smooth_relu(np.array(0.5), 0.1) == pytest.approx(0.45,
                                                                abs=1e-15)

    def test_deriv_values(self):
        assert smooth_relu_deriv(np.array(-1.0), 0.1) == 0.0
        assert smooth_relu_deriv(np.array(0.05), 0.1) == pytest.approx(0.5)
        assert smooth_relu_deriv(np.array(10.0), 0.1) == 1.0

    def test_mu_must_be_positive(self):
        for mu in (0.0, float("nan")):
            with pytest.raises(ValueError, match="mu must be positive"):
                smooth_relu(np.array(1.0), mu)

    def test_kernel_below_relu_and_gap(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(-2, 2, 1000)
        for mu in (1e-4, 0.01, 0.5):
            s = smooth_relu(y, mu)
            gap = np.maximum(y, 0.0) - s
            assert np.all(gap >= -1e-15)
            assert np.all(gap <= mu / 2 + 1e-15)

    def test_kernel_monotone_in_mu(self):
        y = np.linspace(-1, 2, 201)
        a = smooth_relu(y, 0.5)
        b = smooth_relu(y, 0.1)
        assert np.all(a <= b + 1e-15)


class TestSmoothedObjective:
    def test_origin_value(self):
        data, params = random_problem(9, 3, 4, seed=1)
        z = Variables.zeros(data)
        for mu in (1e-5, 1e-2):
            assert smoothed_objective(z, mu, data, params) == pytest.approx(
                data.fro_sq / data.n_samples, rel=1e-14)

    def test_matches_loop_oracle(self):
        data, params = random_problem(5, 2, 3, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(6):
            z = random_feasible(data, params, rng)
            mu = float(rng.uniform(1e-3, 0.5))
            want = loop_smoothed(z, mu, data, params)
            got = smoothed_objective(z, mu, data, params)
            assert got == pytest.approx(want, rel=1e-12)

    def test_sandwich_on_random_points(self):
        data, params = random_problem(8, 3, 4, seed=4)
        cap = smoothing_gap_bound(data, params)
        rng = stream(99, "test")
        for _ in range(200):
            z = random_feasible(data, params, rng,
                                scale=float(rng.uniform(0.1, 2.0)))
            mu = float(rng.uniform(1e-6, 1.0))
            o = objective(z, data, params)
            ot = smoothed_objective(z, mu, data, params)
            assert o >= -1e-10
            assert ot >= o - 1e-10
            assert ot <= o + cap * mu + 1e-10

    def test_mu_monotone_and_strict(self):
        data, params = random_problem(6, 2, 3, seed=5)
        rng = np.random.default_rng(6)
        z = random_feasible(data, params, rng)
        vals = [smoothed_objective(z, mu, data, params)
                for mu in (0.5, 0.1, 0.01, 1e-4)]
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-14)
        # some preactivation is positive for this z, so strictly decreasing
        assert vals[0] > vals[-1]

    def test_gap_bound_formula(self):
        data, params = random_problem(7, 2, 5, seed=7)
        assert smoothing_gap_bound(data, params) == pytest.approx(
            data.one_norm + data.n_hidden * data.n_samples * params.beta)


class FDCheck:
    @staticmethod
    def fd_grad(z, mu, data, params, h=1e-6):
        vec = z.pack()
        g = np.empty_like(vec)
        for i in range(vec.size):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            g[i] = (smoothed_loss(Variables.unpack(vp, data), mu, data, params)
                    - smoothed_loss(Variables.unpack(vm, data), mu, data,
                                    params)) / (2 * h)
        return g


class TestGradient:
    def test_grad_at_origin(self):
        data, params = random_problem(6, 3, 2, seed=8)
        z = Variables.zeros(data)
        g = smoothed_loss_grad(z, 1e-3, data, params)
        # W=0, V=0: decoder preactivation 0, sigma'(0)=0, so g_W = 0;
        # penalty gives the constant beta block on V
        assert np.allclose(g.W, 0.0)
        assert np.allclose(g.V, params.beta)
        assert np.allclose(g.b1, 0.0)
        # b2 direction: Q at Y=0 is 0 (both relu part and sigma' part vanish)
        assert np.allclose(g.b2, 0.0)

    def test_matches_central_differences(self):
        data, params = random_problem(4, 2, 3, seed=9)
        rng = np.random.default_rng(10)
        mu = 1e-2
        checked = 0
        while checked < 5:
            z = random_feasible(data, params, rng)
            Y = z.W.T @ z.V + z.b2[:, None]
            S = z.W @ data.X + z.b1[:, None]
            margin = min(np.abs(Y).min(), np.abs(Y - mu).min(),
                         np.abs(S).min(), np.abs(S - mu).min())
            if margin < 1e-4:
                continue
            checked += 1
            want = FDCheck.fd_grad(z, mu, data, params)
            got = smoothed_loss_grad(z, mu, data, params).pack()
            denom = max(1.0, float(np.linalg.norm(want)))
            assert np.linalg.norm(got - want) / denom < 1e-6

    def test_directional_secant(self):
        data, params = random_problem(5, 3, 2, seed=11)
        rng = np.random.default_rng(12)
        z = random_feasible(data, params, rng)
        mu = 0.05
        g = smoothed_loss_grad(z, mu, data, params).pack()
        v = z.pack()
        for _ in range(4):
            d = rng.standard_normal(v.size)
            d /= np.linalg.norm(d)
            t = 1e-7
            fp = smoothed_loss(Variables.unpack(v + t * d, data), mu, data,
                               params)
            fm = smoothed_loss(Variables.unpack(v - t * d, data), mu, data,
                               params)
            assert (fp - fm) / (2 * t) == pytest.approx(float(g @ d),
                                                        rel=1e-4, abs=1e-8)
