"""C^1 smoothing of the ReLU and the smoothed objective / gradient.

The positive part is replaced by the quadratic-in-the-middle surrogate

    sr(y, mu) = 0            for y < 0
              = y^2 / (2 mu) for 0 <= y <= mu
              = y - mu/2     for y > mu

with derivative clamp(y/mu, 0, 1).  It satisfies 0 <= (y)_+ - sr(y, mu) <= mu/2
and is nonincreasing in mu.  The smoothed loss replaces the ReLU only where it
enters nonconvexly:

    F~(z, mu) = (1/N) sum_n ||(W^T v_n + b2)_+||^2 + ||X||_F^2 / N
                - (2/N) sum_n x_n^T sr(W^T v_n + b2, mu)
    P~(z, mu) = beta * sum_n e^T (v_n - sr(W x_n + b1, mu))
    H~ = F~ + P~,   O~ = H~ + R.

For z in Z and nonnegative data the sandwich 0 <= O <= O~ <= O + (||X||_1 +
N1*N*beta) * mu holds, which is what lets the outer loop drive mu -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (Forward, ModelParams, ProblemData, Variables, preactivations,
                    regularizer, relu)


def smooth_relu(y, mu: float):
    """Smoothed positive part, elementwise."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    y = np.asarray(y, dtype=np.float64)
    return np.where(y <= 0.0, 0.0,
                    np.where(y >= mu, y - 0.5 * mu, y * y / (2.0 * mu)))


def smooth_relu_deriv(y, mu: float):
    """Derivative of the smoothed positive part: clamp(y/mu, 0, 1)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return np.clip(np.asarray(y, dtype=np.float64) / mu, 0.0, 1.0)


@dataclass
class GradientBlocks:
    """Gradient of H~ split along the variable blocks."""

    g_W: np.ndarray   # (N1, N0)
    g_b1: np.ndarray  # (N1,)
    g_b2: np.ndarray  # (N0,)
    g_V: np.ndarray   # (N1, N)

    def pack(self) -> np.ndarray:
        return np.concatenate([self.g_W.ravel(order="F"), self.g_b1, self.g_b2,
                               self.g_V.ravel(order="F")])


def smoothed_loss(z: Variables, mu: float, data: ProblemData, params: ModelParams, *,
                  fw: Forward | None = None) -> float:
    """H~(z, mu) = F~ + P~ (everything except the regularizer)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    n = data.n_samples
    Y, S = fw or preactivations(z, data)
    ry = relu(Y)
    f_tilde = (np.sum(ry * ry) + data.fro_sq
               - 2.0 * np.sum(data.X * smooth_relu(Y, mu))) / n
    p_tilde = params.beta * (np.sum(z.V) - np.sum(smooth_relu(S, mu)))
    return float(f_tilde + p_tilde)


def smoothed_objective(z: Variables, mu: float, data: ProblemData, params: ModelParams, *,
                       fw: Forward | None = None) -> float:
    """O~(z, mu) = H~(z, mu) + R(z)."""
    return smoothed_loss(z, mu, data, params, fw=fw) + regularizer(z, params)


def smoothed_loss_grad(z: Variables, mu: float, data: ProblemData,
                       params: ModelParams, *, fw: Forward | None = None) -> GradientBlocks:
    """Analytic gradient of H~ at z.

    With Y = W^T V + b2 1^T and S = W X + b1 1^T:
        Q   = (2/N) ((Y)_+ - X .* sr'(Y, mu))
        g_W = V Q^T - beta * sr'(S, mu) X^T
        g_b1 = -beta * sr'(S, mu) 1
        g_b2 = Q 1
        g_V = W Q + beta * 1 1^T
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    n = data.n_samples
    Y, S = fw or preactivations(z, data)
    Q = (2.0 / n) * (relu(Y) - data.X * smooth_relu_deriv(Y, mu))
    Ds = smooth_relu_deriv(S, mu)
    g_W = z.V @ Q.T - params.beta * (Ds @ data.X.T)
    g_b1 = -params.beta * np.sum(Ds, axis=1)
    g_b2 = np.sum(Q, axis=1)
    g_V = z.W @ Q + params.beta
    return GradientBlocks(g_W=g_W, g_b1=g_b1, g_b2=g_b2,
                          g_V=np.ascontiguousarray(g_V))


def smoothing_gap_bound(data: ProblemData, params: ModelParams) -> float:
    """Coefficient of mu in the sandwich bound: ||X||_1 + N1*N*beta."""
    return data.one_norm + data.n_hidden * data.n_samples * params.beta
