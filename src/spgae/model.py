"""Problem data, packed variables, objective pieces and feasibility machinery.

The training variable is z = (vec(W), b, vec(V)) with b = (b1; b2), for a
two-layer ReLU autoencoder on a nonnegative data matrix X whose columns are
samples.  The objective splits as

    O(z) = F(z) + R(z) + P(z)

with fidelity F(z) = (1/N) sum_n ||(W^T v_n + b2)_+ - x_n||^2, regularizer
R(z) = lambda1 * sum_n e^T v_n + lambda2 * ||W||_F^2, and the exact penalty
P(z) = beta * sum_n e^T (v_n - (W x_n + b1)_+) that couples the code columns
v_n to the encoder output.  Feasibility lives on

    Z = Omega2 ∩ Omega3,
    Omega2 = {v_n >= (W x_n + b1)_+},  Omega3 = {||b||_inf <= alpha},

a polyhedron {A z <= c} with nu = 2(N*N1 + N0 + N1) rows; A is only ever
applied implicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import stream


def relu(y):
    """Elementwise positive part."""
    return np.maximum(y, 0.0)


@dataclass(frozen=True)
class ProblemData:
    """Data matrix (columns are samples), hidden width, norms and test columns."""

    X: np.ndarray       # (N0, N), entrywise nonnegative
    n_samples: int      # N
    n_visible: int      # N0
    n_hidden: int       # N1
    fro_sq: float       # ||X||_F^2
    one_norm: float     # ||X||_1 = max absolute column sum
    test_X: np.ndarray | None = None   # (N0, M), M >= 1: test error's columns

    @classmethod
    def from_matrix(cls, X, n_hidden: int, test_X=None) -> "ProblemData":
        """A float64 ``test_X`` is held, not copied; an empty one is None."""
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("X must be a nonempty 2-d matrix with sample columns")
        if int(n_hidden) < 1:
            raise ValueError("n_hidden must be a positive integer")
        if not np.all(np.isfinite(X)):
            raise ValueError("X must be finite")
        if np.any(X < 0):
            raise ValueError("X must be entrywise nonnegative")
        if test_X is not None:
            test_X = np.asarray(test_X, dtype=np.float64)
            if test_X.size == 0:
                test_X = None
            elif (test_X.ndim != 2 or test_X.shape[0] != X.shape[0]
                  or not np.all(np.isfinite(test_X))):
                raise ValueError(f"the test matrix must be finite and 2-d with the "
                                 f"training matrix's {X.shape[0]} rows")
        return cls(
            X=X,
            n_samples=X.shape[1],
            n_visible=X.shape[0],
            n_hidden=int(n_hidden),
            fro_sq=float(np.sum(X * X)),
            one_norm=float(np.max(np.sum(np.abs(X), axis=0))),
            test_X=test_X,
        )

    @property
    def dims(self) -> tuple[int, int, int]:
        """(N, N0, N1)."""
        return (self.n_samples, self.n_visible, self.n_hidden)

    @property
    def n_packed(self) -> int:
        """Length of the packed variable."""
        return packed_size(self.dims)


def init_W(data: ProblemData, seed: int) -> np.ndarray:
    """W ~ randn(N1, N0) / N from ``seed``'s init stream: every start point's W."""
    n, n0, n1 = data.dims
    return stream(seed, "init").standard_normal((n1, n0)) / n


def packed_size(dims) -> int:
    """Length N0*N1 + N1 + N0 + N1*N of the packed variable for dims (N, N0, N1)."""
    n, n0, n1 = dims
    return n0 * n1 + n1 + n0 + n1 * n


def compute_alpha(data: ProblemData, lambda1: float, lambda2: float, theta: float) -> float:
    """Box radius for the bias, sized so the box never cuts off minimizers.

    alpha = max{ theta/lambda1 + sqrt(N1*N0*theta/lambda2) * ||X||_1,
                 theta*sqrt(N1*N0*theta)/(lambda1*sqrt(lambda2))
                 + sqrt(N*theta) + ||X||_1 }.

    Requires lambda1, lambda2 > 0 and theta > ||X||_F^2 / N.
    """
    if lambda1 <= 0 or lambda2 <= 0:
        raise ValueError("derived alpha requires lambda1 > 0 and lambda2 > 0")
    if theta <= data.fro_sq / data.n_samples:
        raise ValueError("theta must exceed ||X||_F^2 / N")
    n, n0, n1 = data.dims
    root = math.sqrt(n1 * n0 * theta / lambda2)
    branch1 = theta / lambda1 + root * data.one_norm
    branch2 = theta / lambda1 * root + math.sqrt(n * theta) + data.one_norm
    return max(branch1, branch2)


@dataclass(frozen=True)
class ModelParams:
    """Penalty weights and the bias box radius."""

    lambda1: float
    lambda2: float
    beta: float
    theta: float
    alpha: float

    def __post_init__(self):
        # written so that NaN, which fails every comparison, fails each check
        if not (self.lambda1 >= 0 and self.lambda2 >= 0):
            raise ValueError("lambda1 and lambda2 must be nonnegative")
        if not (self.beta > 0):
            raise ValueError("beta must be positive")
        if not (self.theta > 0):
            raise ValueError("theta must be positive")
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")

    @classmethod
    def from_data(cls, data: ProblemData, lambda1: float = 1e-4, lambda2: float = 0.1,
                  beta: float | None = None, theta: float | None = None,
                  alpha: float | None = None) -> "ModelParams":
        """Fill defaults: beta = 1/N, theta = 1.1*||X||_F^2/N (or 1.1 for zero data),
        alpha derived from the level-set bound unless given explicitly."""
        if beta is None:
            beta = 1.0 / data.n_samples
        if theta is None:
            base = data.fro_sq / data.n_samples
            theta = 1.1 * base if base > 0 else 1.1
        elif theta <= data.fro_sq / data.n_samples:
            raise ValueError("theta must exceed ||X||_F^2 / N")
        if alpha is None:
            if lambda1 <= 0 or lambda2 <= 0:
                raise ValueError("lambda1, lambda2 must be positive unless alpha is given")
            alpha = compute_alpha(data, lambda1, lambda2, theta)
        return cls(lambda1=float(lambda1), lambda2=float(lambda2), beta=float(beta),
                   theta=float(theta), alpha=float(alpha))


@dataclass
class Variables:
    """Decoder weight W (N1 x N0), biases b1 (N1,), b2 (N0,), codes V (N1 x N).

    Packing is column-major: z = (vec(W), b1, b2, vec(V)).
    """

    W: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    V: np.ndarray

    @classmethod
    def zeros(cls, data: ProblemData) -> "Variables":
        n, n0, n1 = data.dims
        return cls(W=np.zeros((n1, n0)), b1=np.zeros(n1), b2=np.zeros(n0),
                   V=np.zeros((n1, n)))

    @classmethod
    def unpack(cls, vec: np.ndarray, dims) -> "Variables":
        """dims is (N, N0, N1) or anything exposing a .dims tuple."""
        if hasattr(dims, "dims"):
            dims = dims.dims
        vec = np.asarray(vec, dtype=np.float64).ravel()
        n, n0, n1 = dims
        expected = packed_size(dims)
        if vec.size != expected:
            raise ValueError(f"packed length {vec.size} != expected {expected}")
        o = 0
        W = vec[o:o + n1 * n0].reshape((n1, n0), order="F").copy(); o += n1 * n0
        b1 = vec[o:o + n1].copy(); o += n1
        b2 = vec[o:o + n0].copy(); o += n0
        V = vec[o:o + n1 * n].reshape((n1, n), order="F").copy()
        return cls(W=W, b1=b1, b2=b2, V=V)

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(W, b1, b2, V), the order ``pack`` lays them out in."""
        return (self.W, self.b1, self.b2, self.V)

    def pack(self) -> np.ndarray:
        return np.concatenate([self.W.ravel(order="F"), self.b1, self.b2,
                               self.V.ravel(order="F")])

    @property
    def b(self) -> np.ndarray:
        """Stacked bias (b1; b2)."""
        return np.concatenate([self.b1, self.b2])

    def copy(self) -> "Variables":
        return Variables(W=self.W.copy(), b1=self.b1.copy(), b2=self.b2.copy(),
                         V=self.V.copy())


class Forward(NamedTuple):
    """Pre-activations of one iterate; every objective term reads them."""

    Y: np.ndarray   # decoder, W^T V + b2 1^T, (N0, N)
    S: np.ndarray   # encoder, W X + b1 1^T, (N1, N)


def preactivations(z: Variables, data: ProblemData, S: np.ndarray | None = None) -> Forward:
    """Decoder and encoder pre-activations (Y, S) = (W^T V + b2 1^T, W X + b1 1^T).

    Pass ``S`` when the caller holds z's encoder pre-activation (an inner
    solve returns it); only Y is then formed.  For an SPG iterate, outside
    the inner solver and spg.init_point, this is the only place either
    product is formed: evaluations of one iterate take the result as ``fw``.
    """
    if S is None:
        S = z.W @ data.X + z.b1[:, None]
    return Forward(Y=z.W.T @ z.V + z.b2[:, None], S=S)


def fidelity(z: Variables, data: ProblemData, *, fw: Forward | None = None) -> float:
    """F(z) = (1/N) sum_n ||(W^T v_n + b2)_+ - x_n||^2."""
    Y = (fw or preactivations(z, data)).Y
    diff = relu(Y) - data.X
    return float(np.sum(diff * diff)) / data.n_samples


def autoencoder_error(p, X: np.ndarray) -> float:
    """(1/M) sum ||relu(W^T relu(W x + b1) + b2) - x||^2 over the M columns of X.

    Reads only ``p.W``, ``p.b1`` and ``p.b2``, so ``p`` may be Variables or
    the SGD baselines' NetParams.
    """
    H = relu(p.W @ X + p.b1[:, None])
    recon = relu(p.W.T @ H + p.b2[:, None])
    return float(np.sum((recon - X) ** 2)) / X.shape[1]


def regularizer(z: Variables, params: ModelParams) -> float:
    """R(z) = lambda1 * sum(V) + lambda2 * ||W||_F^2."""
    return float(params.lambda1 * np.sum(z.V) + params.lambda2 * np.sum(z.W * z.W))


def penalty(z: Variables, data: ProblemData, params: ModelParams, *,
            fw: Forward | None = None) -> float:
    """P(z) = beta * sum_n e^T (v_n - (W x_n + b1)_+); nonnegative on Omega2."""
    S = (fw or preactivations(z, data)).S
    return float(params.beta * np.sum(z.V - relu(S)))


def objective(z: Variables, data: ProblemData, params: ModelParams) -> float:
    """O(z) = F + R + P."""
    fw = preactivations(z, data)
    return fidelity(z, data, fw=fw) + regularizer(z, params) + penalty(z, data, params, fw=fw)


@dataclass(frozen=True)
class FeasibilityReport:
    """Max violations of the three constraint families plus a Z membership flag."""

    omega1_violation: float   # max |v_n - (W x_n + b1)_+|
    omega2_violation: float   # max positive part of (W x_n + b1)_+ - v_n
    omega3_violation: float   # max(0, ||b||_inf - alpha)
    in_Z: bool


def feasibility(z: Variables, data: ProblemData, params: ModelParams,
                tol: float = 1e-10) -> FeasibilityReport:
    target = relu(preactivations(z, data).S)
    om1 = float(np.max(np.abs(z.V - target))) if z.V.size else 0.0
    om2 = float(max(0.0, np.max(target - z.V))) if z.V.size else 0.0
    binf = float(np.max(np.abs(np.concatenate([z.b1, z.b2]))))
    om3 = max(0.0, binf - params.alpha)
    return FeasibilityReport(omega1_violation=om1, omega2_violation=om2,
                             omega3_violation=om3,
                             in_Z=bool(om2 <= tol and om3 <= tol))
