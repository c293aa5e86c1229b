"""Stochastic baselines on the unconstrained autoencoder objective, plus the
hybrid run that warm-starts the deterministic solver from an Adadelta point.

The baselines minimize (1/N) sum_n ||relu(W^T relu(W x_n + b1) + b2) - x_n||^2
+ lambda2 ||W||_F^2 by minibatch backpropagation.  The ReLU derivative is taken
as 0 at exactly 0.  Batches are drawn from a seeded permutation per epoch, so a
seed pins the whole trajectory.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams, ProblemData, Variables, autoencoder_error, relu
from .rng import stream
from .spg import SpgConfig, SpgResult, estimate_local_l0, run as spg_run_driver
from .trace import RunTrace, TraceRow

METHODS = ("vanilla", "adam", "adamax", "adadelta", "adagrad", "adagrad-decay")

# Pinned published defaults; lr is None where the method fixes its own scale.
DEFAULT_LR = {"vanilla": 1e-2, "adam": 1e-3, "adamax": 2e-3, "adadelta": None,
              "adagrad": 1e-2, "adagrad-decay": 1e-2}


def default_batch_size(n_samples: int) -> int:
    """max(N // 100, 10), clamped to the sample count."""
    return max(1, min(n_samples, max(n_samples // 100, 10)))


@dataclass(frozen=True)
class SgdConfig:
    method: str = "adadelta"
    epochs: int = 1000
    batch_size: int | None = None    # None -> default_batch_size(N)
    lr: float | None = None          # None -> method default
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; valid: {METHODS}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr is not None and self.lr <= 0:
            raise ValueError("lr must be positive")


class NetParams:
    """Tied-weight autoencoder parameters packed in one vector.

    ``theta`` = (W row-major, b1, b2); ``W`` (N1, N0), ``b1`` (N1,) and ``b2``
    (N0,) are views into it, so an in-place step on ``theta`` moves all three.
    """

    def __init__(self, W: np.ndarray, b1: np.ndarray, b2: np.ndarray):
        n1, n0 = np.shape(W)
        self.theta = np.concatenate([np.ravel(W), b1, b2], dtype=np.float64)
        self.W = self.theta[:n1 * n0].reshape(n1, n0)
        self.b1 = self.theta[n1 * n0:n1 * n0 + n1]
        self.b2 = self.theta[n1 * n0 + n1:]

    @classmethod
    def default_init(cls, data: ProblemData, seed: int = 0) -> "NetParams":
        n, n0, n1 = data.dims
        W = stream(seed, "init").standard_normal((n1, n0)) / n
        return cls(W=W, b1=np.zeros(n1), b2=np.zeros(n0))

    def copy(self) -> "NetParams":
        return NetParams(W=self.W, b1=self.b1, b2=self.b2)


def minibatch_grad(p: NetParams, data: ProblemData, idx: np.ndarray,
                   lambda2: float) -> NetParams:
    """Backprop gradient packed like ``p``, batch-averaged, decay term included."""
    Xb = data.X[:, idx]
    bs = Xb.shape[1]
    pre1 = p.W @ Xb + p.b1[:, None]
    H = relu(pre1)
    pre2 = p.W.T @ H + p.b2[:, None]
    recon = relu(pre2)
    d2 = 2.0 * (recon - Xb) * (pre2 > 0)          # (N0, B)
    d1 = (p.W @ d2) * (pre1 > 0)                  # (N1, B)
    return NetParams(W=(H @ d2.T + d1 @ Xb.T) / bs + 2.0 * lambda2 * p.W,
                     b1=np.sum(d1, axis=1) / bs, b2=np.sum(d2, axis=1) / bs)


class _Optimizer:
    """Flat state m, v over the packed parameters; update() applies one step in place."""

    def __init__(self, method: str, lr: float | None, size: int):
        self.method = method
        self.lr = DEFAULT_LR[method] if lr is None else lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def update(self, theta: np.ndarray, g: np.ndarray):
        self.t += 1
        method = self.method
        if method == "vanilla":
            theta -= self.lr * g
        elif method == "adam":
            self.m = 0.9 * self.m + 0.1 * g
            self.v = 0.999 * self.v + 0.001 * g * g
            mhat = self.m / (1.0 - 0.9 ** self.t)
            vhat = self.v / (1.0 - 0.999 ** self.t)
            theta -= self.lr * mhat / (np.sqrt(vhat) + 1e-8)
        elif method == "adamax":
            self.m = 0.9 * self.m + 0.1 * g
            self.v = np.maximum(0.999 * self.v, np.abs(g))
            theta -= (self.lr / (1.0 - 0.9 ** self.t)) * self.m / (self.v + 1e-8)
        elif method == "adadelta":
            rho, eps = 0.95, 1e-6
            self.m = rho * self.m + (1 - rho) * g * g            # E[g^2]
            dx = -np.sqrt((self.v + eps) / (self.m + eps)) * g
            self.v = rho * self.v + (1 - rho) * dx * dx          # E[dx^2]
            theta += dx
        elif method == "adagrad":
            self.v += g * g
            theta -= self.lr * g / (np.sqrt(self.v) + 1e-8)
        elif method == "adagrad-decay":
            self.v += g * g
            theta -= (self.lr / math.sqrt(self.t)) * g / (np.sqrt(self.v) + 1e-8)
        else:  # pragma: no cover
            raise AssertionError(method)


def sgd_run(data: ProblemData, params: ModelParams, config: SgdConfig,
            p0: NetParams | None = None, test_X=None,
            sink=None) -> tuple[NetParams, RunTrace]:
    """Minibatch training; one trace row per epoch (row 0 is the initial point)."""
    p = p0.copy() if p0 is not None else NetParams.default_init(data, config.seed)
    bs = config.batch_size or default_batch_size(data.n_samples)
    opt = _Optimizer(config.method, config.lr, p.theta.size)
    batch_rng = stream(config.seed, "batch")
    trace = RunTrace()

    def epoch_row(k, wall_ms):
        te = autoencoder_error(p, np.asarray(test_X, dtype=np.float64)) \
            if test_X is not None and np.size(test_X) else None
        trace.append(TraceRow(k=k, trainerr=autoencoder_error(p, data.X),
                              testerr=te, wall_ms=wall_ms), sink)

    epoch_row(0, 0.0)
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        perm = batch_rng.permutation(data.n_samples)
        for lo in range(0, data.n_samples, bs):
            g = minibatch_grad(p, data, perm[lo:lo + bs], params.lambda2)
            opt.update(p.theta, g.theta)
        epoch_row(epoch, 1e3 * (time.perf_counter() - t0))
    trace.termination_reason = "epochs"
    return p, trace


def net_to_feasible(p: NetParams, data: ProblemData, params: ModelParams) -> Variables:
    """Clamp b into the box first, then V = (W x + b1)_+, so the point is in Z
    (indeed on the penalty-free set) exactly."""
    b1 = np.clip(p.b1, -params.alpha, params.alpha)
    b2 = np.clip(p.b2, -params.alpha, params.alpha)
    V = relu(p.W @ data.X + b1[:, None])
    return Variables(W=p.W.copy(), b1=b1, b2=b2, V=V)


class _RenumberingSink:
    """Continues the row numbering of a trace that already holds ``offset`` rows.

    Rows are renumbered in place, so the solver's own trace and the sink agree.
    """

    def __init__(self, offset: int, sink):
        self.offset = offset
        self.sink = sink

    def write_row(self, row: TraceRow):
        row.k += self.offset
        if self.sink is not None:
            self.sink.write_row(row)


def spg_ada(data: ProblemData, params: ModelParams, spg_config: SpgConfig | None = None,
            ada_epochs: int = 1000, seed: int = 0, test_X=None,
            sink=None) -> tuple[SpgResult, RunTrace]:
    """Adadelta warm start, feasibility handoff, then the deterministic solver.

    Returns the solver result plus a combined trace whose row numbering
    continues across the handoff; the handoff row is the first row with a
    non-blank mu and its index is recorded on the trace.  Rows reach the
    sink as each phase produces them.
    """
    ada_cfg = SgdConfig(method="adadelta", epochs=ada_epochs, seed=seed)
    p, ada_trace = sgd_run(data, params, ada_cfg, test_X=test_X, sink=sink)
    z0 = net_to_feasible(p, data, params)
    config = spg_config if spg_config is not None else SpgConfig()
    if config.L0 is None:
        # warm starts sit in high-curvature territory where the cold-start
        # default proximal weight overshoots; size it to the local gradient
        # Lipschitz scale instead
        l0 = estimate_local_l0(z0, config.mu0, data, params, seed=seed)
        with warnings.catch_warnings():
            # the config was validated (and warned, if applicable) on
            # construction; replace() re-runs validation
            warnings.simplefilter("ignore")
            config = replace(config, L0=l0)
    offset = len(ada_trace.rows)
    result = spg_run_driver(data, params, config=config, z0=z0, seed=seed,
                            test_X=test_X, sink=_RenumberingSink(offset, sink))
    combined = RunTrace(rows=ada_trace.rows + result.trace.rows,
                        termination_reason=result.trace.termination_reason,
                        stationarity=result.trace.stationarity,
                        handoff_index=offset)
    return result, combined
