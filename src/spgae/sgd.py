"""Stochastic baselines on the unconstrained autoencoder objective, plus the
hybrid run that warm-starts the deterministic solver from an Adadelta point.

The baselines minimize (1/N) sum_n ||relu(W^T relu(W x_n + b1) + b2) - x_n||^2
+ lambda2 ||W||_F^2 by minibatch backpropagation.  The ReLU derivative is taken
as 0 at exactly 0.  Batches are drawn from a seeded permutation per epoch, so a
seed pins the whole trajectory.

Networks of one shape train in lockstep (``sgd_lockstep``): their parameters
are rows of one stacked vector, and one gradient call and one optimizer step
advance all of them by a batch.  A stacked product runs the same BLAS call per
network and every other operation is elementwise or a per-row reduction, so
each network's numbers are the same bits as in a run of its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .model import (ModelParams, ProblemData, Variables, autoencoder_error, init_W,
                    relu)
from .rng import stream
from .spg import SpgConfig, SpgResult, run as spg_run_driver
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
        if self.lr is not None and DEFAULT_LR[self.method] is None:
            raise ValueError(f"{self.method} has no learning rate; do not set lr")
        if self.lr is not None and not (self.lr > 0):   # NaN fails too
            raise ValueError("lr must be positive")


class NetParams:
    """Tied-weight autoencoder parameters packed in one vector.

    ``theta`` = (W row-major, b1, b2); ``W`` (N1, N0), ``b1`` (N1,) and ``b2``
    (N0,) are views into it, so an in-place step on ``theta`` moves all three.
    A stack of S networks (``stack``) has ``theta`` (S, P) and blocks with the
    same leading axis; ``rows()`` are its networks.
    """

    def __init__(self, W: np.ndarray, b1: np.ndarray, b2: np.ndarray):
        n1, n0 = np.shape(W)
        self._bind(np.concatenate([np.ravel(W), b1, b2], dtype=np.float64), n1, n0)

    def _bind(self, theta: np.ndarray, n1: int, n0: int):
        k = n1 * n0
        self.theta = theta
        self.W = theta[..., :k].reshape(*theta.shape[:-1], n1, n0)
        self.b1 = theta[..., k:k + n1]
        self.b2 = theta[..., k + n1:]

    @classmethod
    def over(cls, theta: np.ndarray, n1: int, n0: int) -> "NetParams":
        """Parameters whose blocks are views into ``theta``, (P,) or (S, P)."""
        p = cls.__new__(cls)
        p._bind(theta, n1, n0)
        return p

    @classmethod
    def stack(cls, nets) -> "NetParams":
        """Copies of networks of one shape, stacked into ``theta`` (S, P)."""
        n1, n0 = nets[0].W.shape
        return cls.over(np.stack([p.theta for p in nets]), n1, n0)

    def rows(self) -> list["NetParams"]:
        """The networks of a stack, each a view into its row of ``theta``."""
        n1, n0 = self.W.shape[-2:]
        return [NetParams.over(row, n1, n0) for row in self.theta]

    @classmethod
    def default_init(cls, data: ProblemData, seed: int = 0) -> "NetParams":
        n, n0, n1 = data.dims
        return cls(W=init_W(data, seed), b1=np.zeros(n1), b2=np.zeros(n0))

    def copy(self) -> "NetParams":
        n1, n0 = self.W.shape[-2:]
        return NetParams.over(self.theta.copy(), n1, n0)


class GradWorkspace:
    """The buffers ``minibatch_grad`` fills for one ``NetParams``, single or
    stacked.

    Holds the gradient ``grad``, packed like ``p``, one (S, N1, N0) product
    buffer, the batch-sized intermediates (one set per batch width, so a
    partial last batch gets its own) and stacked views of ``p`` (S = 1 for a
    single network), built once; they stay valid as long as ``p.theta`` is
    only updated in place.
    """

    def __init__(self, p: NetParams):
        n1, n0 = p.W.shape[-2:]
        self.p = p
        self.grad = NetParams.over(np.zeros(p.theta.shape), n1, n0)
        ps = NetParams.over(p.theta.reshape(-1, p.theta.shape[-1]), n1, n0)
        self.g = NetParams.over(self.grad.theta.reshape(ps.theta.shape), n1, n0)
        self.grad_b = self.g.theta[:, n1 * n0:]    # (b1, b2): one reduce fills both
        self.prod = np.empty(ps.W.shape)
        self.W, self.W_T = ps.W, ps.W.transpose(0, 2, 1)
        self.b1_col, self.b2_col = ps.b1[..., None], ps.b2[..., None]
        self._widths = {}

    def batch(self, bs: int) -> tuple:
        """(Xb, Xb rows, pre1, H, pre2, mask1, mask2, d, d1, d2) for a batch of
        ``bs``, each (S, ., bs); ``d`` stacks ``d1`` (N1 rows) over ``d2`` (N0
        rows)."""
        bufs = self._widths.get(bs)
        if bufs is None:
            s, n1, n0 = self.W.shape
            Xb, d = np.empty((s, n0, bs)), np.empty((s, n1 + n0, bs))
            bufs = self._widths[bs] = (
                Xb, tuple(Xb), np.empty((s, n1, bs)), np.empty((s, n1, bs)),
                np.empty((s, n0, bs)), np.empty((s, n1, bs), dtype=bool),
                np.empty((s, n0, bs), dtype=bool), d, d[:, :n1], d[:, n1:])
        return bufs


def minibatch_grad(p: NetParams, data, idx, lambda2: float,
                   out: GradWorkspace | None = None) -> NetParams:
    """Backprop gradient packed like ``p``, batch-averaged, decay term included.

    ``p`` is one network with one ``ProblemData`` and index array, or a stack
    of S with a sequence of S of each (all batches of one width); network i
    trains on batch ``data[i].X[:, idx[i]]``.  The result is ``out.grad``,
    which the next call with the same ``out`` overwrites; without ``out`` a
    fresh workspace is built.  ``out`` must have been built on ``p``.
    """
    ws = GradWorkspace(p) if out is None else out
    if ws.p is not p:
        raise ValueError("the workspace was built for other parameters")
    if p.theta.ndim == 1:
        data, idx = (data,), (idx,)
    bs = len(idx[0])
    Xb, Xb_rows, pre1, H, pre2, mask1, mask2, d, d1, d2 = ws.batch(bs)
    g = ws.g
    for Xi, di, ix in zip(Xb_rows, data, idx, strict=True):
        di.X.take(ix, axis=1, out=Xi, mode="clip")  # ix is in range: no check
    np.matmul(ws.W, Xb, out=pre1)
    pre1 += ws.b1_col
    np.maximum(pre1, 0.0, out=H)
    np.matmul(ws.W_T, H, out=pre2)
    pre2 += ws.b2_col
    np.maximum(pre2, 0.0, out=d2)                       # recon
    d2 -= Xb
    d2 *= 2.0
    d2 *= np.greater(pre2, 0.0, out=mask2)              # (S, N0, B)
    np.matmul(ws.W, d2, out=d1)
    d1 *= np.greater(pre1, 0.0, out=mask1)              # (S, N1, B)
    np.matmul(H, d2.transpose(0, 2, 1), out=g.W)
    g.W += np.matmul(d1, Xb.transpose(0, 2, 1), out=ws.prod)
    np.add.reduce(d, axis=2, out=ws.grad_b)
    g.theta /= bs
    g.W += np.multiply(ws.W, 2.0 * lambda2, out=ws.prod)
    return ws.grad


class _Optimizer:
    """Flat state m, v of the packed parameters' shape (``size``, an int or a
    stack's (S, P)); update() applies one step in place."""

    def __init__(self, method: str, lr: float | None, size):
        self.method = method
        self.lr = DEFAULT_LR[method] if lr is None else lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._s1, self._s2 = np.empty(size), np.empty(size)   # adadelta scratch

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
            # in place, in the order of m = rho*m + (1-rho)*g*g,
            # dx = -sqrt((v+eps)/(m+eps))*g, v = rho*v + (1-rho)*dx*dx
            rho, eps = 0.95, 1e-6
            m, v, s1, s2 = self.m, self.v, self._s1, self._s2
            np.multiply(g, 1 - rho, out=s1)
            s1 *= g
            m *= rho
            m += s1                                              # E[g^2]
            np.add(v, eps, out=s1)
            s1 /= np.add(m, eps, out=s2)
            np.sqrt(s1, out=s1)
            np.negative(s1, out=s1)
            s1 *= g                                              # dx
            np.multiply(s1, 1 - rho, out=s2)
            s2 *= s1
            v *= rho
            v += s2                                              # E[dx^2]
            theta += s1
        elif method == "adagrad":
            self.v += g * g
            theta -= self.lr * g / (np.sqrt(self.v) + 1e-8)
        elif method == "adagrad-decay":
            self.v += g * g
            theta -= (self.lr / math.sqrt(self.t)) * g / (np.sqrt(self.v) + 1e-8)
        else:  # pragma: no cover
            raise AssertionError(method)


@dataclass
class SgdMember:
    """One network of a lockstep group: its problem, config and optional trace
    (else a new one), which receives its rows.  It starts at
    ``NetParams.default_init`` under the config's seed."""
    data: ProblemData
    params: ModelParams
    config: SgdConfig
    trace: RunTrace | None = None


def sgd_lockstep(members) -> list[tuple[NetParams, RunTrace]]:
    """Minibatch training of a group of networks, one stacked step per batch.

    The members must share the problem shape (N, N1, N0) and ``lambda2``, and
    their configs may differ only in ``seed``.  Each member starts at
    ``NetParams.default_init`` under its seed, draws its batch permutations
    from its own seed's ``batch`` stream, gathers its batches from its own
    data and appends its rows (one per epoch after one for the initial
    point, numbered on from the trace's length; test error on its
    ``data.test_X``) to its own trace, so its parameters and rows are the
    same bits as in a group of one.  Only ``wall_ms`` is shared: it is the
    wall time of the group's epoch.  Returns (parameters, trace) per member,
    in order.
    """
    first = members[0]
    config, n = first.config, first.data.n_samples
    for m in members:
        if (m.data.dims != first.data.dims or m.params.lambda2 != first.params.lambda2
                or replace(m.config, seed=config.seed) != config):
            raise ValueError("lockstep members must share the problem shape, "
                             "lambda2 and the config apart from the seed")
    p = NetParams.stack([NetParams.default_init(m.data, m.config.seed)
                         for m in members])
    nets = p.rows()
    bs = config.batch_size or default_batch_size(n)
    opt = _Optimizer(config.method, config.lr, p.theta.shape)
    ws = GradWorkspace(p)
    batch_rngs = [stream(m.config.seed, "batch") for m in members]
    datas = [m.data for m in members]
    traces = [RunTrace() if m.trace is None else m.trace for m in members]
    for trace in traces:
        trace.termination_reason = "epochs"

    def epoch_rows(wall_ms):
        for net, data, trace in zip(nets, datas, traces):
            te = None if data.test_X is None else autoencoder_error(net, data.test_X)
            trace.append(TraceRow(k=len(trace.rows), testerr=te, wall_ms=wall_ms,
                                  trainerr=autoencoder_error(net, data.X)))

    epoch_rows(0.0)
    for _ in range(config.epochs):
        t0 = time.perf_counter()
        perms = [rng.permutation(n) for rng in batch_rngs]
        for lo in range(0, n, bs):
            g = minibatch_grad(p, datas, [perm[lo:lo + bs] for perm in perms],
                               first.params.lambda2, out=ws)
            opt.update(p.theta, g.theta)
        epoch_rows(1e3 * (time.perf_counter() - t0))
    return list(zip(nets, traces))


def sgd_run(data: ProblemData, params: ModelParams, config: SgdConfig,
            trace: RunTrace | None = None) -> tuple[NetParams, RunTrace]:
    """Minibatch training; one trace row per epoch (row 0 is the initial point).

    The group of one of ``sgd_lockstep``.
    """
    return sgd_lockstep([SgdMember(data, params, config, trace)])[0]


def net_to_feasible(p: NetParams, data: ProblemData, params: ModelParams) -> Variables:
    """Clamp b into the box first, then V = (W x + b1)_+, so the point is in Z
    (indeed on the penalty-free set) exactly."""
    b1 = np.clip(p.b1, -params.alpha, params.alpha)
    b2 = np.clip(p.b2, -params.alpha, params.alpha)
    V = relu(p.W @ data.X + b1[:, None])
    return Variables(W=p.W.copy(), b1=b1, b2=b2, V=V)


def spg_ada(data: ProblemData, params: ModelParams, spg_config: SpgConfig | None = None,
            ada_epochs: int = 1000, seed: int = 0,
            trace: RunTrace | None = None) -> SpgResult:
    """Adadelta warm start (``sgd_run``), feasibility handoff
    (``net_to_feasible``), then the deterministic solver (``spg.run``).

    The result's ``.trace`` is the run's one trace (``trace``, else a new one):
    the warm start's rows, then the solver's, numbered on across the handoff,
    whose index (the first row with a non-blank mu) the solver records.  Rows
    reach its sink as each phase produces them.
    """
    ada_cfg = SgdConfig(method="adadelta", epochs=ada_epochs, seed=seed)
    p, trace = sgd_run(data, params, ada_cfg, trace=trace)
    return spg_run_driver(data, params, spg_config, z0=net_to_feasible(p, data, params),
                          seed=seed, trace=trace)
