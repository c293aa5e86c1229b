"""Outer smoothing proximal gradient driver.

Each iteration linearizes the smoothed loss H~ at the current point and solves

    z+ = argmin_{z in Z} <grad H~(z_k, mu_k), z - z_k> + R(z) + (L_k/2)||z - z_k||^2

with the splitting solver.  The pair (mu, L) is kept when the smoothed
objective decreased by more than tau2 * mu / L, otherwise mu shrinks by tau1
and L grows by tau3 (ties shrink).  The loop stops once mu <= epsilon; by the
sandwich bound the smoothed and true objectives then agree to
(||X||_1 + N1*N*beta) * epsilon.
"""

from __future__ import annotations

import inspect
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .data import metrics
from .model import (Forward, ModelParams, ProblemData, Variables, flush_subnormals,
                    init_W, preactivations, regularizer, relu)
from .rng import stream
from .smoothing import smoothed_loss, smoothed_loss_grad, smoothed_objective
from .subproblem import SubproblemResult, SubproblemSpec, WbFactor, solve_subproblem
from .trace import RunTrace, TraceRow

_SOLVE_DEFAULTS = inspect.signature(solve_subproblem).parameters

DIVERGENCE_FACTOR = 10.0   # DivergenceError once O~ passes this multiple of its start


class DivergenceError(RuntimeError):
    """Smoothed objective blew past the divergence guard; carries the trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SpgConfig:
    mu0: float = 1e-3
    tau1: float = 0.5
    tau2: float = 1e-3
    tau3: float = 1.1
    L0: float | None = None          # None -> default_l0, or a warm start's estimate
    epsilon: float = 1e-7
    max_outer_iters: int = 4000
    sub_tol: float = _SOLVE_DEFAULTS["tol"].default
    sub_max_iter: int = _SOLVE_DEFAULTS["max_iter"].default
    theoretical_L: bool = False      # validated-L mode: estimate_validated_l0, box check

    def __post_init__(self):
        # each check is written so that NaN, which fails every comparison, fails it
        if not (0.0 < self.mu0 < 1.0):
            raise ValueError("mu0 must lie in (0, 1)")
        if not (0.0 < self.tau1 < 1.0):
            raise ValueError("tau1 must lie in (0, 1)")
        if not (self.tau2 > 0.0):
            raise ValueError("tau2 must be positive")
        if not (self.tau3 >= 1.0):
            raise ValueError("tau3 must be >= 1")
        if self.L0 is not None and not (self.L0 >= 1.0):
            raise ValueError("L0 must be >= 1")
        if not (0.0 < self.epsilon < self.mu0):
            raise ValueError("epsilon must lie in (0, mu0)")
        if not (self.max_outer_iters >= 1):
            raise ValueError("max_outer_iters must be >= 1")
        if not (self.sub_tol >= 0.0):
            raise ValueError("sub_tol must be >= 0")
        if not (self.sub_max_iter >= 1):
            raise ValueError("sub_max_iter must be >= 1")
        if self.tau1 * self.tau3 < 1.0:
            # stacklevel 3 skips the generated __init__: report the caller's line
            warnings.warn("tau1*tau3 < 1: mu*L may shrink, descent guarantees do not "
                          "apply (practical setting)", stacklevel=3)


def default_l0(data: ProblemData, params: ModelParams) -> float:
    """L* = max{1, sqrt(N0*N1/N), beta, N0/30}."""
    n, n0, n1 = data.dims
    return max(1.0, math.sqrt(n0 * n1 / n), params.beta, n0 / 30.0)


def init_point(data: ProblemData, seed: int = 0) -> tuple[Variables, np.ndarray]:
    """W = ``init_W``, zero biases, V = (W X)_+ — a point of Z with zero
    penalty — and its S = W X + b1 1^T, with W X formed once."""
    n, n0, n1 = data.dims
    W = init_W(data, seed)
    WX = W @ data.X
    z = Variables(W=W, b1=np.zeros(n1), b2=np.zeros(n0), V=relu(WX))
    WX += z.b1[:, None]   # S as preactivations forms it: the add turns -0.0 into 0.0
    return z, WX


def stationarity_diagnostic(z_prev: Variables, z_next: Variables, L: float,
                            params: ModelParams) -> float:
    """Computable surrogate (2*lambda2 + L) * ||z_next - z_prev||_2.

    On shrink iterations of a validated-L run this is bounded by
    2*sqrt(tau2)*sqrt(mu), tying iterate movement to the smoothing level.
    The difference is written block by block into one buffer in ``pack``
    order, so neither point is packed and the norm is the packed one's.
    """
    diff = np.empty(sum(a.size for a in z_next.blocks()))
    o = 0
    for a, b in zip(z_next.blocks(), z_prev.blocks()):
        np.subtract(a, b, out=diff[o:o + a.size].reshape(a.shape, order="F"))
        o += a.size
    return float((2.0 * params.lambda2 + L) * np.linalg.norm(diff))


@dataclass(frozen=True)
class StepResult:
    z_next: Variables
    mu_next: float
    L_next: float
    accepted: bool            # True: sufficient decrease, (mu, L) kept
    decrease: float           # O~(z_next, mu) - O~(z, mu)
    smoothed_after: float     # O~(z_next, mu)
    smoothed_next: float      # O~(z_next, mu_next): the next step's "before"
    sub: SubproblemResult
    fw_next: Forward          # pre-activations of z_next
    reg_next: float           # R(z_next), which both O~ values above add


def spg_step(z: Variables, mu: float, L: float, data: ProblemData,
             params: ModelParams, config: SpgConfig, *, fw: Forward, before: float,
             factor: WbFactor) -> StepResult:
    """One proximal step plus the (mu, L) update rule.

    ``fw`` and ``before`` are z's pre-activations and O~(z, mu), and
    ``factor`` is the WbFactor for L: ``run`` holds all three.  z_next's
    encoder pre-activation is the one the solve returns, so the step forms
    only its decoder product.  The gradient is dropped once the solve
    returns, and R(z_next) is formed once for both smoothed objectives.
    """
    grads = smoothed_loss_grad(z, mu, data, params, fw=fw)
    spec = SubproblemSpec(anchor=z, grads=grads, L=L, params=params, data=data)
    # plain sweeps: at preset 6 the accelerated sweep (anderson=15) cuts sweeps
    # 152,284 -> 6,031 (datatype 2) and 214,986 -> 88,175 (datatype 1), but
    # leaves a worse final fval on three and four of the five seeds
    sub = solve_subproblem(spec, tol=config.sub_tol, max_iter=config.sub_max_iter,
                           anderson=0, anchor_S=fw.S, factor=factor)
    del grads, spec   # g_W is as large as W: free it before z_next is evaluated
    fw_next = preactivations(sub.z, data, S=sub.S)
    reg = regularizer(sub.z, params)
    after = smoothed_objective(sub.z, mu, data, params, fw=fw_next, reg=reg)
    decrease = after - before
    accepted = decrease < -config.tau2 * mu / L
    if accepted:
        mu_next, L_next, smoothed_next = mu, L, after
    else:
        mu_next, L_next = config.tau1 * mu, config.tau3 * L
        smoothed_next = smoothed_objective(sub.z, mu_next, data, params, fw=fw_next,
                                           reg=reg)
    return StepResult(z_next=sub.z, mu_next=mu_next, L_next=L_next, accepted=accepted,
                      decrease=decrease, smoothed_after=after,
                      smoothed_next=smoothed_next, sub=sub, fw_next=fw_next,
                      reg_next=reg)


@dataclass
class SpgResult:
    z: Variables
    trace: RunTrace
    mu: float
    L: float
    iterations: int
    b1_clamp_hits: int
    capped_solves: int   # inner solves that stopped at sub_max_iter (converged=False)
    mu_shrinks: int      # rejected steps: mu shrank by tau1, L grew by tau3
    final_stationarity: float  # stationarity_diagnostic of the last step


def run(data: ProblemData, params: ModelParams, config: SpgConfig | None = None,
        z0: Variables | None = None, seed: int = 0,
        trace: RunTrace | None = None) -> SpgResult:
    """Iterate spg_step until mu <= epsilon (or max iterations / divergence).

    Each iterate's pre-activations and regularizer R(z) are formed once, its
    encoder product W X only for the start point (a step's solve returns
    z_next's); its trace row and the next step's gradient read them.  The
    (W, b) factor is built once per distinct L and reused by every step at
    that L.  Each row goes to ``trace`` (a new one by default) and its sink
    with its index there as ``k``; test error is on ``data.test_X``.

    Without ``z0`` the run starts at ``init_point`` and, when ``config.L0`` is
    None, at ``default_l0``.  A caller's ``z0`` is a warm start: the run
    starts from a copy with its subnormals flushed (``flush_subnormals``: each
    BLAS product of the inner sweeps with a subnormal row runs several times
    slower), and ``z0`` itself is left as it is.  A warm start records its
    first row's index as ``trace.handoff_index`` and, when ``config.L0`` is
    None, starts at ``estimate_local_l0`` of the copy: the cold default
    proximal weight overshoots where preactivations cross the smoothing band.
    With ``config.theoretical_L`` every iterate must stay in the level-set box
    (``_box_radius``; RuntimeError otherwise), and a run without ``config.L0``
    starts at ``estimate_validated_l0`` instead, cold or warm.
    """
    config = config or SpgConfig()
    trace = RunTrace() if trace is None else trace
    mu, L, S, box = config.mu0, config.L0, None, None
    if config.theoretical_L:
        box = _box_radius(data, params)[0]
        L = L or estimate_validated_l0(data, params, mu, seed=seed)[0]
    if z0 is None:
        z, S = init_point(data, seed)
        L = L or default_l0(data, params)
    else:
        z = z0.copy()
        flush_subnormals(*z.blocks())
        L = L or estimate_local_l0(z, mu, data, params, seed=seed)
        trace.handoff_index = len(trace.rows)
    fw = preactivations(z, data, S=S)

    reg = regularizer(z, params)
    smoothed = smoothed_objective(z, mu, data, params, fw=fw, reg=reg)
    trace.append(TraceRow(k=len(trace.rows), mu=mu, L=L, smoothed=smoothed,
                          sub_iters=0, wall_ms=0.0,
                          **metrics(z, data, params, fw=fw, reg=reg)))
    guard = DIVERGENCE_FACTOR * abs(smoothed) + 1e-9
    clamp_hits = capped = shrinks = 0
    factor = None
    for k in range(1, config.max_outer_iters + 1):
        t0 = time.perf_counter()
        if factor is None or factor.L != L:
            factor = None  # free the old factor before the new one is built
            factor = WbFactor.build(data, L, params.lambda2)
        step = spg_step(z, mu, L, data, params, config, fw=fw, before=smoothed,
                        factor=factor)
        wall_ms = 1e3 * (time.perf_counter() - t0)
        clamp_hits += step.sub.b1_clamp_hits
        capped += not step.sub.converged
        shrinks += not step.accepted
        if step.mu_next <= config.epsilon or k == config.max_outer_iters:
            # the last step: formed here, so no step runs while z's
            # predecessor is still held
            stationarity = stationarity_diagnostic(z, step.z_next, L, params)
        z, mu, L, fw = step.z_next, step.mu_next, step.L_next, step.fw_next
        smoothed = step.smoothed_next
        trace.append(TraceRow(k=len(trace.rows), mu=mu, L=L, smoothed=smoothed,
                              sub_iters=step.sub.iters, wall_ms=wall_ms,
                              **metrics(z, data, params, fw=fw, reg=step.reg_next)))
        if box is not None:
            zmax = max(float(np.max(np.abs(a))) for a in z.blocks())
            if zmax > box * (1.0 + 1e-9):
                raise RuntimeError(f"iterate left the level-set box: ||z||_inf = "
                                   f"{zmax:.6e} > {box:.6e}")
        if step.smoothed_after > guard:
            trace.termination_reason = "diverged"
            raise DivergenceError(
                f"smoothed objective {step.smoothed_after:.6e} exceeded "
                f"{DIVERGENCE_FACTOR}x its initial value at iteration {k}",
                trace=trace)
        if mu <= config.epsilon:
            trace.termination_reason = "mu<=eps"
            break
    else:
        trace.termination_reason = "max_iters"
    return SpgResult(z=z, trace=trace, mu=mu, L=L, iterations=k,
                     b1_clamp_hits=clamp_hits, capped_solves=capped,
                     mu_shrinks=shrinks, final_stationarity=stationarity)


def _box_radius(data: ProblemData, params: ModelParams) -> tuple[float, float]:
    """Infinity-norm bound max{alpha, 2*eta} on level-set iterates, and eta."""
    if params.lambda1 <= 0 or params.lambda2 <= 0:
        raise ValueError("validated-L mode requires positive lambda1, lambda2")
    n, n0, n1 = data.dims
    eta = max(math.sqrt(n1 * n0 * params.theta / params.lambda2),
              params.theta / params.lambda1)
    return max(params.alpha, 2.0 * eta), eta


def estimate_validated_l0(data: ProblemData, params: ModelParams, mu0: float,
                          seed: int = 0) -> tuple[float, float]:
    """Sampled estimate of the L0 making every step provably non-increasing.

    mu0 * L0 must dominate max{6*lambda2*N1*N0 + (2/eta)(N2*Lh + lambda1*N1*N),
    8*lambda2 + Lg} where Lh, Lg are Lipschitz moduli of mu*H~ and its gradient
    over the level-set box times (0, 1).  The moduli are estimated from 40
    random pairs and inflated tenfold; overestimation only makes steps smaller.
    Returns (L0, box_radius).
    """
    if not 0.0 < mu0 < 1.0:
        raise ValueError("mu0 must lie in (0, 1)")
    radius, eta = _box_radius(data, params)
    n, n0, n1 = data.dims
    rng = stream(seed, "test")
    nz = data.n_packed
    lh = lg = 0.0
    for _ in range(40):
        base = rng.uniform(-radius, radius, size=nz)
        scale = 10.0 ** rng.uniform(-4, 0) * radius
        other = np.clip(base + rng.standard_normal(nz) * scale, -radius, radius)
        mu_a = float(rng.uniform(1e-4, 1.0))
        mu_b = float(np.clip(mu_a + rng.standard_normal() * 0.1, 1e-4, 1.0))
        za, zb = Variables.unpack(base, data), Variables.unpack(other, data)
        dz = float(np.linalg.norm(base - other))
        dist = math.hypot(dz, mu_a - mu_b)
        if dist < 1e-12:
            continue
        fa = mu_a * smoothed_loss(za, mu_a, data, params)
        fb = mu_b * smoothed_loss(zb, mu_b, data, params)
        lh = max(lh, abs(fa - fb) / dist)
        ga = mu_a * smoothed_loss_grad(za, mu_a, data, params).pack()
        gb = mu_b * smoothed_loss_grad(zb, mu_b, data, params).pack()
        lg = max(lg, float(np.linalg.norm(ga - gb)) / dist)
    bound = max(6.0 * params.lambda2 * n1 * n0
                + (2.0 / eta) * (nz * lh + params.lambda1 * n1 * n),
                8.0 * params.lambda2 + lg)
    l0 = min(max(10.0 * bound / mu0, 1.0), 1e30)
    return l0, radius


def estimate_local_l0(z0: Variables, mu0: float, data: ProblemData,
                      params: ModelParams, seed: int = 0) -> float:
    """Secant estimate of the gradient-Lipschitz scale of H~ near z0.

    The proximal weight must dominate the local curvature for the first
    steps to decrease the smoothed objective; from the near-zero default
    initialization the curvature is tiny and the practical default handles
    it, but a warm start sits in a region where entries of the
    preactivations cross the smoothing band and curvature reaches
    O(max|X| / mu).  Secants along 8 random directions capture that scale,
    which is doubled for safety.  Floored at default_l0, so cold-ish points
    fall back to the practical setting.
    """
    rng = stream(seed, "test")
    g0 = smoothed_loss_grad(z0, mu0, data, params).pack()
    v0 = z0.pack()
    step = 1e-3 * (1.0 + float(np.max(np.abs(v0))))
    ratio = 0.0
    for _ in range(8):
        d = rng.standard_normal(v0.size)
        d /= float(np.linalg.norm(d))
        zp = Variables.unpack(v0 + step * d, data)
        gp = smoothed_loss_grad(zp, mu0, data, params).pack()
        ratio = max(ratio, float(np.linalg.norm(gp - g0)) / step)
    return min(max(2.0 * ratio, default_l0(data, params)), 1e12)
