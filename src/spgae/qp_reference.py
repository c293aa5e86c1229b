"""Independent reference solver and KKT certificate for the proximal subproblem.

The subproblem is a diagonal-Hessian QP  min (1/2) z^T H z + q^T z  s.t.
A z <= c,  with H = L I + 2 lambda2 on the W coordinates and q = g + lambda1
on the V coordinates - L z_bar.  It splits by hidden unit: v_n >= W x_n + b1,
v_n >= 0 and |b1| <= alpha tie unit i's (W_i, b1_i, V_i) only to itself, so
it is N1 QPs sharing one (2N+2) x (N0+1+N) constraint block plus a box QP in
b2 (``unit_blocks``).  The solver runs FISTA on the dual of all of them at
once, with one step, restart and stop test (projection onto gamma >= 0 is a
clamp), then polishes each unit by solving its active-set KKT system through
its Schur complement A_a H^-1 A_a^T.  The KKT certificate recovers each
unit's multipliers with the Lawson-Hanson NNLS below.  The solver stays
limited to packed dimension <= 500, though the split would carry further:
the limit picks which ``qp-bench`` rows carry a reference.  Nothing here
shares code with the production splitting solver, so agreement between the
two is a real check; numpy does all the linear algebra.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import Variables
from .subproblem import SubproblemSpec

MAX_REFERENCE_DIM = 500


class UnitBlock(NamedTuple):
    """QPs  min (1/2) u^T diag(h) u + Q_i^T u  s.t.  A u <= c, one per row of
    Q; rows[i] and cols[i] place QP i's rows and variables in A z <= c."""
    A: np.ndarray
    c: np.ndarray
    h: np.ndarray
    Q: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def quadratic_terms(spec: SubproblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal Hessian h and linear term q of the subproblem QP (constant dropped)."""
    data, params = spec.data, spec.params
    n, n0, n1 = data.dims
    nw, nb = n1 * n0, n1 + n0
    h = np.full(data.n_packed, spec.L)
    h[:nw] += 2.0 * params.lambda2
    q = spec.grads.pack() - spec.L * spec.anchor.pack()
    q[nw + nb:] += params.lambda1
    return h, q


def unit_blocks(spec: SubproblemSpec) -> tuple[UnitBlock, UnitBlock]:
    """The N1 unit QPs, rows [X^T 1 -I; 0 0 -I; e_b; -e_b] <= (0, 0, alpha,
    alpha) over (W_i, b1_i, V_i), and the box QP |b2| <= alpha."""
    n, n0, n1 = spec.data.dims
    nw, nb, nv = n1 * n0, n1 + n0, n1 * n
    alpha = spec.params.alpha
    h, q = quadratic_terms(spec)
    A = np.zeros((2 * n + 2, n0 + 1 + n))
    A[:n, :n0] = spec.data.X.T
    A[:n, n0] = 1.0
    A[:n, n0 + 1:] = A[n:2 * n, n0 + 1:] = -np.eye(n)
    A[2 * n:, n0] = (1.0, -1.0)
    unit, samples = np.arange(n1)[:, None], n1 * np.arange(n)
    cols = np.hstack([unit + n1 * np.arange(n0), nw + unit, nw + nb + unit + samples])
    rows = np.hstack([unit + samples, nv + unit + samples, 2 * nv + unit,
                      2 * nv + nb + unit])
    units = UnitBlock(A, np.r_[np.zeros(2 * n), alpha, alpha], h[cols[0]], q[cols],
                      rows, cols)
    box = np.arange(n1, nb)
    b2 = UnitBlock(np.vstack([np.eye(n0), -np.eye(n0)]), np.full(2 * n0, alpha),
                   h[nw + box], q[None, nw + box],
                   np.r_[2 * nv + box, 2 * nv + nb + box][None], nw + box[None])
    return units, b2


def nnls(A: np.ndarray, b: np.ndarray, maxiter: int | None = None) -> tuple[np.ndarray, float]:
    """argmin ||A x - b|| over x >= 0, by Lawson and Hanson's active-set method.

    Returns ``(x, ||A x - b||)`` and raises ``RuntimeError`` after ``maxiter``
    (default ``3 n``) iterations, like ``scipy.optimize.nnls``.  The passive
    set starts at the positive entries of the unconstrained least-squares
    solution; when those are all of them, that solution is the answer.
    """
    m, n = A.shape
    maxiter = maxiter or 3 * n
    # w = A^T (b - A x) is exact up to the rounding of the residual, which
    # grows with ||b|| + ||A|| ||x||
    a_norm = float(np.linalg.norm(A))
    tol = 10.0 * max(m, n) * np.finfo(float).eps * a_norm

    def solve_passive():
        s = np.zeros(n)
        if passive.any():
            s[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
        return s

    x = np.zeros(n)
    s = np.linalg.lstsq(A, b, rcond=None)[0]
    passive = s > 0
    if not passive.all():
        s = solve_passive()
    for _ in range(maxiter):
        blocked = np.flatnonzero(passive & (s <= 0))
        if blocked.size:
            # move from x towards s until the first passive entry reaches 0
            # an entry with x = s = 0 blocks at once: its 0/0 counts as 0
            ratio = x[blocked] / np.maximum(x[blocked] - s[blocked], np.finfo(float).tiny)
            x += ratio.min() * (s - x)
            x[blocked[np.argmin(ratio)]] = 0.0
            passive &= x > 0
            x[~passive] = 0.0
        else:
            x = s
            w = A.T @ (b - A @ x)
            w[passive] = -np.inf
            if passive.all() or w.max() <= tol * (np.linalg.norm(b)
                                                  + a_norm * np.linalg.norm(x)):
                return x, float(np.linalg.norm(A @ x - b))
            passive[np.argmax(w)] = True
        s = solve_passive()
    raise RuntimeError("Maximum number of iterations reached.")


def kkt_residual(spec: SubproblemSpec, z: Variables) -> dict:
    """Stationarity / feasibility / complementarity residuals of z.

    Each unit's multipliers are recovered by nonnegative least squares
    restricted to its constraints active within 1e-6; the units'
    stationarity residuals add in squares.  ``"gamma"`` holds the
    multipliers in the row order of the dense system A z <= c.
    """
    blocks = unit_blocks(spec)
    zv = z.pack()
    gamma, slack = np.zeros((2, sum(blk.rows.size for blk in blocks)))
    stat_sq = 0.0
    for blk in blocks:
        for rows, cols, q in zip(blk.rows, blk.cols, blk.Q):
            grad = blk.h * zv[cols] + q
            slack[rows] = blk.A @ zv[cols] - blk.c
            active = slack[rows] >= -1e-6
            if np.any(active):
                gamma[rows[active]], stat = nnls(blk.A[active].T, -grad)
            else:
                stat = float(np.linalg.norm(grad))
            stat_sq += stat * stat
    stat = float(np.sqrt(stat_sq))
    feas = float(max(0.0, slack.max()))
    comp = float(abs(gamma @ slack))
    return {"stationarity": stat, "feasibility": feas, "complementarity": comp,
            "max": float(max(stat, feas, comp)), "gamma": gamma}


def _polish(h, q, A, c, gamma, zv, act_tol, slack_tol=1e-9):
    """Solve the KKT system on a guessed active set; return z if it certifies.

    H z + A_a^T gamma = -q and A_a z = c_a, with z eliminated: the Schur
    complement (A_a H^-1 A_a^T) gamma = -(c_a + A_a H^-1 q), by minimum-norm
    least squares so that a degenerate active set still yields its z.
    """
    slack = A @ zv - c
    active = (gamma > act_tol) | (slack > -act_tol)
    na = int(np.count_nonzero(active))
    if na == 0:
        zv = -q / h
        return zv if np.all(A @ zv - c <= slack_tol) else None
    Aa = A[active]
    AaHinv = Aa / h
    ga = np.linalg.lstsq(AaHinv @ Aa.T, -(c[active] + AaHinv @ q), rcond=None)[0]
    zp = -(q + Aa.T @ ga) / h
    if np.any(ga < -1e-9):
        return None
    if not np.all(A @ zp - c <= slack_tol):
        return None
    if np.linalg.norm(h * zp + q + Aa.T @ ga) > 1e-8 * max(1.0, float(np.linalg.norm(q))):
        return None
    return zp


def _dual_point(blocks, gamma: np.ndarray, n_packed: int) -> np.ndarray:
    """The Lagrangian's minimizer z = -(q + A^T gamma) / h, block by block."""
    zv = np.empty(n_packed)
    for blk in blocks:
        zv[blk.cols] = -(blk.Q + gamma[blk.rows] @ blk.A) / blk.h
    return zv


def _polish_units(blocks, gamma, zv, act_tols) -> np.ndarray | None:
    """zv with each unit polished at the first of ``act_tols`` that
    certifies, or None if one unit certifies at none."""
    zp = zv.copy()
    for blk in blocks:
        for rows, cols, q in zip(blk.rows, blk.cols, blk.Q):
            for act_tol in act_tols:
                z = _polish(blk.h, q, blk.A, blk.c, gamma[rows], zv[cols], act_tol)
                if z is not None:
                    zp[cols] = z
                    break
            else:
                return None
    return zp


def reference_solve(spec: SubproblemSpec) -> Variables:
    """Solve the subproblem on a tiny instance via dual FISTA + active-set polish."""
    data = spec.data
    if data.n_packed > MAX_REFERENCE_DIM:
        raise ValueError(f"reference solver limited to {MAX_REFERENCE_DIM} packed "
                         f"variables, got {data.n_packed}")
    blocks = unit_blocks(spec)
    As = [blk.A / np.sqrt(blk.h) for blk in blocks]
    # the dual's Lipschitz constant, the largest lambda_max(A H^-1 A^T) of a
    # block, from the smaller Gram matrix of A H^-1/2
    lip = max(float(np.linalg.eigvalsh(a.T @ a)[-1]) for a in As)
    step = 1.0 / max(lip, 1e-12)
    scale = max(1.0, float(np.linalg.norm(quadratic_terms(spec)[1])))
    s0 = [-(blk.Q / blk.h) @ blk.A.T - blk.c for blk in blocks]
    AHA = [a @ a.T for a in As]

    def slack(y):   # A z(y) - c = s0 - y A H^-1 A^T, block by block
        out = np.empty(y.size)
        for blk, s, k in zip(blocks, s0, AHA):
            out[blk.rows] = s - y[blk.rows] @ k
        return out

    gamma = np.zeros(sum(blk.rows.size for blk in blocks))
    yk = gamma.copy()
    t = 1.0
    for it in range(1, 200001):
        grad_dual = -slack(yk)
        gamma_next = np.maximum(yk - step * grad_dual, 0.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        if np.dot(grad_dual, gamma_next - gamma) > 0:  # adaptive restart
            yk, t_next = gamma_next, 1.0
        else:
            yk = gamma_next + ((t - 1.0) / t_next) * (gamma_next - gamma)
        gamma, t = gamma_next, t_next
        if it % 25 == 0 or it == 200000:   # stop at 1e-9, or 1e-5 if the polish certifies
            zv, s = _dual_point(blocks, gamma, data.n_packed), slack(gamma)
            viol = float(max(0.0, s.max()))
            comp = float(abs(gamma @ s))
            if max(viol, comp / scale) <= 1e-5:
                zp = _polish_units(blocks, gamma, zv, (1e-7, 1e-9, 1e-5))
                if zp is not None:
                    return Variables.unpack(zp, data)
            if max(viol, comp / scale) <= 1e-9:
                return Variables.unpack(zv, data)
    zv = _dual_point(blocks, gamma, data.n_packed)
    zp = _polish_units(blocks, gamma, zv, (1e-7, 1e-9, 1e-5, 1e-4))
    return Variables.unpack(zv if zp is None else zp, data)
