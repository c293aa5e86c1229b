"""Independent reference solver and KKT certificate for the proximal subproblem.

Only meant for tiny instances (packed dimension <= 500).  The subproblem is a
diagonal-Hessian QP

    min_z  (1/2) z^T H z + q^T z   s.t.  A z <= c,

with H = L I + 2 lambda2 on the W coordinates and q = g + lambda1 on the V
coordinates - L z_bar.  The solver runs FISTA on the dual (projection onto
gamma >= 0 is a clamp), then polishes by solving the active-set KKT system
exactly through its Schur complement A_a H^-1 A_a^T, which is no larger than
the active set.  The KKT certificate recovers multipliers with the
Lawson-Hanson NNLS below.  Nothing here shares code with the production
splitting solver, so agreement between the two is a real check; numpy does
all the linear algebra.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, ProblemData, Variables
from .subproblem import SubproblemSpec

MAX_REFERENCE_DIM = 500


def dense_constraints(data: ProblemData, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Materialize (A, c) for tiny instances, matching the implicit row order."""
    n, n0, n1 = data.dims
    if data.n_packed > MAX_REFERENCE_DIM:
        raise ValueError(f"dense constraints limited to {MAX_REFERENCE_DIM} packed "
                         f"variables, got {data.n_packed}")
    nw, nb = n1 * n0, n1 + n0
    nv = n1 * n
    nz = data.n_packed
    rows_couple = np.zeros((nv, nz))
    rows_couple[:, :nw] = np.kron(data.X.T, np.eye(n1))
    rows_couple[:, nw:nw + n1] = np.kron(np.ones((n, 1)), np.eye(n1))
    rows_couple[:, nw + nb:] = -np.eye(nv)
    rows_vpos = np.zeros((nv, nz))
    rows_vpos[:, nw + nb:] = -np.eye(nv)
    rows_bhi = np.zeros((nb, nz))
    rows_bhi[:, nw:nw + nb] = np.eye(nb)
    rows_blo = -rows_bhi
    A = np.vstack([rows_couple, rows_vpos, rows_bhi, rows_blo])
    c = np.concatenate([np.zeros(2 * nv), np.full(2 * nb, params.alpha)])
    return A, c


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


def kkt_residual(spec: SubproblemSpec, z: Variables, active_tol: float = 1e-6) -> dict:
    """Stationarity / feasibility / complementarity residuals of z.

    Multipliers are recovered by nonnegative least squares restricted to the
    constraints active within ``active_tol``.
    """
    A, c = dense_constraints(spec.data, spec.params)
    h, q = quadratic_terms(spec)
    zv = z.pack()
    grad = h * zv + q
    slack = A @ zv - c
    feas = float(max(0.0, slack.max())) if slack.size else 0.0
    active = slack >= -active_tol
    if np.any(active):
        gamma_act, stat = nnls(A[active].T, -grad)
        gamma = np.zeros(A.shape[0])
        gamma[active] = gamma_act
    else:
        gamma = np.zeros(A.shape[0])
        stat = float(np.linalg.norm(grad))
    comp = float(abs(gamma @ slack))
    return {"stationarity": float(stat), "feasibility": feas,
            "complementarity": comp,
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


def reference_solve(spec: SubproblemSpec, tol: float = 1e-9,
                    max_iter: int = 200000) -> Variables:
    """Solve the subproblem on a tiny instance via dual FISTA + active-set polish."""
    data = spec.data
    if data.n_packed > MAX_REFERENCE_DIM:
        raise ValueError(f"reference solver limited to {MAX_REFERENCE_DIM} packed "
                         f"variables, got {data.n_packed}")
    A, c = dense_constraints(data, spec.params)
    h, q = quadratic_terms(spec)
    # the dual's Lipschitz constant, from the nz x nz Gram matrix, which
    # shares its nonzero spectrum with the m x m (A/h) A^T
    As = A / np.sqrt(h)
    lip = float(np.linalg.eigvalsh(As.T @ As)[-1])
    step = 1.0 / max(lip, 1e-12)
    scale = max(1.0, float(np.linalg.norm(q)))

    gamma = np.zeros(A.shape[0])
    yk = gamma.copy()
    t = 1.0
    for it in range(1, max_iter + 1):
        grad_dual = -(A @ (-(q + A.T @ yk) / h) - c)
        gamma_next = np.maximum(yk - step * grad_dual, 0.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        if np.dot(grad_dual, gamma_next - gamma) > 0:  # adaptive restart
            yk, t_next = gamma_next, 1.0
        else:
            yk = gamma_next + ((t - 1.0) / t_next) * (gamma_next - gamma)
        gamma, t = gamma_next, t_next
        if it % 200 == 0 or it == max_iter:
            zv = -(q + A.T @ gamma) / h
            slack = A @ zv - c
            viol = float(max(0.0, slack.max()))
            comp = float(abs(gamma @ slack))
            if max(viol, comp / scale) <= 1e4 * tol:
                for act_tol in (1e-7, 1e-9, 1e-5):
                    zp = _polish(h, q, A, c, gamma, zv, act_tol)
                    if zp is not None:
                        return Variables.unpack(zp, data)
            if max(viol, comp / scale) <= tol:
                return Variables.unpack(zv, data)
    zv = -(q + A.T @ gamma) / h
    for act_tol in (1e-7, 1e-9, 1e-5, 1e-4):
        zp = _polish(h, q, A, c, gamma, zv, act_tol)
        if zp is not None:
            return Variables.unpack(zp, data)
    return Variables.unpack(zv, data)
