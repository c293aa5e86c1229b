"""Formulas, a file reader and solver loops that only the tests use.

The library applies the constraint system, the bias box and the (V, U)
closed form only implicitly or in place, and never reads back the CSV
matrices it writes; these spell each one out for the tests.  ``plain_solve``
drives the three sweep blocks by hand, without acceleration, and ``run_step``
makes one outer step with the inputs ``spg.run`` holds.
``dense_reference_solve`` and ``dense_kkt_stationarity`` are the reference
QP and its certificate on the whole dense system, which ``qp_reference``
splits by hidden unit.
"""

import numpy as np

from spgae.model import ModelParams, ProblemData, Variables, preactivations
from spgae.qp_reference import MAX_REFERENCE_DIM, _polish, nnls, quadratic_terms
from spgae.smoothing import smoothed_objective
from spgae.spg import spg_step
from spgae.subproblem import (AdmmState, WbFactor, update_multipliers, update_vu,
                              update_wb)


def constraint_count(data: ProblemData) -> int:
    """Number nu of rows of the implicit constraint system A z <= c."""
    n, n0, n1 = data.dims
    return 2 * (n * n1 + n0 + n1)


def constraint_residuals(z: Variables, data: ProblemData, params: ModelParams) -> np.ndarray:
    """Residual vector A z - c of the implicit system, length nu.

    Block order: coupling rows (W x_n + b1 - v_n, column-major over samples),
    code nonnegativity rows (-v_n), upper box rows (b - alpha), lower box rows
    (-b - alpha).  z in Z iff every entry is <= 0.
    """
    b = np.concatenate([z.b1, z.b2])
    return np.concatenate([
        (preactivations(z, data).S - z.V).ravel(order="F"),
        (-z.V).ravel(order="F"),
        b - params.alpha,
        -b - params.alpha,
    ])


def project_bias_box(z: Variables, alpha: float) -> Variables:
    """Clamp both bias blocks into [-alpha, alpha]; W and V untouched.

    On the level set {O <= theta} ∩ Omega2 the clamp can only move bias
    entries whose pre-activations are already dead, so the objective value is
    preserved exactly.
    """
    out = z.copy()
    np.clip(out.b1, -alpha, alpha, out=out.b1)
    np.clip(out.b2, -alpha, alpha, out=out.b2)
    return out


def smoothing_gap_bound(data: ProblemData, params: ModelParams) -> float:
    """Coefficient of mu in the sandwich bound: ||X||_1 + N1*N*beta."""
    return data.one_norm + data.n_hidden * data.n_samples * params.beta


def load_matrix_csv(path) -> np.ndarray:
    """A matrix written by ``serialize.save_matrix_csv``."""
    return np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)


def vu_closed_form(xi1, xi2, L):
    """Entrywise minimizer of (L/2)(V + xi1)^2 + (1/2)(U + xi2)^2 over
    {V >= U, V >= 0}, as V = max(-xi1, t, 0), U = min(-xi2, V) with
    t = -(L xi1 + xi2) / (L + 1); ``subproblem.update_vu`` lists the four
    cases this covers and evaluates it in place."""
    xi1 = np.asarray(xi1, dtype=np.float64)
    xi2 = np.asarray(xi2, dtype=np.float64)
    tied = -(L * xi1 + xi2) / (L + 1.0)
    V = np.maximum(np.maximum(-xi1, tied), 0.0)
    U = np.minimum(-xi2, V)
    return V, U


def plain_solve(spec, tol=1e-6, max_iter=10000, *, anchor_S=None, factor=None):
    """The unaccelerated splitting solve, its three blocks called by hand:
    sweep until max(||d rho||^2, ||d U||^2) <= tol, then end it as the
    library does (``AdmmState.finish``)."""
    state = AdmmState.from_anchor(spec, factor, anchor_S)
    converged = False
    while not converged and state.iters < max_iter:
        update_wb(state, spec)
        update_vu(state, spec)
        update_multipliers(state)
        converged = max(state.delta_rho_sq, state.delta_u_sq) <= tol
    return state.finish(spec, converged)


def run_step(z, mu, L, data, params, config, fw=None):
    """``spg_step`` at z given what ``spg.run`` holds there: z's pre-activations
    (``fw``, formed here when not given), O~(z, mu) and a WbFactor for L,
    built here anew."""
    fw = fw or preactivations(z, data)
    return spg_step(z, mu, L, data, params, config, fw=fw,
                    before=smoothed_objective(z, mu, data, params, fw=fw),
                    factor=WbFactor.build(data, L, params.lambda2))


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


def dense_reference_solve(spec, tol=1e-9, max_iter=200000) -> Variables:
    """``reference_solve`` on the whole dense system: dual FISTA with matrix-
    vector products by A, the step from the nz x nz Gram matrix of A H^-1/2,
    and one active-set polish of all of z."""
    data = spec.data
    A, c = dense_constraints(data, spec.params)
    h, q = quadratic_terms(spec)
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


def dense_kkt_stationarity(spec, z, active_tol=1e-6) -> float:
    """``kkt_residual``'s stationarity from one NNLS over every active row of
    the dense system."""
    A, c = dense_constraints(spec.data, spec.params)
    h, q = quadratic_terms(spec)
    zv = z.pack()
    grad = h * zv + q
    active = A @ zv - c >= -active_tol
    if not np.any(active):
        return float(np.linalg.norm(grad))
    return nnls(A[active].T, -grad)[1]
