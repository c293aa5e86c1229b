"""Structured splitting solver for the per-iteration proximal subproblem.

Each outer step minimizes, over z in Z,

    Q(z) = <g, z - z_bar> + lambda2 ||W||_F^2 + lambda1 sum(V) + (L/2) ||z - z_bar||^2.

Introducing u_n = W x_n + b1 turns the coupling v_n >= (W x_n + b1)_+ into the
linear constraints v_n >= u_n, v_n >= 0 plus the equality u_n = W x_n + b1,
handled by an augmented Lagrangian of unit weight.  The two primal blocks have
exact closed-form updates:

* (W, b): the minimizer solves against M = L I + 2 lambda2 I~^T I~ + X^ X^^T,
  where X^ stacks a row of ones under X.  M is fixed for the whole subproblem,
  so its Cholesky factor is applied once per subproblem: P = (M^{-1} X^)^T and
  the constant C = [-g_W + L W_bar, -g_b1 + L b1_bar] M^{-1} are formed up
  front, and each sweep is the single product W^ = C + (rho + U) P.  b is then
  clamped into the box [-alpha, alpha] (the clamp is exact for b2, and
  diagnostics count any b1 activations).
* (V, U): an entrywise four-case formula driven by xi1 = g_V/L - V_bar +
  lambda1/L and xi2 = rho - (W X + b1 1^T).

The multiplier step is rho += U - (W X + b1 1^T); iteration stops when
max(||d rho||_F^2, ||d U||_F^2) <= tol.  Block order is (W, b) -> (V, U) ->
multipliers so every update consumes exactly the quantities its closed form
names.  The returned V is snapped upward onto max(V, W X + b1 1^T, 0) so the
iterate lies in Z exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import ModelParams, ProblemData, Variables, regularizer
from .smoothing import GradientBlocks


class NumericError(RuntimeError):
    """Non-finite values inside the solver; carries a state snapshot."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class SubproblemSpec:
    """Anchor point, gradient blocks and weights defining one subproblem."""

    anchor: Variables
    grads: GradientBlocks
    L: float
    mu: float          # provenance only; the QP itself does not involve mu
    params: ModelParams
    data: ProblemData

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")


def subproblem_objective(spec: SubproblemSpec, z: Variables) -> float:
    """Q(z) = <g, z - z_bar> + R(z) + (L/2)||z - z_bar||^2."""
    dz = z.pack() - spec.anchor.pack()
    return float(spec.grads.pack() @ dz + regularizer(z, spec.params)
                 + 0.5 * spec.L * (dz @ dz))


@dataclass(frozen=True)
class FactorizationCache:
    """M = L I + 2 lambda2 I~^T I~ + X^ X^^T, factored and applied once per subproblem.

    ``build`` factors M and applies the factor twice: to X^, giving
    P = (M^{-1} X^)^T of shape (N, N0+1), and to the anchor/gradient term,
    giving C = [-g_W + L W_bar, -g_b1 + L b1_bar] M^{-1}.  It also clamps b2,
    which no sweep changes.  Each sweep's (W, b) step is then the single
    product W^ = C + (rho + U) P, with no triangular solve.
    """

    P: np.ndarray = field(repr=False)    # (N, N0+1), C-contiguous
    C: np.ndarray = field(repr=False)    # (N1, N0+1)
    b2: np.ndarray = field(repr=False)   # (N0,)

    @classmethod
    def build(cls, spec: SubproblemSpec) -> "FactorizationCache":
        data, a, g, L = spec.data, spec.anchor, spec.grads, spec.L
        n0 = data.n_visible
        Xhat = np.vstack([data.X, np.ones((1, data.n_samples))])
        M = Xhat @ Xhat.T
        idx = np.arange(n0)
        M[idx, idx] += L + 2.0 * spec.params.lambda2
        M[n0, n0] += L
        cho = cho_factor(M, lower=True)
        del M  # as large as the factor: free it before the two solves below
        rhs = np.hstack([-g.g_W + L * a.W, (-g.g_b1 + L * a.b1)[:, None]])
        alpha = spec.params.alpha
        return cls(P=np.ascontiguousarray(cho_solve(cho, Xhat).T),
                   C=np.ascontiguousarray(cho_solve(cho, rhs.T).T),
                   b2=np.clip(a.b2 - g.g_b2 / L, -alpha, alpha))


@dataclass
class AdmmState:
    """Primal blocks, auxiliary U, multipliers rho, and progress bookkeeping."""

    W: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    V: np.ndarray
    U: np.ndarray
    rho: np.ndarray
    iters: int = 0
    delta_u_sq: float = np.inf
    delta_rho_sq: float = np.inf
    b1_clamp_hits: int = 0
    S: np.ndarray | None = None   # cached W X + b1 1^T for the current (W, b1)
    xi1: np.ndarray | None = None  # g_V/L - V_bar + lambda1/L, fixed per subproblem

    @classmethod
    def from_anchor(cls, spec: SubproblemSpec) -> "AdmmState":
        a, L = spec.anchor, spec.L
        S = a.W @ spec.data.X + a.b1[:, None]
        xi1 = spec.grads.g_V / L - a.V + spec.params.lambda1 / L
        return cls(W=a.W.copy(), b1=a.b1.copy(), b2=a.b2.copy(), V=a.V.copy(),
                   U=S.copy(), rho=np.zeros_like(S), S=S, xi1=xi1)

    @property
    def last_deltas(self) -> tuple[float, float]:
        return (self.delta_rho_sq, self.delta_u_sq)


def update_wb(state: AdmmState, spec: SubproblemSpec, cache: FactorizationCache) -> AdmmState:
    """Exact (W, b) block minimizer, then clamp b into the box.

    W^ = (-[g_W, g_b1] + L [W_bar, b1_bar] + (rho + U) X^^T) M^{-1}
       = C + (rho + U) P;
    b2 = clamp(b2_bar - g_b2 / L); b1 = clamp(last column of W^).
    """
    alpha = spec.params.alpha
    n0 = spec.data.n_visible
    What = cache.C + (state.rho + state.U) @ cache.P
    state.W = np.ascontiguousarray(What[:, :n0])
    b1_cand = What[:, n0]
    b1 = np.clip(b1_cand, -alpha, alpha)
    state.b1_clamp_hits += int(np.count_nonzero(b1 != b1_cand))
    state.b1 = b1
    state.b2 = cache.b2
    state.S = state.W @ spec.data.X + state.b1[:, None]
    return state


def vu_closed_form(xi1, xi2, L):
    """Entrywise minimizer of (L/2)(V + xi1)^2 + (1/2)(U + xi2)^2 over {V >= U, V >= 0}.

    Four cases:
      both constraints slack   (xi2 >= xi1, xi1 <= 0): V = -xi1, U = -xi2
      only V >= 0 active       (xi2 >= 0,  xi1 > 0):  V = 0,    U = -xi2
      both active              (xi2 < 0, L xi1 + xi2 > 0): V = U = 0
      only V >= U active       (otherwise): V = U = -(L xi1 + xi2) / (L + 1)

    With t = -(L xi1 + xi2) / (L + 1) all four are V = max(-xi1, t, 0) and
    U = min(-xi2, V), which is how they are evaluated.
    """
    xi1 = np.asarray(xi1, dtype=np.float64)
    xi2 = np.asarray(xi2, dtype=np.float64)
    tied = -(L * xi1 + xi2) / (L + 1.0)
    V = np.maximum(np.maximum(-xi1, tied), 0.0)
    U = np.minimum(-xi2, V)
    return V, U


def update_vu(state: AdmmState, spec: SubproblemSpec) -> AdmmState:
    """Exact (V, U) block minimizer given the current (W, b1) and multipliers."""
    xi2 = state.rho - state.S
    V, U = vu_closed_form(state.xi1, xi2, spec.L)
    state.delta_u_sq = float(np.sum((U - state.U) ** 2))
    state.V = V
    state.U = U
    return state


def update_multipliers(state: AdmmState) -> AdmmState:
    """rho += U - (W X + b1 1^T) with the current blocks."""
    d = state.U - state.S
    state.rho = state.rho + d
    state.delta_rho_sq = float(np.sum(d * d))
    return state


@dataclass(frozen=True)
class SubproblemResult:
    z: Variables
    iters: int
    deltas: tuple[float, float]   # (||d rho||_F^2, ||d U||_F^2) at the last sweep
    b1_clamp_hits: int
    converged: bool


def solve_subproblem(spec: SubproblemSpec, tol: float = 1e-6,
                     max_iter: int = 10000) -> SubproblemResult:
    """Run the splitting iteration to tolerance and return a point in Z."""
    g = spec.grads
    for block in (g.g_W, g.g_b1, g.g_b2, g.g_V):
        if not np.all(np.isfinite(block)):
            raise NumericError("non-finite gradient block passed to solver")
    state = AdmmState.from_anchor(spec)
    cache = FactorizationCache.build(spec)
    converged = False
    for it in range(1, max_iter + 1):
        update_wb(state, spec, cache)
        update_vu(state, spec)
        update_multipliers(state)
        state.iters = it
        worst = max(state.delta_rho_sq, state.delta_u_sq)
        if not np.isfinite(worst):
            raise NumericError(
                f"non-finite inner iterate at sweep {it} "
                f"(|W|max={np.max(np.abs(state.W)):.3e})", state=state)
        if worst <= tol:
            converged = True
            break
    # Snap the codes so the returned point satisfies Omega2 exactly even
    # though U only matches W X + b1 in the limit.
    V = np.maximum(np.maximum(state.V, state.S), 0.0)
    z = Variables(W=state.W, b1=state.b1, b2=state.b2, V=V)
    return SubproblemResult(z=z, iters=state.iters, deltas=state.last_deltas,
                            b1_clamp_hits=state.b1_clamp_hits, converged=converged)
