"""Structured splitting solver for the per-iteration proximal subproblem.

Each outer step minimizes, over z in Z,

    Q(z) = <g, z - z_bar> + lambda2 ||W||_F^2 + lambda1 sum(V) + (L/2) ||z - z_bar||^2.

Introducing u_n = W x_n + b1 turns the coupling v_n >= (W x_n + b1)_+ into the
linear constraints v_n >= u_n, v_n >= 0 plus the equality u_n = W x_n + b1,
handled by an augmented Lagrangian of unit weight.  The two primal blocks have
exact closed-form updates:

* (W, b): the minimizer solves against M = D + X^ X^^T, where X^ stacks a row
  of ones under X and D = L I + 2 lambda2 I~^T I~ is diagonal.  M is fixed for
  the whole subproblem, so P = (M^{-1} X^)^T and the constant
  C = [-g_W + L W_bar, -g_b1 + L b1_bar] M^{-1} are formed up front and each
  sweep's minimizer is W^ = C + (rho + U) P.  With more samples than input
  dimensions (N > N0) M is Cholesky-factored and each sweep forms W^ and
  S = W X + b1 1^T.  With N <= N0 the matrix inversion lemma factors the
  N x N matrix I + X^^T D^{-1} X^ instead, and each sweep stays in sample
  space: S = C_W X + (rho + U) P_W X + b1 1^T from two products formed up
  front, and W is formed once, after the last sweep.  b is clamped into the
  box [-alpha, alpha] (the clamp is exact for b2, and diagnostics count any
  b1 activations).
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
    """M = L I + 2 lambda2 I~^T I~ + X^ X^^T, solved against once per subproblem.

    ``build`` applies M^{-1} twice: to X^, giving P = (M^{-1} X^)^T of shape
    (N, N0+1), and to the anchor/gradient term, giving
    C = [-g_W + L W_bar, -g_b1 + L b1_bar] M^{-1}.  It also clamps b2, which no
    sweep changes.  Each sweep's (W, b) minimizer is then W^ = C + (rho + U) P,
    with no triangular solve.

    The form follows from the shape.  With N > N0 it Cholesky-factors M, of
    order N0+1.  With N <= N0 it uses the matrix inversion lemma on the
    diagonal D = L I + 2 lambda2 I~^T I~: with K = X^^T D^{-1} X^ it factors
    I + K, of order N, so P = (I + K)^{-1} (D^{-1} X^)^T and
    C = R D^{-1} - (R D^{-1} X^) P for R = [-g_W + L W_bar, -g_b1 + L b1_bar],
    and M is never formed.  It then also keeps G = P_W X (N x N) and
    CX = C_W X (N1 x N), where P_W and C_W are the first N0 columns, so a
    sweep costs N1 N^2 multiply-adds instead of 2 N1 N (N0+1).
    """

    P: np.ndarray = field(repr=False)    # (N, N0+1), C-contiguous
    C: np.ndarray = field(repr=False)    # (N1, N0+1)
    b2: np.ndarray = field(repr=False)   # (N0,)
    G: np.ndarray | None = field(default=None, repr=False)   # (N, N), sample space only
    CX: np.ndarray | None = field(default=None, repr=False)  # (N1, N), sample space only

    @property
    def sample_space(self) -> bool:
        return self.G is not None

    @classmethod
    def build(cls, spec: SubproblemSpec) -> "FactorizationCache":
        data, a, g, L = spec.data, spec.anchor, spec.grads, spec.L
        n, n0 = data.n_samples, data.n_visible
        lambda2, alpha = spec.params.lambda2, spec.params.alpha
        Xhat = np.vstack([data.X, np.ones((1, n))])
        rhs = np.hstack([-g.g_W + L * a.W, (-g.g_b1 + L * a.b1)[:, None]])
        b2 = np.clip(a.b2 - g.g_b2 / L, -alpha, alpha)
        if n > n0:
            M = Xhat @ Xhat.T
            idx = np.arange(n0)
            M[idx, idx] += L + 2.0 * lambda2
            M[n0, n0] += L
            cho = cho_factor(M, lower=True)
            del M  # as large as the factor: free it before the two solves below
            return cls(P=np.ascontiguousarray(cho_solve(cho, Xhat).T),
                       C=np.ascontiguousarray(cho_solve(cho, rhs.T).T), b2=b2)
        d = np.full(n0 + 1, L + 2.0 * lambda2)
        d[n0] = L
        DiX = Xhat / d[:, None]
        IK = Xhat.T @ DiX
        IK[np.diag_indices(n)] += 1.0
        P = np.ascontiguousarray(cho_solve(cho_factor(IK, lower=True), DiX.T))
        RD = rhs / d
        C = RD - (RD @ Xhat) @ P
        return cls(P=P, C=C, b2=b2, G=P[:, :n0] @ data.X, CX=C[:, :n0] @ data.X)


@dataclass
class AdmmState:
    """Primal blocks, auxiliary U, multipliers rho, and progress bookkeeping.

    After a sample-space (W, b) step, ``W`` = C_W + (rho + U) P_W is formed
    the first time it is read.
    """

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
    _W: np.ndarray | None = field(default=None, init=False, repr=False)
    _W_pending: tuple | None = field(default=None, init=False, repr=False)  # (cache, T)

    @property
    def W(self) -> np.ndarray:
        if self._W is None:
            cache, T = self._W_pending
            n0 = cache.b2.size
            self.W = cache.C[:, :n0] + T @ cache.P[:, :n0]
        return self._W

    @W.setter
    def W(self, value: np.ndarray) -> None:
        self._W, self._W_pending = value, None

    @classmethod
    def from_anchor(cls, spec: SubproblemSpec,
                    anchor_S: np.ndarray | None = None) -> "AdmmState":
        """Start at the anchor.  ``anchor_S`` is its W X + b1 1^T when the caller
        already holds it; the state only reads it, through a read-only view."""
        a, L = spec.anchor, spec.L
        if anchor_S is None:
            S = a.W @ spec.data.X + a.b1[:, None]
        else:
            S = anchor_S.view()
            S.flags.writeable = False
        xi1 = spec.grads.g_V / L - a.V + spec.params.lambda1 / L
        state = cls(b1=a.b1.copy(), b2=a.b2.copy(), V=a.V.copy(),
                    U=S.copy(), rho=np.zeros_like(S), S=S, xi1=xi1)
        state.W = a.W.copy()
        return state


def update_wb(state: AdmmState, spec: SubproblemSpec, cache: FactorizationCache) -> AdmmState:
    """Exact (W, b) block minimizer, then clamp b into the box.

    W^ = (-[g_W, g_b1] + L [W_bar, b1_bar] + (rho + U) X^^T) M^{-1}
       = C + (rho + U) P;
    b2 = clamp(b2_bar - g_b2 / L); b1 = clamp(last column of W^).
    In sample space only the b1 column is formed; S comes from the cached
    products and W is left for the first read of ``state.W``.
    """
    alpha = spec.params.alpha
    n0 = spec.data.n_visible
    if cache.sample_space:
        T = state.rho + state.U
        b1_cand = cache.C[:, n0] + T @ cache.P[:, n0]
        WX = cache.CX + T @ cache.G
        state._W, state._W_pending = None, (cache, T)
    else:
        What = cache.C + (state.rho + state.U) @ cache.P
        W = np.ascontiguousarray(What[:, :n0])
        b1_cand = What[:, n0]
        WX = W @ spec.data.X
        state.W = W
    b1 = np.clip(b1_cand, -alpha, alpha)
    state.b1_clamp_hits += int(np.count_nonzero(b1 != b1_cand))
    state.b1 = b1
    state.b2 = cache.b2
    state.S = WX + b1[:, None]
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
                     max_iter: int = 10000, *,
                     anchor_S: np.ndarray | None = None) -> SubproblemResult:
    """Run the splitting iteration to tolerance and return a point in Z.

    ``anchor_S`` is the anchor's W X + b1 1^T if the caller has it; it is
    never written to.
    """
    g = spec.grads
    for block in (g.g_W, g.g_b1, g.g_b2, g.g_V):
        if not np.all(np.isfinite(block)):
            raise NumericError("non-finite gradient block passed to solver")
    state = AdmmState.from_anchor(spec, anchor_S)
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
    return SubproblemResult(z=z, iters=state.iters,
                            deltas=(state.delta_rho_sq, state.delta_u_sq),
                            b1_clamp_hits=state.b1_clamp_hits, converged=converged)
