"""Structured splitting solver for the per-iteration proximal subproblem.

Each outer step minimizes, over z in Z,

    Q(z) = <g, z - z_bar> + lambda2 ||W||_F^2 + lambda1 sum(V) + (L/2) ||z - z_bar||^2.

Introducing u_n = W x_n + b1 turns the coupling v_n >= (W x_n + b1)_+ into the
linear constraints v_n >= u_n, v_n >= 0 plus the equality u_n = W x_n + b1,
handled by an augmented Lagrangian of unit weight.  The two primal blocks have
exact closed-form updates:

* (W, b): the minimizer solves against M = D + X^ X^^T, where X^ stacks a row
  of ones under X and D = L I + 2 lambda2 I~^T I~ is diagonal.  M depends
  only on (L, lambda2, X), so P = X^^T M^{-1} is formed once per L (a
  WbFactor, which an outer run keeps until L changes), the anchor's terms
  once per subproblem (by WbFactor.step_terms, which AdmmState.from_anchor
  calls), and each sweep's minimizer is W^ = R M^{-1} + (rho + U) P for
  R = [-g_W + L W_bar, -g_b1 + L b1_bar].  With more samples than
  input dimensions (N > N0) M is inverted and each sweep forms W^ and
  S = W X + b1 1^T.  With N <= N0 the matrix inversion lemma solves against
  the N x N matrix I + X^^T D^{-1} X^ instead, and each sweep stays in sample
  space: S = (R M^{-1})_W X + (rho + U) G + b1 1^T, G = P_W X, at N1 N^2
  multiply-adds.  A sample-space solve forms one N1 (N0+1) N product,
  K = R D^{-1} X^, and one N1 N^2 product, K G, up front, and one
  N1 N N0 product, W = (rho + U - K) P_W + (R D^{-1})_W, after the last
  sweep.  b is clamped into the box [-alpha, alpha] (the clamp is exact for
  b2, and diagnostics count any b1 activations).  numpy's LAPACK does the
  linear algebra; scipy is not imported.
* (V, U): an entrywise four-case formula driven by xi1 = g_V/L - V_bar +
  lambda1/L and xi2 = rho - (W X + b1 1^T).

The multiplier step is rho += U - (W X + b1 1^T); iteration stops when
max(||d rho||_F^2, ||d U||_F^2) <= tol, each squared norm one BLAS dot of the
sweep's difference buffer with itself.  Block order is (W, b) -> (V, U) ->
multipliers so every update consumes exactly the quantities its closed form
names.  The returned V is snapped upward onto max(V, S, 0), S = W X + b1 1^T
of the last (W, b) step, so the iterate lies in Z exactly.  The result
carries that S as the returned point's encoder pre-activation: bit for bit
its W X + b1 1^T in feature space, equal up to rounding in sample space.

After a (W, b) step the rest of a sweep depends only on xi = S - rho (-xi2
below), the (V, U) step's one input: U+ = vu(xi), rho+ = U+ - xi, and the
next (W, b) step reads rho+ + U+ = 2 U+ - xi.  So one sweep is a map of xi,
G(x) = S+ - rho+, with residual G(x) - x = S+ - U+.  With ``anderson=m > 0`` a
type-II Anderson step over the last m residuals (AndersonHistory) follows
each (W, b) step and moves xi on from G(x) by setting rho := S - xi;
update_vu, update_multipliers and the stop test then run as in the plain
sweep.

The blocks write their (N1 x N) results and temporaries into buffers that
AdmmState.from_anchor allocates once per solve, after the factor and the
subproblem's constants are formed (so they are never live during either
peak); a sweep allocates nothing of that size.  AdmmState.finish drops them,
and solve_subproblem the Anderson rings, before W is formed.  Beside the
anchor's W and g_W, a sample-space solve thus holds one N1 x N0 array at a
time: R, until step_terms has formed K, CX and c_b from it, then only the
returned W, to which (R D^{-1})_W is added a row block at a time.  A
feature-space solve keeps C = R M^{-1} and the last W^ through its sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, ProblemData, Variables, regularizer


class NumericError(RuntimeError):
    """Non-finite values inside the solver; carries a state snapshot."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class SubproblemSpec:
    """Anchor point, gradient blocks and weights defining one subproblem."""

    anchor: Variables
    grads: Variables
    L: float
    params: ModelParams
    data: ProblemData

    def __post_init__(self):
        if not (self.L > 0):
            raise ValueError("L must be positive")


def subproblem_objective(spec: SubproblemSpec, z: Variables) -> float:
    """Q(z) = <g, z - z_bar> + R(z) + (L/2)||z - z_bar||^2."""
    dz = z.pack() - spec.anchor.pack()
    return float(spec.grads.pack() @ dz + regularizer(z, spec.params)
                 + 0.5 * spec.L * (dz @ dz))


@dataclass(frozen=True)
class WbFactor:
    """The part of the (W, b) solve that depends only on (L, lambda2, X).

    M = L I + 2 lambda2 I~^T I~ + X^ X^^T changes only when L does, so an
    outer run builds one of these per distinct L and hands it to every solve
    at that L.  The form follows from the shape.  With N > N0 it inverts M,
    of order N0+1, and keeps Minv = M^{-1} and P = X^^T M^{-1}.  With N <= N0
    it uses the matrix inversion lemma on the diagonal D = L I + 2 lambda2
    I~^T I~: with K = X^^T D^{-1} X^ it solves against I + K, of order N,
    for P = (I + K)^{-1} (D^{-1} X^)^T, and keeps G = P_W X (N x N), where
    P_W is P's first N0 columns; M is never formed.  numpy's LAPACK does
    both.
    """

    L: float
    lambda2: float
    X: np.ndarray = field(repr=False)     # the data it was built for
    P: np.ndarray = field(repr=False)     # (N, N0+1), C-contiguous
    Minv: np.ndarray | None = field(default=None, repr=False)  # (N0+1, N0+1), N > N0 only
    d: np.ndarray | None = field(default=None, repr=False)     # (N0+1,) diagonal of D, N <= N0 only
    Xhat: np.ndarray | None = field(default=None, repr=False)  # (N0+1, N), N <= N0 only
    G: np.ndarray | None = field(default=None, repr=False)     # (N, N), N <= N0 only

    @classmethod
    def build(cls, data: ProblemData, L: float, lambda2: float) -> "WbFactor":
        n, n0 = data.n_samples, data.n_visible
        Xhat = np.vstack([data.X, np.ones((1, n))])
        d = np.full(n0 + 1, L + 2.0 * lambda2)
        d[n0] = L
        if n > n0:
            M = Xhat @ Xhat.T
            M[np.diag_indices(n0 + 1)] += d
            Minv = np.linalg.inv(M)
            del M  # as large as its inverse: free it before P is formed
            return cls(L=L, lambda2=lambda2, X=data.X, P=Xhat.T @ Minv, Minv=Minv)
        DiX = Xhat / d[:, None]
        IK = Xhat.T @ DiX
        IK[np.diag_indices(n)] += 1.0
        P = np.ascontiguousarray(np.linalg.solve(IK, DiX.T))
        return cls(L=L, lambda2=lambda2, X=data.X, P=P, d=d, Xhat=Xhat,
                   G=P[:, :n0] @ data.X)

    @property
    def sample_space(self) -> bool:
        return self.G is not None

    def step_terms(self, spec: SubproblemSpec):
        """(C, K, CX, c_b): what spec's anchor and gradient add to this factor.

        Each sweep's (W, b) minimizer is W^ = R M^{-1} + (rho + U) P, R
        written into one (N1, N0+1) buffer.  With N > N0, C = R M^{-1}, one
        matmul with M^{-1}, and the rest are None.  With N <= N0,
        R M^{-1} = R D^{-1} - K P for K = R D^{-1} X^ (N1 x N), the solve's
        one N1 (N0+1) N product.  As R D^{-1} X^ = (R D^{-1})_W X +
        (R D^{-1})_b 1^T, K gives all a sweep reads: CX = (R M^{-1})_W X =
        K - K G - (R D^{-1})_b 1^T (one N1 N^2 product) and the b1 column
        c_b = (R D^{-1})_b - K P_b, P_b being P's last column.  C is then
        None: R D^{-1} is dropped here, and AdmmState.form_W forms its W
        block again from spec, row block by row block.
        """
        if not (self.L == spec.L and self.lambda2 == spec.params.lambda2
                and self.X is spec.data.X):
            raise ValueError("factor was built for another L, lambda2 or X")
        a, g, L = spec.anchor, spec.grads, spec.L
        n0 = spec.data.n_visible
        R = np.empty((a.b1.size, n0 + 1))
        np.multiply(a.W, L, out=R[:, :n0])
        R[:, :n0] -= g.W
        np.subtract(L * a.b1, g.b1, out=R[:, n0])
        if not self.sample_space:
            return R @ self.Minv, None, None, None
        RD = np.divide(R, self.d, out=R)
        K = RD @ self.Xhat
        CX = K - K @ self.G
        CX -= RD[:, n0, None]
        return None, K, CX, RD[:, n0] - K @ self.P[:, n0]


@dataclass
class AdmmState:
    """One solve: its (W, b) constants, the iterate, and the sweep's buffers.

    ``from_anchor`` forms the constants from the factor of spec's L and then
    allocates every (N1 x N) buffer, so a sweep allocates nothing of that
    size: ``S``, ``T``, ``V``, ``rho`` and the two temporaries are the same
    arrays on every sweep, and ``U`` swaps with ``U_spare``.  W is formed
    only by ``form_W``; ``b1`` may be a view into W^ until the solve
    returns.  ``finish`` ends the solve and drops the sweep's buffers.
    """

    factor: WbFactor
    C: np.ndarray | None          # (N1, N0+1): R M^{-1}, feature space only
    K: np.ndarray | None          # (N1, N), R D^{-1} X^, sample space only
    CX: np.ndarray | None         # (N1, N), (R M^{-1})_W X, sample space only
    c_b: np.ndarray | None        # (N1,), (R M^{-1})_b, sample space only
    b1: np.ndarray
    b2: np.ndarray                # clamped once: no sweep changes it
    V: np.ndarray
    U: np.ndarray
    rho: np.ndarray
    S: np.ndarray                 # W X + b1 1^T for the current (W, b1)
    T: np.ndarray                 # rho + U as of the last (W, b) step
    U_spare: np.ndarray           # the U buffer not in use
    neg_xi2: np.ndarray           # G(x) if accelerated, -xi2, then the multiplier step's d
    tied: np.ndarray              # f if accelerated, the tied value, then U_new - U
    neg_xi1: np.ndarray           # -xi1, xi1 = g_V/L - V_bar + lambda1/L fixed per subproblem
    L_xi1: np.ndarray             # L * xi1
    What: np.ndarray | None = None   # the last W^, feature space only
    iters: int = 0                # (W, b) steps taken
    delta_u_sq: float = np.inf
    delta_rho_sq: float = np.inf
    b1_clamp_hits: int = 0

    def form_W(self, spec: SubproblemSpec) -> np.ndarray:
        """The last (W, b) step's W, formed anew on each call.

        In feature space a copy of W^'s first N0 columns.  In sample space
        (rho + U - K) P_W, the one N1 x N0 array this makes, plus
        (R D^{-1})_W, formed again from spec's anchor and gradient a row
        block at a time by step_terms' elementwise operations, so that W
        has the bits of C_W + (rho + U - K) P_W.
        """
        if not self.iters:
            raise ValueError("W is formed by a (W, b) step and none has run")
        n0 = self.b2.size
        if not self.factor.sample_space:
            return self.What[:, :n0].copy()
        W = (self.T - self.K) @ self.factor.P[:, :n0]
        a, g, L, d = spec.anchor, spec.grads, spec.L, self.factor.d[:n0]
        # blocks of about 32k entries through one buffer, no per-block temporaries
        n1, rows = W.shape[0], max(1, (1 << 15) // n0)
        block = np.empty((min(rows, n1), n0))
        for i in range(0, n1, rows):
            blk = block[:min(rows, n1 - i)]
            np.multiply(a.W[i:i + rows], L, out=blk)
            blk -= g.W[i:i + rows]
            blk /= d
            W[i:i + rows] += blk
        return W

    def finish(self, spec: SubproblemSpec, converged: bool) -> "SubproblemResult":
        """End the solve: snap V upward onto max(V, S, 0), so the point lies
        in Z exactly though U only matches W X + b1 1^T in the limit, drop
        every sweep buffer but S, T and K, then form W and return the
        result."""
        V = np.maximum(np.maximum(self.V, self.S), 0.0)
        self.V = self.U = self.rho = self.U_spare = self.neg_xi2 = self.tied = None
        self.neg_xi1 = self.L_xi1 = self.C = self.CX = None
        z = Variables(W=self.form_W(spec), b1=self.b1.copy(), b2=self.b2, V=V)
        return SubproblemResult(z=z, S=self.S, iters=self.iters,
                                deltas=(self.delta_rho_sq, self.delta_u_sq),
                                b1_clamp_hits=self.b1_clamp_hits, converged=converged)

    @classmethod
    def from_anchor(cls, spec: SubproblemSpec, factor: WbFactor | None = None,
                    anchor_S: np.ndarray | None = None) -> "AdmmState":
        """Start at the anchor.  ``factor`` is the WbFactor of spec's
        (L, lambda2, X); None builds one.  ``anchor_S`` is the anchor's
        W X + b1 1^T when the caller already holds it; it is copied, never
        written to."""
        if factor is None:
            factor = WbFactor.build(spec.data, spec.L, spec.params.lambda2)
        C, K, CX, c_b = factor.step_terms(spec)
        a, g, L = spec.anchor, spec.grads, spec.L
        # S and T outlive the sweeps, so they are allocated first: the buffers
        # that finish drops then lie together, and the new W can reuse them
        S = (a.W @ spec.data.X + a.b1[:, None] if anchor_S is None
             else anchor_S.copy())
        T = np.empty_like(S)
        b2 = np.clip(a.b2 - g.b2 / L, -spec.params.alpha, spec.params.alpha)
        xi1 = g.V / L - a.V + spec.params.lambda1 / L
        L_xi1 = L * xi1
        neg_xi1 = np.negative(xi1, out=xi1)   # in place: no third array lives on
        return cls(factor=factor, C=C, K=K, CX=CX, c_b=c_b, b1=a.b1.copy(), b2=b2,
                   V=a.V.copy(), U=S.copy(), rho=np.zeros_like(S), S=S,
                   T=T, U_spare=np.empty_like(S),
                   neg_xi2=np.empty_like(S), tied=np.empty_like(S),
                   neg_xi1=neg_xi1, L_xi1=L_xi1)


def update_wb(state: AdmmState, spec: SubproblemSpec) -> AdmmState:
    """Exact (W, b) block minimizer, then clamp b into the box.

    W^ = (-[g_W, g_b1] + L [W_bar, b1_bar] + (rho + U) X^^T) M^{-1}
       = R M^{-1} + (rho + U) P;
    b2 = clamp(b2_bar - g_b2 / L), formed once; b1 = clamp(last column of W^).
    In sample space only the b1 column is formed and S comes from the kept
    products; in feature space S is W^'s W block times X, read in place.
    Either way W is formed only by ``state.form_W``, and b1 is clamped only
    when some entry lies outside the box.
    """
    alpha = spec.params.alpha
    n0 = spec.data.n_visible
    f, T, S = state.factor, state.T, state.S
    np.add(state.rho, state.U, out=T)
    if f.sample_space:
        b1 = state.c_b + T @ f.P[:, n0]
        np.matmul(T, f.G, out=S)
        S += state.CX
    else:
        What = T @ f.P
        What += state.C
        b1 = What[:, n0]
        np.matmul(What[:, :n0], spec.data.X, out=S)   # BLAS reads the strided view as is
        state.What = What
    hits = int(np.count_nonzero(np.abs(b1) > alpha))
    if hits:
        b1 = np.minimum(np.maximum(b1, -alpha), alpha)
        state.b1_clamp_hits += hits
    state.b1 = b1
    S += b1[:, None]
    state.iters += 1
    return state


def update_vu(state: AdmmState, spec: SubproblemSpec) -> AdmmState:
    """Exact (V, U) block minimizer given the current (W, b1) and multipliers.

    Entrywise, the minimizer of (L/2)(V + xi1)^2 + (1/2)(U + xi2)^2 over
    {V >= U, V >= 0} has four cases:
      both constraints slack   (xi2 >= xi1, xi1 <= 0): V = -xi1, U = -xi2
      only V >= 0 active       (xi2 >= 0,  xi1 > 0):  V = 0,    U = -xi2
      both active              (xi2 < 0, L xi1 + xi2 > 0): V = U = 0
      only V >= U active       (otherwise): V = U = -(L xi1 + xi2) / (L + 1)

    With t = -(L xi1 + xi2) / (L + 1) all four are V = max(-xi1, t, 0) and
    U = min(-xi2, V).  That is evaluated in place on -xi2 = S - rho, with
    t = (L xi1 - (-xi2)) / -(L + 1); each rewrite is exact in IEEE arithmetic.
    """
    neg_xi2, tied, U = state.neg_xi2, state.tied, state.U_spare
    np.subtract(state.S, state.rho, out=neg_xi2)
    np.subtract(state.L_xi1, neg_xi2, out=tied)
    tied /= -(spec.L + 1.0)
    np.maximum(state.neg_xi1, tied, out=state.V)   # argument order fixes max(-0.0, 0.0)
    np.maximum(state.V, 0.0, out=state.V)
    np.minimum(neg_xi2, state.V, out=U)
    d = np.subtract(U, state.U, out=tied).ravel()
    state.delta_u_sq = float(np.dot(d, d))
    state.U, state.U_spare = U, state.U
    return state


def update_multipliers(state: AdmmState) -> AdmmState:
    """rho += U - (W X + b1 1^T) with the current blocks."""
    d = np.subtract(state.U, state.S, out=state.neg_xi2)
    state.rho += d
    d = d.ravel()
    state.delta_rho_sq = float(np.dot(d, d))
    return state


@dataclass
class AndersonHistory:
    """Type-II Anderson acceleration of the sweep's fixed point in xi = S - rho.

    After each (W, b) step, G(x) = S - rho is the map's value at the xi the
    last (V, U) step read, and f = G(x) - x = S - U its residual.  The last m
    differences of G(x) and of f between consecutive sweeps sit in rings of
    m rows, allocated once per solve, and the Gram matrix of the f
    differences gains one row of dots per sweep.  ``extrapolate`` then moves
    xi from G(x) to G(x) - dG gamma, gamma the least-squares fit of f by dF
    with Tikhonov weight 1e-10 tr(Gram) (Walker & Ni 2011; Fu, Zhang & Boyd
    2020 accelerate the same variable of Douglas-Rachford splitting).

    Safeguards (after Zhang, O'Donoghue & Boyd 2020): when ||f||^2 rises at
    all after an extrapolated point, that point is rejected: xi goes back to
    the G(x) it was extrapolated from, so a bad step costs one sweep, and the
    history restarts.  It also restarts when ||f||^2 more than quadruples
    after a plain step and after m sweeps without a new least ||f||^2.  A
    singular fit skips the step.  The rings hold 2 m N1 N floats.
    """

    dG: np.ndarray          # (m, N1 N): differences of G(x), one per row
    dF: np.ndarray          # (m, N1 N): differences of f
    gram: np.ndarray        # (m, m): dF's Gram matrix, ring order
    fit: np.ndarray         # (m, m): the regularized k x k Gram matrix, at its head
    pair: np.ndarray        # (2, N1 N): newest f difference (later dG gamma), last f
    g_prev: np.ndarray      # (N1, N): the last sweep's G(x)
    held: int = 0           # ring rows in use
    slot: int = 0           # the ring row the next difference goes to
    fsq_prev: float | None = None   # ||f||^2 of the last sweep
    fsq_min: float = np.inf         # the least ||f||^2 so far
    stale: int = 0          # sweeps since ||f||^2 last set a new least value
    stepped: bool = False   # the last call moved xi off G(x)

    @classmethod
    def allocate(cls, m: int, shape) -> "AndersonHistory":
        size = shape[0] * shape[1]
        return cls(dG=np.empty((m, size)), dF=np.empty((m, size)), gram=np.zeros((m, m)),
                   fit=np.empty((m, m)), pair=np.empty((2, size)), g_prev=np.empty(shape))

    def extrapolate(self, state: AdmmState) -> None:
        """Record the (W, b) step just taken and set rho so that the (V, U)
        step reads xi = S - rho on from G(x), or back at the last G(x) if
        the safeguard rejects the point this sweep started from."""
        m = self.gram.shape[0]
        new, f = self.pair
        g = np.subtract(state.S, state.rho, out=state.neg_xi2)   # G(x), scratch
        f_now = np.subtract(state.S, state.U, out=state.tied).reshape(-1)
        fsq = float(np.dot(f_now, f_now))
        if fsq < self.fsq_min:
            self.fsq_min, self.stale = fsq, 0
        else:
            self.stale += 1
        if self.stepped and not fsq <= self.fsq_prev:   # a rise, or NaN: reject the point
            np.subtract(state.S, self.g_prev, out=state.rho)
            self.held = self.slot = 0
            self.fsq_prev, self.stepped = None, False
            return
        j = self.slot
        if self.fsq_prev is None or fsq > 4.0 * self.fsq_prev or self.stale >= m:
            self.held = self.slot = self.stale = 0   # the first sweep, a jump or a stall
        else:
            np.subtract(f_now, f, out=new)
            self.dF[j] = new
            np.subtract(g, self.g_prev, out=self.dG[j].reshape(g.shape))
            self.held = min(self.held + 1, m)
            self.slot = (j + 1) % m
        self.fsq_prev = fsq
        f[...] = f_now
        self.g_prev[...] = g
        self.stepped = False
        k = self.held
        if not k:
            return
        # one pass over the ring: dF . new is the Gram row, dF . f the fit's rhs
        dots = self.dF[:k] @ self.pair.T
        self.gram[j, :k] = self.gram[:k, j] = dots[:, 0]
        gram = self.gram[:k, :k]
        fit = self.fit.reshape(-1)[:k * k].reshape(k, k)
        fit[...] = gram
        fit.reshape(-1)[::k + 1] += 1e-10 * np.trace(gram)
        try:
            gamma = np.linalg.solve(fit, dots[:, 1])
        except np.linalg.LinAlgError:
            return
        np.dot(gamma, self.dG[:k], out=new)
        state.rho += new.reshape(g.shape)   # S - rho = G(x) - dG gamma
        self.stepped = True


@dataclass(frozen=True)
class SubproblemResult:
    z: Variables
    S: np.ndarray                 # W X + b1 1^T of the last (W, b) step, V's snap target
    iters: int
    deltas: tuple[float, float]   # (||d rho||_F^2, ||d U||_F^2) at the last sweep
    b1_clamp_hits: int
    converged: bool


def solve_subproblem(spec: SubproblemSpec, tol: float = 1e-6,
                     max_iter: int = 10000, *, anderson: int = 15,
                     anchor_S: np.ndarray | None = None,
                     factor: WbFactor | None = None) -> SubproblemResult:
    """Run the splitting iteration to tolerance and return a point in Z.

    ``anderson`` is the memory m of the sweep's Anderson acceleration; 0
    runs the plain sweep, the same loop with the extrapolation skipped.
    ``anchor_S`` is the anchor's W X + b1 1^T if the caller has it; it is
    copied, never written to.  ``factor`` is the WbFactor of spec's L if the caller
    keeps one; without it the solve builds its own.  A NaN or negative
    ``tol``, a ``max_iter`` below 1 and an ``anderson`` that is not an
    integer >= 0 are errors.
    """
    if not (tol >= 0.0):
        raise ValueError("tol must be >= 0")
    if not (max_iter >= 1):
        raise ValueError("max_iter must be >= 1")
    if not (isinstance(anderson, (int, np.integer)) and not isinstance(anderson, bool)
            and anderson >= 0):
        raise ValueError("anderson must be an integer >= 0")
    for block in spec.grads.blocks():
        if not np.all(np.isfinite(block)):
            raise NumericError("non-finite gradient block passed to solver")
    state = AdmmState.from_anchor(spec, factor, anchor_S)
    history = AndersonHistory.allocate(anderson, state.S.shape) if anderson else None
    converged = False
    for it in range(1, max_iter + 1):
        update_wb(state, spec)
        if history is not None:
            history.extrapolate(state)
        update_vu(state, spec)
        update_multipliers(state)
        worst = max(state.delta_rho_sq, state.delta_u_sq)
        if not math.isfinite(worst):
            raise NumericError(
                f"non-finite inner iterate at sweep {it} "
                f"(|W|max={np.max(np.abs(state.form_W(spec))):.3e})", state=state)
        if worst <= tol:
            converged = True
            break
    history = None   # the rings go before W is formed
    return state.finish(spec, converged)
