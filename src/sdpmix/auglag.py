"""Augmented Lagrangian value and gradients on the factored iterate.

Inequalities enter through the hinge form: an index j contributes its
linear and quadratic terms only while y[j] + mu * (b_j - <B_j, X>) > 0,
and -y[j]^2 / (2 mu) otherwise; ties fall to the inactive branch (the
value is identical either way by continuity).

A column subproblem is solved on its increment model (ColumnContext), in
the manner of mixed-precision iterative refinement: the multipliers and
the gradient at the column's start are rounded to binary64 once, and every
trial point then evaluates only the change of the objective, its gradient
and its k x k Hessian, in binary64, from the column's slot matrix (O(k
slots)). A binary64 problem forms them per column, installs each accepted
column v_start + d and adds the model's slot increments at d to the
operator cache. An extended-kind problem keeps its iterate in the kind and
moves it in binary64 for the length of a sweep (SweepResidual): at the
sweep's start it takes the multipliers, the slack C - A^T lam and the
factor gradient in the kind, and rounds them once; each accepted column
then writes only binary64 arrays, its exact move d, the sum of the slot
increments and a binary64 shadow of the factor, and a context adds to the
sweep's roundings the binary64 corrections for what the earlier columns
moved, each bounded by that movement, so their rounding error shrinks with
the outer residual as the iterate converges. SweepResidual.fold installs
the moves in the kind once per sweep, V0 + D and values0 + DA, so a
double-double solve keeps double-double iterates while no column runs
double-double arithmetic; refresh_cache then recomputes the cache in the
problem's kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .ddouble import to_float_array
from .linops import ColumnSlices, OperatorCache, column_deltas, combine_rows, slot_matrix
from .problem import SdpProblem


@dataclass
class IterateState:
    """Mutable state owned by one solve.

    The factor is one matrix V of the problem's kind, of shape
    (k_max, sum of the block sizes): block b is V[blocks[b]], its columns
    OperatorTables.offsets[b] : offsets[b + 1] and its rows 0 : k_b, k_b
    its rank; the rows from k_b on are zero and stay so. V_blocks[b] is
    that view, so a write to a block's column is a write to V. The cache
    holds the operator values at V: a binary64 column commit updates V and
    the cache in place, an extended-kind sweep's fold updates both once,
    and refresh_cache and an Anderson move (solver.install_iterate) form
    the cache afresh.
    """

    problem: SdpProblem
    V: np.ndarray
    blocks: List[Tuple[slice, slice]]
    V_blocks: List[np.ndarray]
    y: np.ndarray  # one multiplier per constraint, in the problem's row order
    mu: object
    cache: OperatorCache
    slices: ColumnSlices
    sweep: Optional["SweepResidual"] = None  # an extended-kind solve's, from the top of each sweep to its fold

    def residual(self) -> np.ndarray:
        """rhs_j - <A_j, X> for every constraint j."""
        return self.problem.rhs - self.cache.values


def make_state(problem: SdpProblem, V_blocks, y, mu) -> IterateState:
    """A state owning copies of V_blocks, laid into one factor matrix, and of
    y, in the problem's kind; its cache formed from those copies. The
    blocks may have any ranks."""
    kind = problem.kind
    at = problem.tables.offsets
    blocks = [(slice(0, len(W)), slice(at[b], at[b + 1])) for b, W in enumerate(V_blocks)]
    V = kind.zeros((max(len(W) for W in V_blocks), int(at[-1])))
    for index, W in zip(blocks, V_blocks):
        V[index] = kind.asarray(W)
    return IterateState(problem, V, blocks, [V[index] for index in blocks], kind.asarray(y), kind.scalar(mu),
                        OperatorCache.fresh(problem, V), ColumnSlices(problem))


class SweepResidual:
    """The column gradients' residual at the start of a sweep of an
    extended-kind problem, formed in the problem's kind:

        lam0 = y + mu (b - A(X)),  S0_b = C_b - sum_j lam0+_j A_j,  G0_b = 2 V_b S0_b,

    lam0+ the multipliers with the inequality tail clipped at 0, and the
    sweep's moves, in binary64: D, each moved column's exact move d, laid
    out as the factor matrix; DA, the sum of the committed slot increments
    of every row, the cost last; and V64, the binary64 shadow of the
    factor that the contexts read, V0 rounded with each d added in
    binary64. The factor and the cache stay at the sweep's start V0 and
    values0 until fold installs the moves. It keeps the binary64 roundings
    of lam0, S0 and G0 that the column contexts read, and the y, mu and
    cache objects it was formed from: a context raises unless they are
    still the state's (update_duals, the penalty update, an Anderson step
    and refresh_cache all rebind one), and once fold has spent it.
    """

    def __init__(self, state: IterateState):
        p = state.problem
        self.y, self.mu, self.cache = state.y, state.mu, state.cache
        lam = state.y + state.mu * (p.rhs - state.cache.values)
        self.lam0 = to_float_array(lam)
        lam[p.m_eq :] = np.maximum(lam[p.m_eq :], 0.0)
        S = combine_rows(p, np.concatenate([-lam, p.kind.asarray([1.0])]))
        self.S0 = [to_float_array(M) for M in S]
        self.G0 = [to_float_array(2.0 * (V @ M)) for V, M in zip(state.V_blocks, S)]
        self.V64 = to_float_array(state.V)
        self.D = np.zeros(self.V64.shape)
        self.DA = np.zeros(p.m + 1)
        self.V64_blocks = [self.V64[index] for index in state.blocks]
        self.D_blocks = [self.D[index] for index in state.blocks]

    def add_move(self, block: int, i: int, sup: np.ndarray, d: np.ndarray, delta: np.ndarray) -> None:
        """Record column i of the block moving by d, with the slot increments
        delta (linops.column_deltas: the rows sup, then the cost)."""
        self.D_blocks[block][:, i] += d
        self.V64_blocks[block][:, i] += d
        self.DA[sup] += delta[:-1]
        self.DA[-1] += delta[-1]

    def fold(self, state: IterateState) -> None:
        """Install the sweep's moves in the problem's kind, once: V = V0 + D,
        word for word the factor that adding each column's d to its start in
        the kind, one column at a time, forms; and the cache values0 + DA.
        The state's sweep is then spent."""
        state.V[...] = state.V + self.D
        cache = state.cache
        cache.values = cache.values + self.DA[:-1]
        cache.cost_value = cache.cost_value + self.DA[-1]
        state.sweep = None


class ColumnContext:
    """The increment model of one column's restricted objective.

    Built once per column: the activity arguments t0_j = y[j] + mu s_j at
    v_start of the column's inequality slots j, the n-vector
    g_n0 = C_(i) - sum_j lam0_j (A_j)_(i), lam0_j the slot multipliers (for
    an inequality, max(t0_j, 0)), and the column gradient g0 = 2 V g_n0, all
    in binary64, and W0 = M V^T, V the block's binary64 factor (at an
    extended kind the sweep's shadow V64) and M the column's slot matrix
    (linops.slot_matrix), whose column i, diag, holds each slot's (i, i)
    coefficient: row j of W0 is diag_j v0 + sum val V[:, partner] over slot
    j's off-diagonal entries.

    A binary64 problem forms them from the state: g_n0 = C_(i) - t M_c,
    M_c M's constraint rows and t the slot multipliers, summed slot by
    slot. An extended-kind problem reads the state's SweepResidual: its
    roundings of the sweep's start, and the changes since the sweep began,
    DA[sup] (the summed slot increments) and DV = D (the moves), which are
    binary64 from the start. The
    multiplier change c_j = lam_j - lam0_j is -mu DA_j on the equalities
    and the inequalities active at both the sweep's start and now, 0 on
    those inactive at both, and max(t_j, 0) - max(lam0_j, 0) where the activity flipped
    (t_j = lam0_j - mu DA_j, so |c_j| <= mu |DA_j|); never t_j - lam0_j on
    a both-active slot, which would round at u |lam0_j|. With
    E = c M_c = sum_j c_j (A_j)_(i),

        g_n0[i] = S0[i, i] - E[i],  g0 = G0[:, i] + 2 (DV S0[:, i] - V E).

    Each binary64 term is bounded by how far the iterate moved since the
    sweep began, so its rounding error, u times that movement, shrinks with
    the outer residual: the refinement argument, taken per sweep.
    value_and_grad(d) evaluates, in binary64 only, the increment
    f(v_start + d) - f(v_start) and the gradient at v_start + d:

        DV    = 2 W0 d + diag |d|^2
        Df(d) = g0.d + g_n0[i] |d|^2 + sum_j phi_j(DV_j)
        g(d)  = g0 + 2 ((g_n0[i] + diag.phi') d + W0^T phi')

    DV are the slot increments (linops.column_deltas), formed once per
    evaluation and kept for the commit at the accepted d (deltas); phi_j is
    the second-order remainder of constraint slot j (mu DV_j^2 / 2 while it
    is an equality or an inequality active at both ends, the exact hinge form
    when its activity changes); the cost, linear in X, has none. No O(1)
    totals are formed, so the rounding error of Df is relative to Df itself.
    hessian(d) returns the model's (semismooth) Hessian and a lower bound
    on its eigenvalues,

        H = low I + 4 mu W^T W,  low = 2 (g_n0[i] + diag.phi'),  W = W0 + diag d^T,

    W over the curved slots: the equalities and the inequalities active at
    d; W^T W is positive semidefinite, so no eigenvalue of H is below low.
    The solver starts from `start`, a zero move whose value and gradient the
    model knows. The context reads the state only while it is built, and
    linops.commit_column installs its accepted move: a binary64 column as
    v_start + d, an extended-kind one in the sweep's binary64 arrays
    (`sweep`, None at binary64; v_start is then None).
    """

    def __init__(self, state: IterateState, block: int, i: int):
        sl = state.slices.by_block[block][i]
        V = state.V_blocks[block]
        self.block = block
        self.start = np.zeros(V.shape[0])
        self.sup = sl.sup
        self.n_eq = n_eq = sl.n_eq
        self.mu = float(state.mu)
        M = slot_matrix(sl, V.shape[1])
        if state.problem.kind.is_extended:
            r = state.sweep
            if r is None or r.y is not state.y or r.mu is not state.mu or r.cache is not state.cache:
                raise RuntimeError("the sweep residual was not formed at the state's y, mu and cache")
            self.sweep, self.v_start, V64 = r, None, r.V64_blocks[block]
            t0, self.g0, self.gi0 = self._from_sweep(block, i, M, V64)
        else:
            self.sweep, self.v_start, V64 = None, V[:, i].copy(), V
            t0, self.g0, self.gi0 = self._from_state(state, i, M, V)
        self.diag, self.W0 = M[:, i], M @ V64.T
        self.diag_c, self.W0_c = self.diag[:-1], self.W0[:-1]  # the constraint slots
        self.curved0 = None  # the constraint slots curved at the start (None: all)
        if n_eq < len(self.sup):
            self.t0 = t0
            self.active0 = t0 > 0
            self.curved0 = np.concatenate([np.ones(n_eq, dtype=bool), self.active0])
        self._last = (None, None, 0.0, None)  # d, DV, diag.phi' and the curved slots at d

    def _from_state(self, state: IterateState, i: int, M, V):
        """(t0, g0, g_n0[i]) of a binary64 problem, from the state."""
        p, sup, n_eq = state.problem, self.sup, self.n_eq
        # multipliers at v_start on the column's constraint slots
        t = state.y[sup] + state.mu * (p.rhs[sup] - state.cache.values[sup])
        t0 = None
        if n_eq < len(sup):
            t0 = t[n_eq:].copy()
            t[n_eq:] = np.where(t0 > 0, t0, 0.0)
        # c - sum_j t_j a_j, summed slot by slot in constraint order (the cost is M's last row)
        g_n = M[-1] - np.add.reduce(t[:, None] * M[:-1], axis=0)
        return t0, 2.0 * (V @ g_n), float(g_n[i])

    def _from_sweep(self, block: int, i: int, M, V64):
        """(t0, g0, g_n0[i]) of an extended-kind problem, from the sweep
        residual and the binary64 corrections for what moved since."""
        r, sup, n_eq = self.sweep, self.sup, self.n_eq
        c = -self.mu * r.DA[sup]
        t0 = None
        if n_eq < len(sup):
            lam0 = r.lam0[sup[n_eq:]]
            t0 = lam0 + c[n_eq:]
            flipped = (lam0 > 0) != (t0 > 0)
            c[n_eq:] = np.where(flipped, np.maximum(t0, 0.0) - np.maximum(lam0, 0.0), np.where(t0 > 0, c[n_eq:], 0.0))
        E = c @ M[:-1]  # the cost's multiplier (1) does not change: it has no correction
        S0 = r.S0[block]
        return t0, r.G0[block][:, i] + 2.0 * (r.D_blocks[block] @ S0[:, i] - V64 @ E), float(S0[i, i] - E[i])

    def value_and_grad(self, d):
        """Df(d) and g(d) in binary64; d is the column's move from v_start.
        The returned gradient is not to be written to."""
        if d is self.start:  # every increment is exactly 0
            self._last = (d, None, 0.0, self.curved0)
            return 0.0, self.g0
        dv = column_deltas(self.diag, self.W0, d)
        dv_c, n_eq, mu = dv[:-1], self.n_eq, self.mu
        dcoef = mu * dv_c  # phi' = -(lam - lam0) on the constraint slots, equality form first
        if n_eq == len(dv_c):
            remainder, curved = 0.5 * (dcoef @ dv_c), None
        else:  # the exact hinge form where an activity changes
            t0, a0, dv_i = self.t0, self.active0, dv_c[n_eq:]
            t1 = t0 - mu * dv_i
            a1 = t1 > 0
            p0, p1 = np.where(a0, t0, 0.0), np.where(a1, t1, 0.0)
            same, phi = a0 & a1, 0.5 * dcoef * dv_c
            dcoef[n_eq:] = np.where(same, dcoef[n_eq:], p0 - p1)
            phi[n_eq:] = np.where(same, phi[n_eq:], (p1 * p1 - p0 * p0) / (2.0 * mu) + p0 * dv_i)
            remainder, curved = np.add.reduce(phi), np.concatenate([self.curved0[:n_eq], a1])
        c = self.diag_c @ dcoef
        self._last = (d, dv, c, curved)  # for hessian(d) and the commit at d
        value = self.g0 @ d + self.gi0 * (d @ d) + remainder
        return value, self.g0 + 2.0 * ((self.gi0 + c) * d + self.W0_c.T @ dcoef)

    def hessian(self, d):
        """(H, low): the model's k x k Hessian at d and its eigenvalue bound, binary64."""
        if self._last[0] is not d:
            self.value_and_grad(d)
        _, _, c, curved = self._last
        diag, W = self.diag_c, self.W0_c
        if curved is not None:
            diag, W = diag[curved], W[curved]
        if d is not self.start:
            W = W + diag[:, None] * d
        H = (4.0 * self.mu) * (W.T @ W)
        low = 2.0 * (self.gi0 + c)
        H.flat[:: len(d) + 1] += low
        return H, low

    def deltas(self, d):
        """DV at d: the last evaluation's when it was made at this very array."""
        last, dv, _, _ = self._last
        return dv if last is d and dv is not None else column_deltas(self.diag, self.W0, d)


def refresh_cache(state: IterateState) -> None:
    """Recompute the cached operator values in the problem's kind."""
    state.cache = OperatorCache.fresh(state.problem, state.V)
