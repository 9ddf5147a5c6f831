"""Augmented Lagrangian value and gradients on the factored iterate.

Inequalities enter through the hinge form: an index j contributes its
linear and quadratic terms only while y[j] + mu * (b_j - <B_j, X>) > 0,
and -y[j]^2 / (2 mu) otherwise; ties fall to the inactive branch (the
value is identical either way by continuity).

A column subproblem is solved on its increment model (ColumnContext), in
the manner of mixed-precision iterative refinement: the multipliers and
the gradient at the column's start are rounded to binary64 once, and every
trial point then evaluates only the change of the objective, its gradient
and its k x k Hessian, in binary64, from the column's slot rows at V,
W0 = M V^T (O(k slots)), which give the start gradient too. A binary64
problem forms them per column, adds each accepted move d to its column in
place and the slot increments at d to the operator cache. An
extended-kind problem keeps its iterate in the kind and moves it in
binary64 for the length of a sweep (SweepResidual): at the sweep's start
it takes the multipliers, the slack C - A^T lam and the factor gradient in
the kind, and rounds them once; each accepted column
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

        lam0 = y + mu (b - A(X)),  S0_b = C_b - sum_j lam0+_j A_j,  VS0_b = V_b S0_b,

    lam0+ the multipliers with the inequality tail clipped at 0, and the
    sweep's moves, in binary64: D, each moved column's exact move d, laid
    out as the factor matrix; DA, the sum of the committed slot increments
    of every row, the cost last; and V64, the binary64 shadow of the
    factor that the contexts read, V0 rounded with each d added in
    binary64. The factor and the cache stay at the sweep's start V0 and
    values0 until fold installs the moves. It keeps the binary64 roundings
    of lam0, S0 and VS0 (half the factor gradient) that the column
    contexts read, and the y, mu and cache objects it was formed from: a
    context raises unless they are still the state's (update_duals, the
    penalty update, an Anderson step and refresh_cache all rebind one), and
    once fold has spent it.
    """

    def __init__(self, state: IterateState):
        p = state.problem
        self.y, self.mu, self.cache = state.y, state.mu, state.cache
        lam = state.y + state.mu * (p.rhs - state.cache.values)
        self.lam0 = to_float_array(lam)
        lam[p.m_eq :] = np.maximum(lam[p.m_eq :], 0.0)
        S = combine_rows(p, np.concatenate([-lam, p.kind.asarray([1.0])]))
        self.S0 = [to_float_array(M) for M in S]
        self.VS0 = [to_float_array(V @ M) for V, M in zip(state.V_blocks, S)]
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

    Built once per column, in binary64: W0 = M V^T, V the block's binary64
    factor (at an extended kind the sweep's shadow V64) and M the column's
    slot matrix (linops.slot_matrix), whose column i, diag, holds each
    slot's (i, i) coefficient: row j of W0 is diag_j v0 + sum val
    V[:, partner] over slot j's off-diagonal entries, the cost's row last,
    and W0_c, diag_c the constraint slots'. Since V M[j]^T = W0[j], the
    column gradient g0 = 2 V (C - sum_j lam_j A_j)_(i) and that matrix's
    (i, i) entry g_n0[i] take O(k slots), no n-vector. A binary64 problem reads the
    state: with t the slot multipliers (for an inequality slot, max(t0_j,
    0), t0_j = y[j] + mu s_j its activity argument at the start),

        g0 = 2 (W0[-1] - t W0_c),  g_n0[i] = diag[-1] - t diag_c.

    An extended-kind problem reads the state's SweepResidual: its
    roundings of the sweep's start, and the changes since the sweep began,
    DA[sup] (the summed slot increments) and DV = D (the moves), which are
    binary64 from the start. The multiplier change c_j = lam_j - lam0_j is
    -mu DA_j on the equalities and the inequalities active at both the
    sweep's start and now, 0 on those inactive at both, and
    max(t_j, 0) - max(lam0_j, 0) where the activity flipped (t_j = lam0_j -
    mu DA_j, so |c_j| <= mu |DA_j|); never t_j - lam0_j on a both-active
    slot, which would round at u |lam0_j|. Then, the sweep's start in place
    of the cost row,

        g0 = 2 (VS0[:, i] + DV S0[:, i] - c W0_c),  g_n0[i] = S0[i, i] - c diag_c.

    Each binary64 term is bounded by how far the iterate moved since the
    sweep began, so its rounding error, u times that movement, shrinks with
    the outer residual: the refinement argument, taken per sweep.
    value_and_grad(d) evaluates, in binary64 only, the increment
    f(v0 + d) - f(v0) and the gradient at v0 + d, v0 the column's start:

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
    linops.commit_column installs its accepted move: a binary64 column by
    adding d to it in place, an extended-kind one in the sweep's binary64
    arrays (`sweep`, None at binary64).
    """

    def __init__(self, state: IterateState, block: int, i: int):
        sl = state.slices.by_block[block][i]
        r = state.sweep
        if r is not None or not isinstance(state.V, np.ndarray):  # an extended kind
            if r is None or r.y is not state.y or r.mu is not state.mu or r.cache is not state.cache:
                raise RuntimeError("the sweep residual was not formed at the state's y, mu and cache")
            V = r.V64_blocks[block]
        else:
            V = state.V_blocks[block]
        self.sweep, self.block, self.sup, self.n_eq = r, block, sl.sup, sl.n_eq
        sup, n_eq, mu = sl.sup, sl.n_eq, float(state.mu)
        self.mu = mu
        self.start = np.zeros(len(V))
        M = slot_matrix(sl, V.shape[1])
        self.diag, self.W0 = diag, W0 = M[:, i], M.dot(V.T)
        self.diag_c, self.W0_c = diag[:-1], W0[:-1]  # the constraint slots
        if r is None:  # the slot multipliers at the column's start
            lam = state.y[sup] + mu * (state.problem.rhs[sup] - state.cache.values[sup])
            h, gi = W0[-1], diag[-1]
        else:  # their change since the sweep's start
            lam, S0 = -mu * r.DA[sup], r.S0[block]
            h, gi = r.VS0[block][:, i] + r.D_blocks[block].dot(S0[:, i]), S0[i, i]
        self.curved0 = None  # the constraint slots curved at the start (None: all)
        if n_eq < len(sup):
            lam0 = None if r is None else r.lam0[sup[n_eq:]]
            self.t0 = t0 = lam[n_eq:] if r is None else lam0 + lam[n_eq:]
            self.active0 = t0 > 0
            self.curved0 = np.concatenate([np.ones(n_eq, dtype=bool), self.active0])
            if r is None:  # the multipliers clipped, in a new array: t0 stays unclipped
                lam = np.where(self.curved0, lam, 0.0)
                self.p0 = lam[n_eq:]
            else:
                self.p0 = np.maximum(t0, 0.0)
                flipped = (lam0 > 0) != self.active0
                lam[n_eq:] = np.where(flipped, self.p0 - np.maximum(lam0, 0.0), np.where(self.active0, lam[n_eq:], 0.0))
        h = h - lam.dot(self.W0_c)  # half the gradient; doubled by an exact addition
        self.g0 = h + h
        self.gi0 = float(gi - lam.dot(self.diag_c))
        self._last = (None, None, 0.0, None)  # d, DV, diag.phi' and the curved slots at d

    def value_and_grad(self, d):
        """Df(d) and g(d) in binary64; d is the column's move from its start.
        The returned gradient is not to be written to."""
        if d is self.start:  # every increment is exactly 0
            self._last = (d, None, 0.0, self.curved0)
            return 0.0, self.g0
        dsq = d.dot(d)
        dv = column_deltas(self.diag, self.W0, d, dsq)
        dv_c, n_eq, mu = dv[:-1], self.n_eq, self.mu
        dcoef = mu * dv_c  # phi' = -(lam - lam0) on the constraint slots, equality form first
        if n_eq == len(dv_c):
            remainder, curved = 0.5 * dcoef.dot(dv_c), None
        else:  # the exact hinge form where an activity changes
            a0, p0, dv_i = self.active0, self.p0, dv_c[n_eq:]
            t1 = self.t0 - mu * dv_i
            a1 = t1 > 0
            p1 = np.where(a1, t1, 0.0)
            same, phi = a0 & a1, 0.5 * dcoef * dv_c
            dcoef[n_eq:] = np.where(same, dcoef[n_eq:], p0 - p1)
            phi[n_eq:] = np.where(same, phi[n_eq:], (p1 * p1 - p0 * p0) / (2.0 * mu) + p0 * dv_i)
            remainder, curved = np.add.reduce(phi), np.concatenate([self.curved0[:n_eq], a1])
        c = self.diag_c.dot(dcoef)
        self._last = (d, dv, c, curved)  # for hessian(d) and the commit at d
        h = (self.gi0 + c) * d + dcoef.dot(self.W0_c)  # half the gradient's change
        return self.g0.dot(d) + self.gi0 * dsq + remainder, self.g0 + (h + h)

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
        H = (4.0 * self.mu) * W.T.dot(W)
        low = 2.0 * (self.gi0 + c)
        H.flat[:: len(d) + 1] += low
        return H, low

    def deltas(self, d):
        """DV at d: the last evaluation's when it was made at this very array."""
        last, dv, _, _ = self._last
        return dv if last is d and dv is not None else column_deltas(self.diag, self.W0, d, d.dot(d))


def refresh_cache(state: IterateState) -> None:
    """Recompute the cached operator values in the problem's kind."""
    state.cache = OperatorCache.fresh(state.problem, state.V)
