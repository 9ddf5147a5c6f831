"""Augmented Lagrangian value and gradients on the factored iterate.

Inequalities enter through the hinge form: an index j contributes its
linear and quadratic terms only while y[j] + mu * (b_j - <B_j, X>) > 0,
and -y[j]^2 / (2 mu) otherwise; ties fall to the inactive branch (the
value is identical either way by continuity).

A column subproblem is solved on its increment model (ColumnContext), in
the manner of mixed-precision iterative refinement: the multipliers and
the gradient at the column's start are formed once, in the problem's
scalar kind, and rounded to binary64; every trial point then evaluates
only the change of the objective, its gradient and its k x k Hessian, in
binary64, from the column's slot matrix (O(k slots)). The accepted column
v_start + d is installed in the problem's kind, so a double-double solve
keeps double-double iterates while the Newton column solver sees binary64
alone; the operator cache takes the model's binary64 slot increments at d,
and refresh_cache recomputes it in the problem's kind after every sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .ddouble import dot, segment_sum, to_float_array
from .linops import ColumnSlices, OperatorCache, _slot_matrix, column_deltas
from .problem import SdpProblem


@dataclass
class IterateState:
    """Mutable state owned by one solve."""

    problem: SdpProblem
    V_blocks: List[np.ndarray]
    y: np.ndarray  # one multiplier per constraint, in the problem's row order
    mu: object
    cache: OperatorCache
    prev_values: np.ndarray
    slices: ColumnSlices

    def residual(self) -> np.ndarray:
        """rhs_j - <A_j, X> for every constraint j."""
        return self.problem.rhs - self.cache.values


def make_state(problem: SdpProblem, V_blocks, y, mu) -> IterateState:
    """A state owning copies of V_blocks and y in the problem's kind, its
    cache formed from those copies."""
    kind = problem.kind
    V_blocks = [kind.asarray(V) for V in V_blocks]
    cache = OperatorCache.fresh(problem, V_blocks)
    return IterateState(
        problem=problem,
        V_blocks=V_blocks,
        y=kind.asarray(y),
        mu=kind.scalar(mu),
        cache=cache,
        prev_values=cache.values.copy(),
        slices=ColumnSlices(problem),
    )


class ColumnContext:
    """The increment model of one column's restricted objective.

    Built once per column in the problem's kind: the slot multipliers
    lam0_j = y[j] + mu s_j at v_start over the column's slots j (for an
    inequality, max(t0_j, 0) of that activity argument t0_j), the n-vector
    g_n0 = C_(i) - sum_j lam0_j (A_j)_(i) and the column gradient
    g0 = 2 V g_n0, then rounded to binary64; so is the slot matrix U, whose
    row j is sum val V[:, partner] over slot j's off-diagonal entries.
    value_and_grad(d) evaluates, in binary64 only, the increment
    f(v_start + d) - f(v_start) and the gradient at v_start + d:

        DV    = diag (2 v0.d + |d|^2) + 2 U d
        Df(d) = g0.d + g_n0[i] |d|^2 + sum_j phi_j(DV_j)
        g(d)  = g0 + 2 (g_n0[i] d + U^T phi' + (v0 + d) diag.phi')

    DV are the slot increments (linops.column_deltas), formed once per
    evaluation and kept for the commit at the accepted d (deltas); phi_j is
    the second-order remainder of constraint slot j (mu DV_j^2 / 2 while it
    is an equality or an inequality active at both ends, the exact hinge form
    when its activity changes); the cost, linear in X, has none. No O(1)
    totals are formed, so the rounding error of Df is relative to Df itself.
    hessian(d) is the model's (semismooth) Hessian

        2 (g_n0[i] + diag.phi') I + 4 mu W^T W,  W = diag (v0 + d)^T + U,

    over the curved slots: the equalities and the inequalities active at d.
    The solver starts from `start`, a zero move whose value and gradient the
    model knows. The context reads the state only while it is built.
    """

    def __init__(self, state: IterateState, block: int, i: int):
        sl = state.slices.by_block[block][i]
        p = state.problem
        V = state.V_blocks[block]
        self.v_start = V[:, i].copy()
        self.start = np.zeros(len(self.v_start))
        self.sup = sup = sl.sup
        self.n_eq = n_eq = sl.n_eq
        self.mu = float(state.mu)
        self.curved0 = None  # the constraint slots curved at the start (None: all)

        # multipliers at v_start on the column's slots, then the cost slot
        t = state.y[sup] + state.mu * (p.rhs[sup] - state.cache.values[sup])
        if n_eq < len(sup):
            t0 = t[n_eq:].copy()
            t[n_eq:] = np.where(t0 > 0, t0, p.kind.scalar(0.0))
            self.t0 = to_float_array(t0)
            self.active0 = self.t0 > 0
            self.curved0 = np.concatenate([np.ones(n_eq, dtype=bool), self.active0])
        coef = np.concatenate([-t, state.slices.cost_coef])
        n = p.block_sizes[block]
        g_n = segment_sum(sl.val * coef[sl.seg], sl.row, n) if len(sl.row) else p.kind.zeros(n)
        g_n[i] += dot(coef, sl.diag)

        sl64 = state.slices.by_block64[block][i]
        self.diag = sl64.diag
        self.U = _slot_matrix(sl64, to_float_array(V))
        self.diag_c, self.U_c = self.diag[:-1], self.U[:-1]  # the constraint slots
        self.v0 = to_float_array(self.v_start)
        self.g0 = to_float_array(2.0 * (V @ g_n))
        self.gi0 = float(g_n[i])
        self._last = (None, None, 0.0, None)  # d, DV, diag.phi' and the curved slots at d

    def value_and_grad(self, d):
        """Df(d) and g(d) in binary64; d is the column's move from v_start.
        The returned gradient is not to be written to."""
        if d is self.start:  # every increment is exactly 0
            self._last = (d, None, 0.0, self.curved0)
            return 0.0, self.g0
        dv = column_deltas(self.diag, self.U, self.v0, d)
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
        return value, self.g0 + 2.0 * ((self.gi0 + c) * d + self.U_c.T @ dcoef + c * self.v0)

    def hessian(self, d):
        """The model's k x k Hessian at d, binary64."""
        if self._last[0] is not d:
            self.value_and_grad(d)
        _, _, c, curved = self._last
        diag, U = self.diag_c, self.U_c
        if curved is not None:
            diag, U = diag[curved], U[curved]
        W = diag[:, None] * (self.v0 + d) + U
        H = (4.0 * self.mu) * (W.T @ W)
        H.flat[:: len(d) + 1] += 2.0 * (self.gi0 + c)
        return H

    def deltas(self, d):
        """DV at d: the last evaluation's when it was made at this very array."""
        last, dv, _, _ = self._last
        return dv if last is d and dv is not None else column_deltas(self.diag, self.U, self.v0, d)


def refresh_cache(state: IterateState) -> None:
    """Recompute the cached operator values in the problem's kind."""
    state.cache = OperatorCache.fresh(state.problem, state.V_blocks)
