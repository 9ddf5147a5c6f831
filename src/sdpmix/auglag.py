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

from .ddouble import dot, kind_of, segment_sum, to_float_array
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

    @property
    def kind(self):
        return kind_of(self.cache.values)

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

    DV are the slot increments (linops.column_deltas; the commit adds them
    at the accepted d to the cache), phi_j the second-order remainder of
    row j (mu DV_j^2 / 2 while the row is an equality or an inequality
    active at both ends, the exact hinge form when its activity changes).
    No O(1) totals are formed, so the rounding error of Df is relative to
    Df itself. hessian(d) is the model's (semismooth) Hessian

        2 (g_n0[i] + diag.phi') I + 4 W^T diag(phi'') W,  W = diag (v0 + d)^T + U,

    phi'' being mu on equalities and on inequalities active at d.

    It reads the state only while it is built, and counts nothing.
    """

    def __init__(self, state: IterateState, block: int, i: int):
        sl = state.slices.slice(block, i)
        p = state.problem
        kind = state.kind
        V = state.V_blocks[block]
        self.v_start = V[:, i].copy()
        self.sup = sl.sup
        self.n_eq = n_eq = int(np.searchsorted(sl.sup, p.m_eq))
        mu = state.mu

        # multipliers at v_start on the column's slots, then the cost slot
        t = state.y[sl.sup] + mu * (p.rhs[sl.sup] - state.cache.values[sl.sup])
        t0 = t[n_eq:].copy()
        if len(t0):
            t[n_eq:] = np.where(t0 > 0, t0, kind.scalar(0.0))
        coef = np.concatenate([-t, state.slices.cost_coef])
        n = p.block_sizes[block]
        g_n = segment_sum(sl.val * coef[sl.seg], sl.row, n) if len(sl.row) else kind.zeros(n)
        g_n[i] += dot(coef, sl.diag)

        sl64 = state.slices.slice64(block, i)
        self.diag = sl64.diag
        self.U = _slot_matrix(sl64, to_float_array(V))
        self.v0 = to_float_array(self.v_start)
        self.g0 = to_float_array(2.0 * (V @ g_n))
        self.gi0 = float(g_n[i])
        self.t0 = to_float_array(t0)
        self.active0 = self.t0 > 0
        self.mu = float(mu)
        self._last = (None, 0.0, None)

    def _remainders(self, d):
        """At d: phi' (the slot coefficient changes -(lam - lam0)), the
        remainders phi, and the inequalities' activity (None without any)."""
        mu, n_eq = self.mu, self.n_eq
        dv = column_deltas(self.diag, self.U, self.v0, d)
        dv[-1] = 0.0  # the cost is linear in X: fixed coefficient, no remainder
        # equality form first
        dcoef = mu * dv
        phi = 0.5 * dcoef * dv
        if not len(self.t0):
            return dcoef, phi, None
        t0, a0, dvi = self.t0, self.active0, dv[n_eq:-1]
        t1 = t0 - mu * dvi
        a1 = t1 > 0
        p0 = np.where(a0, t0, 0.0)
        p1 = np.where(a1, t1, 0.0)
        same = a0 & a1
        dcoef[n_eq:-1] = np.where(same, dcoef[n_eq:-1], p0 - p1)
        phi[n_eq:-1] = np.where(same, phi[n_eq:-1], (p1 * p1 - p0 * p0) / (2.0 * mu) + p0 * dvi)
        return dcoef, phi, a1

    def value_and_grad(self, d):
        """Df(d) and g(d) in binary64; d is the column's move from v_start."""
        if not d.any():  # the start: every increment is exactly 0
            self._last = (d, 0.0, self.active0 if len(self.t0) else None)
            return 0.0, self.g0.copy()
        dcoef, phi, active = self._remainders(d)
        value = self.g0 @ d + self.gi0 * (d @ d) + np.add.reduce(phi)
        c = self.diag @ dcoef
        self._last = (d, c, active)  # the Newton solver asks for the Hessian here
        return value, self.g0 + 2.0 * ((self.gi0 + c) * d + self.U.T @ dcoef + c * self.v0)

    def hessian(self, d):
        """The model's k x k Hessian at d, binary64."""
        last, c, active = self._last
        if last is not d:
            dcoef, _, active = self._remainders(d)
            c = self.diag @ dcoef
        curved = np.ones(len(self.diag), dtype=bool)
        curved[-1] = False
        if active is not None:
            curved[self.n_eq:-1] = active
        W = np.outer(self.diag[curved], self.v0 + d) + self.U[curved]
        H = (4.0 * self.mu) * (W.T @ W)
        H.flat[:: len(d) + 1] += 2.0 * (self.gi0 + c)
        return H


def refresh_cache(state: IterateState) -> None:
    """Recompute the cached operator values in the problem's kind."""
    state.cache = OperatorCache.fresh(state.problem, state.V_blocks)
