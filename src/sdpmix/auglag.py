"""Augmented Lagrangian value and gradients on the factored iterate.

Inequalities enter through the hinge form: an index j contributes its
linear and quadratic terms only while y_b[j] + mu * (b_j - <B_j, X>) > 0,
and -y_b[j]^2 / (2 mu) otherwise; ties fall to the inactive branch (the
value is identical either way by continuity).

A column subproblem is solved on its increment model (ColumnContext), in
the manner of mixed-precision iterative refinement: the multipliers and
the gradient at the column's start are formed once, in the problem's
scalar kind, and rounded to binary64; every trial point then evaluates
only the change of the objective, its gradient and its k x k Hessian, in
binary64, from the column's slot matrix (O(k slots)). The accepted column
is formed and committed in the problem's kind, so a double-double solve
keeps double-double iterates while the Newton column solver sees binary64
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .ddouble import dot, kind_of, segment_sum, to_float_array
from .linops import ColSlice, ColumnSlices, OperatorCache
from .linops import commit_column as _cache_commit
from .problem import SdpProblem


@dataclass
class IterateState:
    """Mutable state owned by one solve."""

    problem: SdpProblem
    V_blocks: List[np.ndarray]
    y_a: np.ndarray
    y_b: np.ndarray
    mu: object
    cache: OperatorCache
    prev_values: np.ndarray
    slices: ColumnSlices
    counters: dict = field(default_factory=lambda: {"hinge_evals": 0, "column_evals": 0, "inner_unconverged": 0})

    @property
    def kind(self):
        return kind_of(self.cache.values)

    def values_eq(self) -> np.ndarray:
        return self.cache.values[: self.problem.m_eq]

    def values_ineq(self) -> np.ndarray:
        return self.cache.values[self.problem.m_eq :]

    def residual_eq(self) -> np.ndarray:
        return self.problem.rhs_eq - self.values_eq()

    def residual_ineq(self) -> np.ndarray:
        return self.problem.rhs_ineq - self.values_ineq()


def make_state(problem: SdpProblem, V_blocks, y_a, y_b, mu) -> IterateState:
    kind = problem.kind
    cache = OperatorCache.fresh(problem, V_blocks)
    slices = ColumnSlices(problem)
    return IterateState(
        problem=problem,
        V_blocks=[kind.asarray(V) for V in V_blocks],
        y_a=kind.asarray(y_a),
        y_b=kind.asarray(y_b),
        mu=kind.coerce_scalar(mu),
        cache=cache,
        prev_values=cache.values.copy(),
        slices=slices,
    )


class ColumnContext:
    """The increment model of one column's restricted objective.

    Built once per column in the problem's kind: the slot multipliers
    lam0 at v_start (for an inequality, max(t0, 0) with the activity
    argument t0 = y + mu s), the n-vector g_n0 = C_(i) - sum_j lam0_j
    (A_j)_(i) and the column gradient g0 = 2 V g_n0, then rounded to
    binary64; so is the slot matrix U, whose row j is sum val V[:, partner]
    over slot j's off-diagonal entries. value_and_grad(d) evaluates, in
    binary64 only, the increment f(v_start + d) - f(v_start) and the
    gradient at v_start + d:

        DV    = diag (2 v0.d + |d|^2) + 2 U d
        Df(d) = g0.d + g_n0[i] |d|^2 + sum_j phi_j(DV_j)
        g(d)  = g0 + 2 (g_n0[i] d + U^T phi' + (v0 + d) diag.phi')

    DV are the slot increments, phi_j the second-order remainder of row j
    (mu DV_j^2 / 2 while the row is an equality or an inequality active at
    both ends, the exact hinge form when its activity changes). No O(1)
    totals are formed, so the rounding error of Df is relative to Df
    itself. hessian(d) is the model's (semismooth) Hessian

        2 (g_n0[i] + diag.phi') I + 4 W^T diag(phi'') W,  W = diag (v0 + d)^T + U,

    phi'' being mu on equalities and on inequalities active at d.
    """

    def __init__(self, state: IterateState, block: int, i: int):
        self.state = state
        sl = state.slices.slice(block, i)
        p = state.problem
        kind = state.kind
        V = state.V_blocks[block]
        self.v_start = V[:, i].copy()
        self.n_eq = n_eq = int(np.searchsorted(sl.sup, p.m_eq))
        mu = state.mu

        # multipliers at v_start on the column's slots, then the cost slot
        y = np.concatenate([state.y_a[sl.sup[:n_eq]], state.y_b[sl.sup[n_eq:] - p.m_eq]])
        t = y + mu * (p.rhs[sl.sup] - state.cache.values[sl.sup])
        t0 = t[n_eq:].copy()
        if len(t0):
            state.counters["hinge_evals"] += 1
            t[n_eq:] = np.where(t0 > 0, t0, kind.from_float(0.0))
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
        # the norm change as 2 v0.d + |d|^2: no cancellation of |v|^2 terms
        dv = self.diag * (2.0 * (self.v0 @ d) + d @ d) + 2.0 * (self.U @ d)
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
        counters = self.state.counters
        counters["column_evals"] += 1
        if len(self.t0):
            counters["hinge_evals"] += 1
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


def _slot_matrix(sl: ColSlice, V: np.ndarray) -> np.ndarray:
    """The slot matrix M V^T, M holding each slot's entries by partner (one
    bincount)."""
    n, rows = V.shape[1], len(sl.diag)
    return np.bincount(sl.seg * n + sl.row, weights=sl.val, minlength=rows * n).reshape(rows, n) @ V.T


def commit_column(state: IterateState, block: int, i: int, v_new) -> None:
    """Install an accepted column; the operator cache follows incrementally."""
    _cache_commit(state.cache, state.slices, state.V_blocks, block, i, v_new)


def refresh_cache(state: IterateState) -> None:
    """Full recomputation of the cached operator values (bounds drift)."""
    state.cache = OperatorCache.fresh(state.problem, state.V_blocks)
