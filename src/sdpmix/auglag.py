"""Augmented Lagrangian value and gradients on the factored iterate.

Inequalities enter through the hinge form: an index j contributes its
linear and quadratic terms only while y_b[j] + mu * (b_j - <B_j, X>) > 0,
and -y_b[j]^2 / (2 mu) otherwise; ties fall to the inactive branch (the
value is identical either way by continuity).

A column subproblem is solved on its increment model (ColumnContext), in
the manner of mixed-precision iterative refinement: the multipliers and
the gradient at the column's start are formed once, in the problem's
scalar kind, and rounded to binary64; every trial point then evaluates
only the change of the objective and of the gradient, in binary64, from
the column's slice (O(k n + nnz of the slice)). The accepted column is
formed and committed in the problem's kind, so a double-double solve
keeps double-double iterates while L-BFGS sees binary64 alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .ddouble import dot, kind_of, segment_sum, to_float_array
from .linops import ColumnSlices, OperatorCache, slot_increments
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
    slices = ColumnSlices(problem)
    cache = OperatorCache.fresh(problem, V_blocks)
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
    binary64. value_and_grad(d) evaluates, in binary64 only, the increment
    f(v_start + d) - f(v_start) and the gradient at v_start + d:

        Df(d) = g0.d + g_n0[i] |d|^2 + sum_j phi_j(DV_j)
        g(d)  = g0 + 2 (V Dg_n + d (g_n0[i] + Dg_n[i]))

    DV are the slot increments, phi_j the second-order remainder of row j
    (mu DV_j^2 / 2 while the row is an equality or an inequality active at
    both ends, the exact hinge form when its activity changes) and Dg_n the
    segment sum of the multiplier changes. No O(1) totals are formed, so
    the rounding error of Df is relative to Df itself.
    """

    def __init__(self, state: IterateState, block: int, i: int):
        self.state = state
        self.block = block
        self.i = i
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

        self.sl = state.slices.slice64(block, i)
        self.V = to_float_array(V)
        self.v0 = to_float_array(self.v_start)
        self.g0 = to_float_array(2.0 * (V @ g_n))
        self.gi0 = float(g_n[i])
        self.t0 = to_float_array(t0)
        self.active0 = self.t0 > 0
        self.mu = float(mu)

    def value_and_grad(self, d):
        """Df(d) and g(d) in binary64; d is the column's move from v_start."""
        state = self.state
        state.counters["column_evals"] += 1
        sl, mu, n_eq = self.sl, self.mu, self.n_eq
        # the norm change as 2 v0.d + |d|^2: no cancellation of |v|^2 terms
        dv = slot_increments(sl, self.V.T @ d, 2.0 * dot(self.v0, d) + dot(d, d))
        dv[-1] = 0.0  # the cost is linear in X: fixed coefficient, no remainder
        # coefficient changes -(lam - lam0) and remainders, equality form first
        dcoef = mu * dv
        phi = 0.5 * dcoef * dv
        if len(self.t0):
            state.counters["hinge_evals"] += 1
            t0, a0, dvi = self.t0, self.active0, dv[n_eq:-1]
            t1 = t0 - mu * dvi
            a1 = t1 > 0
            p0 = np.where(a0, t0, 0.0)
            p1 = np.where(a1, t1, 0.0)
            same = a0 & a1
            dcoef[n_eq:-1] = np.where(same, dcoef[n_eq:-1], p0 - p1)
            phi[n_eq:-1] = np.where(same, phi[n_eq:-1], (p1 * p1 - p0 * p0) / (2.0 * mu) + p0 * dvi)
        value = dot(self.g0, d) + self.gi0 * dot(d, d) + np.add.reduce(phi)

        n = state.problem.block_sizes[self.block]
        dg_n = segment_sum(sl.val * dcoef[sl.seg], sl.row, n) if len(sl.row) else np.zeros(n)
        dg_i = dg_n[self.i] + dot(dcoef, sl.diag)
        dg_n[self.i] = dg_i
        grad = self.g0 + 2.0 * (self.V @ dg_n + d * (self.gi0 + dg_i))
        return value, grad


def commit_column(state: IterateState, block: int, i: int, v_new) -> None:
    """Install an accepted column; the operator cache follows incrementally."""
    _cache_commit(state.cache, state.slices, state.V_blocks, block, i, v_new)


def refresh_cache(state: IterateState) -> None:
    """Full recomputation of the cached operator values (bounds drift)."""
    state.cache = OperatorCache.fresh(state.problem, state.V_blocks)
