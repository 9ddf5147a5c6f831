"""Augmented Lagrangian value and gradients on the factored iterate.

Inequalities enter through the hinge form: an index j contributes its
linear and quadratic terms only while y_b[j] + mu * (b_j - <B_j, X>) > 0,
and -y_b[j]^2 / (2 mu) otherwise; ties fall to the inactive branch (the
value is identical either way by continuity).

The restricted per-column objective keeps all off-column terms constant:
only constraints whose column slice is nonempty are re-evaluated at a
trial point, everything else is carried from the operator cache, so one
evaluation costs O(k n + nnz of the column slice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .ddouble import dot, kind_of, segment_sum
from .linops import ColumnSlices, OperatorCache, column_deltas
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
    counters: dict = field(default_factory=lambda: {"hinge_evals": 0, "column_evals": 0})

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
    """Restricted objective for one column; reusable across trial points."""

    def __init__(self, state: IterateState, block: int, i: int):
        self.state = state
        self.block = block
        self.i = i
        self.sl = sl = state.slices.slice(block, i)
        self.kind = state.kind
        p = state.problem
        m_a = p.m_eq
        self.v_start = state.V_blocks[block][:, i].copy()
        # operator values on the column's slots: sup, then the cost
        self.vals_start = np.concatenate([state.cache.values[sl.sup], [state.cache.cost_value]])
        self.mu = state.mu

        n_eq = int(np.searchsorted(sl.sup, m_a))
        self.n_eq = n_eq
        self.rhs_sup = p.rhs[sl.sup] if len(sl.sup) else state.kind.zeros(0)
        self.y_sup_eq = state.y_a[sl.sup[:n_eq]]
        self.y_sup_ineq = state.y_b[sl.sup[n_eq:] - m_a]

        # off-support terms are constant within this subproblem
        r_all = state.residual_eq()
        r_sup0 = self.rhs_sup[:n_eq] - self.vals_start[:n_eq]
        self.const_lin_eq = dot(state.y_a, r_all) - dot(self.y_sup_eq, r_sup0)
        self.const_quad_eq = dot(r_all, r_all) - dot(r_sup0, r_sup0)
        s_all = state.residual_ineq()
        s_sup0 = self.rhs_sup[n_eq:] - self.vals_start[n_eq:-1]
        self.const_hinge = self._hinge_sum(state.y_b, s_all)[0] - self._hinge_sum(self.y_sup_ineq, s_sup0)[0]

    def _hinge_sum(self, y, s):
        """The hinge terms' value and their multipliers max(y + mu s, 0)."""
        if not len(s):
            return self.kind.from_float(0.0), s
        self.state.counters["hinge_evals"] += 1
        mu = self.mu
        t = y + mu * s
        active = t > 0
        total = self.kind.from_float(0.0)
        if np.any(active):
            sa = s[active]
            total = total + dot(y[active], sa) + 0.5 * mu * dot(sa, sa)
        if not np.all(active):
            yi = y[~active]
            total = total - dot(yi, yi) / (2.0 * mu)
        return total, np.where(active, t, self.kind.from_float(0.0))

    def value_and_grad(self, v_trial):
        state = self.state
        state.counters["column_evals"] += 1
        sl = self.sl
        mu = self.mu
        V = state.V_blocks[self.block]
        n_eq = self.n_eq

        vals = self.vals_start + column_deltas(sl, V, self.i, self.v_start, v_trial)
        total = vals[-1]

        r_sup = self.rhs_sup[:n_eq] - vals[:n_eq]
        total = total + self.const_lin_eq + dot(self.y_sup_eq, r_sup)
        total = total + 0.5 * mu * (self.const_quad_eq + dot(r_sup, r_sup))
        lam_eq = self.y_sup_eq + mu * r_sup

        hinge, lam_ineq = self._hinge_sum(self.y_sup_ineq, self.rhs_sup[n_eq:] - vals[n_eq:-1])
        total = total + self.const_hinge + hinge

        # dense n-vector C_(i) - sum_j lam_j (A_j)_(i): the slots' coefficients
        # are -lam and 1 for the cost, then two O(kn) products
        n = state.problem.block_sizes[self.block]
        coef = np.concatenate([-lam_eq, -lam_ineq, state.slices.cost_coef])
        g_n = segment_sum(sl.val * coef[sl.seg], sl.row, n) if len(sl.row) else self.kind.zeros(n)
        g_n[self.i] += dot(coef, sl.diag)
        grad = 2.0 * (V @ g_n + (v_trial - self.v_start) * g_n[self.i])
        return total, grad


def commit_column(state: IterateState, block: int, i: int, v_new) -> None:
    """Install an accepted column; the operator cache follows incrementally."""
    _cache_commit(state.cache, state.slices, state.V_blocks, block, i, v_new)


def refresh_cache(state: IterateState) -> None:
    """Full recomputation of the cached operator values (bounds drift)."""
    state.cache = OperatorCache.fresh(state.problem, state.V_blocks)
