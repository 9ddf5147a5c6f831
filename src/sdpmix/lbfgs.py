"""Damped Newton for the small column subproblems.

Works on binary64 vectors: the solver hands it the increment model of a
column (auglag.ColumnContext), whose variable is the column's move d from
its start and whose value is the objective's change, with the model's
k x k Hessian, so a double-double solve runs Newton in binary64 too. The
stopping rule is relative to the gradient at the start point: accept x once

    ||grad(x)||_inf < max(eps, delta * ||grad(x_start)||_inf).

Each step solves with the absolute eigenvalues of the Hessian, floored
relative to the largest, so a negative or vanishing curvature still gives
a descent direction; Armijo backtracking safeguards the step.

The module keeps its old name, from when the column solver was L-BFGS:
the benchmark's tracer wraps sdpmix.lbfgs.minimize_column by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

_C1 = 1e-4  # Armijo constant
_EPS = 2.0**-53  # binary64 unit roundoff
_FLOOR = 2.0**-26  # smallest curvature used, relative to the largest
_MIN_STEP = 2.0**-60  # backtracking gives up below this step length


@dataclass(frozen=True)
class InnerConfig:
    eps: float = 0.01
    delta: float = 0.01
    max_evals: int = 1000

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")


class _Budget(Exception):
    pass


class _NonFinite(Exception):
    pass


class _SearchFailed(Exception):
    pass


def minimize_column(
    objective_grad: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
    config: InnerConfig,
    hessian: Callable[[np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, int, bool]:
    """Minimize the callable from x0; returns (x, evals, converged).

    The returned objective value never exceeds the start value: on budget
    exhaustion or line-search failure the best iterate found is returned,
    and a nonfinite evaluation aborts the subproblem with x0 itself.
    """
    state = {"evals": 0, "best_f": None, "best_x": None}

    def ev(x):
        if state["evals"] >= config.max_evals:
            raise _Budget
        state["evals"] += 1
        f, g = objective_grad(x)
        if not (math.isfinite(f) and np.isfinite(g).all()):
            raise _NonFinite
        if state["best_f"] is None or f < state["best_f"]:
            state["best_f"] = f
            state["best_x"] = x
        return f, g

    try:
        f0, g0 = ev(x0)
    except _NonFinite:
        return x0, state["evals"], False

    g_start = _norm_inf(g0)
    threshold = max(config.eps, config.delta * g_start)
    if g_start < threshold:
        return x0, state["evals"], True

    x, f, g, g_norm = x0, f0, g0, g_start
    try:
        while True:
            w, Q = np.linalg.eigh(hessian(x))
            curv = np.abs(w)
            floor = max(_FLOOR * float(curv.max()), _EPS * g_norm)
            p = Q @ ((Q.T @ g) / -np.maximum(curv, floor))
            slope = float(g @ p)
            # rounding level of the objective at x; an increment model's
            # value carries no O(1) total, so the level is relative to |f|
            noise = 128.0 * _EPS * abs(f)
            alpha = 1.0
            while True:
                x_new = x + alpha * p
                f_new, g_new = ev(x_new)
                if f_new <= f + _C1 * alpha * slope:
                    break
                # a decrease below the value's rounding: accept while the
                # slope along p has not turned (approximate Armijo, Hager-Zhang)
                if f_new <= f + noise and float(g_new @ p) <= (2.0 * _C1 - 1.0) * slope:
                    break
                # minimizer of the quadratic through f, slope and f_new
                excess = f_new - f - alpha * slope
                alpha *= min(0.5, max(0.1, -0.5 * alpha * slope / excess))
                if alpha < _MIN_STEP:
                    raise _SearchFailed
            x, f, g = x_new, f_new, g_new
            g_norm = _norm_inf(g)
            if g_norm < threshold:
                if f > f0:  # roundoff-level ascent: keep the monotone contract
                    return state["best_x"], state["evals"], False
                return x, state["evals"], True
    except _NonFinite:
        return x0, state["evals"], False
    except (_Budget, _SearchFailed):
        return state["best_x"], state["evals"], False


def _norm_inf(x) -> float:
    return float(np.maximum.reduce(np.abs(x), axis=None)) if x.size else 0.0
