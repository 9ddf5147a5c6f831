"""Damped Newton for the small column subproblems.

Works on binary64 vectors: the solver hands it the increment model of a
column (auglag.ColumnContext), whose variable is the column's move d from
its start and whose value is the objective's change, with the model's
k x k Hessian, so a double-double solve runs Newton in binary64 too. The
stopping rule is relative to the gradient at the start point: accept x once

    ||grad(x)||_inf < max(eps, 1e-300, delta * ||grad(x_start)||_inf),

the floor accepting a zero gradient whatever eps the solver passes.

Each step solves with the absolute eigenvalues of the Hessian, floored
relative to the largest, so a negative or vanishing curvature still gives
a descent direction; Armijo backtracking safeguards the step.

The module keeps its old name, from when the column solver was L-BFGS:
the benchmark's tracer wraps sdpmix.lbfgs.minimize_column by name.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from .ddouble import norm_inf

_C1 = 1e-4  # Armijo constant
_EPS = 2.0**-53  # binary64 unit roundoff
_FLOOR = 2.0**-26  # smallest curvature used, relative to the largest
_MIN_STEP = 2.0**-60  # backtracking gives up below this step length


def minimize_column(
    objective_grad: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
    hessian: Callable[[np.ndarray], np.ndarray],
    eps: float,
    delta: float,
    max_evals: int,
) -> Tuple[np.ndarray, int, bool]:
    """Minimize from x0 in at most max_evals >= 1 evaluations, with delta > 0
    (the caller guarantees both); returns (x, evals, converged).

    The returned objective value never exceeds the start value: on budget
    exhaustion or line-search failure the best iterate found is returned,
    and a nonfinite evaluation or Hessian aborts the subproblem with x0 itself.
    """
    f0, g0 = objective_grad(x0)
    evals = 1
    g_start = float(norm_inf(g0))  # nonfinite when g0 is
    if not (math.isfinite(f0) and math.isfinite(g_start)):
        return x0, evals, False
    threshold = max(eps, 1e-300, delta * g_start)
    if g_start < threshold:
        return x0, evals, True

    x, f, g, g_norm = x0, f0, g0, g_start
    best_x, best_f = x0, f0
    while True:
        try:
            w, Q = np.linalg.eigh(hessian(x))
        except np.linalg.LinAlgError:  # eigh fails on some nonfinite Hessians
            return x0, evals, False
        curv = np.abs(w)
        floor = max(_FLOOR * float(curv.max()), _EPS * g_norm)
        p = Q @ ((Q.T @ g) / -np.maximum(curv, floor))
        slope = float(g @ p)
        if not math.isfinite(slope):  # and returns NaNs for others: abort before any trial
            return x0, evals, False
        # rounding level of the objective at x; an increment model's
        # value carries no O(1) total, so the level is relative to |f|
        noise = 128.0 * _EPS * abs(f)
        alpha = 1.0
        while True:
            if evals >= max_evals or alpha < _MIN_STEP:
                return best_x, evals, False
            x_new = x + alpha * p
            f_new, g_new = objective_grad(x_new)
            evals += 1
            g_norm_new = float(norm_inf(g_new))
            if not (math.isfinite(f_new) and math.isfinite(g_norm_new)):
                return x0, evals, False
            if f_new < best_f:
                best_x, best_f = x_new, f_new
            if f_new <= f + _C1 * alpha * slope:
                break
            # a decrease below the value's rounding: accept while the
            # slope along p has not turned (approximate Armijo, Hager-Zhang)
            if f_new <= f + noise and float(g_new @ p) <= (2.0 * _C1 - 1.0) * slope:
                break
            # minimizer of the quadratic through f, slope and f_new
            excess = f_new - f - alpha * slope
            alpha *= min(0.5, max(0.1, -0.5 * alpha * slope / excess))
        x, f, g, g_norm = x_new, f_new, g_new, g_norm_new
        if g_norm < threshold:
            if f > f0:  # roundoff-level ascent: keep the monotone contract
                return best_x, evals, False
            return x, evals, True
