"""Limited-memory BFGS for the small column subproblems.

Works on binary64 vectors: the solver hands it the increment model of a
column (auglag.ColumnContext), whose variable is the column's move d from
its start and whose value is the objective's change, so a double-double
solve runs L-BFGS in binary64 too. The stopping rule is relative to the
gradient at the start point: accept x once

    ||grad(x)||_inf < max(eps, delta * ||grad(x_start)||_inf).

History is cleared for every call (the objective changes between columns),
and curvature pairs with s'y <= 1e-12 ||s|| ||y|| are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

_C1 = 1e-4  # Armijo constant
_C2 = 0.9  # strong Wolfe curvature constant
_EPS = 2.0**-53  # binary64 unit roundoff


@dataclass(frozen=True)
class InnerConfig:
    memory: int = 10
    eps: float = 0.01
    delta: float = 0.01
    max_evals: int = 1000

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.memory < 1:
            raise ValueError("memory must be at least 1")
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
    config: InnerConfig = InnerConfig(),
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
        if not math.isfinite(f) or not np.all(np.isfinite(g)):
            raise _NonFinite
        if state["best_f"] is None or f < state["best_f"]:
            state["best_f"] = f
            state["best_x"] = x.copy()
        return f, g

    try:
        f0, g0 = ev(x0)
    except _NonFinite:
        return x0, state["evals"], False
    except _Budget:  # max_evals == 0 is rejected by InnerConfig
        return x0, state["evals"], False

    threshold = max(config.eps, config.delta * _norm_inf(g0))
    if _norm_inf(g0) < threshold:
        return x0, state["evals"], True

    x, f, g = x0.copy(), f0, g0
    history: list = []

    try:
        while True:
            d = _two_loop(g, history)
            dphi0 = _dot(g, d)
            if not dphi0 < 0:
                history.clear()
                d = -g
                dphi0 = _dot(g, d)
                if not dphi0 < 0:
                    return state["best_x"], state["evals"], False
            alpha0 = 1.0 if history else min(1.0, 1.0 / (1.0 + _norm_inf(g)))
            # rounding level of the objective at x; an increment model's
            # value carries no O(1) total, so the level is relative to |f|
            noise = 128.0 * _EPS * abs(f)
            alpha, f_new, g_new = _wolfe_search(ev, x, f, d, dphi0, alpha0, noise)
            x_new = x + alpha * d
            s = alpha * d
            yv = g_new - g
            sy = _dot(s, yv)
            if sy > 1e-12 * math.sqrt(_dot(s, s)) * math.sqrt(_dot(yv, yv)):
                history.append((s, yv, 1.0 / sy))
                if len(history) > config.memory:
                    history.pop(0)
            x, f, g = x_new, f_new, g_new
            if _norm_inf(g) < threshold:
                if f > f0:  # roundoff-level ascent: keep the monotone contract
                    return state["best_x"], state["evals"], False
                return x, state["evals"], True
    except _NonFinite:
        return x0, state["evals"], False
    except (_Budget, _SearchFailed):
        return state["best_x"], state["evals"], False


def _dot(x, y) -> float:
    return float(np.add.reduce(x * y, axis=None)) if x.size else 0.0


def _norm_inf(x) -> float:
    return float(np.maximum.reduce(np.abs(x), axis=None)) if x.size else 0.0


def _two_loop(g, history):
    """Standard two-loop recursion with gamma = s'y / y'y scaling."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * _dot(s, q)
        alphas.append(a)
        q = q - a * y
    if history:
        s, y, _ = history[-1]
        q = q * (_dot(s, y) / _dot(y, y))
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * _dot(y, q)
        q = q + (a - b) * s
    return -q


def _approx_ok(f0, dphi0, f_a, dphi_a, noise):
    """Approximate Wolfe acceptance for steps below function roundoff
    (Hager-Zhang): gradient conditions plus an epsilon-scaled value slack."""
    return f_a <= f0 + noise and dphi_a >= _C2 * dphi0 and dphi_a <= (2.0 * _C1 - 1.0) * dphi0


def _wolfe_search(ev, v0, f0, d, dphi0, alpha0, noise):
    """Strong Wolfe line search (bracket then bisection zoom)."""
    alpha_prev, f_prev = 0.0, f0
    alpha = alpha0
    for it in range(40):
        f_a, g_a = ev(v0 + alpha * d)
        dphi_a = _dot(g_a, d)
        armijo = not (f_a > f0 + _C1 * alpha * dphi0)
        if armijo and abs(dphi_a) <= -_C2 * dphi0:
            return alpha, f_a, g_a
        if _approx_ok(f0, dphi0, f_a, dphi_a, noise):
            return alpha, f_a, g_a
        if not armijo or (it > 0 and f_a >= f_prev):
            return _zoom(ev, v0, f0, d, dphi0, alpha_prev, alpha, f_prev, noise)
        if dphi_a >= 0:
            return _zoom(ev, v0, f0, d, dphi0, alpha, alpha_prev, f_a, noise)
        alpha_prev, f_prev = alpha, f_a
        alpha *= 2.1
    raise _SearchFailed


def _zoom(ev, v0, f0, d, dphi0, lo, hi, f_lo, noise):
    for _ in range(50):
        alpha = 0.5 * (lo + hi)
        if alpha == lo or alpha == hi:  # interval exhausted in floating point
            raise _SearchFailed
        f_a, g_a = ev(v0 + alpha * d)
        dphi_a = _dot(g_a, d)
        armijo = not (f_a > f0 + _C1 * alpha * dphi0)
        if armijo and abs(dphi_a) <= -_C2 * dphi0:
            return alpha, f_a, g_a
        if _approx_ok(f0, dphi0, f_a, dphi_a, noise):
            return alpha, f_a, g_a
        if not armijo or f_a >= f_lo:
            hi = alpha
        else:
            if dphi_a * (hi - lo) >= 0:
                hi = lo
            lo, f_lo = alpha, f_a
    raise _SearchFailed
