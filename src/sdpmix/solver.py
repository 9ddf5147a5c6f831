"""Outer loop: column sweeps, dual updates, dynamic penalty, termination.

One outer iteration minimizes the augmented Lagrangian approximately over
every column of every factor block (a damped Newton solve per column, on
the column's increment model and its exact k x k Hessian), then
applies the first-order dual update and steers the penalty parameter so
that the primal residual keeps shrinking geometrically: the ratio of the
residual norm to mu times the per-iteration change of the constraint
values is held near 1, increasing mu above rat_max and decreasing it
below rat_min.

Status tol means that all five KKT errors of the returned solution,
measured on the problem as given, are below tol. That report needs the
dual slack matrix (a PSD projection), so it is built only every iters_Z
iterations and only once the three cheap measures (pinf, gap, compl*) of
the scaled iterate are already below tol; the solution it is built on is
the one returned.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from .auglag import ColumnContext, IterateState, commit_column, make_state, refresh_cache
from .ddouble import (
    ScalarKind,
    all_finite,
    dot,
    fsqrt,
    is_finite_scalar,
    kind_of,
    norm2,
    norm_inf,
)
from .errors import NumericalError, ValidationError
from .lbfgs import InnerConfig, minimize_column
from .linops import combine_rows, operator_rows, project_psd
from .problem import ScalingRecord, SdpProblem, row_norms_sq, scale, validate


def ceil_sqrt(x: int) -> int:
    s = math.isqrt(x)
    return s if s * s == x else s + 1


def rank_rule(n: int, m_eq: int, m_ineq: int) -> int:
    """Factor rank k = min(n, ceil(sqrt(2 m))), the low-rank existence bound."""
    return min(n, ceil_sqrt(2 * (m_eq + m_ineq)))


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-12
    mu_start: Optional[float] = None  # default sqrt(max block size)
    time_limit: Optional[float] = None
    max_iters: Optional[int] = None
    iters_Z: int = 50
    scaling: bool = True
    shuffling: bool = False
    double_sweep: bool = False
    p: float = 1.0
    delta: float = 0.01
    epsilon: float = 0.01
    max_evals: int = 1000
    tau: float = 1.03
    rat_min: float = 0.8
    rat_max: float = 1.2
    seed: int = 0

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.mu_start is not None and not self.mu_start > 0:
            raise ValueError("mu_start must be positive")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.iters_Z < 1:
            raise ValueError("iters_Z must be at least 1")
        if not self.p > 0:
            raise ValueError("p must be positive")
        if not self.tau > 1:
            raise ValueError("tau must exceed 1")
        if not (0 < self.rat_min < self.rat_max):
            raise ValueError("need 0 < rat_min < rat_max")
        if not self.delta > 0 or not self.epsilon > 0 or self.max_evals < 1:
            raise ValueError("delta/epsilon must be positive and max_evals at least 1")


@dataclass
class ErrorReport:
    """Normalized KKT error measures; dinf/compl appear once Z is known."""

    pinf: object
    gap: object
    compl_star: object
    dinf: object = None
    compl: object = None

    def max_error(self):
        vals = [self.pinf, self.gap, self.compl_star]
        if self.dinf is not None:
            vals.append(self.dinf)
        if self.compl is not None:
            vals.append(self.compl)
        return max(vals)

    def as_dict(self) -> dict:
        out = {"pinf": float(self.pinf), "gap": float(self.gap), "compl_star": float(self.compl_star)}
        out["dinf"] = None if self.dinf is None else float(self.dinf)
        out["compl"] = None if self.compl is None else float(self.compl)
        return out


@dataclass
class WarmStart:
    """Scaled-space resume state from a previous solve."""

    V_blocks: List[np.ndarray]
    y_a: np.ndarray
    y_b: np.ndarray
    mu: object

    @property
    def kind(self) -> ScalarKind:
        return kind_of(self.y_a if len(self.y_a) else self.V_blocks[0])


@dataclass
class Solution:
    """Primal-dual solution in the caller's (unscaled) data space."""

    factor: List[np.ndarray]
    y_a: np.ndarray
    y_b: np.ndarray
    Z: Optional[List[np.ndarray]]
    status: str
    report: Optional[ErrorReport]
    iterations: int = 0
    elapsed: float = 0.0
    objective: object = None

    @property
    def X(self) -> List[np.ndarray]:
        """The primal blocks, rebuilt from the factor on each access."""
        return [F.T @ F for F in self.factor]

    @property
    def y(self) -> np.ndarray:
        return np.concatenate([self.y_a, self.y_b])


def init_state(problem: SdpProblem, options: SolverOptions) -> IterateState:
    """Columns i.i.d. uniform on the unit sphere, zero duals, mu = mu_start."""
    kind = problem.kind
    rng = np.random.default_rng(options.seed)
    V_blocks = []
    for n in problem.block_sizes:
        ki = rank_rule(n, problem.m_eq, problem.m_ineq)
        V = kind.asarray(rng.standard_normal((ki, n)))
        for i in range(n):
            col = V[:, i]
            nrm = norm2(col)
            if float(nrm) > 0:
                V[:, i] = col / nrm
        V_blocks.append(V)
    mu0 = options.mu_start if options.mu_start is not None else math.sqrt(max(problem.block_sizes))
    return make_state(
        problem,
        V_blocks,
        kind.zeros(problem.m_eq),
        kind.zeros(problem.m_ineq),
        kind.from_float(mu0),
    )


def check_fit(problem: SdpProblem, what: str, tag: str, blocks, y_a, y_b, Z_blocks=()) -> None:
    """Raise ValidationError unless a stored iterate fits `problem`: its block
    count, the columns of each factor block (named `tag` in messages), the
    order of each Z block, the dual lengths, and every value finite. `what`
    names the iterate ("solution", "warm start")."""
    sizes = problem.block_sizes
    if len(blocks) != problem.q:
        raise ValidationError(f"{what} has {len(blocks)} blocks, problem has {problem.q}")
    for b, V in enumerate(blocks):
        if V.shape[1] != sizes[b]:
            raise ValidationError(f"{what} block {b + 1}: {V.shape[1]} columns, block size {sizes[b]}")
    for b, Z in enumerate(Z_blocks):
        if len(Z) != sizes[b]:
            raise ValidationError(f"{what} Z block {b + 1} has order {len(Z)}, block size is {sizes[b]}")
    if len(y_a) != problem.m_eq or len(y_b) != problem.m_ineq:
        raise ValidationError(f"{what} dual vector lengths do not match the problem")
    fields = [(f"{tag} {b + 1}", V) for b, V in enumerate(blocks)] + [("ya", y_a), ("yb", y_b)]
    for name, values in fields + [(f"Z {b + 1}", Z) for b, Z in enumerate(Z_blocks)]:
        if not all_finite(values):
            raise ValidationError(f"{what} field {name} has a nonfinite value")


def state_from_warm(problem: SdpProblem, warm: WarmStart) -> IterateState:
    kind = problem.kind
    check_fit(problem, "warm start", "V", warm.V_blocks, warm.y_a, warm.y_b)
    if not is_finite_scalar(warm.mu):
        raise ValidationError("warm start field mu has a nonfinite value")
    if len(warm.y_b) and not bool(np.all(warm.y_b >= 0)):
        raise ValidationError("warm start has negative inequality multipliers")
    if not float(warm.mu) > 0:
        raise ValidationError("warm start has nonpositive mu")
    return make_state(
        problem,
        [kind.asarray(V) for V in warm.V_blocks],
        kind.asarray(warm.y_a),
        kind.asarray(warm.y_b),
        kind.coerce_scalar(warm.mu),
    )


def sweep_order(n: int, iteration: int, options: SolverOptions) -> np.ndarray:
    """Column visit order for one outer iteration (0-based indices)."""
    if options.shuffling:
        rng = np.random.default_rng((options.seed, iteration))
        order = rng.permutation(n)
    else:
        order = np.arange(n)
    if options.double_sweep:
        order = np.concatenate([order, order[::-1]])
    return order


def update_duals(state: IterateState, problem: SdpProblem, p: float) -> None:
    """First-order multiplier step; inequality duals clipped at zero."""
    mu = state.mu
    state.y_a = state.y_a + (p * mu) * state.residual_eq()
    state.y_b = np.maximum(state.y_b + (p * mu) * state.residual_ineq(), 0.0)


def penalty_ratio(state: IterateState, problem: SdpProblem):
    """Residual norm over mu times the constraint-value movement, on the
    active inequalities (nonnegative residual or positive multiplier)."""
    m_a = problem.m_eq
    r = state.residual_eq()
    s = state.residual_ineq()
    active = (s >= 0) | (state.y_b > 0) if len(s) else np.zeros(0, dtype=bool)
    num_sq = dot(r, r) + dot(s[active], s[active])
    num = fsqrt(num_sq)
    if not float(num) > 0.0:
        return 0.0
    diff = state.cache.values - state.prev_values
    d_eq = diff[:m_a]
    d_in = diff[m_a:][active]
    den = state.mu * fsqrt(dot(d_eq, d_eq) + dot(d_in, d_in))
    if not float(den) > 0.0:
        return math.inf
    return float(num / den)


def update_penalty(state: IterateState, ratio: float, options: SolverOptions) -> None:
    if ratio > options.rat_max:  # also catches the +inf sentinel
        state.mu = state.mu * options.tau
    elif ratio < options.rat_min:
        state.mu = state.mu / options.tau
    # unchanged otherwise


def compute_errors(problem: SdpProblem, X_blocks, y_a, y_b, Z_blocks=None) -> ErrorReport:
    """KKT error measures from dense X (and Z when supplied); independent of
    the factored-iterate caches."""
    rows = dense_rows(problem, X_blocks)
    vals, pobj = rows[:-1], rows[-1]
    if Z_blocks is None:
        return kkt_errors(problem, vals, pobj, y_a, y_b)
    resid = [S - Z for S, Z in zip(cost_minus_adjoint(problem, y_a, y_b), Z_blocks)]
    resid_sq = sum(np.sum(R * R) for R in resid)
    cost_sq = row_norms_sq(problem)[-1]
    xz = sum(np.sum(X * Z) for X, Z in zip(X_blocks, Z_blocks))
    report = kkt_errors(problem, vals, pobj, y_a, y_b, xz)
    report.dinf = fsqrt(resid_sq) / (1.0 + float(fsqrt(cost_sq)))
    return report


def dense_rows(problem: SdpProblem, X_blocks) -> np.ndarray:
    """<A_j, X> for every constraint j and, as row m, <C, X>, from dense X."""
    return operator_rows(problem, [X[row, col] for X, (_, row, col, _) in zip(X_blocks, problem.entries)])


def cost_minus_adjoint(problem: SdpProblem, y_a, y_b) -> List[np.ndarray]:
    """C - sum_j y_j A_j per block: the rows' combination with coefficients -y and 1."""
    return combine_rows(problem, np.concatenate([-y_a, -y_b, problem.kind.asarray([1.0])]))


def kkt_errors(problem: SdpProblem, vals, pobj, y_a, y_b, xz=None) -> ErrorReport:
    """pinf, gap and compl* from the constraint values and the objective
    value (of a dense X in compute_errors, of the operator cache in the
    solve loop); compl too when <X, Z> is given."""
    a = problem.rhs_eq
    bvec = problem.rhs_ineq
    r = a - vals[: problem.m_eq]
    s = bvec - vals[problem.m_eq :]
    viol = norm_inf(np.maximum(s, 0.0))
    pinf_num = max(norm_inf(r), viol)
    pinf_den = 1.0 + float(max(norm_inf(a), norm_inf(bvec)))
    pinf = pinf_num / pinf_den

    dobj = dot(a, y_a) + dot(bvec, y_b)
    denom = 1.0 + abs(pobj) + abs(dobj)
    gap = abs(pobj - dobj) / denom

    dual_val = dot(y_a, vals[: problem.m_eq]) + dot(y_b, vals[problem.m_eq :])
    compl_star = abs(pobj - dual_val) / denom
    compl = None if xz is None else abs(xz) / denom
    return ErrorReport(pinf=pinf, gap=gap, compl_star=compl_star, compl=compl)


def dual_slack(problem: SdpProblem, y_a, y_b):
    """Z for the error report: C - sum_j y_j A_j projected onto the PSD cone, per block."""
    return [project_psd(S) for S in cost_minus_adjoint(problem, y_a, y_b)]


def unscale_solution(sol: Solution, record: ScalingRecord, original: SdpProblem) -> Solution:
    """Map a scaled-space solution back to the original data and measure
    the error report (including a fresh dual slack projection) on it; solve
    decides status tol on this report."""
    if len(record.constraint_norms) != original.m:
        raise ValidationError("scaling record does not match the problem (constraint count)")
    for b, F in enumerate(sol.factor):
        if F.shape[1] != original.block_sizes[b]:
            raise ValidationError("scaling record / problem mismatch (block orders)")
    sqrt_gamma = fsqrt(record.primal_scale)
    factor = [sqrt_gamma * V for V in sol.factor]
    # the report is measured on Solution.X of the unscaled factor, which the
    # check command rebuilds exactly from a stored factor
    X = [F.T @ F for F in factor]
    dual_factors = record.cost_norm / record.constraint_norms
    y_a = dual_factors[: original.m_eq] * sol.y_a
    y_b = dual_factors[original.m_eq :] * sol.y_b
    Z = dual_slack(original, y_a, y_b)
    report = compute_errors(original, X, y_a, y_b, Z)
    return replace(
        sol, factor=factor, y_a=y_a, y_b=y_b, Z=Z, report=report, objective=dense_rows(original, X)[-1]
    )


def solve(
    problem: SdpProblem,
    options: SolverOptions | None = None,
    warm_start: WarmStart | None = None,
    progress: Callable[[dict], None] | None = None,
):
    """Run the solver; returns (Solution, WarmStart).

    The solution is stated for the original problem with errors recomputed
    from scratch on it; the warm start stays in scaled space so a later
    call (possibly at a higher-precision kind) can resume.
    """
    options = options or SolverOptions()
    validate(problem)
    t_start = time.perf_counter()

    if options.scaling:
        scaled, record = scale(problem)
    else:
        scaled, record = problem, ScalingRecord.identity(problem)

    if warm_start is not None:
        state = state_from_warm(scaled, warm_start)
    else:
        state = init_state(scaled, options)

    pairs = [(b, i) for b in range(scaled.q) for i in range(scaled.block_sizes[b])]
    status = None
    iteration = 0
    # The absolute part of the column stopping rule follows the outer KKT
    # error downward: a fixed floor would freeze all columns once their
    # gradients drop below it and stall the solve at that level, while the
    # relative part (delta) alone would over-solve the early subproblems.
    err_level = 1.0

    def elapsed() -> float:
        return time.perf_counter() - t_start

    def out_of_time() -> bool:
        return options.time_limit is not None and elapsed() >= options.time_limit

    def unscaled(status: str) -> Solution:
        # unscale_solution multiplies into new arrays, so the result shares
        # nothing with the state the loop goes on updating in place
        sol = Solution(state.V_blocks, state.y_a, state.y_b, Z=None, status=status, report=None, iterations=iteration)
        return unscale_solution(sol, record, problem)

    while status is None:
        if options.max_iters is not None and iteration >= options.max_iters:
            status = "iter"
            break
        if out_of_time():
            status = "time"
            break
        iteration += 1

        inner_cfg = InnerConfig(
            eps=max(options.epsilon * min(1.0, err_level), 1e-300),
            delta=options.delta,
            max_evals=options.max_evals,
        )
        for t in sweep_order(len(pairs), iteration, options):
            if out_of_time():
                status = "time"
                break
            b, i = pairs[t]
            ctx = ColumnContext(state, b, i)
            d, _, converged = minimize_column(ctx.value_and_grad, np.zeros(len(ctx.v_start)), inner_cfg, ctx.hessian)
            if not converged:
                state.counters["inner_unconverged"] += 1
            commit_column(state, b, i, ctx.v_start + d)
        if status is not None:
            break

        refresh_cache(state)
        if not all_finite(state.cache.values) or not is_finite_scalar(state.cache.cost_value):
            raise NumericalError(f"nonfinite iterate at outer iteration {iteration} (mu={float(state.mu):.3e})")

        update_duals(state, scaled, options.p)
        if not (all_finite(state.y_a) and all_finite(state.y_b) and is_finite_scalar(state.mu)):
            raise NumericalError(f"nonfinite duals at outer iteration {iteration} (mu={float(state.mu):.3e})")
        assert len(state.y_b) == 0 or bool(np.all(state.y_b >= 0))
        ratio = penalty_ratio(state, scaled)
        update_penalty(state, ratio, options)
        state.prev_values = state.cache.values.copy()

        cheap = kkt_errors(scaled, state.cache.values, state.cache.cost_value, state.y_a, state.y_b)
        err_level = float(cheap.max_error())
        if progress is not None:
            progress(
                {
                    "iter": iteration,
                    "mu": float(state.mu),
                    "ratio": ratio,
                    "pinf": float(cheap.pinf),
                    "gap": float(cheap.gap),
                    "compl_star": float(cheap.compl_star),
                    "elapsed": elapsed(),
                    "hinge_evals": state.counters["hinge_evals"],
                    "column_evals": state.counters["column_evals"],
                    "inner_unconverged": state.counters["inner_unconverged"],
                }
            )

        if cheap.max_error() < options.tol and iteration % options.iters_Z == 0:
            solution = unscaled("tol")
            if solution.report.max_error() < options.tol:
                status = "tol"

    warm = WarmStart(
        [V.copy() for V in state.V_blocks],
        state.y_a.copy(),
        state.y_b.copy(),
        state.mu,
    )
    if status != "tol":
        solution = unscaled(status)
    solution.elapsed = elapsed()
    return solution, warm
