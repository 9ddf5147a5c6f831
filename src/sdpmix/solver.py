"""Outer loop: column sweeps, dual updates, dynamic penalty, termination.

Every solve runs on its data scaled by problem.scale, and maps the
solution back to the problem as given. One outer iteration minimizes the
augmented Lagrangian approximately over every column of every factor block
(a damped Newton solve per column, on the column's increment model and its
exact k x k Hessian), visiting the columns in index order: block by block,
each block's columns in turn. It then applies the first-order dual
update and steers the penalty parameter so that the primal residual keeps
shrinking geometrically: the ratio of the residual norm to mu times the
per-iteration change of the constraint values is held near 1, increasing
mu by the factor TAU above RAT_MAX and decreasing it by TAU below RAT_MIN.
These, the column solve's EPSILON, DELTA and MAX_EVALS and the check gap
ITERS_Z are fixed module constants; SolverOptions holds the limits and seed.

That iteration is a fixed-point map T of s = (the factor matrix, y), and
its tail is linear; Anderson accelerates it. After an iteration's tol
check, once the last AA_MEMORY differences of T(s) and of g = T(s) - s are
known and |g| has fallen over them, the next iterate is their type-II
combination instead of T(s_k). The iteration from it is the safeguard:
unless its |g| is below |g_k|, the state goes back to T(s_k) with its mu,
and the memory is cleared. Both moves go through install_iterate. Each
solve call starts with an empty memory; see Anderson for the rules.

At an extended kind, a sweep moves the columns in binary64 on the sweep
residual formed at its top (auglag.SweepResidual), and folds the moves
into the factor and the cache once, at its end, before a time limit that
stops it midway returns. The penalty ratio reads the cache values copied
at the top of each sweep.

Status tol means that all five KKT errors of the returned solution,
measured on the problem as given, are below tol. That report needs the
dual slack matrix (a PSD projection), so it is built only where the
three cheap measures (pinf, gap, compl*) pass. A check is made at each
iteration divisible by the check gap whose cheap measures pass: first
those of the scaled iterate, then those mapped to the problem as given
(measures_as_given). The gap starts at 1; each report that fails moves
it to the smallest divisor of ITERS_Z at least twice as long (1, 2, 5,
10, 25, 50), and an iteration the measures fail leaves it as it was.
Every multiple of ITERS_Z is a multiple of the gap, and a check leaves
the iterate untouched, so this stops no later than checking at the
multiples of ITERS_Z alone. The scaled measures also set the column
tolerance and fill the progress rows. The solution the passing report is
built on is the one returned. A run stopped by max_iters or time_limit
withdraws an Anderson step still on trial (back to T(s_k) with its mu),
builds the report of that iterate anyway, and is labelled tol when the
report meets tol.

The loop counts for its progress rows from what each column solve returns:
the evaluations, the hinge's (those of a column with inequality slots,
plus one at its start) and the unconverged solves; and the Anderson steps
kept and undone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .auglag import ColumnContext, IterateState, SweepResidual, make_state, refresh_cache
from .ddouble import (
    ScalarKind,
    all_finite,
    dot,
    fsqrt,
    kind_of,
    norm2,
    norm_inf,
    to_float_array,
)
from .errors import NumericalError, ValidationError
from .lbfgs import minimize_column
from .linops import OperatorCache, combine_rows, commit_column, operator_rows, project_psd
from .problem import ScalingRecord, SdpProblem, row_norms, scale, validate


def ceil_sqrt(x: int) -> int:
    s = math.isqrt(x)
    return s if s * s == x else s + 1


def rank_rule(n: int, m_eq: int, m_ineq: int) -> int:
    """Factor rank k = min(n, ceil(sqrt(2 m))), the low-rank existence bound."""
    return min(n, ceil_sqrt(2 * (m_eq + m_ineq)))


ITERS_Z = 50  # the longest dual-slack check gap, a multiple of every gap (see the module docstring)
EPSILON = DELTA = 0.01  # a column solve's absolute (before tightening) and relative tolerances
MAX_EVALS = 1000  # the evaluation budget of one column solve
TAU = 1.03  # the factor mu moves by
RAT_MIN, RAT_MAX = 0.8, 1.2  # mu falls below RAT_MIN and rises above RAT_MAX


@dataclass(frozen=True)
class SolverOptions:
    """The limits of a solve and its seed; the tuning constants above are fixed."""

    tol: float = 1e-12
    time_limit: Optional[float] = None  # may be inf: no limit
    max_iters: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.tol):
            raise ValueError("tol must be finite")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if self.max_iters is not None and not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError("max_iters must be an integer")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError("seed must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class ErrorReport:
    """The five normalized KKT error measures of a solution."""

    pinf: object
    gap: object
    compl_star: object
    dinf: object
    compl: object

    def max_error(self):
        """The largest measure, or NaN when one is NaN (max drops a NaN it meets after a number)."""
        values = list(vars(self).values())
        return next((v for v in values if v != v), max(values))

    def as_dict(self) -> dict:
        return {key: float(val) for key, val in vars(self).items()}


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
        """The multipliers as one vector, in the problem's row order."""
        return np.concatenate([self.y_a, self.y_b])


def init_state(problem: SdpProblem, options: SolverOptions) -> IterateState:
    """Columns i.i.d. uniform on the unit sphere, zero duals, mu = sqrt(the
    largest block size). The columns are drawn and normalized in binary64,
    each squared norm summed along a contiguous row as norm2 sums a column;
    make_state's conversion to double-double is exact."""
    rng = np.random.default_rng(options.seed)
    drawn = [rng.standard_normal((rank_rule(n, problem.m_eq, problem.m_ineq), n)) for n in problem.block_sizes]
    V_blocks = [V / np.sqrt(np.add.reduce(np.ascontiguousarray((V * V).T), axis=1)) for V in drawn]
    return make_state(problem, V_blocks, np.zeros(problem.m), math.sqrt(max(problem.block_sizes)))


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


def check_warm(problem: SdpProblem, warm: WarmStart) -> None:
    """Raise ValidationError unless `warm` fits `problem` (check_fit), with a
    finite positive mu and nonnegative inequality multipliers."""
    check_fit(problem, "warm start", "V", warm.V_blocks, warm.y_a, warm.y_b)
    if not all_finite(warm.mu):
        raise ValidationError("warm start field mu has a nonfinite value")
    if len(warm.y_b) and not bool(np.all(warm.y_b >= 0)):
        raise ValidationError("warm start has negative inequality multipliers")
    if not float(warm.mu) > 0:
        raise ValidationError("warm start has nonpositive mu")


def update_duals(state: IterateState, problem: SdpProblem) -> None:
    """First-order multiplier step y + mu r; the inequality tail clipped at zero."""
    y = state.y + state.mu * state.residual()
    y[problem.m_eq :] = np.maximum(y[problem.m_eq :], 0.0)
    state.y = y


def penalty_ratio(state: IterateState, problem: SdpProblem, values0) -> float:
    """Residual norm over mu times the constraint-value movement since the
    sweep began (values0, the cache values at its top), on the active rows:
    the equalities, and the inequalities with a nonnegative residual or a
    positive multiplier. The residual and the movement are formed in the
    problem's kind and rounded once; the rest is binary64."""
    r = to_float_array(state.residual())
    active = (r >= 0) | (state.y > 0)
    active[: problem.m_eq] = True
    num = math.sqrt(dot(r[active], r[active]))
    if not num > 0.0:
        return 0.0
    diff = to_float_array(state.cache.values - values0)[active]
    den = float(state.mu) * math.sqrt(dot(diff, diff))
    if not den > 0.0:
        return math.inf
    return num / den


def update_penalty(state: IterateState, ratio: float) -> None:
    if ratio > RAT_MAX:  # also catches the +inf sentinel
        state.mu = state.mu * TAU
    elif ratio < RAT_MIN:
        state.mu = state.mu / TAU
    # unchanged otherwise


AA_MEMORY = 5  # the differences an Anderson step combines
AA_RCOND = 1e-10  # the fit's cutoff on the differences' singular values, which bounds gamma


def flat_iterate(state: IterateState):
    """s = (the factor matrix flattened, y), in the problem's kind."""
    return np.concatenate([state.V.reshape(-1), state.y])


class Anderson:
    """Safeguarded type-II Anderson acceleration of the outer iteration
    (Walker and Ni 2011; safeguarded after Zhang, O'Donoghue and Boyd 2020).

    One outer iteration maps s = flat_iterate(state) to T(s); g = T(s) - s.
    The memory holds the last AA_MEMORY differences dT_j of T and dg_j of g,
    formed in the problem's kind. Once it is full, the last step was plain,
    and |g| fell in each of the last AA_MEMORY iterations (a steady linear
    tail), the next input is the combination T(s_k) - sum_j gamma_j dT_j
    (dT_j = ds_j + dg_j), still in the kind, gamma the binary64
    least-squares fit of g_k by the rounded dg_j. The iteration from a
    combination is its trial, the one safeguard: unless its |g| is below
    |g_k|, the state goes back to T(s_k) with its mu and error level, and
    the memory is cleared. install_iterate makes both moves. The memory
    starts empty and is kept across changes of mu.

    The falls are asked of the whole window, not only of the last step: a
    fixed point that the plain iteration leaves (a saddle of the factored
    problem, where the dual slack is not PSD) still draws the combination,
    and near one |g| falls now and then while the iteration drifts away.
    """

    def __init__(self):
        self.accepted = self.rejected = 0
        self.s = None  # the input of the iteration under way; unknown for the first
        self.trial = None  # (T(s_k), mu, error level, |g_k|) while a step is on trial
        self.clear()

    def clear(self) -> None:
        self.t = self.g = None  # T(s) and g of the last iteration
        self.dT, self.dG, self.gnorms = [], [], []  # dG rounded; gnorms the last AA_MEMORY + 1 |g|

    def after_iteration(self, state: IterateState, err_level):
        """Take the state at T(s) after an iteration, and move it on to the
        next input; returns the error level the next sweep starts from."""
        t = flat_iterate(state)
        s, self.s = self.s, t
        if s is None:
            return err_level
        g = t - s
        gnorm = float(np.linalg.norm(to_float_array(g)))
        trial, self.trial = self.trial, None
        if trial is not None:
            t_k, mu, level, gnorm_k = trial
            if not gnorm < gnorm_k:
                self.rejected += 1
                self.clear()
                self.s = t_k
                install_iterate(state, t_k)
                state.mu = mu
                return level
            self.accepted += 1
        if self.t is not None:
            self.dT = (self.dT + [t - self.t])[-AA_MEMORY:]
            self.dG = (self.dG + [to_float_array(g - self.g)])[-AA_MEMORY:]
        self.t, self.g = t, g
        self.gnorms = (self.gnorms + [gnorm])[-AA_MEMORY - 1 :]
        steady = len(self.dG) == AA_MEMORY and all(a > b for a, b in zip(self.gnorms, self.gnorms[1:]))
        if trial is None and steady:
            self.propose(state, err_level)
        return err_level

    def withdraw(self, state: IterateState) -> None:
        """Put the state back at T(s_k) with its mu if a step is on trial."""
        if self.trial is not None:
            t_k, mu, _, _ = self.trial
            self.trial = None
            install_iterate(state, t_k)
            state.mu = mu

    def propose(self, state: IterateState, err_level) -> None:
        """Move the state to the combination and put it on trial."""
        gamma = np.linalg.lstsq(np.stack(self.dG, axis=1), to_float_array(self.g), rcond=AA_RCOND)[0]
        combo = self.t
        for dT, c in zip(self.dT, gamma.tolist()):
            combo = combo - c * dT
        self.trial = (self.t, state.mu, err_level, self.gnorms[-1])
        self.s = combo
        install_iterate(state, combo)


def install_iterate(state: IterateState, s) -> None:
    """Move the state to the flat iterate s (flat_iterate's layout): write
    its factor matrix, store a new y with the inequality tail clipped at 0,
    and form a fresh cache. That is OperatorCache.fresh, not refresh_cache:
    there is no incremental update at s to measure a drift of."""
    state.V[...] = s[: state.V.size].reshape(state.V.shape)
    y = s[state.V.size :].copy()
    y[state.problem.m_eq :] = np.maximum(y[state.problem.m_eq :], 0.0)
    state.y = y
    state.cache = OperatorCache.fresh(state.problem, state.V)


def compute_errors(problem: SdpProblem, X_blocks, y) -> Tuple[ErrorReport, List[np.ndarray], object]:
    """The report of dense X and the multipliers y in row order, measured
    with the dual slack Z: C - A^T y projected onto the PSD cone. Returns
    (ErrorReport, Z_blocks, <C, X>); independent of the factored-iterate
    caches."""
    row, col, cuts = problem.entries.row, problem.entries.col, problem.tables.cuts
    entry_values = [X[row[s:e], col[s:e]] for X, s, e in zip(X_blocks, cuts[:-1], cuts[1:])]
    rows = operator_rows(problem, np.concatenate(entry_values))
    # C - sum_j y_j A_j per block: the rows' combination with coefficients -y and 1
    slack = combine_rows(problem, np.concatenate([-y, problem.kind.asarray([1.0])]))
    Z_blocks = [project_psd(S) for S in slack]
    resid = np.concatenate([S - Z for S, Z in zip(slack, Z_blocks)], axis=None)
    xz = sum(np.sum(X * Z) for X, Z in zip(X_blocks, Z_blocks))
    pinf, gap, compl_star, denom = kkt_errors(problem, rows[:-1], rows[-1], y)
    dinf = norm2(resid) / (1.0 + float(row_norms(problem)[-1]))
    return ErrorReport(pinf, gap, compl_star, dinf, abs(xz) / denom), Z_blocks, rows[-1]


def kkt_errors(problem: SdpProblem, vals, pobj, y):
    """(pinf, gap, compl*, 1 + |pobj| + |dobj|) from the constraint values and
    the objective value: of a dense X in compute_errors, of the cache in solve.
    The residual, pobj - b^T y and pobj - y^T A(X) are formed in the problem's
    kind and rounded once; the norms and quotients are binary64."""
    r = to_float_array(problem.rhs - vals)
    r[problem.m_eq :] = np.maximum(r[problem.m_eq :], 0.0)  # an inequality counts only when violated
    pinf = norm_inf(r) / (1.0 + float(norm_inf(problem.rhs)))

    dobj = dot(problem.rhs, y)
    denom = 1.0 + abs(float(pobj)) + abs(float(dobj))
    gap = abs(float(pobj - dobj)) / denom

    dual_val = dot(y, vals)
    compl_star = abs(float(pobj - dual_val)) / denom
    return pinf, gap, compl_star, denom


def measures_as_given(state: IterateState, record: ScalingRecord, original: SdpProblem):
    """The cheap measures (pinf, gap, compl*) of the state's iterate on the
    problem as given, mapped from the cache and y as unscale_solution maps
    the solution: the rows times the constraint norms and the primal scale,
    the objective times the cost norm and the primal scale, y times the cost
    norm over the constraint norms."""
    gamma = record.primal_scale
    vals = state.cache.values * record.constraint_norms * gamma
    pobj = state.cache.cost_value * record.cost_norm * gamma
    y = record.cost_norm / record.constraint_norms * state.y
    return kkt_errors(original, vals, pobj, y)[:3]


def unscale_solution(sol: Solution, record: ScalingRecord, original: SdpProblem) -> Solution:
    """Map a scaled-space solution back to the original data and measure
    the error report (including a fresh dual slack projection) on it; solve
    decides status tol on this report."""
    if len(record.constraint_norms) != original.m:
        raise ValidationError("scaling record does not match the problem (constraint count)")
    check_fit(original, "solution", "factor", sol.factor, sol.y_a, sol.y_b)
    sqrt_gamma = fsqrt(record.primal_scale)
    factor = [sqrt_gamma * V for V in sol.factor]
    # the report is measured on Solution.X of the unscaled factor, which the
    # check command rebuilds exactly from a stored factor
    X = [F.T @ F for F in factor]
    y = record.cost_norm / record.constraint_norms * sol.y
    report, Z, objective = compute_errors(original, X, y)
    m_eq = original.m_eq
    return replace(sol, factor=factor, y_a=y[:m_eq], y_b=y[m_eq:], Z=Z, report=report, objective=objective)


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

    scaled, record = scale(problem)

    if warm_start is not None:
        check_warm(scaled, warm_start)
        state = make_state(scaled, warm_start.V_blocks, np.concatenate([warm_start.y_a, warm_start.y_b]),
                           warm_start.mu)
    else:
        state = init_state(scaled, options)

    pairs = [(b, i) for b in range(scaled.q) for i in range(scaled.block_sizes[b])]
    m_eq = scaled.m_eq  # Solution and WarmStart hold the multipliers split here
    status = None
    iteration = 0
    # The absolute part of the column stopping rule follows the outer KKT
    # error downward: a fixed floor would freeze all columns once their
    # gradients drop below it and stall the solve at that level, while the
    # relative part (DELTA) alone would over-solve the early subproblems.
    err_level = 1.0
    check_gap = 1  # a dual-slack check falls on a multiple of it (see the module docstring)
    column_evals = hinge_evals = inner_unconverged = 0  # see the module docstring
    anderson = Anderson()

    def elapsed() -> float:
        return time.perf_counter() - t_start

    def out_of_time() -> bool:
        return options.time_limit is not None and elapsed() >= options.time_limit

    def unscaled(status: str) -> Solution:
        # unscale_solution multiplies into new arrays, so the result shares
        # nothing with the state the loop goes on updating in place
        y = state.y
        sol = Solution(state.V_blocks, y[:m_eq], y[m_eq:], Z=None, status=status, report=None, iterations=iteration)
        return unscale_solution(sol, record, problem)

    while status is None:
        if options.max_iters is not None and iteration >= options.max_iters:
            status = "iter"
            break
        if out_of_time():
            status = "time"
            break
        iteration += 1

        eps = EPSILON * min(1.0, float(err_level))
        values0 = state.cache.values.copy()  # the sweep's start, for the penalty ratio
        if scaled.kind.is_extended:  # the column contexts' residual, once per sweep
            state.sweep = SweepResidual(state)
        for b, i in pairs:
            if out_of_time():
                status = "time"
                break
            ctx = ColumnContext(state, b, i)
            d, evals, converged = minimize_column(ctx.value_and_grad, ctx.start, ctx.hessian, eps, DELTA, MAX_EVALS)
            column_evals += evals
            if ctx.n_eq < len(ctx.sup):
                hinge_evals += evals + 1
            inner_unconverged += not converged
            commit_column(state.cache, state.V_blocks[b], i, ctx, d)
        if state.sweep is not None:  # the sweep's binary64 moves, installed in the kind
            state.sweep.fold(state)
        if status is not None:
            iteration -= anderson.trial is not None  # a trial's cut sweep is withdrawn below
            break

        refresh_cache(state)
        if not all_finite(state.cache.values) or not all_finite(state.cache.cost_value):
            raise NumericalError(f"nonfinite iterate at outer iteration {iteration} (mu={float(state.mu):.3e})")

        update_duals(state, scaled)
        if not (all_finite(state.y) and all_finite(state.mu)):
            raise NumericalError(f"nonfinite duals at outer iteration {iteration} (mu={float(state.mu):.3e})")
        assert bool(np.all(state.y[m_eq:] >= 0))
        ratio = penalty_ratio(state, scaled, values0)
        update_penalty(state, ratio)

        pinf, gap, compl_star, _ = kkt_errors(scaled, state.cache.values, state.cache.cost_value, state.y)
        err_level = max(pinf, gap, compl_star)
        zcheck = None
        if (iteration % check_gap == 0 and err_level < options.tol
                and max(measures_as_given(state, record, problem)) < options.tol):
            solution = unscaled("tol")
            zcheck = float(solution.report.max_error())
            if solution.report.max_error() < options.tol:
                status = "tol"
            else:  # the smallest divisor of ITERS_Z at least twice the gap
                check_gap = next((d for d in range(2 * check_gap, ITERS_Z) if ITERS_Z % d == 0), ITERS_Z)
        mu = float(state.mu)  # this iteration's; undoing a step puts back an earlier one
        if status is None:
            err_level = anderson.after_iteration(state, err_level)
        if progress is not None:
            progress(
                {
                    "iter": iteration,
                    "mu": mu,
                    "ratio": ratio,
                    "pinf": float(pinf),
                    "gap": float(gap),
                    "compl_star": float(compl_star),
                    "zcheck": zcheck,
                    "elapsed": elapsed(),
                    "hinge_evals": hinge_evals,
                    "column_evals": column_evals,
                    "inner_unconverged": inner_unconverged,
                    "aa_accepted": anderson.accepted,
                    "aa_rejected": anderson.rejected,
                }
            )

    if status != "tol":
        anderson.withdraw(state)  # the last tested iterate, T(s_k), not an untested combination
        solution = unscaled(status)
        if solution.report.max_error() < options.tol:  # stopped by a limit, yet the report meets tol
            solution.status = "tol"
    warm = WarmStart([V.copy() for V in state.V_blocks], state.y[:m_eq].copy(), state.y[m_eq:].copy(), state.mu)
    solution.elapsed = elapsed()
    return solution, warm
