"""Two-stage extended-precision refinement.

solve_two_stage takes the same arguments as solver.solve, and options.tol
is its target. Stage 1 solves at binary64 with tol STAGE1_TOL = 1e-12 (a
target at or above it is met there); stage 2 re-instantiates the problem
data at double-double, promotes the warm start (exactly: every binary64
value embeds in double-double), and resumes until the target. Iteration and
time totals cover both stages, and so do the max_iters and time_limit caps.
"""

from __future__ import annotations

from dataclasses import replace

from .ddouble import DOUBLE, DOUBLE_DOUBLE, ScalarKind
from .problem import SdpProblem, as_kind
from .solver import SolverOptions, WarmStart, solve

STAGE1_TOL = 1e-12


def promote(warm: WarmStart, kind: ScalarKind) -> WarmStart:
    """Convert a warm start to `kind`; widening only, values exact."""
    source = warm.kind
    if source.is_extended and not kind.is_extended:
        raise ValueError(f"narrowing conversion requested: {source.name} -> {kind.name}")
    return WarmStart(
        [kind.asarray(V) for V in warm.V_blocks],
        kind.asarray(warm.y_a),
        kind.asarray(warm.y_b),
        kind.scalar(warm.mu),
    )


def solve_two_stage(
    problem: SdpProblem,
    options: SolverOptions | None = None,
    warm_start: WarmStart | None = None,
    progress=None,
):
    """Binary64 solve, then extended-precision refinement to options.tol;
    called and returning (Solution, WarmStart) like `solve`. A warm start
    skips the binary64 stage: the refinement resumes from it."""
    options = options or SolverOptions()
    if problem.kind is not DOUBLE:
        raise ValueError("two-stage solve starts from binary64 problem data")
    iterations, elapsed, time_limit, max_iters = 0, 0.0, options.time_limit, options.max_iters
    if warm_start is None:
        sol1, warm_start = solve(problem, replace(options, tol=STAGE1_TOL), progress=progress)
        if sol1.status != "tol" or options.tol >= STAGE1_TOL:
            # failure propagates; an already-met target needs no refinement
            return sol1, warm_start
        iterations, elapsed = sol1.iterations, sol1.elapsed
        if time_limit is not None:
            time_limit = max(time_limit - elapsed, 1e-3)
        if max_iters is not None:
            if iterations >= max_iters:  # the cap is spent: the binary64 solution, unrefined
                return replace(sol1, status="iter"), warm_start
            max_iters -= iterations

    stage2 = replace(options, time_limit=time_limit, max_iters=max_iters)
    sol2, warm2 = solve(as_kind(problem, DOUBLE_DOUBLE), stage2, warm_start=promote(warm_start, DOUBLE_DOUBLE),
                        progress=progress)
    sol2.iterations += iterations
    sol2.elapsed += elapsed
    return sol2, warm2
