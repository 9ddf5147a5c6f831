"""Command-line front end: solve, generate, check.

Exit codes are the machine contract: 0 success (solve reached tol / check
passed the threshold), 2 solver stopped early or check above threshold,
1 input error. Logs go to stderr (SDPMIX_VERBOSE=0/1/2), reports to files
and stdout.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .errors import NumericalError, SdpmixError, ValidationError
from .formats import (
    parse_problem,
    read_graph,
    read_solution,
    read_warmstart,
    write_native,
    write_solution,
    write_warmstart,
)
from .instances import gen_random_sdp, maxcut_relaxation, theta_relaxation
from .precision import solve_two_stage
from .solver import SolverOptions, check_fit, check_warm, compute_errors, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_LIMIT = 2


def _verbosity() -> int:
    try:
        return int(os.environ.get("SDPMIX_VERBOSE", "0"))
    except ValueError:
        return 0


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _progress_printer():
    level = _verbosity()
    if level <= 0:
        return None
    stride = 1 if level >= 2 else 100

    def emit(row: dict) -> None:
        if row["iter"] % stride == 0:
            zcheck = "-" if row["zcheck"] is None else f"{row['zcheck']:9.3e}"
            _log(
                "iter {iter:6d}  mu {mu:9.3e}  ratio {ratio:9.3e}  pinf {pinf:9.3e}  "
                "gap {gap:9.3e}  compl* {compl_star:9.3e}  zcheck {zcheck:>9}  aa {aa_accepted}/{aa_rejected}  "
                "t {elapsed:8.2f}s".format(
                    **{**row, "zcheck": zcheck})
            )

    return emit


def _located(path, check, *args):
    """check(*args), naming the file `path` in the ValidationError or
    NumericalError it raises, raised again as a ValidationError."""
    try:
        return check(*args)
    except (ValidationError, NumericalError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def cmd_solve(args) -> int:
    out_path = args.output or str(Path(str(args.input)).with_suffix(".sol"))
    try:
        problem = parse_problem(args.input)
        options = SolverOptions(tol=args.tol, time_limit=args.time_limit, max_iters=args.max_iters, seed=args.seed)
        warm = read_warmstart(args.warm_start) if args.warm_start else None
        if warm is not None:
            _located(args.warm_start, check_warm, problem, warm)
        for path in (out_path, args.save_warm_start):
            if path and not Path(path).parent.is_dir():
                raise ValidationError(f"{path}: output directory {Path(path).parent} does not exist")
    except (SdpmixError, OSError, ValueError) as exc:
        _log(f"error: {exc}")
        return EXIT_INPUT

    progress = _progress_printer()
    try:
        run = solve_two_stage if args.precision == "dd" else solve
        # the solver checks finiteness itself: numpy's overflow warnings would only repeat it
        with np.errstate(all="ignore"):
            sol, warm_out = run(problem, options, warm, progress)
    except ValidationError as exc:  # input that only solve can check: a vacuous constraint
        _log(f"error: {args.input}: {exc}")
        return EXIT_INPUT
    except SdpmixError as exc:
        _log(f"solver aborted: {exc}")
        return EXIT_LIMIT

    try:
        write_solution(sol, out_path, include_z=not args.no_z)
        if args.save_warm_start:
            write_warmstart(warm_out, args.save_warm_start)
    except OSError as exc:
        _log(f"error: {exc}")
        return EXIT_INPUT

    print(f"status {sol.status}")
    print(f"iterations {sol.iterations}")
    print(f"elapsed {sol.elapsed:.3f}")
    print(f"objective {float(sol.objective)!r}")
    for key, val in sol.report.as_dict().items():
        print(f"{key} {val!r}")
    print(f"solution {out_path}")
    return EXIT_OK if sol.status == "tol" else EXIT_LIMIT


def _parse_blocks(spec: str):
    runs = []  # (count, size) per comma-separated part
    try:
        for part in spec.split(","):
            part = part.strip()
            if part:
                count, size = part.split("x", 1) if "x" in part else (1, part)
                runs.append((int(count), int(size)))
    except ValueError:
        runs = []
    if not runs or any(count < 1 or size < 1 for count, size in runs):
        raise ValueError(f"bad block specification {spec!r}")
    return tuple(size for count, size in runs for _ in range(count))


def cmd_generate(args) -> int:
    try:
        if args.family == "rand":
            if args.seed < 0:
                raise ValueError(f"--seed must be nonnegative, got {args.seed}")
            problem = gen_random_sdp(_parse_blocks(args.blocks), args.m, args.density, args.seed)
            sense, offset = 1, 0.0
        elif args.family == "maxcut":
            graph = read_graph(args.graph)
            inst = maxcut_relaxation(graph, with_triangles=args.triangles)
            problem, sense, offset = inst.problem, inst.sense, inst.offset
        else:
            graph = read_graph(args.graph)
            inst = theta_relaxation(graph, strengthened=args.strengthened)
            problem, sense, offset = inst.problem, inst.sense, inst.offset
        write_native(problem, args.output)
    except (SdpmixError, OSError, ValueError) as exc:
        _log(f"error: {exc}")
        return EXIT_INPUT

    blocks = ",".join(str(n) for n in problem.block_sizes)
    print(f"family {args.family} blocks {blocks} m_a {problem.m_eq} m_b {problem.m_ineq}")
    if sense != 1 or offset != 0.0:
        print(f"objective_map reported = {sense} * solver_objective + {offset!r}")
    print(f"problem {args.output}")
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        if not 0 < args.threshold < float("inf"):
            raise ValueError(f"threshold must be positive and finite, got {args.threshold!r}")
        problem = parse_problem(args.problem)
        sol = read_solution(args.solution)
        # a stored Z must fit, but the report projects its own and measures with that
        _located(args.solution, check_fit, problem, "solution", "factor", sol.factor, sol.y_a, sol.y_b, sol.Z or ())
        with np.errstate(all="ignore"):  # finite duals whose dual slack overflows raise NumericalError
            report = _located(args.solution, compute_errors, problem, sol.X, sol.y)[0]
    except (SdpmixError, OSError, ValueError) as exc:
        _log(f"error: {exc}")
        return EXIT_INPUT

    for key, val in report.as_dict().items():
        print(f"{key} {val!r}")
    max_err = float(report.max_error())
    print(f"max_error {max_err!r}")
    print(f"threshold {args.threshold!r}")
    return EXIT_OK if max_err < args.threshold else EXIT_LIMIT


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors (a bad value, an unknown flag, a missing
    subcommand) exiting EXIT_INPUT rather than argparse's 2, which the exit
    contract gives to a stopped solve, and with no abbreviated flags, so
    that a removed flag (--p) is not taken for a prefix of another
    (--precision); subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: argparse's objects
    form reference cycles, so a parser per call would leave them for the
    cycle collector on every call."""
    parser = _Parser(prog="sdpmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a problem file (native .sdp or SDPA .dat-s)")
    ps.add_argument("input", help="problem file")
    ps.add_argument("-o", "--output", default=None, help="solution file (default: input with .sol)")
    ps.add_argument("--warm-start", default=None, help="resume from a warm-start file")
    ps.add_argument("--save-warm-start", default=None, help="write the final warm start here")
    ps.add_argument("--no-z", action="store_true", help="omit the dual slack matrix from the solution file")
    ps.add_argument("--precision", choices=("double", "dd"), default="double",
                    help="dd runs the two-stage double-double refinement to --tol")
    ps.add_argument("--tol", type=float, default=SolverOptions.tol, help="stopping tolerance (default %(default)s)")
    ps.add_argument("--time-limit", type=float, help="wall-clock limit in seconds")
    ps.add_argument("--max-iters", type=int, help="outer iteration cap")
    ps.add_argument("--seed", type=int, default=SolverOptions.seed, help="initialization seed (default %(default)s)")
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("generate", help="generate a problem file")
    gsub = pg.add_subparsers(dest="family", required=True)
    pr = gsub.add_parser("rand", help="random SDP with identity first constraint")
    pr.add_argument("--blocks", required=True, help="block sizes, e.g. '30' or '2x20' or '5,2x20'")
    pr.add_argument("--m", type=int, required=True, help="number of equality constraints")
    pr.add_argument("--density", type=float, default=1.0, help="data density in (0,1]")
    pr.add_argument("--seed", type=int, default=0)
    pm = gsub.add_parser("maxcut", help="Max-Cut relaxation from a graph file")
    pm.add_argument("--graph", required=True)
    pm.add_argument("--triangles", action="store_true", help="add all 4C(n,3) triangle inequalities")
    pt = gsub.add_parser("theta", help="stability-number relaxation from a graph file")
    pt.add_argument("--graph", required=True)
    pt.add_argument("--strengthened", action="store_true", help="add nonnegativity off the edges")
    for sp in (pr, pm, pt):
        sp.add_argument("-o", "--output", required=True, help="native problem file to write")
        sp.set_defaults(func=cmd_generate)

    pc = sub.add_parser("check", help="recompute KKT errors of a solution file")
    pc.add_argument("problem")
    pc.add_argument("solution")
    pc.add_argument("--threshold", type=float, default=1e-8, help="pass/fail bound on the max error")
    pc.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
