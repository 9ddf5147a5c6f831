"""One workload run, in its own process.

Reads a JSON spec (argument 1), imports sdpmix from the checkout's src/,
and prints one JSON object as its last stdout line. In order:

1. warm-up: solve and check Max-Cut K3 through the CLI, untimed;
2. rounds of: set-up samples (the solve path run up to its first column
   update, where it is stopped: parse, validate, scale, OperatorTables,
   ColumnSlices and the initial state), one run of the solve path
   (`sdpmix solve` in-process: parse, solve, unscale, write), then check
   samples (`sdpmix check` on the written solution); rounds repeat while
   another solve fits in the run's seconds, and a last batch of set-up
   samples follows;
3. with tracing on, one more solve with every public entry point wrapped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# each batch of set-up or check samples runs at least `reps` times and
# until BATCH_S seconds are spent
BATCH_S = 0.4


class SetUpDone(BaseException):
    """Stops a solve at its first column update; the CLI does not catch it."""


def run_cli(main, argv):
    """Run one CLI command in-process; returns (exit code, stdout lines as a dict)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    fields = {}
    for line in buf.getvalue().splitlines():
        key, _, val = line.partition(" ")
        fields[key] = val
    return code, fields


def timed(fn, *args):
    """(wall seconds of fn(*args), its return value)."""
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def repeat(sample, reps):
    """Repeated sample() calls, each returning (seconds, value): all the
    seconds, and the last value."""
    times = []
    t_all = time.perf_counter()
    while len(times) < reps or time.perf_counter() - t_all < BATCH_S:
        seconds, out = sample()
        times.append(seconds)
    return times, out


def solve_record(seconds, code, fields, solution_path) -> dict:
    """What one solve reported, with a digest of the solution file that
    leaves out its wall-clock `elapsed` line."""
    lines = [ln for ln in Path(solution_path).read_text().splitlines() if not ln.startswith("elapsed ")]
    return {"seconds": seconds, "exit": code, "status": fields.get("status"),
            "iterations": int(fields.get("iterations", -1)), "objective": fields.get("objective"),
            "solution_digest": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def exact_pairs(values) -> dict:
    """Values as (hi, lo) lists; lo is 0 for binary64."""
    import numpy as np
    from sdpmix.ddouble import to_float_array

    arr = np.asarray(values)
    hi = to_float_array(arr)
    lo = np.array([x.lo for x in arr.ravel()]).reshape(arr.shape) if arr.dtype == object else np.zeros_like(hi)
    return {"hi": hi.tolist(), "lo": lo.tolist()}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import sdpmix
    from sdpmix import cli, formats, solver

    if Path(sdpmix.__file__).resolve().parent != (src / "sdpmix").resolve():
        raise SystemExit(f"imported sdpmix from {sdpmix.__file__}, not from {src}")

    problem_path, solution_path = spec["problem"], spec["solution"]
    solve_argv = ["solve", problem_path, "-o", solution_path, "--no-z", *spec["solve_flags"]]
    check_argv = ["check", problem_path, solution_path, "--threshold", repr(spec["check_threshold"])]

    # keep the Solution the CLI writes: the file holds binary64 only, the
    # oracle needs the double-double words
    written = []

    def keep_and_write(sol, path, include_z=True):
        written[:] = [sol]
        return formats.write_solution(sol, path, include_z=include_z)

    cli.write_solution = keep_and_write

    warm_sol = str(Path(spec["workdir"]) / "k3.sol")
    for argv in (["solve", spec["warmup"], "-o", warm_sol, *spec["solve_flags"]],
                 ["check", spec["warmup"], warm_sol]):
        code, _ = run_cli(cli.main, argv)
        if code != 0:
            raise SystemExit(f"warm-up `sdpmix {argv[0]}` exited with {code}")

    def first_column(*args, **kwargs):
        raise SetUpDone(time.perf_counter())

    def set_up():
        """Seconds from the start of the solve path to its first column update."""
        column_context, solver.ColumnContext = solver.ColumnContext, first_column
        t0 = time.perf_counter()
        try:
            run_cli(cli.main, solve_argv)
        except SetUpDone as done:
            return done.args[0] - t0, None
        finally:
            solver.ColumnContext = column_context
        raise SystemExit("the solve path ended without a column update")

    # set-up and check samples are taken around every solve rather than in
    # one burst, so that a slow spell of the machine hits fewer of them
    setup_times, solves, check_times = [], [], []
    t_run = time.perf_counter()
    while True:
        setup_times += repeat(set_up, 2)[0]
        seconds, (code, fields) = timed(run_cli, cli.main, solve_argv)
        solves.append(solve_record(seconds, code, fields, solution_path))
        times, (check_code, check_fields) = repeat(lambda: timed(run_cli, cli.main, check_argv), 1)
        check_times += times
        next_solve = statistics.median(s["seconds"] for s in solves)
        if spec["trace"] or time.perf_counter() - t_run + next_solve > spec["seconds"]:
            break
    setup_times += repeat(set_up, 2)[0]

    sol = written[0]
    exact = {"status": sol.status, "objective": exact_pairs([sol.objective]),
             "factor": [exact_pairs(F) for F in sol.factor], "y_a": exact_pairs(sol.y_a),
             "y_b": exact_pairs(sol.y_b)}
    Path(spec["exact"]).write_text(json.dumps(exact))

    # means, not medians: the machine's speed flips between a fast and a
    # slow mode, a median follows whichever mode holds most of a run's
    # samples, and a mean moves only with the share of each
    result = {
        "setup_s": statistics.mean(setup_times),
        "solve_s": statistics.mean(s["seconds"] for s in solves),
        "check_s": statistics.mean(check_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solves": solves,
        "check": {"exit": check_code, "max_error": float(check_fields.get("max_error", "nan"))},
        "setup_samples": setup_times,
        "check_samples": check_times,
    }

    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            code, fields = run_cli(tracer.wrap("cli.main", cli.main), solve_argv)
        finally:
            tracer.uninstall()
        result["traced_solve"] = solve_record(None, code, fields, solution_path)
        result["layers"] = tracer.metrics(solves[0]["seconds"])
        tracer.dump(spec["spans"])

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
