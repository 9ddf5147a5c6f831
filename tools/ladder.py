"""Run the instance ladder on one source tree and write its JSON record.

    OPENBLAS_NUM_THREADS=1 python tools/ladder.py <tree> [-o BENCH.json] [--runs 3] [--rung NAME ...]

<tree> is the root of the checkout to measure: sdpmix is imported from
<tree>/src, ahead of anything else on the path, and the script stops if
it was imported from anywhere else. So two checkouts are compared by
running this script once on each, from either one.

Every rung is solved in this process, `--runs` times. Per rung the record
holds the status, the outer iterations, the column evaluations, the
accepted and rejected Anderson steps (0 where the tree's progress rows have
no such count), the reported max error and the median wall time of the
runs. The counts come from the last run; a solve is deterministic, so every
run gives the same ones, and two trees' counts compare. A rung with a time
limit (order1_10+200_s3, 40 s) compares only while it ends before the
limit; the LP rung, which does not converge, is capped by iterations
instead, so that it ends `iter` at the same count on any machine. The
ladder is not a gate: BENCHMARK.json is.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path


def rungs():
    """name -> (tol, two-stage, limits, problem builder); the limits are
    SolverOptions fields."""
    import numpy as np
    from sdpmix.instances import Graph, gen_random_sdp, maxcut_relaxation, theta_relaxation

    def rand(blocks, m, density, seed):
        return lambda: gen_random_sdp(blocks, m, density, seed)

    def maxcut(n):
        """Max-Cut with triangles over G(n, 1/2) drawn from default_rng(0), as perfbench draws it."""

        def build():
            rng = np.random.default_rng(0)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            return maxcut_relaxation(Graph.build(n, edges), with_triangles=True).problem

        return build

    return {
        "rand_30_20_1.0_s1": (1e-10, False, {}, rand((30,), 20, 1.0, 1)),
        "rand_dense": (1e-10, False, {}, rand((30,), 20, 1.0, 0)),
        "rand_2x20_15_0.5_s1": (1e-10, False, {}, rand((20, 20), 15, 0.5, 1)),
        "big_block": (1e-8, False, {}, rand((100,), 3, 0.05, 0)),
        "theta_prime_C5": (1e-8, False, {}, lambda: theta_relaxation(Graph.cycle(5), strengthened=True).problem),
        "maxcut_G16_triangles": (1e-8, False, {}, maxcut(16)),
        "maxcut_G24_triangles": (1e-8, False, {}, maxcut(24)),
        "maxcut_G40_triangles": (1e-8, False, {}, maxcut(40)),
        "dd_refine": (1e-20, True, {}, rand((10,), 10, 1.0, 42)),
        "order1_10+200_s3": (1e-8, False, {"time_limit": 40.0}, rand((10,) + (1,) * 200, 20, 0.5, 3)),
        "lp_60_15_s2": (1e-8, False, {"max_iters": 3000}, rand((1,) * 60, 15, 0.5, 2)),
        "tail_rand_10_10_s1": (1e-20, True, {}, rand((10,), 10, 1.0, 1)),
        "tail_rand_10_10_s2": (1e-20, True, {}, rand((10,), 10, 1.0, 2)),
        "tail_rand_2x8_6_s3": (1e-20, True, {}, rand((8, 8), 6, 1.0, 3)),
    }


def run_rung(spec, runs: int) -> dict:
    from sdpmix import SolverOptions, solve, solve_two_stage

    tol, two_stage, limits, build = spec
    entry = solve_two_stage if two_stage else solve
    options = SolverOptions(tol=tol, **limits)
    times = []
    for _ in range(runs):
        problem = build()
        rows = []
        t0 = time.perf_counter()
        sol, _ = entry(problem, options, progress=rows.append)
        times.append(time.perf_counter() - t0)
    # each stage counts from 0, so a two-stage total adds the last row of each
    stage_ends = [row for row, nxt in zip(rows, rows[1:] + [None]) if nxt is None or nxt["iter"] <= row["iter"]]
    total = {key: sum(row.get(key, 0) for row in stage_ends)
             for key in ("column_evals", "aa_accepted", "aa_rejected")}
    return {
        "status": sol.status,
        "iterations": sol.iterations,
        **total,
        "max_error": float(sol.report.max_error()),
        "wall_s": statistics.median(times),
        "wall_s_runs": times,
        "tol": tol,
        "two_stage": two_stage,
        "time_limit": options.time_limit,
        "max_iters": options.max_iters,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="root of the source tree to measure")
    parser.add_argument("-o", "--output", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--runs", type=int, default=3, help="solves per rung; the wall time is their median")
    parser.add_argument("--rung", action="append", help="run only these rungs (repeatable)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    src = (args.tree / "src").resolve()
    if not (src / "sdpmix").is_dir():
        parser.error(f"{src} holds no sdpmix package")
    sys.path.insert(0, str(src))
    import numpy as np
    import sdpmix

    if Path(sdpmix.__file__).resolve().parent != src / "sdpmix":
        parser.error(f"sdpmix was imported from {sdpmix.__file__}, not from {src}")
    table = rungs()
    names = args.rung or list(table)
    unknown = sorted(set(names) - set(table))
    if unknown:
        parser.error(f"unknown rungs {unknown}; known: {sorted(table)}")

    record = {
        "tree": str(args.tree),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "runs": args.runs,
        "rungs": {},
    }
    for name in names:
        out = run_rung(table[name], args.runs)
        record["rungs"][name] = out
        print(f"{name:24s} {out['status']:5s} {out['iterations']:6d} it  {out['column_evals']:9d} evals  "
              f"aa {out['aa_accepted']}/{out['aa_rejected']}  {out['wall_s']:7.2f} s  err {out['max_error']:.1e}",
              flush=True)
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
