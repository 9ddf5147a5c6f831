"""sdpmix benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload maxcut_hinge --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The harness writes the workload's input
files from the seed, runs the workload in a child process (one BLAS thread,
sdpmix imported from src/), checks the written solution against an
independent oracle and for determinism, and prints one JSON object as its
last stdout line: the end-to-end metrics listed in BENCHMARK.json with
--trace 0, its per-layer metrics from a traced solve with --trace 1.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
CHILD_TIMEOUT_S = 170
FINGERPRINT_KEYS = ("status", "iterations", "objective", "solution_digest")
TRACED_COUNTS = ("solver.iters", "lbfgs.calls", "auglag.eval_calls")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, make_inputs  # noqa: E402


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["SDPMIX_VERBOSE"] = "0"
    env["PYTHONHASHSEED"] = "0"  # one fewer layout difference between runs
    return env


def code_digest() -> str:
    """sha256 over the sdpmix and benchmark sources, the Python version and
    the numpy version: runs with the same digest must follow the same
    trajectory."""
    import numpy

    h = hashlib.sha256(f"{platform.python_version()} {numpy.__version__}".encode())
    for path in sorted([*(ROOT / "src" / "sdpmix").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_determinism(workload: str, runs: list, layers: dict | None) -> list:
    """Every solve of this run must match the first, and the first must match
    what earlier runs of this workload with the same code recorded. The seed
    only reorders file lines, so every seed has the same fingerprint; a change
    to the code may move it, so fingerprints are kept per code digest."""
    first = {k: runs[0][k] for k in FINGERPRINT_KEYS}
    problems = [f"solve {t} {k} {run[k]!r} != {first[k]!r}"
                for t, run in enumerate(runs[1:], start=1) for k in FINGERPRINT_KEYS if run[k] != first[k]]
    if layers is not None:
        first.update({k: layers[k] for k in TRACED_COUNTS})
        if layers["solver.iters"] != first["iterations"]:
            problems.append(f"traced solver.iters {layers['solver.iters']} != {first['iterations']}")
    path = WORK / "fingerprints.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload} {code_digest()}"
    previous = known.get(key, {})
    problems += [f"{k} {v!r} differs from an earlier run's {previous[k]!r}"
                 for k, v in first.items() if k in previous and previous[k] != v]
    known[key] = {**previous, **first}
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "sdpmix" / "__init__.py").is_file():
        return fail(f"no sdpmix package under {ROOT / 'src'}; run from the root of a checkout")
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    from sdpmix import cli

    import oracle

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        inputs = make_inputs(cli, workload, args.seed, workdir)
        spec = {
            "root": str(ROOT),
            "workdir": str(workdir),
            "problem": inputs["paths"]["problem"],
            "warmup": inputs["warmup"],
            "solution": str(workdir / "problem.sol"),
            "exact": str(workdir / "exact.json"),
            "spans": str(WORK / f"spans-{workload.name}.npz"),
            "solve_flags": list(workload.solve_flags),
            # the file stores binary64, so a dd solution can only check to binary64 accuracy
            "check_threshold": max(workload.gate, 1e-12),
            "seconds": args.seconds,
            "trace": bool(args.trace),
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)], env=child_env(),
                                  cwd=str(ROOT), stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True)
        except subprocess.TimeoutExpired:
            return fail(f"workload process exceeded {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not proc.stdout.strip():
            return fail(f"workload process exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])

        verdict = oracle.gate(workload, spec["problem"], spec["solution"], spec["exact"],
                              inputs["paths"].get("graph"))
        layers = result.get("layers")
        runs = result["solves"] + ([result["traced_solve"]] if layers is not None else [])
        problems = check_determinism(workload.name, runs, layers)
        failed = len(runs) if not verdict["ok"] else sum(r["exit"] != 0 or r["status"] != "tol" for r in runs)
        correct = failed == 0 and not problems and result["check"]["exit"] == 0

        record = {k: result[k] for k in ("solves", "check", "setup_samples", "check_samples")}
        print(json.dumps({"workload": workload.name, "inputs": inputs["record"], **record, "oracle": verdict,
                          "determinism": problems or "ok"}))
        values = layers if args.trace else result
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
        print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
