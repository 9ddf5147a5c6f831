"""The benchmark's hooks into sdpmix: its tracer (perfbench/tracer.py) wraps
functions and methods by name, and its worker (perfbench/worker.py) times
the set-up of a solve by stopping it at the first solver.ColumnContext,
keeps the Solution the CLI writes by swapping cli.write_solution and hands
the oracle its exact double-double words (exact_pairs). The instance ladder
(tools/ladder.py) reads a tree's progress rows."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdpmix import cli, formats, linops, solver
from sdpmix.ddouble import DDArray
from sdpmix.instances import Graph, gen_random_sdp, maxcut_relaxation
from sdpmix.precision import solve_two_stage

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
K3 = "3 3\n1 2\n1 3\n2 3\n"


def load_perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer_class():
    return load_perfbench_module("tracer").Tracer


def traced_k3_solve(tmp_path, *flags):
    """Trace a CLI solve of Max-Cut K3 with perfbench's tracer; returns the
    tracer, uninstalled."""
    graph = tmp_path / "k3.txt"
    graph.write_text(K3)
    prob = tmp_path / "k3.sdp"
    assert cli.main(["generate", "maxcut", "--graph", str(graph), "-o", str(prob)]) == cli.EXIT_OK

    tracer = load_tracer_class()()
    tracer.install()
    try:
        code = tracer.wrap("cli.main", cli.main)(["solve", str(prob), "-o", str(tmp_path / "k3.sol"), *flags])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    return tracer


def test_tracer_hooks_trace_a_cli_solve(tmp_path, capsys):
    column_deltas = linops.column_deltas
    tracer = traced_k3_solve(tmp_path, "--tol", "1e-8")
    assert linops.column_deltas is column_deltas

    metrics = tracer.metrics(1.0)
    assert metrics["solver.iters"] > 0
    for key in ("linops.deltas_calls", "auglag.context_calls", "auglag.eval_calls", "lbfgs.calls"):
        assert metrics[key] > 0, key


def test_tracer_hooks_trace_a_two_stage_dd_cli_solve(tmp_path, capsys):
    # the path of the benchmark's traced dd_refine run: a binary64 stage,
    # then a double-double one whose refreshes go through the drift hook
    tracer = traced_k3_solve(tmp_path, "--precision", "dd", "--tol", "1e-20")
    assert tracer.names.count("solver.solve") == 2
    assert tracer.metrics(1.0)["linops.deltas_calls"] > 0
    assert tracer.drift and all(np.isfinite(tracer.drift))


class SetUpDone(BaseException):
    """Raised at the first column update; the CLI does not catch it."""


def test_setup_hook_stops_after_the_layout_is_built(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "k3.txt"
    graph.write_text(K3)
    prob = tmp_path / "k3.sdp"
    assert cli.main(["generate", "maxcut", "--triangles", "--graph", str(graph), "-o", str(prob)]) == cli.EXIT_OK
    built = []
    for cls in (linops.OperatorTables, linops.ColumnSlices):
        def recording(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            _init(self, *args, **kwargs)
            built.append(_name)

        monkeypatch.setattr(cls, "__init__", recording)

    def first_column(*args, **kwargs):
        raise SetUpDone(list(built))

    monkeypatch.setattr(solver, "ColumnContext", first_column)
    with pytest.raises(SetUpDone) as done:
        cli.main(["solve", str(prob), "-o", str(tmp_path / "k3.sol"), "--tol", "1e-8"])
    assert done.value.args[0] == ["OperatorTables", "ColumnSlices"]


def test_write_hook_keeps_the_solution_the_cli_writes(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "k3.txt"
    graph.write_text(K3)
    prob = tmp_path / "k3.sdp"
    assert cli.main(["generate", "maxcut", "--graph", str(graph), "-o", str(prob)]) == cli.EXIT_OK
    written = []

    def keep_and_write(sol, path, include_z=True):
        written.append(sol)
        return formats.write_solution(sol, path, include_z=include_z)

    monkeypatch.setattr(cli, "write_solution", keep_and_write)
    out = tmp_path / "k3.sol"
    assert cli.main(["solve", str(prob), "-o", str(out), "--tol", "1e-8"]) == cli.EXIT_OK
    assert len(written) == 1 and isinstance(written[0], solver.Solution)
    assert formats.read_solution(out).iterations == written[0].iterations


def test_dd_solve_makes_no_object_array_and_exact_pairs_reads_its_words(tmp_path, monkeypatch):
    # np.asarray(dd_array) is the only way to an object array of Words; a
    # two-stage solve, or writing and reading back its files, that reached it
    # would fail here, on the equality path and on the hinge path of
    # Max-Cut K4 with its triangle inequalities
    def refuse(self, dtype=None, copy=None):
        raise AssertionError("object array made on the double-double solve path")

    monkeypatch.setattr(DDArray, "__array__", refuse)
    sol, warm = solve_two_stage(gen_random_sdp((4,), 3, 1.0, seed=5), solver.SolverOptions(tol=1e-20))
    formats.write_solution(sol, tmp_path / "dd.sol")
    formats.write_warmstart(warm, tmp_path / "dd.ws")
    back = formats.read_warmstart(tmp_path / "dd.ws")
    k4 = maxcut_relaxation(Graph.complete(4), with_triangles=True).problem
    hinge, _ = solve_two_stage(k4, solver.SolverOptions(tol=1e-20))
    formats.write_solution(hinge, tmp_path / "k4.sol")
    monkeypatch.undo()
    assert hinge.status == "tol" and isinstance(hinge.y_b, DDArray) and len(hinge.y_b) == 16
    assert np.any(hinge.y_b.hi > 0.0)  # some triangle inequality is active
    assert np.array_equal(back.V_blocks[0].lo, warm.V_blocks[0].lo) and back.mu == warm.mu
    assert sol.status == "tol" and isinstance(sol.factor[0], DDArray) and isinstance(sol.objective, DDArray)
    assert sol.objective.shape == ()
    assert isinstance(warm.V_blocks[0], DDArray)

    # the benchmark's oracle reads the solution's exact words through exact_pairs
    exact_pairs = load_perfbench_module("worker").exact_pairs
    for values in (sol.factor[0], sol.y_a):
        assert exact_pairs(values) == {"hi": values.hi.tolist(), "lo": values.lo.tolist()}
    assert np.any(sol.factor[0].lo != 0.0)
    assert exact_pairs([sol.objective]) == {"hi": [sol.objective.hi], "lo": [sol.objective.lo]}


def test_oracle_reads_the_cli_solution_and_agrees_with_its_report(tmp_path, capsys):
    # the solution file is the benchmark's correctness boundary: the oracle
    # parses its ya/yb sections with its own reader and recomputes the KKT
    # measures in dense numpy; a slip in the dual layout would show here
    graph = tmp_path / "k4.txt"
    graph.write_text("4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    prob, out = tmp_path / "k4.sdp", tmp_path / "k4.sol"
    assert cli.main(["generate", "maxcut", "--triangles", "--graph", str(graph), "-o", str(prob)]) == cli.EXIT_OK
    assert cli.main(["solve", str(prob), "-o", str(out), "--tol", "1e-8"]) == cli.EXIT_OK

    oracle = load_perfbench_module("oracle")
    problem = oracle.read_problem(prob)
    status, _, factor, y_a, y_b = oracle.read_solution_file(out)
    assert status == "tol" and len(y_a) == 4 and len(y_b) == 16 and np.any(y_b > 0)
    errors = oracle.kkt_numpy(problem, factor, y_a, y_b)
    assert errors["y_b_min"] >= 0.0
    report = formats.read_solution(out).report.as_dict()
    for key in ("pinf", "gap", "dinf", "compl"):
        assert abs(errors[key] - report[key]) <= 1e-12, key


def test_ladder_writes_a_record_of_one_rung(tmp_path):
    out = tmp_path / "ladder.json"
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ladder.py"), str(ROOT), "-o", str(out), "--runs", "1",
                           "--rung", "theta_prime_C5"], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert set(record) == {"tree", "python", "numpy", "machine", "runs", "rungs"}
    assert list(record["rungs"]) == ["theta_prime_C5"]
    rung = record["rungs"]["theta_prime_C5"]
    assert set(rung) == {"status", "iterations", "column_evals", "aa_accepted", "aa_rejected", "max_error", "wall_s",
                         "wall_s_runs", "tol", "two_stage", "time_limit", "max_iters"}
    assert rung["status"] == "tol" and rung["max_error"] <= rung["tol"] and rung["iterations"] > 0


def test_ladder_records_the_seed_spread(tmp_path):
    # --seeds 3: seed 0's counts are the rung's own, and the spread is the
    # median and the maximum over the three seeds
    out = tmp_path / "ladder.json"
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ladder.py"), str(ROOT), "-o", str(out), "--runs", "1",
                           "--seeds", "3", "--rung", "theta_prime_C5"], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert record["seeds"] == 3
    rung = record["rungs"]["theta_prime_C5"]
    seeds = rung["seeds"]
    assert [s["seed"] for s in seeds] == [0, 1, 2] and all(s["status"] == "tol" for s in seeds)
    counts = ("iterations", "column_evals", "aa_accepted", "aa_rejected", "max_error")
    assert all(seeds[0][key] == rung[key] for key in counts)
    for key in counts:
        values = sorted(s[key] for s in seeds)
        assert rung["spread"][key] == {"median": values[1], "max": values[2]}
