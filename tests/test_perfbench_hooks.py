"""The benchmark's tracer (perfbench/tracer.py) wraps sdpmix functions and
methods by name; a solve under it must still run and be traced."""

import importlib.util
from pathlib import Path

from sdpmix import cli, linops

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
K3 = "3 3\n1 2\n1 3\n2 3\n"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_hooks_trace_a_cli_solve(tmp_path, capsys):
    graph = tmp_path / "k3.txt"
    graph.write_text(K3)
    prob = tmp_path / "k3.sdp"
    assert cli.main(["generate", "maxcut", "--graph", str(graph), "-o", str(prob)]) == cli.EXIT_OK
    column_deltas = linops.column_deltas

    tracer = load_tracer_class()()
    tracer.install()
    try:
        code = tracer.wrap("cli.main", cli.main)(["solve", str(prob), "-o", str(tmp_path / "k3.sol"), "--tol", "1e-8"])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert linops.column_deltas is column_deltas

    metrics = tracer.metrics(1.0)
    assert metrics["solver.iters"] > 0
    for key in ("linops.deltas_calls", "auglag.context_calls", "auglag.eval_calls", "lbfgs.calls"):
        assert metrics[key] > 0, key
