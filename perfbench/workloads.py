"""Workload definitions and seeded input files.

Every workload solves one fixed instance. The benchmark seed changes the
bytes of the input files, not the problem they describe: it shuffles the
entry lines of the problem file (and the edge lines of the graph file) and
writes each off-diagonal entry in a randomly chosen triangle. The parser
stores both canonically, so every seed gives the same parsed problem and the
same solver trajectory.

Why the instance is fixed: time to tolerance depends on the instance far
more than on the code. On this solver a different generator seed moved
big_block from 100 to 250 outer iterations and dd_refine from 150 to 4450
(8 s to 442 s), and even a rounding-level change such as reordering the
constraints moved dd_refine from 150 to 250 iterations, because the
tolerance is only confirmed every iters_Z = 50 iterations. A seed that
changed the instance would measure the instance, not the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Tuple[str, ...]  # `sdpmix generate` arguments before -o
    tol: float
    precision: str = "double"
    graph: Optional[Tuple[int, float, int]] = None  # G(n, p) drawn with this numpy seed

    @property
    def solve_flags(self) -> Tuple[str, ...]:
        """`sdpmix solve` flags besides the input and -o."""
        return ("--precision", self.precision, "--tol", repr(self.tol))

    @property
    def gate(self) -> float:
        """Largest KKT error the independent check accepts (criteria 03 and 09)."""
        return 100.0 * self.tol


WORKLOADS = {
    w.name: w
    for w in (
        # rand_dense and maxcut_hinge are not listed in BENCHMARK.json, so
        # that the two listed workloads fit longer runs; they are run by hand
        # (see README.md)
        Workload(
            name="rand_dense",
            generate=("rand", "--blocks", "30", "--m", "20", "--density", "1.0", "--seed", "0"),
            tol=1e-10,
        ),
        Workload(
            name="maxcut_hinge",
            generate=("maxcut", "--triangles"),
            tol=1e-8,
            graph=(16, 0.5, 0),
        ),
        Workload(
            name="big_block",
            generate=("rand", "--blocks", "100", "--m", "3", "--density", "0.05", "--seed", "0"),
            tol=1e-8,
        ),
        Workload(
            name="dd_refine",
            generate=("rand", "--blocks", "10", "--m", "10", "--density", "1.0", "--seed", "42"),
            tol=1e-20,
            precision="dd",
        ),
    )
}

# Warm-up instance: Max-Cut of K3 with its triangle inequalities.
WARMUP_GRAPH = "3 3\n1 2\n1 3\n2 3\n"


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _generate(cli, args) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["generate", *args])
    if code != 0:
        raise RuntimeError(f"sdpmix generate {' '.join(args)} exited with {code}")


def _shuffle_graph(text: str, rng: np.random.Generator) -> str:
    head, *edges = text.strip().splitlines()
    flipped = []
    for line in edges:
        i, j, *w = line.split()
        flipped.append(" ".join([j, i, *w] if rng.random() < 0.5 else [i, j, *w]))
    return "\n".join([head] + [flipped[t] for t in rng.permutation(len(flipped))]) + "\n"


def _shuffle_problem(text: str, rng: np.random.Generator) -> str:
    """Reorder the entry lines and mirror some off-diagonal entries; the
    header (block count, orders, m, ineq_start, rhs) stays in place."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    head, entries = lines[:4], lines[4:]
    out = []
    for line in entries:
        cons, block, row, col, val = line.split()
        if row != col and rng.random() < 0.5:
            row, col = col, row
        out.append(f"{cons} {block} {row} {col} {val}")
    body = [out[t] for t in rng.permutation(len(out))]
    return "\n".join(["# sdpmix problem (entry order drawn from the benchmark seed)"] + head + body) + "\n"


def make_inputs(cli, workload: Workload, seed: int, workdir: Path) -> dict:
    """Write the workload's input files and the warm-up instance into workdir.

    Returns the file paths plus a record of the seed, the generator calls
    and each file's sha256.
    """
    rng = np.random.default_rng(seed)
    files = {}
    calls = []
    gen_args = list(workload.generate)
    if workload.graph is not None:
        n, p, graph_seed = workload.graph
        grng = np.random.default_rng(graph_seed)
        edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if grng.random() < p]
        text = f"{n} {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges)
        graph_path = workdir / "graph.txt"
        graph_path.write_text(_shuffle_graph(text, rng))
        files["graph"] = graph_path
        calls.append(f"G({n}, {p}) from numpy default_rng({graph_seed}), edge lines shuffled by the seed")
        gen_args += ["--graph", str(graph_path)]
    raw = workdir / "generated.sdp"
    _generate(cli, gen_args + ["-o", str(raw)])
    calls.append("sdpmix generate " + " ".join(workload.generate) + " -o problem.sdp, entry lines shuffled by the seed")
    problem_path = workdir / "problem.sdp"
    problem_path.write_text(_shuffle_problem(raw.read_text(), rng))
    raw.unlink()
    files["problem"] = problem_path

    warm_graph = workdir / "k3.txt"
    warm_graph.write_text(WARMUP_GRAPH)
    warm_problem = workdir / "k3.sdp"
    _generate(cli, ["maxcut", "--triangles", "--graph", str(warm_graph), "-o", str(warm_problem)])
    return {
        "paths": {k: str(v) for k, v in files.items()},
        "warmup": str(warm_problem),
        "record": {
            "seed": seed,
            "generator": calls,
            "sha256": {k: sha256(v) for k, v in files.items()},
        },
    }
