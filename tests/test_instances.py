"""Generators against enumeration / analytic oracles."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from sdpmix import cli
from sdpmix.errors import ValidationError
from sdpmix.formats import parse_native, write_native
from sdpmix.instances import GeneratedInstance, Graph, gen_random_sdp, maxcut_relaxation, theta_relaxation
from sdpmix.problem import validate
from sdpmix.solver import SolverOptions, solve

from helpers import apply_operator, problem_equals


def maxcut_enumeration_oracle(graph: Graph) -> float:
    """Exact max cut by enumerating all 2^n sign vectors."""
    best = 0.0
    for signs in itertools.product([-1.0, 1.0], repeat=graph.n):
        cut = sum(w for i, j, w in graph.edges if signs[i] != signs[j])
        best = max(best, cut)
    return best


def maxcut_k3_grid_oracle() -> float:
    """Grid search over 3x3 correlation matrices for the basic K3 bound."""
    best = -math.inf
    grid = np.linspace(-1.0, 1.0, 81)
    for a in grid:
        for b in grid:
            for c in grid:
                X = np.array([[1.0, a, b], [a, 1.0, c], [b, c, 1.0]])
                if np.linalg.eigvalsh(X).min() >= -1e-12:
                    # <L/4, X> for unit-weight K3
                    best = max(best, 1.5 - 0.5 * (a + b + c))
    return best


def test_graph_validation():
    with pytest.raises(ValidationError, match="loop"):
        Graph.build(3, [(0, 0, 1.0)])
    with pytest.raises(ValidationError, match="duplicate"):
        Graph.build(3, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValidationError, match="out of range"):
        Graph.build(3, [(0, 3, 1.0)])
    g = Graph.build(4, [(2, 0), (1, 3)])  # weights default to 1, endpoints sorted
    assert g.edges == ((0, 2, 1.0), (1, 3, 1.0))


def test_gen_random_sdp_structure():
    p = gen_random_sdp((5,), 4, 1.0, seed=7)
    validate(p)
    assert p.m == 4 and p.m_ineq == 0 and p.ineq_start == 5
    # A_1 is the identity, so a_1 = sum of block sizes
    assert float(p.rhs[0]) == 5.0
    # density 1: every upper-triangle cost position present
    assert np.count_nonzero(p.entries.con == p.m) == 5 * 6 // 2


def test_gen_random_sdp_multiblock_identity_rhs():
    p = gen_random_sdp((3, 4), 5, 0.6, seed=1)
    validate(p)
    assert float(p.rhs[0]) == 7.0


def test_gen_random_sdp_deterministic():
    a = gen_random_sdp((4, 3), 5, 0.5, seed=123)
    b = gen_random_sdp((4, 3), 5, 0.5, seed=123)
    assert problem_equals(a, b)
    c = gen_random_sdp((4, 3), 5, 0.5, seed=124)
    assert not problem_equals(a, c)


def test_gen_random_sdp_slater_point_exact():
    for seed in range(5):
        p = gen_random_sdp((4, 2), 6, 0.7, seed=seed)
        vals = apply_operator(p, [np.eye(n) for n in p.block_sizes])
        assert np.array_equal(vals, p.rhs)


def test_gen_random_sdp_parameter_validation():
    with pytest.raises(ValidationError):
        gen_random_sdp((3,), 0, 1.0, 0)
    with pytest.raises(ValidationError):
        gen_random_sdp((3,), 2, 0.0, 0)


def test_maxcut_counts_and_offsets():
    for n in range(3, 11):
        inst = maxcut_relaxation(Graph.complete(n), with_triangles=True)
        assert inst.problem.m_ineq == 4 * math.comb(n, 3)
        assert inst.problem.m_eq == n
        assert inst.offset == math.comb(n, 2) / 2.0
    with pytest.raises(ValidationError):
        maxcut_relaxation(Graph.complete(2), with_triangles=True)


def test_maxcut_k3_basic_value_against_grid_oracle():
    # analytic optimum 9/4 at the equiangular configuration; the grid
    # confirms it to grid resolution before we pin the exact value
    grid_best = maxcut_k3_grid_oracle()
    assert grid_best == pytest.approx(9 / 4, abs=2e-2)
    inst = maxcut_relaxation(Graph.complete(3))
    sol, _ = solve(inst.problem, SolverOptions(tol=1e-11, max_iters=5000))
    assert sol.status == "tol"
    assert inst.reported_objective(sol.objective) == pytest.approx(9 / 4, abs=1e-8)


def test_maxcut_k3_triangles_reaches_exact_cut():
    want = maxcut_enumeration_oracle(Graph.complete(3))
    assert want == 2.0
    inst = maxcut_relaxation(Graph.complete(3), with_triangles=True)
    sol, _ = solve(inst.problem, SolverOptions(tol=1e-11, max_iters=8000))
    assert sol.status == "tol"
    assert inst.reported_objective(sol.objective) == pytest.approx(2.0, abs=1e-8)


def test_maxcut_weighted_path_triangles_matches_enumeration():
    g = Graph.build(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0)])
    want = maxcut_enumeration_oracle(g)  # tree: all edges cut
    assert want == 6.0
    inst = maxcut_relaxation(g, with_triangles=True)
    sol, _ = solve(inst.problem, SolverOptions(tol=1e-10, max_iters=8000))
    assert sol.status == "tol"
    assert inst.reported_objective(sol.objective) == pytest.approx(6.0, abs=1e-7)


def test_theta_counts_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = Graph.build(n, edges)
        basic = theta_relaxation(g).problem
        assert basic.m_eq == g.m + 1 and basic.m_ineq == 0
        strong = theta_relaxation(g, strengthened=True).problem
        assert strong.m_eq == g.m + 1
        assert strong.m_ineq == math.comb(n, 2) - g.m
        validate(basic)
        validate(strong)


def test_theta_complete_graph_is_one():
    inst = theta_relaxation(Graph.complete(5))
    sol, _ = solve(inst.problem, SolverOptions(tol=1e-11, max_iters=5000))
    assert sol.status == "tol"
    assert inst.reported_objective(sol.objective) == pytest.approx(1.0, abs=1e-9)


def test_theta_empty_graph_is_n():
    inst = theta_relaxation(Graph.empty(5))
    sol, _ = solve(inst.problem, SolverOptions(tol=1e-10, max_iters=5000))
    assert sol.status == "tol"
    assert inst.reported_objective(sol.objective) == pytest.approx(5.0, abs=1e-8)


def test_theta_c5_is_sqrt5():
    inst = theta_relaxation(Graph.cycle(5))
    sol, _ = solve(inst.problem, SolverOptions(tol=1e-10, max_iters=8000))
    assert sol.status == "tol"
    assert inst.reported_objective(sol.objective) == pytest.approx(math.sqrt(5), abs=1e-7)


def test_reported_objective_orientation():
    inst = GeneratedInstance(problem=None, family="x", sense=-1, offset=1.5)
    assert inst.reported_objective(-2.0) == 3.5


# sha256 prefixes of `sdpmix generate` outputs that the benchmark's workloads
# and the acceptance ladder are built from; a generator change that moves
# any of them changes those instances
G16 = [(i + 1, j + 1) for i, j in itertools.combinations(range(16), 2)]
GENERATED_DIGESTS = {
    "rand_100": (["rand", "--blocks", "100", "--m", "3", "--density", "0.05", "--seed", "0"], "658909a99490b3e9"),
    "rand_10": (["rand", "--blocks", "10", "--m", "10", "--density", "1.0", "--seed", "42"], "5b09e23baddc1f97"),
    "rand_30": (["rand", "--blocks", "30", "--m", "20", "--density", "1.0", "--seed", "0"], "f9c5abcb1a37e85c"),
    "rand_2x20": (["rand", "--blocks", "2x20", "--m", "15", "--density", "0.5", "--seed", "1"], "6cd36a69c9109824"),
    "maxcut_g16": (["maxcut", "--triangles"], "fa6d0e887d205235"),
    "theta_c5": (["theta", "--strengthened"], "84b249781807f2b9"),
}


def graph_text(name: str) -> str:
    """G(16, 0.5) drawn from default_rng(0) over the pairs i < j in order, or C5."""
    if name == "theta_c5":
        return "5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"
    rng = np.random.default_rng(0)
    edges = [(i, j) for i, j in G16 if rng.random() < 0.5]
    return f"16 {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges)


@pytest.mark.parametrize("name", GENERATED_DIGESTS)
def test_generated_instances_stay_the_same(name, tmp_path, capsys):
    args, digest = GENERATED_DIGESTS[name]
    if args[0] != "rand":
        (tmp_path / "graph.txt").write_text(graph_text(name))
        args = args + ["--graph", str(tmp_path / "graph.txt")]
    out = tmp_path / "problem.sdp"
    assert cli.main(["generate", *args, "-o", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest
    # writing the parsed problem gives the same bytes
    write_native(parse_native(out), tmp_path / "again.sdp")
    assert (tmp_path / "again.sdp").read_bytes() == out.read_bytes()
