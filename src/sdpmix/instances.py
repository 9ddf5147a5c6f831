"""Instance generators: random SDPs, Max-Cut relaxations, stability-number bounds.

The solver is a minimizer, so maximization families are emitted negated;
each generated instance carries the sign and the constant objective offset
needed to state results in the family's usual orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, combinations
from typing import Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .problem import SdpProblem, validate


@dataclass(frozen=True)
class Graph:
    """Simple undirected weighted graph; edges stored with i < j (0-based)."""

    n: int
    edges: Tuple[Tuple[int, int, float], ...]

    @classmethod
    def build(cls, n: int, edges: Sequence) -> "Graph":
        if n < 1:
            raise ValidationError(f"graph needs at least one vertex, got {n}")
        seen = set()
        out = []
        for e in edges:
            i, j, w = (e[0], e[1], e[2]) if len(e) == 3 else (e[0], e[1], 1.0)
            if i == j:
                raise ValidationError(f"graph has a loop at vertex {i + 1}")
            if i > j:
                i, j = j, i
            if not (0 <= i < j < n):
                raise ValidationError(f"edge ({i + 1},{j + 1}) out of range for {n} vertices")
            if (i, j) in seen:
                raise ValidationError(f"duplicate edge ({i + 1},{j + 1})")
            if not math.isfinite(w):
                raise ValidationError(f"edge ({i + 1},{j + 1}) has nonfinite weight")
            seen.add((i, j))
            out.append((i, j, float(w)))
        return cls(n, tuple(sorted(out)))

    @classmethod
    def complete(cls, n: int, weight: float = 1.0) -> "Graph":
        return cls.build(n, [(i, j, weight) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def cycle(cls, n: int, weight: float = 1.0) -> "Graph":
        return cls.build(n, [(i, (i + 1) % n, weight) for i in range(n)])

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls.build(n, [])

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class GeneratedInstance:
    """A problem plus the orientation metadata of its family."""

    problem: SdpProblem
    family: str
    sense: int = 1  # +1: solver minimum is the reported value; -1: negated
    offset: float = 0.0

    def reported_objective(self, solver_value) -> float:
        """Solver-space minimum mapped to the family's usual orientation."""
        return self.sense * float(solver_value) + self.offset


def _problem(block_sizes, rhs, ineq_start, pieces) -> SdpProblem:
    """The validated problem of entry pieces: (con, block, row, col, val)
    arrays broadcast together, one entry per element; the cost is
    constraint len(rhs)."""
    columns = zip(*(np.broadcast_arrays(*piece) for piece in pieces))
    problem = SdpProblem.from_entries(block_sizes, rhs, ineq_start,
                                      *(np.concatenate([a.ravel() for a in column]) for column in columns))
    validate(problem)
    return problem


def gen_random_sdp(block_sizes: Sequence[int], m: int, density: float, seed: int) -> SdpProblem:
    """Random equality-constrained SDP with A_1 = I and a_j = trace(A_j),
    so X = I is strictly feasible by construction."""
    if m < 1:
        raise ValidationError("need at least one constraint")
    if not (0 < density <= 1):
        raise ValidationError(f"density must lie in (0, 1], got {density}")
    block_sizes = tuple(int(n) for n in block_sizes)
    rng = np.random.default_rng(seed)

    positions = [(b, r, c) for b, n in enumerate(block_sizes) for r in range(n) for c in range(r, n)]

    def random_sym(j: int):
        """Entries (j, block, row, col, value) of one random matrix per block;
        each upper-triangle position is kept with probability density."""
        return [(j, *at, rng.uniform(-1.0, 1.0)) for at in positions if rng.random() < density]

    entries = random_sym(m)  # the cost
    entries += [(0, b, i, i, 1.0) for b, n in enumerate(block_sizes) for i in range(n)]
    for j in range(1, m):
        # a constraint drawn empty gets one entry at a uniformly drawn position
        entries += random_sym(j) or [(j, *positions[rng.integers(len(positions))], rng.uniform(-1.0, 1.0))]

    shell = SdpProblem.from_entries(block_sizes, np.zeros(m), m + 1, *zip(*entries))
    # rhs = A(I): each block's diagonal summed, then the blocks added in
    # order, the bits every generated instance has
    block, con, row, col, val = shell.entries
    on = row == col
    traces = np.bincount(block[on] * (m + 1) + con[on], weights=val[on], minlength=len(block_sizes) * (m + 1))
    problem = replace(shell, rhs=sum(traces.reshape(-1, m + 1))[:m])
    validate(problem)
    return problem


def maxcut_relaxation(graph: Graph, with_triangles: bool = False) -> GeneratedInstance:
    """Max-Cut SDP bound: maximize <L/4, X> over correlation matrices.

    The cost diagonal is identically 1/4 of the weighted degrees and only
    shifts the objective by a constant under diag(X) = 1, so it is dropped
    from the data and reported as the instance offset. Optionally all
    4 C(n,3) triangle inequalities are added: for each triple i < j < k,
    one constraint per sign pattern, with entries (i, j), (i, k), (j, k).
    """
    n = graph.n
    if with_triangles and n < 3:
        raise ValidationError("triangle inequalities need at least 3 vertices")
    total_weight = sum(w for _, _, w in graph.edges)
    ei, ej, w = np.array(graph.edges, dtype=np.float64).reshape(-1, 3).T
    triples = combinations(range(n), 3) if with_triangles else ()
    tri = np.fromiter(chain.from_iterable(triples), dtype=np.int64).reshape(-1, 1, 3)
    signs = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
    m = n + 4 * len(tri)
    diag = np.arange(n)
    pieces = [
        # (-C) off-diagonal: C_ij = -w/4 for edges, so the emitted cost is +w/4
        (m, 0, ei.astype(np.int64), ej.astype(np.int64), w / 4.0),
        (diag, 0, diag, diag, 1.0),
        # axes: triple, sign pattern, entry
        (np.arange(n, m).reshape(-1, 4, 1), 0, tri[..., [0, 0, 1]], tri[..., [1, 2, 2]], signs * 0.5),
    ]
    rhs = np.concatenate([np.ones(n), np.full(m - n, -1.0)])
    problem = _problem((n,), rhs, n + 1, pieces)
    return GeneratedInstance(problem, family="maxcut", sense=-1, offset=total_weight / 2.0)


def theta_relaxation(graph: Graph, strengthened: bool = False) -> GeneratedInstance:
    """Stability-number SDP bound (maximize <J, X>, trace 1, zeros on edges);
    strengthened adds entrywise nonnegativity off the edges."""
    n = graph.n
    ei, ej = np.array([(i, j) for i, j, _ in graph.edges], dtype=np.int64).reshape(-1, 2).T
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[ei, ej] = True
    oi, oj = np.triu_indices(n, 1)
    off = ~adjacent[oi, oj] if strengthened else np.zeros(len(oi), dtype=bool)
    m_eq = graph.m + 1
    m = m_eq + int(off.sum())
    diag = np.arange(n)
    pieces = [
        (m, 0, *np.triu_indices(n), -1.0),
        (np.arange(graph.m), 0, ei, ej, 0.5),
        (graph.m, 0, diag, diag, 1.0),
        (np.arange(m_eq, m), 0, oi[off], oj[off], 0.5),
    ]
    rhs = np.zeros(m)
    rhs[graph.m] = 1.0
    problem = _problem((n,), rhs, m_eq + 1, pieces)
    return GeneratedInstance(problem, family="theta", sense=-1, offset=0.0)
