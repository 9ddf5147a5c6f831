"""Problem data model, validation, and automatic scaling.

An SDP here is

    minimize    sum_i <C_i, X_i>
    subject to  sum_i <A_{j,i}, X_i>  =  rhs_j   (j < ineq_start)
                sum_i <B_{j,i}, X_i> >= rhs_j    (j >= ineq_start)
                X_i PSD of order n_i,

with constraints ordered equalities first. ineq_start is 1-based; a
problem without inequalities has ineq_start = m + 1.

Symmetric matrices are stored as upper-triangle triplets. An off-diagonal
stored entry (r, c, v) with r < c represents both (r, c) and (c, r), so it
contributes 2*v*X[r, c] to an inner product and 2*v^2 to the squared
Frobenius norm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .ddouble import ScalarKind, all_finite, fsqrt, kind_of, norm2
from .errors import ValidationError

# A constraint is a sorted tuple of (block_index, SymMatrix) pairs.
BlockTerms = Tuple[Tuple[int, "SymMatrix"], ...]


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Sparse symmetric matrix: upper-triangle triplets, canonically sorted."""

    order: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_entries(cls, order: int, entries: Sequence, kind: ScalarKind | None = None) -> "SymMatrix":
        """Build from (row, col, value) triplets; lower-triangle input is mirrored."""
        rows, cols, vals = [], [], []
        for r, c, v in entries:
            if r > c:
                r, c = c, r
            rows.append(r)
            cols.append(c)
            vals.append(v)
        order_idx = np.lexsort((np.array(cols, dtype=np.int64), np.array(rows, dtype=np.int64))) if rows else np.array([], dtype=np.int64)
        rows_a = np.array(rows, dtype=np.int64)[order_idx]
        cols_a = np.array(cols, dtype=np.int64)[order_idx]
        sorted_vals = [vals[i] for i in order_idx]
        if kind is None:
            kind = kind_of(vals[0]) if vals else kind_of(np.empty(0))
        return cls(order, rows_a, cols_a, kind.asarray(sorted_vals))

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def kind(self) -> ScalarKind:
        return kind_of(self.vals)

    def frob_sq(self):
        """Squared Frobenius norm in the matrix's own arithmetic."""
        if self.nnz == 0:
            return self.kind.from_float(0.0)
        return np.sum(self.vals * self.vals * np.where(self.rows == self.cols, 1.0, 2.0))

    def scaled(self, factor) -> "SymMatrix":
        return replace(self, vals=self.vals * factor)


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Multi-block SDP data (immutable after construction)."""

    block_sizes: Tuple[int, ...]
    costs: Tuple[SymMatrix, ...]
    constraints: Tuple[BlockTerms, ...]
    rhs: np.ndarray
    ineq_start: int

    @classmethod
    def build(cls, block_sizes, costs, constraints, rhs, ineq_start, kind: ScalarKind | None = None) -> "SdpProblem":
        """Normalize containers; `constraints` items are dicts or pair-sequences."""
        norm_cons = []
        for con in constraints:
            pairs = sorted(con.items()) if isinstance(con, dict) else sorted(con)
            norm_cons.append(tuple((int(b), m) for b, m in pairs))
        if kind is None:
            kind = kind_of(costs[0].vals) if costs else kind_of(np.asarray(rhs))
        return cls(
            block_sizes=tuple(int(n) for n in block_sizes),
            costs=tuple(costs),
            constraints=tuple(norm_cons),
            rhs=kind.asarray(rhs),
            ineq_start=int(ineq_start),
        )

    @property
    def q(self) -> int:
        return len(self.block_sizes)

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def m_eq(self) -> int:
        return self.ineq_start - 1

    @property
    def m_ineq(self) -> int:
        return self.m - self.m_eq

    @property
    def rhs_eq(self) -> np.ndarray:
        return self.rhs[: self.m_eq]

    @property
    def rhs_ineq(self) -> np.ndarray:
        return self.rhs[self.m_eq :]

    @property
    def kind(self) -> ScalarKind:
        return kind_of(self.rhs)

    @cached_property
    def tables(self) -> "OperatorTables":
        """The per-block entry tables, built on first use; every kernel reads them."""
        return OperatorTables(self)

    def constraint_frob_sq(self, j: int):
        total = self.kind.from_float(0.0)
        for _, mat in self.constraints[j]:
            total = total + mat.frob_sq()
        return total


class OperatorTables:
    """One entry table per block: (con, row, col, val, wval) arrays.

    A block's table lists the stored upper-triangle entries (row <= col) of
    every constraint with a matrix in that block, constraint by constraint,
    then those of the block's cost matrix with con = m: the cost is the last
    row of the operator. wval is val with the off-diagonal factor 2 applied.

    The cost must stay last: a column gradient sums -lambda_j a_j over the
    constraints and then adds c, which rounds exactly like c - sum_j
    lambda_j a_j; a cost summed first would round differently.

    pairs[b] = (prow, pcol, inverse) lists the distinct (row, col) positions
    of block b's table, and inverse maps each table entry to its position,
    so that (prow[inverse], pcol[inverse]) == (row, col).
    """

    def __init__(self, problem: SdpProblem):
        kind = problem.kind
        terms = [[] for _ in range(problem.q)]
        for j, con in enumerate(problem.constraints):
            for b, mat in con:
                terms[b].append((j, mat))
        self.blocks = []
        self.pairs = []
        for b, (n, cost) in enumerate(zip(problem.block_sizes, problem.costs)):
            ids, mats = zip(*terms[b], (problem.m, cost))
            con = np.repeat(np.array(ids, dtype=np.int64), [mat.nnz for mat in mats])
            row = np.concatenate([mat.rows for mat in mats])
            col = np.concatenate([mat.cols for mat in mats])
            val = kind.asarray(np.concatenate([mat.vals for mat in mats]))
            self.blocks.append((con, row, col, val, val * np.where(row == col, 1.0, 2.0)))
            keys, inverse = np.unique(row * n + col, return_inverse=True)
            self.pairs.append((keys // n, keys % n, inverse))


def _check_symmatrix(mat: SymMatrix, order: int, where: str) -> None:
    if mat.order != order:
        raise ValidationError(f"{where}: dimension mismatch (matrix order {mat.order}, block size {order})")
    if mat.nnz == 0:
        return
    if mat.rows.min() < 0 or mat.cols.max() >= order:
        raise ValidationError(f"{where}: entry index out of range for order {order}")
    if np.any(mat.rows > mat.cols):
        raise ValidationError(f"{where}: entry below the diagonal")
    keys = mat.rows * order + mat.cols
    if len(np.unique(keys)) != mat.nnz:
        raise ValidationError(f"{where}: duplicate entry")
    if not all_finite(mat.vals):
        raise ValidationError(f"{where}: nonfinite value")


def validate(problem: SdpProblem) -> None:
    """Check all SdpProblem invariants; raise ValidationError otherwise."""
    if problem.q < 1:
        raise ValidationError("problem needs at least one block")
    for i, n in enumerate(problem.block_sizes):
        if n < 1:
            raise ValidationError(f"block {i + 1}: size must be positive, got {n}")
    if len(problem.costs) != problem.q:
        raise ValidationError(f"expected {problem.q} cost matrices, got {len(problem.costs)}")
    for i, c in enumerate(problem.costs):
        _check_symmatrix(c, problem.block_sizes[i], f"cost block {i + 1}")
    m = problem.m
    if not (1 <= problem.ineq_start <= m + 1):
        raise ValidationError(f"ineq_start out of range: {problem.ineq_start} with {m} constraints")
    if len(problem.rhs) != m:
        raise ValidationError(f"rhs length {len(problem.rhs)} does not match {m} constraints")
    if not all_finite(problem.rhs):
        raise ValidationError("nonfinite value in rhs")
    for j, con in enumerate(problem.constraints):
        total_nnz = 0
        seen_blocks = set()
        for b, mat in con:
            if not (0 <= b < problem.q):
                raise ValidationError(f"constraint {j + 1}: block index {b + 1} out of range")
            if b in seen_blocks:
                raise ValidationError(f"constraint {j + 1}: block {b + 1} listed twice")
            seen_blocks.add(b)
            _check_symmatrix(mat, problem.block_sizes[b], f"constraint {j + 1}, block {b + 1}")
            total_nnz += mat.nnz
        if total_nnz == 0:
            raise ValidationError(f"constraint {j + 1}: touches no block")


def as_kind(problem: SdpProblem, kind: ScalarKind) -> SdpProblem:
    """Re-instantiate the problem data at another scalar kind (exact promotion)."""
    costs = tuple(replace(c, vals=kind.asarray(c.vals)) for c in problem.costs)
    constraints = tuple(
        tuple((b, replace(mat, vals=kind.asarray(mat.vals))) for b, mat in con) for con in problem.constraints
    )
    return replace(problem, costs=costs, constraints=constraints, rhs=kind.asarray(problem.rhs))


@dataclass(frozen=True)
class ScalingRecord:
    """Norms removed from the data by scale(); inverts the transformation."""

    cost_norm: object
    constraint_norms: np.ndarray
    rhs_eq_norm: object
    rhs_ineq_norm: object
    primal_scale: object

    @classmethod
    def identity(cls, problem: SdpProblem) -> "ScalingRecord":
        kind = problem.kind
        one = kind.from_float(1.0)
        ones = kind.asarray(np.ones(problem.m))
        return cls(one, ones, one, one, one)


def scale(problem: SdpProblem) -> tuple[SdpProblem, ScalingRecord]:
    """Normalize the data: unit Frobenius norm for every cost/constraint
    matrix, rhs divided per constraint by those norms, then the whole rhs by
    the equality sub-vector's l2 norm (inequality sub-vector's when there are
    no equalities). The last step is a change of primal variable X -> X/s, so
    the scaled problem is an exact reparametrization of the original.
    """
    kind = problem.kind
    one = kind.from_float(1.0)

    cost_sq = kind.from_float(0.0)
    for c in problem.costs:
        cost_sq = cost_sq + c.frob_sq()
    cost_norm = fsqrt(cost_sq)
    if not cost_norm > 0:
        cost_norm = one
    costs = tuple(c.scaled(one / cost_norm) for c in problem.costs)

    norms = kind.zeros(problem.m)
    constraints = []
    for j, con in enumerate(problem.constraints):
        nj = fsqrt(problem.constraint_frob_sq(j))
        if not nj > 0:
            raise ValidationError(f"constraint {j + 1}: zero-norm matrix (vacuous constraint)")
        norms[j] = nj
        constraints.append(tuple((b, mat.scaled(one / nj)) for b, mat in con))

    rbar = problem.rhs / norms if problem.m else problem.rhs.copy()
    s_eq = norm2(rbar[: problem.m_eq]) if problem.m_eq else kind.from_float(0.0)
    s_ineq = norm2(rbar[problem.m_eq :]) if problem.m_ineq else kind.from_float(0.0)
    rhs_eq_norm = s_eq if s_eq > 0 else one
    rhs_ineq_norm = s_ineq if s_ineq > 0 else one
    primal = rhs_eq_norm if problem.m_eq else rhs_ineq_norm
    scaled_rhs = rbar / primal if problem.m else rbar

    scaled = replace(problem, costs=costs, constraints=tuple(constraints), rhs=scaled_rhs)
    record = ScalingRecord(cost_norm, norms, rhs_eq_norm, rhs_ineq_norm, primal)
    return scaled, record
