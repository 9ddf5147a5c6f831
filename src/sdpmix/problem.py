"""Problem data model, validation, and automatic scaling.

An SDP here is

    minimize    sum_i <C_i, X_i>
    subject to  sum_i <A_{j,i}, X_i>  =  rhs_j   (j < ineq_start)
                sum_i <B_{j,i}, X_i> >= rhs_j    (j >= ineq_start)
                X_i PSD of order n_i,

with constraints ordered equalities first. ineq_start is 1-based; a
problem without inequalities has ineq_start = m + 1.

The data is one entry table per block: the stored upper-triangle entries
(con, row, col, val) of every constraint with a matrix in that block,
constraint by constraint and each by (row, col), then those of the block's
cost with con = m: the cost is the last row of the operator. An
off-diagonal entry (r, c, v) with r < c represents both (r, c) and (c, r),
so it contributes 2*v*X[r, c] to an inner product and 2*v^2 to the squared
Frobenius norm.

The cost must stay last: a column gradient sums -lambda_j a_j over the
constraints and then adds c, which rounds exactly like c - sum_j lambda_j
a_j; a cost summed first would round differently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Tuple

import numpy as np

from .ddouble import DDArray, ScalarKind, all_finite, kind_of, norm2, segment_sum, to_float_array
from .errors import ValidationError

# a block's entry table: (con, row, col, val) columns
Entries = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _row_name(j: int, m: int, b: int) -> str:
    return f"cost block {b + 1}" if j == m else f"constraint {j + 1}, block {b + 1}"


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Multi-block SDP data (immutable after construction); entries[b] is
    block b's entry table."""

    block_sizes: Tuple[int, ...]
    entries: Tuple[Entries, ...]
    rhs: np.ndarray
    ineq_start: int

    @classmethod
    def from_entries(cls, block_sizes, rhs, ineq_start, con, block, row, col, val) -> "SdpProblem":
        """The problem of one entry per index: the columns of native entry
        lines, 0-based, with the cost as constraint m = len(rhs).

        Lower-triangle entries are mirrored; one sort puts every block's
        table in order. The values' kind (binary64 unless they are
        double-double) is the problem's; the result is not validated.
        """
        block_sizes = tuple(int(n) for n in block_sizes)
        con, block, row, col = (np.asarray(a, dtype=np.int64).reshape(-1) for a in (con, block, row, col))
        val = (val if isinstance(val, DDArray) else np.asarray(val)).reshape(-1)
        kind = kind_of(val)
        bad = np.flatnonzero((block < 0) | (block >= len(block_sizes)))
        if len(bad):
            name = _row_name(int(con[bad[0]]), len(rhs), int(block[bad[0]]))
            raise ValidationError(f"{name}: block index out of range 1..{len(block_sizes)}")
        row, col = np.minimum(row, col), np.maximum(row, col)
        order = np.lexsort((col, row, con, block))
        con, block, row, col, val = con[order], block[order], row[order], col[order], kind.asarray(val[order])
        cuts = np.searchsorted(block, np.arange(len(block_sizes) + 1))
        entries = tuple((con[s:e], row[s:e], col[s:e], val[s:e]) for s, e in zip(cuts[:-1], cuts[1:]))
        return cls(block_sizes, entries, kind.asarray(rhs), int(ineq_start))

    @property
    def q(self) -> int:
        return len(self.block_sizes)

    @property
    def m(self) -> int:
        return len(self.rhs)

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
        """What the kernels derive from the entry tables, built on first use."""
        return OperatorTables(self)


class OperatorTables:
    """Per-block data the kernels derive from the entry tables.

    wval[b] is block b's val with the off-diagonal factor 2 applied.

    pairs[b] = (prow, pcol, inverse) lists the distinct (row, col) positions
    of block b's table, and inverse maps each table entry to its position,
    so that (prow[inverse], pcol[inverse]) == (row, col).
    """

    def __init__(self, problem: SdpProblem):
        self.wval = []
        self.pairs = []
        for n, (_, row, col, val) in zip(problem.block_sizes, problem.entries):
            self.wval.append(val * np.where(row == col, 1.0, 2.0))
            keys, inverse = np.unique(row * n + col, return_inverse=True)
            self.pairs.append((keys // n, keys % n, inverse))


def row_norms_sq(problem: SdpProblem) -> np.ndarray:
    """Squared Frobenius norms of the m + 1 rows, the cost last: one segment
    sum of val^2 (off-diagonal entries weighted 2) per block, each row
    summed in table order."""
    m = problem.m
    out = problem.kind.zeros(m + 1)
    for con, row, col, val in problem.entries:
        out = out + segment_sum(val * val * np.where(row == col, 1.0, 2.0), con, m + 1)
    return out


def validate(problem: SdpProblem) -> None:
    """Check all SdpProblem invariants; raise ValidationError otherwise.

    A fault in an entry table is named by its row (constraint or cost),
    block and entry."""
    if problem.q < 1:
        raise ValidationError("problem needs at least one block")
    for i, n in enumerate(problem.block_sizes):
        if n < 1:
            raise ValidationError(f"block {i + 1}: size must be positive, got {n}")
    if len(problem.entries) != problem.q:
        raise ValidationError(f"expected {problem.q} entry tables, got {len(problem.entries)}")
    m = problem.m
    if not (1 <= problem.ineq_start <= m + 1):
        raise ValidationError(f"ineq_start out of range: {problem.ineq_start} with {m} constraints")
    if not all_finite(problem.rhs):
        raise ValidationError("nonfinite value in rhs")
    touched = np.zeros(m + 1, dtype=np.int64)
    for b, (n, (con, row, col, val)) in enumerate(zip(problem.block_sizes, problem.entries)):
        if np.any((con < 0) | (con > m)):
            raise ValidationError(f"block {b + 1}: constraint index out of range 0..{m}")
        # (con, row * n + col) strictly increasing: table order, and no entry twice
        step = np.diff(con, prepend=-1)
        step = np.where(step != 0, step, np.diff(row * n + col, prepend=-1))
        faults = (
            ((row < 0) | (col < 0) | (row >= n) | (col >= n), f"entry outside the block's order {n}"),
            (row > col, "entry below the diagonal"),
            (step == 0, "duplicate entry"),
            (step < 0, "entry out of table order"),
            (~np.isfinite(to_float_array(val)), "nonfinite value"),
        )
        for bad, what in faults:
            if np.any(bad):
                t = int(np.argmax(bad))
                raise ValidationError(f"{_row_name(int(con[t]), m, b)}: {what} at ({row[t] + 1},{col[t] + 1})")
        touched += np.bincount(con, minlength=m + 1)
    empty = np.flatnonzero(touched[:m] == 0)
    if len(empty):
        raise ValidationError(f"constraint {empty[0] + 1}: touches no block")


def as_kind(problem: SdpProblem, kind: ScalarKind) -> SdpProblem:
    """Re-instantiate the problem data at another scalar kind (exact promotion)."""
    entries = tuple((con, row, col, kind.asarray(val)) for con, row, col, val in problem.entries)
    return replace(problem, entries=entries, rhs=kind.asarray(problem.rhs))


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
    zero = kind.from_float(0.0)

    norms = np.sqrt(row_norms_sq(problem))
    vacuous = np.flatnonzero(~(norms[:-1] > zero).astype(bool))
    if len(vacuous):
        raise ValidationError(f"constraint {vacuous[0] + 1}: zero-norm matrix (vacuous constraint)")
    if not norms[-1] > 0:
        norms[-1] = one
    inverse = one / norms
    entries = tuple((con, row, col, val * inverse[con]) for con, row, col, val in problem.entries)

    cost_norm, norms = norms[-1], norms[:-1]
    rbar = problem.rhs / norms if problem.m else problem.rhs.copy()
    s_eq = norm2(rbar[: problem.m_eq]) if problem.m_eq else zero
    s_ineq = norm2(rbar[problem.m_eq :]) if problem.m_ineq else zero
    rhs_eq_norm = s_eq if s_eq > 0 else one
    rhs_ineq_norm = s_ineq if s_ineq > 0 else one
    primal = rhs_eq_norm if problem.m_eq else rhs_ineq_norm
    scaled_rhs = rbar / primal if problem.m else rbar

    scaled = replace(problem, entries=entries, rhs=scaled_rhs)
    record = ScalingRecord(cost_norm, norms, rhs_eq_norm, rhs_ineq_norm, primal)
    return scaled, record
