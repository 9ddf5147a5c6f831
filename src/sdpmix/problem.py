"""Problem data model, validation, and automatic scaling.

An SDP here is

    minimize    sum_i <C_i, X_i>
    subject to  sum_i <A_{j,i}, X_i>  =  rhs_j   (j < ineq_start)
                sum_i <B_{j,i}, X_i> >= rhs_j    (j >= ineq_start)
                X_i PSD of order n_i,

with constraints ordered equalities first. ineq_start is 1-based; a
problem without inequalities has ineq_start = m + 1.

The data is one entry table: the stored upper-triangle entries
(block, con, row, col, val) of every constraint and of the cost, sorted by
(block, con, row, col), so each block is one run of the table, its
constraints in order and then its cost with con = m: the cost is the last
row of the operator. An off-diagonal entry (r, c, v) with r < c represents
both (r, c) and (c, r), so it contributes 2*v*X[r, c] to an inner product
and 2*v^2 to the squared Frobenius norm. Validation, the norms and scaling
are masks and segment sums over the whole table.

The cost must stay last: a column gradient sums -lambda_j a_j over the
constraints and then adds c, which rounds exactly like c - sum_j lambda_j
a_j; a cost summed first would round differently.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Tuple

import numpy as np

from .ddouble import DDArray, ScalarKind, all_finite, kind_of, norm2, segment_sum, to_float_array
from .errors import ValidationError

# the entry table's columns, 0-based: one element per stored entry
Entries = namedtuple("Entries", "block con row col val")


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Multi-block SDP data (immutable after construction); entries is the
    one entry table."""

    block_sizes: Tuple[int, ...]
    entries: Entries
    rhs: np.ndarray
    ineq_start: int

    @classmethod
    def from_entries(cls, block_sizes, rhs, ineq_start, con, block, row, col, val) -> "SdpProblem":
        """The problem of one entry per index: the columns of native entry
        lines, 0-based, with the cost as constraint m = len(rhs).

        Lower-triangle entries are mirrored; one sort puts the table in
        order. The values' kind (binary64 unless they are double-double) is
        the problem's; the result is not validated.
        """
        block_sizes = tuple(int(n) for n in block_sizes)
        con, block, row, col = (np.asarray(a, dtype=np.int64).reshape(-1) for a in (con, block, row, col))
        val = (val if isinstance(val, DDArray) else np.asarray(val)).reshape(-1)
        kind = kind_of(val)
        row, col = np.minimum(row, col), np.maximum(row, col)
        order = np.lexsort((col, row, con, block))
        entries = Entries(block[order], con[order], row[order], col[order], kind.asarray(val[order]))
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
    def kind(self) -> ScalarKind:
        return kind_of(self.rhs)

    @cached_property
    def tables(self) -> "OperatorTables":
        """What the kernels derive from the entry table, built on first use."""
        return OperatorTables(self)


class OperatorTables:
    """What the kernels derive from the entry table, over all blocks at once.

    The factor matrix of a solve (auglag.IterateState.V) lays block b's
    columns at offsets[b] : offsets[b + 1], in block order; the table's run
    of block b is cuts[b] : cuts[b + 1], for the kernels whose output is
    dense per block. wval is the table's val with the off-diagonal factor 2
    applied.

    pairs = (prow, pcol, inverse) lists the distinct (row, col) positions of
    the table in the factor matrix's columns, and inverse maps each entry
    to its position, so that (prow[inverse], pcol[inverse]) is (row, col)
    shifted by its block's offset. No table depends on the factor's rank.
    """

    def __init__(self, problem: SdpProblem):
        block, _, row, col, val = problem.entries
        self.offsets = np.cumsum((0,) + problem.block_sizes)
        self.cuts = np.searchsorted(block, np.arange(problem.q + 1))
        self.wval = val * np.where(row == col, 1.0, 2.0)
        shift = self.offsets[block]
        n = int(self.offsets[-1])
        keys, inverse = np.unique((row + shift) * n + col + shift, return_inverse=True)
        self.pairs = (keys // n, keys % n, inverse)


def row_norms_sq(problem: SdpProblem) -> np.ndarray:
    """Squared Frobenius norms of the m + 1 rows, the cost last: one segment
    sum of val^2 (off-diagonal entries weighted 2), each row summed in table
    order."""
    _, con, row, col, val = problem.entries
    return segment_sum(val * val * np.where(row == col, 1.0, 2.0), con, problem.m + 1)


def row_norms(problem: SdpProblem) -> np.ndarray:
    """Frobenius norms of the m + 1 rows, the cost last: sqrt(row_norms_sq)
    of the rows each scaled by 2**-e first, e the binary exponent of its
    largest |entry|, so that no square overflows or underflows. Scaling by a
    power of two is exact, so a row whose squares stay in range keeps its
    bits."""
    _, con, _, _, val = problem.entries
    top = np.zeros(problem.m + 1)
    np.maximum.at(top, con, np.abs(to_float_array(val)))
    exps = np.frexp(top)[1]
    rescaled = replace(problem, entries=problem.entries._replace(val=np.ldexp(val, -exps[con])))
    return np.ldexp(np.sqrt(row_norms_sq(rescaled)), exps)


def validate(problem: SdpProblem) -> None:
    """Check all SdpProblem invariants; raise ValidationError otherwise.

    A fault in the entry table is named by its row (constraint or cost),
    block and entry."""
    if problem.q < 1:
        raise ValidationError("problem needs at least one block")
    for i, n in enumerate(problem.block_sizes):
        if n < 1:
            raise ValidationError(f"block {i + 1}: size must be positive, got {n}")
    m = problem.m
    if not (1 <= problem.ineq_start <= m + 1):
        raise ValidationError(f"ineq_start out of range: {problem.ineq_start} with {m} constraints")
    if not all_finite(problem.rhs):
        raise ValidationError("nonfinite value in rhs")
    block, con, row, col, val = problem.entries
    n = np.take(problem.block_sizes, block, mode="clip")
    # (block, con, row * n + col) strictly increasing: table order, and no entry twice
    step = np.diff(block, prepend=-1)
    for key in (con, row * n + col):
        step = np.where(step != 0, step, np.diff(key, prepend=-1))
    faults = (
        ((block < 0) | (block >= problem.q), f"block index out of range 1..{problem.q}"),
        ((con < 0) | (con > m), f"constraint index out of range 0..{m}"),
        ((row < 0) | (col < 0) | (row >= n) | (col >= n), "entry outside the block's order {n}"),
        (row > col, "entry below the diagonal"),
        (step == 0, "duplicate entry"),
        (step < 0, "entry out of table order"),
        (~np.isfinite(to_float_array(val)), "nonfinite value"),
    )
    for bad, what in faults:
        if np.any(bad):
            t = int(np.argmax(bad))
            b = f"block {block[t] + 1}"
            where = f"cost {b}" if con[t] == m else f"constraint {con[t] + 1}, {b}"
            raise ValidationError(f"{where}: {what.format(n=n[t])} at ({row[t] + 1},{col[t] + 1})")
    empty = np.flatnonzero(np.bincount(con, minlength=m + 1)[:m] == 0)
    if len(empty):
        raise ValidationError(f"constraint {empty[0] + 1}: touches no block")


def as_kind(problem: SdpProblem, kind: ScalarKind) -> SdpProblem:
    """Re-instantiate the problem data at another scalar kind (exact promotion)."""
    entries = problem.entries._replace(val=kind.asarray(problem.entries.val))
    return replace(problem, entries=entries, rhs=kind.asarray(problem.rhs))


@dataclass(frozen=True)
class ScalingRecord:
    """Norms removed from the data by scale(); inverts the transformation."""

    cost_norm: object
    constraint_norms: np.ndarray
    primal_scale: object


def scale(problem: SdpProblem) -> tuple[SdpProblem, ScalingRecord]:
    """Normalize the data: unit Frobenius norm for every cost/constraint
    matrix, rhs divided per constraint by those norms, then the whole rhs by
    the equality sub-vector's l2 norm (inequality sub-vector's when there are
    no equalities). The last step is a change of primal variable X -> X/s, so
    the scaled problem is an exact reparametrization of the original.
    """
    one = problem.kind.scalar(1.0)
    norms = row_norms(problem)
    vacuous = np.flatnonzero(~(norms[:-1] > 0).astype(bool))
    if len(vacuous):
        raise ValidationError(f"constraint {vacuous[0] + 1}: zero-norm matrix (vacuous constraint)")
    if not norms[-1] > 0:
        norms[-1] = one
    inverse = one / norms
    entries = problem.entries._replace(val=problem.entries.val * inverse[problem.entries.con])

    cost_norm, norms = norms[-1], norms[:-1]
    rbar = problem.rhs / norms if problem.m else problem.rhs.copy()
    s = norm2(rbar[: problem.m_eq] if problem.m_eq else rbar)  # the inequalities' when there are no equalities
    primal = s if s > 0 else one
    scaled_rhs = rbar / primal if problem.m else rbar

    scaled = replace(problem, entries=entries, rhs=scaled_rhs)
    record = ScalingRecord(cost_norm, norms, primal)
    return scaled, record
