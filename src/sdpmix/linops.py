"""Sparse constraint-operator kernels on factored iterates.

The primal matrix is never materialized: every kernel works on the factors
V_i (shape k_i x n_i, X_i = V_i^T V_i) and on one entry table per block
(SdpProblem.entries), which holds the constraints and, as row m, the cost,
and on what SdpProblem.tables derives from them.
The error report's dense kernels (operator_rows on a dense X, combine_rows)
read the same tables.
Off-diagonal stored entries carry an implicit factor 2 in inner products;
the column slices below store each off-diagonal entry once per incident
column, so the factor 2 appears exactly once in each formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .ddouble import all_finite, dot, fsqrt, kind_of, norm2, segment_sum, to_float_array
from .errors import NumericalError
from .problem import OperatorTables, SdpProblem  # noqa: F401  (OperatorTables re-exported)


# -- operator rows and dense combinations ------------------------------------


def operator_rows(problem: SdpProblem, entry_values) -> np.ndarray:
    """<A_j, X> for every row j of the operator, the cost as row m.

    entry_values[b] holds X_b at block b's table entries; the rows are one
    segment sum per block, each row summed in table order.
    """
    m = problem.m
    out = problem.kind.zeros(m + 1)
    for x, (con, *_), wval in zip(entry_values, problem.entries, problem.tables.wval):
        if len(con):
            out = out + segment_sum(wval * x, con, m + 1)
    return out


def combine_rows(problem: SdpProblem, coef: np.ndarray) -> List[np.ndarray]:
    """sum_j coef_j A_j over the m+1 rows (coef[m] weighs the cost), one
    dense symmetric matrix per block.

    Each upper-triangle entry is one segment sum in table order, so it adds
    the constraints' terms in constraint order and the cost's last.
    """
    out = []
    for n, (con, row, col, val) in zip(problem.block_sizes, problem.entries):
        upper = segment_sum(val * coef[con], row * n + col, n * n).reshape(n, n)
        out.append(upper + upper.T - np.diag(np.diag(upper)))
    return out


@dataclass
class OperatorCache:
    """Constraint values A(X)||B(X) and the cost value for the current V."""

    values: np.ndarray
    cost_value: object

    @classmethod
    def fresh(cls, problem: SdpProblem, V_blocks) -> "OperatorCache":
        """Every row of the operator, cost included, from the entries of V^T V.

        Each distinct position of a block's table is one product of two
        columns of V, formed once and gathered for every entry there."""
        _check_shapes(problem, V_blocks)
        prods = [np.sum(V[:, prow] * V[:, pcol], axis=0)[inverse] if V.shape[0] else problem.kind.zeros(len(inverse))
                 for V, (prow, pcol, inverse) in zip(V_blocks, problem.tables.pairs)]
        out = operator_rows(problem, prods)
        return cls(out[:-1], out[-1])


def apply_operator(problem: SdpProblem, V_blocks) -> np.ndarray:
    """Constraint values <A_j, V^T V> summed over blocks, no dense X."""
    return OperatorCache.fresh(problem, V_blocks).values


def apply_adjoint(problem: SdpProblem, y: np.ndarray) -> List[np.ndarray]:
    """sum_j y_j A_j as one dense symmetric matrix per block."""
    if len(y) != problem.m:
        raise ValueError(f"dual vector length {len(y)} does not match {problem.m} constraints")
    return combine_rows(problem, np.concatenate([y, problem.kind.zeros(1)]))


def _check_shapes(problem: SdpProblem, V_blocks) -> None:
    if len(V_blocks) != problem.q:
        raise ValueError(f"expected {problem.q} factor blocks, got {len(V_blocks)}")
    for b, V in enumerate(V_blocks):
        if V.ndim != 2 or V.shape[1] != problem.block_sizes[b]:
            raise ValueError(
                f"factor block {b + 1} has shape {V.shape}, expected (k, {problem.block_sizes[b]})"
            )


# -- column slices and incremental updates ----------------------------------


@dataclass(frozen=True)
class ColSlice:
    """Everything touching one column of one block.

    sup lists the constraints with any entry in this column. The slots of a
    column are sup's positions, then one more for the cost: diag holds the
    (i, i) coefficient per slot, and (seg, row, val) are the off-diagonal
    full-column entries, seg giving each entry's slot and row its partner.
    """

    sup: np.ndarray
    diag: np.ndarray
    seg: np.ndarray
    row: np.ndarray
    val: np.ndarray


class ColumnSlices:
    """Per-column views of the entry tables, cost included.

    Each table entry is listed under every column it lies in: a diagonal
    entry once, an off-diagonal (r, c) under column r with partner c and
    under column c with partner r. One lexsort by (column, constraint,
    partner) makes each column's slice a contiguous run, constraints in
    ascending order and the cost (constraint m) last. slice64 gives the same
    slice with its coefficients rounded to binary64, for the column kernel.
    """

    def __init__(self, problem: SdpProblem):
        kind = problem.kind
        m = problem.m
        self.cost_coef = kind.asarray([1.0])  # the cost slot's coefficient in a column gradient
        self.by_block: List[List[ColSlice]] = []
        self.by_block64: List[List[ColSlice]] = []
        for n, (con, row, col, val) in zip(problem.block_sizes, problem.entries):
            mirror = row != col
            column = np.concatenate([row, col[mirror]])
            partner = np.concatenate([col, row[mirror]])
            cid = np.concatenate([con, con[mirror]])
            v = np.concatenate([val, val[mirror]])
            order = np.lexsort((partner, cid, column))
            column, partner, cid, v = column[order], partner[order], cid[order], v[order]

            # a group is one (column, constraint) run; its slot is its rank in
            # the column, so the cost, when present, takes slot len(sup)
            first = np.ones(len(cid), dtype=bool)
            first[1:] = (column[1:] != column[:-1]) | (cid[1:] != cid[:-1])
            gcid, gcol = cid[first], column[first]
            gstart = np.searchsorted(gcol, np.arange(n + 1))
            slot = np.cumsum(first) - 1 - gstart[column]

            # every column's len(sup) + 1 slots, laid end to end
            nsup = np.bincount(gcol[gcid < m], minlength=n)
            base = np.concatenate([[0], np.cumsum(nsup + 1)])
            on_diag = column == partner
            diag = kind.zeros(int(base[-1]))
            diag[(base[column] + slot)[on_diag]] = v[on_diag]

            off = ~on_diag
            seg, prow, pval = slot[off], partner[off], v[off]
            ends = np.searchsorted(column[off], np.arange(n + 1))

            def cut(diag, pval):
                return [ColSlice(sup=gcid[gstart[i]:gstart[i] + nsup[i]], diag=diag[base[i]:base[i + 1]],
                                 seg=seg[ends[i]:ends[i + 1]], row=prow[ends[i]:ends[i + 1]],
                                 val=pval[ends[i]:ends[i + 1]])
                        for i in range(n)]

            self.by_block.append(cut(diag, pval))
            self.by_block64.append(cut(to_float_array(diag), to_float_array(pval))
                                   if kind.is_extended else self.by_block[-1])

    def slice(self, block: int, i: int) -> ColSlice:
        return self.by_block[block][i]

    def slice64(self, block: int, i: int) -> ColSlice:
        return self.by_block64[block][i]


def column_deltas(sl: ColSlice, V: np.ndarray, i: int, v_start, v_trial) -> np.ndarray:
    """Increments of the operator values on sl.sup, then of the cost value,
    when column i moves from v_start to v_trial.

    Cost O(k n + nnz of the slice): one dense V^T d product and sparse
    gathers; entries off the support are untouched.
    """
    d = v_trial - v_start
    w = V.T @ d if V.shape[0] else kind_of(V).zeros(V.shape[1])
    delta = sl.diag * (dot(v_trial, v_trial) - dot(v_start, v_start))
    if len(sl.row):
        delta = delta + 2.0 * segment_sum(sl.val * w[sl.row], sl.seg, len(sl.diag))
    return delta


def commit_column(cache: OperatorCache, slices: ColumnSlices, V_blocks, block: int, i: int, v_new) -> None:
    """Replace column i and update the cache through the incremental rule."""
    V = V_blocks[block]
    v_start = V[:, i].copy()
    if np.array_equal(v_start, v_new):
        return
    sl = slices.slice(block, i)
    delta = column_deltas(sl, V, i, v_start, v_new)
    if len(sl.sup):
        cache.values[sl.sup] += delta[:-1]
    cache.cost_value = cache.cost_value + delta[-1]
    V[:, i] = v_new


# -- eigendecomposition and PSD projection ----------------------------------


def jacobi_eigh(M: np.ndarray, max_sweeps: int = 100):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Works at either scalar kind; project_psd uses it only to refine a
    LAPACK starting basis in double-double. Returns eigenvalues ascending
    and the matching orthonormal columns.
    """
    kind = kind_of(M)
    n = M.shape[0]
    if not all_finite(M):
        raise NumericalError(f"eigensolver: nonfinite entry in the order-{n} input")
    A = kind.asarray(M).copy()
    U = kind.zeros((n, n))
    for t in range(n):
        U[t, t] = kind.from_float(1.0)
    if n <= 1:
        return np.diag(A).copy(), U

    frob = fsqrt(np.sum(A * A))
    if not frob > 0:
        return np.diag(A).copy(), U
    tol = kind.from_float(float(4 * n)) * kind.from_float(kind.epsilon) * frob

    for _ in range(max_sweeps):
        off_sq = kind.from_float(0.0)
        for p in range(n - 1):
            off_sq = off_sq + dot(A[p, p + 1 :], A[p, p + 1 :])
        if not fsqrt(off_sq + off_sq) > tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if not abs(apq) > 0:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                if abs(tau) > 1.0 / kind.epsilon:
                    t_rot = 0.5 / tau  # tau * tau would overflow, and dd turns inf into NaN
                else:
                    root = fsqrt(1.0 + tau * tau)
                    t_rot = 1.0 / (tau + root) if tau >= 0 else 1.0 / (tau - root)
                c = 1.0 / fsqrt(1.0 + t_rot * t_rot)
                s = t_rot * c
                _rotate(A, U, p, q, c, s)
    else:
        raise NumericalError(f"eigensolver: no convergence in {max_sweeps} sweeps (order {n})")

    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    return w[order], U[:, order]


def _rotate(A, U, p, q, c, s):
    Ap = A[:, p].copy()
    Aq = A[:, q].copy()
    A[:, p] = c * Ap - s * Aq
    A[:, q] = s * Ap + c * Aq
    Ap = A[p, :].copy()
    Aq = A[q, :].copy()
    A[p, :] = c * Ap - s * Aq
    A[q, :] = s * Ap + c * Aq
    Up = U[:, p].copy()
    Uq = U[:, q].copy()
    U[:, p] = c * Up - s * Uq
    U[:, q] = s * Up + c * Uq


def _refined_eigh(S: np.ndarray):
    """Double-double eigendecomposition seeded from binary64 LAPACK.

    The eigenvectors of the binary64 rounding of S are promoted exactly and
    orthonormalized once in dd (modified Gram-Schmidt), giving Q. Q^T S Q is
    then diagonal up to binary64 roundoff, so the Jacobi sweeps on it
    converge quadratically from the first sweep (Ogita and Aishima 2018
    refine the same kind of starting basis). Returns ascending eigenvalues
    and Q W, W the Jacobi eigenvectors of Q^T S Q.
    """
    kind = kind_of(S)
    _, U = np.linalg.eigh(to_float_array(S))
    Q = kind.asarray(U)
    for j in range(Q.shape[1]):
        v = Q[:, j]
        for i in range(j):
            v = v - dot(Q[:, i], v) * Q[:, i]
        Q[:, j] = v / norm2(v)
    T = Q.T @ S @ Q
    w, W = jacobi_eigh((T + T.T) * 0.5)
    return w, Q @ W


def project_psd(M: np.ndarray) -> np.ndarray:
    """Metric projection onto the PSD cone: zero out negative eigenvalues.

    binary64 input goes to LAPACK (np.linalg.eigh); double-double input to
    _refined_eigh. Nonfinite input raises NumericalError.
    """
    if not all_finite(M):
        raise NumericalError(f"PSD projection: nonfinite entry in the order-{M.shape[0]} input")
    S = (M + M.T) * 0.5
    kind = kind_of(S)
    w, U = _refined_eigh(S) if kind.is_extended else np.linalg.eigh(S)
    Z = (U * np.maximum(w, kind.from_float(0.0))) @ U.T
    return (Z + Z.T) * 0.5
