"""Sparse constraint-operator kernels on factored iterates.

The primal matrix is never materialized: every kernel works on the factors
V_i (shape k_i x n_i, X_i = V_i^T V_i) and on the upper-triangle triplets of
the data. Off-diagonal stored entries carry an implicit factor 2 in inner
products; the column slices below store each off-diagonal entry once per
incident column, so the factor 2 appears exactly once in each formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .ddouble import all_finite, dot, fsqrt, is_finite_scalar, kind_of, norm2, segment_sum, to_float_array
from .errors import NumericalError
from .problem import SdpProblem


# -- full operator application ----------------------------------------------


class OperatorTables:
    """Flat per-block entry tables for vectorized operator evaluation."""

    def __init__(self, problem: SdpProblem):
        kind = problem.kind
        self.blocks = []
        self.cost_blocks = []
        for b in range(problem.q):
            cons_ids, rows, cols, wv = [], [], [], []
            for j, con in enumerate(problem.constraints):
                for bb, mat in con:
                    if bb != b:
                        continue
                    cons_ids.extend([j] * mat.nnz)
                    rows.extend(mat.rows.tolist())
                    cols.extend(mat.cols.tolist())
                    w = mat._weights()
                    wv.extend((mat.vals * w).tolist())
            self.blocks.append(
                (
                    np.array(cons_ids, dtype=np.int64),
                    np.array(rows, dtype=np.int64),
                    np.array(cols, dtype=np.int64),
                    kind.asarray(wv),
                )
            )
            cm = problem.costs[b]
            self.cost_blocks.append((cm.rows, cm.cols, kind.asarray(cm.vals * cm._weights())))


def apply_operator(problem: SdpProblem, V_blocks, tables: OperatorTables | None = None) -> np.ndarray:
    """Constraint values <A_j, V^T V> summed over blocks, no dense X."""
    _check_shapes(problem, V_blocks)
    if tables is None:
        tables = OperatorTables(problem)
    kind = problem.kind
    out = kind.zeros(problem.m)
    for b, (cons_ids, rows, cols, wv) in enumerate(tables.blocks):
        if len(cons_ids) == 0:
            continue
        V = V_blocks[b]
        prod = np.sum(V[:, rows] * V[:, cols], axis=0) if V.shape[0] else kind.zeros(len(rows))
        out = out + segment_sum(wv * prod, cons_ids, problem.m)
    return out


def apply_cost(problem: SdpProblem, V_blocks, tables: OperatorTables | None = None):
    """Objective value <C, V^T V>."""
    _check_shapes(problem, V_blocks)
    if tables is None:
        tables = OperatorTables(problem)
    kind = problem.kind
    total = kind.from_float(0.0)
    for b, (rows, cols, wv) in enumerate(tables.cost_blocks):
        if len(rows) == 0:
            continue
        V = V_blocks[b]
        if V.shape[0] == 0:
            continue
        prod = np.sum(V[:, rows] * V[:, cols], axis=0)
        total = total + np.sum(wv * prod)
    return total


def apply_adjoint(problem: SdpProblem, y: np.ndarray) -> List[np.ndarray]:
    """sum_j y_j A_j as one dense symmetric matrix per block."""
    if len(y) != problem.m:
        raise ValueError(f"dual vector length {len(y)} does not match {problem.m} constraints")
    kind = problem.kind
    out = [kind.zeros((n, n)) for n in problem.block_sizes]
    for j, con in enumerate(problem.constraints):
        yj = y[j]
        for b, mat in con:
            if mat.nnz:
                out[b][mat.rows, mat.cols] += mat.vals * yj
    for b in range(problem.q):
        upper = out[b]
        out[b] = upper + upper.T - np.diag(np.diag(upper))
    return out


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

    sup lists the constraints with any entry in this column; diag holds the
    (i, i) coefficients aligned with sup; (seg, row, val) are the off-diagonal
    full-column entries, seg mapping each to its position in sup.
    """

    sup: np.ndarray
    diag: np.ndarray
    seg: np.ndarray
    row: np.ndarray
    val: np.ndarray
    cost_row: np.ndarray
    cost_val: np.ndarray
    cost_diag: object


class ColumnSlices:
    """Per-column views of all constraint and cost data."""

    def __init__(self, problem: SdpProblem):
        kind = problem.kind
        self.kind = kind
        self.by_block: List[List[ColSlice]] = []
        for b, n in enumerate(problem.block_sizes):
            diag_maps = [dict() for _ in range(n)]
            off_maps = [dict() for _ in range(n)]  # col -> {j: [(row, val)]}
            for j, con in enumerate(problem.constraints):
                for bb, mat in con:
                    if bb != b:
                        continue
                    for r, c, v in zip(mat.rows.tolist(), mat.cols.tolist(), mat.vals.tolist()):
                        if r == c:
                            diag_maps[r][j] = v
                        else:
                            off_maps[r].setdefault(j, []).append((c, v))
                            off_maps[c].setdefault(j, []).append((r, v))
            cost = problem.costs[b]
            slices = []
            for i in range(n):
                sup = sorted(set(diag_maps[i]) | set(off_maps[i]))
                pos = {j: t for t, j in enumerate(sup)}
                diag = kind.zeros(len(sup))
                for j, v in diag_maps[i].items():
                    diag[pos[j]] = v
                seg, row, val = [], [], []
                for j, pairs in off_maps[i].items():
                    for r, v in pairs:
                        seg.append(pos[j])
                        row.append(r)
                        val.append(v)
                crow, cval = cost.column(i)
                cdiag = kind.from_float(0.0)
                keep = crow != i
                if not np.all(keep):
                    cdiag = cval[~keep][0]
                slices.append(
                    ColSlice(
                        sup=np.array(sup, dtype=np.int64),
                        diag=diag,
                        seg=np.array(seg, dtype=np.int64),
                        row=np.array(row, dtype=np.int64),
                        val=kind.asarray(val),
                        cost_row=crow[keep],
                        cost_val=cval[keep] if len(cval) else kind.zeros(0),
                        cost_diag=cdiag,
                    )
                )
            self.by_block.append(slices)

    def slice(self, block: int, i: int) -> ColSlice:
        return self.by_block[block][i]

    def reassemble(self, problem: SdpProblem) -> bool:
        """Check the slices reproduce the constraint matrices exactly."""
        for b, n in enumerate(problem.block_sizes):
            dense = {}
            for i, sl in enumerate(self.by_block[b]):
                for t, j in enumerate(sl.sup.tolist()):
                    dense.setdefault(j, self.kind.zeros((n, n)))[i, i] += sl.diag[t]
                for s, r, v in zip(sl.seg.tolist(), sl.row.tolist(), sl.val.tolist()):
                    if r > i:
                        j = int(sl.sup[s])
                        D = dense.setdefault(j, self.kind.zeros((n, n)))
                        D[i, r] += v
                        D[r, i] += v
            for j, con in enumerate(problem.constraints):
                for bb, mat in con:
                    if bb != b:
                        continue
                    got = dense.get(j, self.kind.zeros((n, n)))
                    if not np.all(got == mat.to_dense()):
                        return False
        return True


@dataclass
class OperatorCache:
    """Constraint values A(X)||B(X) and the cost value for the current V."""

    values: np.ndarray
    cost_value: object

    @classmethod
    def fresh(cls, problem: SdpProblem, V_blocks, tables: OperatorTables) -> "OperatorCache":
        return cls(apply_operator(problem, V_blocks, tables), apply_cost(problem, V_blocks, tables))

    def copy(self) -> "OperatorCache":
        return OperatorCache(self.values.copy(), self.cost_value)


def column_deltas(sl: ColSlice, V: np.ndarray, i: int, v_start, v_trial):
    """Increments of the operator values on sl.sup when column i moves
    from v_start to v_trial, plus the cost-value increment.

    Cost O(k n + nnz of the slice): one dense V^T d product and sparse
    gathers; entries off the support are untouched.
    """
    d = v_trial - v_start
    w = V.T @ d if V.shape[0] else kind_of(V).zeros(V.shape[1])
    w[i] = w[i] * 0.0  # column i of V-bar(0) is zero
    dn = dot(v_trial, v_trial) - dot(v_start, v_start)
    delta = sl.diag * dn
    if len(sl.row):
        contrib = segment_sum(sl.val * w[sl.row], sl.seg, len(sl.sup))
        delta = delta + 2.0 * contrib
    cost_delta = sl.cost_diag * dn
    if len(sl.cost_row):
        cost_delta = cost_delta + 2.0 * dot(sl.cost_val, w[sl.cost_row])
    return delta, cost_delta


def incremental_operator_values(
    cache: OperatorCache,
    slices: ColumnSlices,
    V_blocks,
    block: int,
    i: int,
    v_start,
    v_trial,
) -> np.ndarray:
    """Operator values after substituting v_trial for column i of the given
    block, from the cached values at v_start."""
    sl = slices.slice(block, i)
    delta, _ = column_deltas(sl, V_blocks[block], i, v_start, v_trial)
    out = cache.values.copy()
    if len(sl.sup):
        out[sl.sup] += delta
    return out


def commit_column(cache: OperatorCache, slices: ColumnSlices, V_blocks, block: int, i: int, v_new) -> None:
    """Replace column i and update the cache through the incremental rule."""
    V = V_blocks[block]
    v_start = V[:, i].copy()
    if np.array_equal(v_start, v_new):
        return
    sl = slices.slice(block, i)
    delta, cost_delta = column_deltas(sl, V, i, v_start, v_new)
    if len(sl.sup):
        cache.values[sl.sup] += delta
    cache.cost_value = cache.cost_value + cost_delta
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
    A = kind.asarray(M).copy()
    U = kind.zeros((n, n))
    for t in range(n):
        U[t, t] = kind.from_float(1.0)
    if n <= 1:
        return np.diag(A).copy(), U

    frob = fsqrt(np.sum(A * A))
    if not is_finite_scalar(frob):
        raise NumericalError(f"eigensolver: nonfinite matrix norm (order {n})")
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
