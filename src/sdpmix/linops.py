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

from .ddouble import DOUBLE_DOUBLE, all_finite, kind_of, segment_sum, to_float_array
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


def apply_adjoint(problem: SdpProblem, y: np.ndarray) -> List[np.ndarray]:
    """sum_j y_j A_j as one dense symmetric matrix per block.

    The solver calls combine_rows; this stays only because perfbench's
    tracer (perfbench/tracer.py) wraps it by name."""
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

    sup lists the constraints with any entry in this column, the first n_eq
    equalities. The slots are sup's positions, then one for the cost: diag
    holds the (i, i) coefficient per slot, and (seg, row, val) the entries
    off the diagonal, seg giving each entry's slot and row its partner.
    """

    sup: np.ndarray
    n_eq: int
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
    ascending order and the cost (constraint m) last; by_block64 holds them
    with binary64 coefficients, for the column kernel.
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
            n_eq = np.bincount(gcol[gcid < problem.m_eq], minlength=n).tolist()
            base = np.concatenate([[0], np.cumsum(nsup + 1)])
            on_diag = column == partner
            diag = kind.zeros(int(base[-1]))
            diag[(base[column] + slot)[on_diag]] = v[on_diag]

            off = ~on_diag
            seg, prow, pval = slot[off], partner[off], v[off]
            ends = np.searchsorted(column[off], np.arange(n + 1))

            def cut(diag, pval):
                return [ColSlice(sup=gcid[gstart[i]:gstart[i] + nsup[i]], n_eq=n_eq[i], diag=diag[base[i]:base[i + 1]],
                                 seg=seg[ends[i]:ends[i + 1]], row=prow[ends[i]:ends[i + 1]],
                                 val=pval[ends[i]:ends[i + 1]])
                        for i in range(n)]

            self.by_block.append(cut(diag, pval))
            self.by_block64.append(cut(to_float_array(diag), to_float_array(pval))
                                   if kind.is_extended else self.by_block[-1])


def _slot_matrix(sl: ColSlice, V: np.ndarray) -> np.ndarray:
    """The slot matrix U = M V^T, M holding each slot's entries by partner
    (one bincount): row j is sum val V[:, partner] over slot j's entries."""
    n, rows = V.shape[1], len(sl.diag)
    return np.bincount(sl.seg * n + sl.row, weights=sl.val, minlength=rows * n).reshape(rows, n) @ V.T


def column_deltas(diag: np.ndarray, U: np.ndarray, v0: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Increments DV = diag (2 v0.d + |d|^2) + 2 U d of a column's slots (sup,
    then the cost) when it moves by d from v0, in binary64 on its slot
    matrix U. No |v|^2 terms cancel, so DV_j is accurate to a few units of
    roundoff of its terms' magnitudes."""
    return diag * (2.0 * (v0 @ d) + d @ d) + 2.0 * (U @ d)


def commit_column(cache: OperatorCache, V: np.ndarray, i: int, model, d: np.ndarray) -> None:
    """Install column i = model.v_start + d in the problem's kind and add the
    increments of the column's model (auglag.ColumnContext) at d to the cache,
    accurate relative to them until its next fresh recomputation."""
    if d is model.start:
        return
    delta = model.deltas(d)
    cache.values[model.sup] += delta[:-1]
    cache.cost_value = cache.cost_value + delta[-1]
    V[:, i] = model.v_start + d


# -- PSD projection -------------------------------------------------------------

_REFINE_STEPS = 10  # quadratic convergence needs 2 or 3 from a LAPACK start; close pairs a few more


def _refined_basis(S):
    """Ogita and Aishima's refinement (JJIAM 35, 2018) of the binary64
    LAPACK eigenvectors of a double-double symmetric S.

    Each step forms R = I - X^T X and T = X^T S X in double-double, takes
    the eigenvalue estimates lam_i = t_ii / (1 - r_ii) and moves X to
    X (I + E), with E_ij = (t_ij + lam_j r_ij) / (lam_j - lam_i) between
    eigenvalues of different clusters and r_ij / 2 within one; E needs only
    binary64 precision. A cluster is a chain of estimates closer than
    2 (||T - diag(lam)|| + ||S|| ||R||), fixed at the first step. Returns X,
    T and each column's cluster label once R and T's entries between
    clusters are down to double-double roundoff (or after _REFINE_STEPS
    steps): X is orthonormal and T block diagonal over the clusters.
    """
    n = len(S)
    w, X = np.linalg.eigh(to_float_array(S))
    X = kind_of(S).asarray(X)
    norm = float(np.abs(w).max(initial=0.0))
    tol = n * DOUBLE_DOUBLE.epsilon
    for step in range(_REFINE_STEPS + 1):
        T = (S @ X).T @ X
        T = (T + T.T) * 0.5
        R = np.eye(n) - X.T @ X
        lam = np.diag(T) / (1.0 - np.diag(R))
        T64, R64 = to_float_array(T), to_float_array(R)
        if step == 0:
            lam64 = to_float_array(lam)
            delta = 2.0 * (np.linalg.norm(T64 - np.diag(lam64)) + norm * np.linalg.norm(R64))
            order = np.argsort(lam64)
            label = np.empty(n, dtype=np.intp)
            label[order] = np.cumsum(np.diff(lam64[order], prepend=lam64[order[:1]]) > delta)
            between = label[:, None] != label[None, :]
        converged = np.abs(R64).max() <= tol and np.abs(T64[between]).max(initial=0.0) <= tol * norm
        if converged or step == _REFINE_STEPS:
            return X, T, label
        num = to_float_array(T + lam[None, :] * R)
        gap = to_float_array(lam[None, :] - lam[:, None])
        E = 0.5 * R64
        E[between] = num[between] / gap[between]
        X = X + X @ E


def _refined_projection(S):
    """PSD projection of a double-double symmetric S on the refined basis
    X: Z = X P X^T, P the projection of T = X^T S X cluster by cluster. A
    single eigenvalue keeps max(t_ii, 0); a cluster keeps its block of T
    when the block's eigenvalues are all >= 0 and is dropped when they are
    all <= 0. A cluster that straddles 0 has eigenvalues within its spread
    of 0, so its entries are tiny and a binary64 eigh splits it accurately
    enough."""
    X, T, label = _refined_basis(S)
    kind = kind_of(S)
    sizes = np.bincount(label)
    d = np.diag(T)
    single = np.flatnonzero((sizes[label] == 1) & (d > 0))
    cols, rows = [X[:, single] * d[single]], [X[:, single]]
    for c in np.flatnonzero(sizes > 1):
        idx = np.flatnonzero(label == c)
        B = T[np.ix_(idx, idx)]
        w, W = np.linalg.eigh(to_float_array(B))
        if w[-1] <= 0:
            continue
        if w[0] < 0:
            B = kind.asarray((W * np.maximum(w, 0.0)) @ W.T)
        cols.append(X[:, idx] @ B)
        rows.append(X[:, idx])
    return np.concatenate(cols, axis=1) @ np.concatenate(rows, axis=1).T


def project_psd(M: np.ndarray) -> np.ndarray:
    """Metric projection onto the PSD cone: zero out negative eigenvalues.

    binary64 input goes to LAPACK (np.linalg.eigh); double-double input to
    _refined_projection. Nonfinite input raises NumericalError.
    """
    if not all_finite(M):
        raise NumericalError(f"PSD projection: nonfinite entry in the order-{M.shape[0]} input")
    S = (M + M.T) * 0.5
    if kind_of(S).is_extended:
        Z = _refined_projection(S)
    else:
        w, U = np.linalg.eigh(S)
        Z = (U * np.maximum(w, 0.0)) @ U.T
    return (Z + Z.T) * 0.5
