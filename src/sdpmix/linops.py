"""Sparse constraint-operator kernels on factored iterates.

The primal matrix is never materialized: every kernel works on the factor
matrix V (auglag.IterateState.V), whose block b holds V_b of shape
k_b x n_b with X_b = V_b^T V_b, on the one entry table
(SdpProblem.entries), which holds the constraints and, as row m, the cost,
block by block, and on what SdpProblem.tables derives from it: the table
of its distinct positions in V's columns and each block's run of the
table. So the operator's rows at V are one gather of column products and
one segment sum, and the column slices one sort, whatever the number of
blocks. The error report's dense kernels (operator_rows on a dense X,
combine_rows) read the same table, combine_rows as one segment sum too.
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

    entry_values holds X at every table entry, in table order; the rows are
    one segment sum, each row summed in that order.
    """
    return segment_sum(problem.tables.wval * entry_values, problem.entries.con, problem.m + 1)


def combine_rows(problem: SdpProblem, coef: np.ndarray) -> List[np.ndarray]:
    """sum_j coef_j A_j over the m+1 rows (coef[m] weighs the cost), one
    dense symmetric matrix per block.

    The upper-triangle entries of all blocks are one segment sum over the
    table, each entry in table order, so it adds the constraints' terms in
    constraint order and the cost's last.
    """
    block, con, row, col, val = problem.entries
    sizes = np.array(problem.block_sizes)
    base = np.concatenate([[0], np.cumsum(sizes * sizes)])
    upper = segment_sum(val * coef[con], base[block] + row * sizes[block] + col, int(base[-1]))
    out = []
    for n, start in zip(problem.block_sizes, base):
        u = upper[start:start + n * n].reshape(n, n)
        out.append(u + u.T - np.diag(np.diag(u)))
    return out


@dataclass
class OperatorCache:
    """Constraint values A(X)||B(X) and the cost value for the current V."""

    values: np.ndarray
    cost_value: object

    @classmethod
    def fresh(cls, problem: SdpProblem, V) -> "OperatorCache":
        """Every row of the operator, cost included, from the entries of V^T V,
        V the factor matrix (auglag.IterateState.V).

        Each distinct position of the tables is one product of two columns
        of V, formed once and gathered for every entry there; the rows
        beyond a block's rank are zero and add nothing."""
        prow, pcol, inverse = problem.tables.pairs
        out = operator_rows(problem, np.sum(V[:, prow] * V[:, pcol], axis=0)[inverse])
        return cls(out[:-1], out[-1])


def apply_adjoint(problem: SdpProblem, y: np.ndarray) -> List[np.ndarray]:
    """sum_j y_j A_j as one dense symmetric matrix per block.

    The solver calls combine_rows; this stays only because perfbench's
    tracer (perfbench/tracer.py) wraps it by name."""
    if len(y) != problem.m:
        raise ValueError(f"dual vector length {len(y)} does not match {problem.m} constraints")
    return combine_rows(problem, np.concatenate([y, problem.kind.zeros(1)]))


# -- column slices and incremental updates ----------------------------------


@dataclass(frozen=True)
class ColSlice:
    """Everything touching one column i of one block.

    sup lists the constraints with any entry in this column, the first n_eq
    equalities. The slots are sup's positions, then one for the cost:
    (cell, val) holds every entry of the column, the diagonal one included,
    at cell = slot * n_b + partner (partner i on the diagonal): the cells of
    the slot matrix (slot_matrix).
    """

    sup: np.ndarray
    n_eq: int
    cell: np.ndarray
    val: np.ndarray


class ColumnSlices:
    """Per-column views of the entry table, cost included, with binary64
    coefficients (the column kernel's arithmetic) at either kind.

    Each table entry is listed under every column it lies in: a diagonal
    entry once, an off-diagonal (r, c) under column r with partner c and
    under column c with partner r. A column is numbered by its column in the
    factor matrix, a partner by its row within the block. One lexsort by
    (column, constraint, partner) makes each column's slice a contiguous
    run, constraints in ascending order and the cost (constraint m) last;
    by_block[b][i] is column i of block b.
    """

    def __init__(self, problem: SdpProblem):
        m = problem.m
        block, con, row, col, val = problem.entries
        at = problem.tables.offsets
        n = int(at[-1])
        mirror = row != col
        column = np.concatenate([row, col[mirror]]) + at[np.concatenate([block, block[mirror]])]
        partner = np.concatenate([col, row[mirror]])
        cid = np.concatenate([con, con[mirror]])
        v = to_float_array(np.concatenate([val, val[mirror]]))
        order = np.lexsort((partner, cid, column))
        column, partner, cid, v = column[order], partner[order], cid[order], v[order]

        # a group is one (column, constraint) run; its slot is its rank in
        # the column, so the cost, when present, takes slot len(sup)
        first = np.ones(len(cid), dtype=bool)
        first[1:] = (column[1:] != column[:-1]) | (cid[1:] != cid[:-1])
        gcid, gcol = cid[first], column[first]
        gstart = np.searchsorted(gcol, np.arange(n + 1))
        slot = np.cumsum(first) - 1 - gstart[column]
        cell = slot * np.repeat(np.diff(at), np.diff(at))[column] + partner

        nsup = np.bincount(gcol[gcid < m], minlength=n)
        n_eq = np.bincount(gcol[gcid < problem.m_eq], minlength=n).tolist()
        ends = np.searchsorted(column, np.arange(n + 1))
        columns = [ColSlice(sup=gcid[gstart[i]:gstart[i] + nsup[i]], n_eq=n_eq[i],
                            cell=cell[ends[i]:ends[i + 1]], val=v[ends[i]:ends[i + 1]])
                   for i in range(n)]
        self.by_block: List[List[ColSlice]] = [columns[s:e] for s, e in zip(at[:-1], at[1:])]


def slot_matrix(sl: ColSlice, n: int) -> np.ndarray:
    """The slot matrix M (len(sup) + 1 slots x n) of column i of an order-n
    block: M[j, p] = (A_j)_ip, so M's column i holds the slots' diagonal
    coefficients and (M V^T)[j] = sum_p (A_j)_ip V[:, p]."""
    return np.bincount(sl.cell, weights=sl.val, minlength=(len(sl.sup) + 1) * n).reshape(-1, n)


def column_deltas(diag: np.ndarray, W0: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Increments DV = 2 W0 d + diag |d|^2 of a column's slots (sup, then the
    cost) when it moves by d from v0, in binary64 on W0 = M V^T (slot_matrix).
    No |v|^2 terms cancel, so DV_j is accurate to a few units of roundoff of
    its terms' magnitudes."""
    return 2.0 * (W0 @ d) + diag * (d @ d)


def commit_column(cache: OperatorCache, V: np.ndarray, i: int, model, d: np.ndarray) -> None:
    """Install the move d of column i, whose model (auglag.ColumnContext) has
    the slot increments at d. A binary64 column becomes model.v_start + d and
    the increments go to the cache, accurate relative to them until its next
    fresh recomputation; an extended-kind column's move and increments go to
    the sweep's binary64 arrays (auglag.SweepResidual), folded into V and the
    cache once per sweep."""
    if d is model.start:
        return
    delta = model.deltas(d)
    if model.sweep is not None:
        model.sweep.add_move(model.block, i, model.sup, d, delta)
        return
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
