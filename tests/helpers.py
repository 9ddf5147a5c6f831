"""Shared test utilities: random problem builders and independent dense oracles.

The oracles here deliberately work on dense numpy matrices and straight
formula transcriptions, independent of the package's sparse kernels.
"""

from dataclasses import replace

import numpy as np

from sdpmix.auglag import ColumnContext
from sdpmix.ddouble import DDArray, dot, to_float_array
from sdpmix.errors import NumericalError
from sdpmix.linops import OperatorCache, _slot_matrix, apply_adjoint, column_deltas, commit_column
from sdpmix.problem import SdpProblem, scale
from sdpmix.solver import SolverOptions, WarmStart, init_state


def words_equal(a, b) -> bool:
    """Whether a and b, arrays or scalars of either kind, have the same
    shape and the same words bit for bit (a binary64 value's low word is 0)."""
    def words(x):
        if isinstance(x, DDArray):
            return x.hi, x.lo
        hi = np.asarray(x, dtype=np.float64)
        return hi, np.zeros_like(hi)

    (ah, al), (bh, bl) = words(a), words(b)
    return bool(np.array_equal(ah, bh) and np.array_equal(al, bl))


def build_problem(block_sizes, costs, constraints, rhs, ineq_start):
    """The problem of per-matrix (row, col, value) triplets: costs[b] lists
    block b's cost entries, constraints[j] maps a block to the entries of
    constraint j there. The triplets are flattened into from_entries."""
    m = len(rhs)
    lines = [(m, b, r, c, v) for b, ents in enumerate(costs) for r, c, v in ents]
    lines += [(j, b, r, c, v) for j, con in enumerate(constraints) for b, ents in dict(con).items() for r, c, v in ents]
    return SdpProblem.from_entries(block_sizes, rhs, ineq_start, *(zip(*lines) if lines else ([],) * 5))


def start_at_mu(problem, mu):
    """The start of a solve of `problem` at the default seed, as a warm
    start in its scaled space, with the penalty mu in place of the default."""
    scaled = scale(problem)[0]
    start = init_state(scaled, SolverOptions())
    return WarmStart(start.V_blocks, np.zeros(scaled.m_eq), np.zeros(scaled.m_ineq), mu)


def dense_row(problem, j, b):
    """Row j of the operator (the cost when j == m) in block b, as a dense
    symmetric matrix of the problem's kind, from the entry table."""
    con, row, col, val = problem.entries[b]
    n = problem.block_sizes[b]
    out = problem.kind.zeros((n, n))
    at = con == j
    out[row[at], col[at]] = val[at]
    out[col[at], row[at]] = val[at]
    return out


def dense_entries(M):
    """The (row, col, value) triplets of the nonzero upper-triangle entries of a dense symmetric M."""
    M = np.asarray(M)
    n = M.shape[0]
    return [(r, c, M[r, c]) for r in range(n) for c in range(r, n) if M[r, c] != 0]


def problem_equals(p, q):
    """Same block sizes, ineq_start, right-hand side and entry tables, value for value."""
    if p.block_sizes != q.block_sizes or p.ineq_start != q.ineq_start or p.m != q.m:
        return False
    if not words_equal(p.rhs, q.rhs):
        return False
    return all(
        len(a) == len(b) and bool(np.all(a == b))
        for ta, tb in zip(p.entries, q.entries)
        for a, b in zip(ta, tb)
    )


def random_triplets(rng, n, density=0.6, ensure_nonzero=True):
    """(row, col, value) triplets of a random symmetric matrix of order n."""
    entries = []
    for r in range(n):
        for c in range(r, n):
            if rng.random() < density:
                entries.append((r, c, rng.uniform(-1.0, 1.0)))
    if ensure_nonzero and not entries:
        entries.append((0, min(1, n - 1), rng.uniform(0.5, 1.0)))
    return entries


def random_problem(seed, block_sizes=(4,), m_eq=3, m_ineq=0, density=0.6):
    """A random well-formed SDP; every constraint touches every block."""
    rng = np.random.default_rng(seed)
    block_sizes = tuple(block_sizes)
    costs = [random_triplets(rng, n, density) for n in block_sizes]
    constraints = []
    m = m_eq + m_ineq
    for _ in range(m):
        constraints.append({b: random_triplets(rng, n, density) for b, n in enumerate(block_sizes)})
    rhs = rng.uniform(-1.0, 1.0, size=m)
    return build_problem(block_sizes, costs, constraints, rhs, ineq_start=m_eq + 1)


def uneven_problem(seed):
    """Three blocks, two equalities and two inequalities: constraint 0 skips
    block 0, block 1 has a zero cost, and no constraint touches block 2."""
    rng = np.random.default_rng(seed)
    sizes = (3, 4, 2)
    costs = [random_triplets(rng, 3), [], random_triplets(rng, 2)]
    constraints = [{1: random_triplets(rng, 4)}] + [
        {0: random_triplets(rng, 3), 1: random_triplets(rng, 4)} for _ in range(3)
    ]
    return build_problem(sizes, costs, constraints, rng.uniform(-1.0, 1.0, size=4), ineq_start=3)


def ceil_sqrt(x: int) -> int:
    import math

    s = math.isqrt(x)
    return s if s * s == x else s + 1


def random_V_blocks(rng, problem, k=None):
    out = []
    for n in problem.block_sizes:
        ki = k if k is not None else min(n, ceil_sqrt(2 * problem.m))
        out.append(rng.standard_normal((ki, n)))
    return out


def dense_cost(problem):
    return [dense_row(problem, problem.m, b) for b in range(problem.q)]


def dense_constraint(problem, j):
    """Per-block dense matrices of constraint j (zeros where absent)."""
    return [dense_row(problem, j, b) for b in range(problem.q)]


def dense_apply_oracle(problem, X_blocks):
    """<A_j, X> summed over blocks, via dense matrices."""
    out = np.zeros(problem.m)
    for j in range(problem.m):
        for b, A in enumerate(dense_constraint(problem, j)):
            out[j] += np.tensordot(A, X_blocks[b])
    return out


def dense_adjoint_oracle(problem, y):
    """sum_j y_j A_j per block, via dense matrices."""
    out = [np.zeros((n, n)) for n in problem.block_sizes]
    for j in range(problem.m):
        for b, A in enumerate(dense_constraint(problem, j)):
            out[b] += y[j] * A
    return out


def dense_row_norms_sq(problem):
    """Squared Frobenius norms of the m + 1 rows, the cost last, as sums
    over every entry of the dense matrices, in the problem's kind."""
    out = problem.kind.zeros(problem.m + 1)
    for j in range(problem.m + 1):
        for b in range(problem.q):
            D = dense_row(problem, j, b)
            out[j] = out[j] + np.sum(D * D)
    return out


def jacobi_eigh(M, max_sweeps=100):
    """Cyclic Jacobi eigendecomposition of a binary64 symmetric matrix, an
    oracle independent of LAPACK. Returns eigenvalues ascending and the
    matching orthonormal columns; NumericalError on a nonfinite entry or
    after max_sweeps sweeps without convergence."""
    A = np.array(M, dtype=np.float64)
    n = len(A)
    if not np.all(np.isfinite(A)):
        raise NumericalError(f"eigensolver: nonfinite entry in the order-{n} input")
    U = np.eye(n)
    tol = 4 * n * np.finfo(np.float64).eps / 2 * np.linalg.norm(A)
    for _ in range(max_sweeps):
        if not np.linalg.norm(np.triu(A, 1)) * np.sqrt(2.0) > tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if A[p, q] == 0.0:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                t = np.sign(tau or 1.0) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if abs(tau) < 1e150 else 0.5 / tau
                c = 1.0 / np.sqrt(1.0 + t * t)
                G = np.array([[c, t * c], [-t * c, c]])  # columns p, q rotate by G
                A[:, [p, q]] = A[:, [p, q]] @ G
                A[[p, q], :] = G.T @ A[[p, q], :]
                U[:, [p, q]] = U[:, [p, q]] @ G
    else:
        raise NumericalError(f"eigensolver: no convergence in {max_sweeps} sweeps (order {n})")
    w = np.diag(A)
    order = np.argsort(w, kind="stable")
    return w[order], U[:, order]


def gram_blocks(V_blocks):
    return [V.T @ V for V in V_blocks]


def dense_auglag_oracle(problem, V_blocks, y, mu):
    """Augmented Lagrangian value from the hinge formula, dense arithmetic;
    y holds the multipliers in row order."""
    X = gram_blocks(V_blocks)
    vals = dense_apply_oracle(problem, X)
    obj = sum(np.tensordot(C, X[b]) for b, C in enumerate(dense_cost(problem)))
    ma = problem.m_eq
    r = np.asarray(problem.rhs[:ma], dtype=float) - vals[:ma]
    s = np.asarray(problem.rhs[ma:], dtype=float) - vals[ma:]
    y_a, y_b = y[:ma], y[ma:]
    total = obj + y_a @ r + 0.5 * mu * (r @ r)
    active = y_b + mu * s > 0
    total += y_b[active] @ s[active] + 0.5 * mu * (s[active] @ s[active])
    total -= (y_b[~active] @ y_b[~active]) / (2.0 * mu)
    return total


def fd_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function of a flat array."""
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


# -- state-level shortcuts and oracles over the package's kernels ---------------


def eval_auglag(state):
    """Full augmented Lagrangian at the current iterate (cache-consistent)."""
    mu, m_eq = state.mu, state.problem.m_eq
    total = state.cache.cost_value
    y_a, y_b = state.y[:m_eq], state.y[m_eq:]
    res = state.residual()
    r, s = res[:m_eq], res[m_eq:]
    if len(r):
        total = total + dot(y_a, r) + 0.5 * mu * dot(r, r)
    if len(s):
        t = y_b + mu * s
        active = t > 0
        if np.any(active):
            sa = s[active]
            total = total + dot(y_b[active], sa) + 0.5 * mu * dot(sa, sa)
        if not np.all(active):
            yi = y_b[~active]
            total = total - dot(yi, yi) / (2.0 * mu)
    return total


def multipliers(state):
    """Coefficients of the rows A_j in the gradient, in row order, the
    hinge applied to the inequalities."""
    m_eq = state.problem.m_eq
    lam = state.y + state.mu * state.residual()
    if m_eq < len(lam):
        t = lam[m_eq:]
        lam[m_eq:] = np.where(t > 0, t, state.problem.kind.scalar(0.0))
    return lam


def full_gradient(state):
    """Gradient of the augmented Lagrangian with respect to every factor,
    from dense per-block matrices."""
    combo = apply_adjoint(state.problem, multipliers(state))
    out = []
    for b, V in enumerate(state.V_blocks):
        M = dense_row(state.problem, state.problem.m, b) - combo[b]
        out.append(2.0 * (V @ M))
    return out


def column_objective_grad(state, block, i, v_trial):
    """Restricted augmented Lagrangian and its gradient at one trial column:
    eval_auglag at the current column plus the column kernel's increment."""
    ctx = ColumnContext(state, block, i)
    increment, grad = ctx.value_and_grad(to_float_array(v_trial - ctx.v_start))
    return eval_auglag(state) + increment, grad


def apply_operator(problem, V_blocks):
    """Constraint values <A_j, V^T V> summed over blocks, from a fresh
    operator cache (no dense X)."""
    return OperatorCache.fresh(problem, V_blocks).values


def incremental_operator_values(cache, slices, V_blocks, block, i, v_start, v_trial):
    """Operator values after substituting v_trial for column i of the given
    block, from the cached values at v_start and the binary64 increments of
    column_deltas on the column's slot matrix."""
    sl = slices.by_block64[block][i]
    U = _slot_matrix(sl, to_float_array(V_blocks[block]))
    delta = column_deltas(sl.diag, U, to_float_array(v_start), to_float_array(v_trial - v_start))
    out = cache.values.copy()
    if len(sl.sup):
        out[sl.sup] += delta[:-1]
    return out


def increment_terms(sl, V64, i, d):
    """The magnitudes of the terms of column_deltas' DV for column i of the
    binary64 factor V64 moving by d, on the binary64 slice sl: its diagonal,
    v0.d, |d|^2 and the slot-matrix products taken in absolute value. DV is
    accurate to a few units of binary64 roundoff of these."""
    absolute = replace(sl, diag=np.abs(sl.diag), val=np.abs(sl.val))
    return (absolute.diag * (2.0 * (np.abs(V64[:, i]) @ np.abs(d)) + d @ d)
            + 2.0 * (_slot_matrix(absolute, np.abs(V64)) @ np.abs(d)))


def commit_move(state, block, i, v_new):
    """Commit v_new as column i of `block` the way the solver's sweep does:
    the move d = v_new - v_start, rounded to binary64, through the column
    model at the current iterate."""
    ctx = ColumnContext(state, block, i)
    commit_column(state.cache, state.V_blocks[block], i, ctx, to_float_array(v_new - ctx.v_start))


def reassemble(problem, slices):
    """True when the column slices rebuild every constraint matrix and every
    block's cost matrix (slot len(sup), constraint m) exactly.

    Each incidence is placed once, at (partner, column): an off-diagonal
    entry must therefore appear under both of its columns to rebuild."""
    kind = problem.kind
    m = problem.m
    for b, n in enumerate(problem.block_sizes):
        got = {}
        for i, sl in enumerate(slices.by_block[b]):
            ids = sl.sup.tolist() + [m]
            assert len(sl.diag) == len(ids)
            for t, j in enumerate(ids):
                got.setdefault(j, kind.zeros((n, n)))[i, i] += sl.diag[t]
            for s, r, v in zip(sl.seg.tolist(), sl.row.tolist(), list(sl.val)):
                got.setdefault(ids[s], kind.zeros((n, n)))[r, i] += v
        for j in set(got) | set(problem.entries[b][0].tolist()) | {m}:
            if not np.all(got.get(j, kind.zeros((n, n))) == dense_row(problem, j, b)):
                return False
    return True
