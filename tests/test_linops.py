"""Operator kernels against dense oracles."""

import numpy as np
import pytest

from sdpmix import linops
from sdpmix.auglag import ColumnContext, make_state
from sdpmix import problem as problem_module
from sdpmix.ddouble import DOUBLE_DOUBLE, kind_of, segment_sum, to_float_array
from sdpmix.errors import NumericalError
from sdpmix.instances import gen_random_sdp
from sdpmix.linops import (
    ColumnSlices,
    OperatorCache,
    OperatorTables,
    apply_adjoint,
    column_deltas,
    project_psd,
)
from sdpmix.problem import as_kind, scale

from helpers import (
    apply_operator,
    build_problem,
    commit_move,
    dense_adjoint_oracle,
    dense_apply_oracle,
    dense_cost,
    dense_row,
    fresh_cache,
    gram_blocks,
    increment_terms,
    incremental_operator_values,
    jacobi_eigh,
    random_problem,
    random_V_blocks,
    reassemble,
    sweep_start,
    words_equal,
    uneven_problem,
)


def one_constraint_problem(n, entries):
    """Order n, cost (0, 0) = 1, and one constraint of the given triplets."""
    return build_problem((n,), [[(0, 0, 1.0)]], [{0: entries}], [1.0], 2)


def test_apply_operator_rank_one_hand_case():
    p = one_constraint_problem(2, [(0, 1, 1.0)])
    V = [np.array([[1.0, 1.0]])]
    assert apply_operator(p, V)[0] == pytest.approx(2.0)


def test_apply_operator_identity_gives_frobenius_sq():
    n = 5
    p = one_constraint_problem(n, [(i, i, 1.0) for i in range(n)])
    rng = np.random.default_rng(0)
    V = [rng.standard_normal((3, n))]
    assert apply_operator(p, V)[0] == pytest.approx(np.sum(V[0] ** 2), rel=1e-13)


def test_apply_operator_random_vs_dense_oracle():
    trials = 0
    for seed in range(50):
        p = random_problem(seed, block_sizes=(4, 3), m_eq=4, m_ineq=2, density=0.5)
        rng = np.random.default_rng(1000 + seed)
        for _ in range(20):
            V = random_V_blocks(rng, p)
            got = apply_operator(p, V)
            want = dense_apply_oracle(p, gram_blocks(V))
            assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))
            trials += 1
    assert trials == 1000


def test_apply_cost_matches_dense():
    p = random_problem(7, block_sizes=(4, 2), m_eq=3, m_ineq=1)
    rng = np.random.default_rng(7)
    V = random_V_blocks(rng, p)
    want = sum(np.tensordot(C, X) for C, X in zip(dense_cost(p), gram_blocks(V)))
    assert fresh_cache(p, V).cost_value == pytest.approx(want, rel=1e-12)


def test_apply_adjoint_cases():
    p = random_problem(3, block_sizes=(3, 2), m_eq=3, m_ineq=2)
    zero = apply_adjoint(p, np.zeros(p.m))
    for Z in zero:
        assert np.all(Z == 0)
    single = one_constraint_problem(2, [(0, 1, 1.5), (1, 1, -2.0)])
    got = apply_adjoint(single, np.array([2.0]))[0]
    np.testing.assert_allclose(got, 2.0 * dense_row(single, 0, 0))
    rng = np.random.default_rng(4)
    # multi-block with inequalities, and one with an untouched block, a zero
    # cost and a constraint that skips a block; at both scalar kinds
    uneven = uneven_problem(5)
    block, con = uneven.entries.block, uneven.entries.con
    assert 0 not in con[block == 0] and set(con[block == 2].tolist()) == {uneven.m}
    assert uneven.m not in con[block == 1] and uneven.m_ineq == 2
    for prob in (p, uneven):
        y = rng.standard_normal(prob.m)
        want = dense_adjoint_oracle(prob, y)
        for q, yq in ((prob, y), (as_kind(prob, DOUBLE_DOUBLE), DOUBLE_DOUBLE.asarray(y))):
            got = apply_adjoint(q, yq)
            assert [kind_of(G) for G in got] == [q.kind] * q.q
            for G, W in zip(got, want):
                np.testing.assert_allclose(to_float_array(G), W, atol=1e-13)
            if prob is uneven:
                assert np.all(to_float_array(got[2]) == 0)


def test_combine_rows_equals_the_sums_of_each_block_alone():
    # one segment sum over every block's positions gives, bit for bit, what
    # a segment sum over each block's run of the table gives on its own
    rng = np.random.default_rng(11)
    problems = (gen_random_sdp((10,), 10, 1.0, 42), gen_random_sdp((20, 20), 15, 0.5, 1),
                gen_random_sdp((10,) + (1,) * 200, 20, 0.5, 3), random_problem(2, (3, 1, 4), 3, 2), uneven_problem(5))
    for p in problems:
        coef = rng.standard_normal(p.m + 1)
        for q, c in ((p, coef), (as_kind(p, DOUBLE_DOUBLE), DOUBLE_DOUBLE.asarray(coef) / 3.0)):
            _, con, row, col, val = q.entries
            cuts = q.tables.cuts
            for n, s, e, got in zip(q.block_sizes, cuts[:-1], cuts[1:], linops.combine_rows(q, c)):
                upper = segment_sum(val[s:e] * c[con[s:e]], row[s:e] * n + col[s:e], n * n).reshape(n, n)
                assert words_equal(got, upper + upper.T - np.diag(np.diag(upper)))


def test_tables_built_once_per_problem():
    p = uneven_problem(2)
    assert linops.OperatorTables is problem_module.OperatorTables
    assert p.tables is p.tables
    for q in (scale(p)[0], as_kind(p, DOUBLE_DOUBLE)):
        assert q.tables is q.tables and q.tables is not p.tables
        fresh = OperatorTables(q)
        assert all(words_equal(a, b) for a, b in zip(q.tables.wval, fresh.wval))
        for got, want in zip(q.tables.pairs, fresh.pairs):
            assert all(words_equal(a, b) for a, b in zip(got, want))
    assert kind_of(as_kind(p, DOUBLE_DOUBLE).tables.wval[0]) is DOUBLE_DOUBLE


def test_apply_adjoint_length_mismatch():
    p = random_problem(1)
    with pytest.raises(ValueError, match="length"):
        apply_adjoint(p, np.zeros(p.m + 1))


def test_column_slices_reassemble_exactly():
    for seed in range(10):
        # order-1 blocks between larger ones: every block is one run of the sort
        for sizes in ((4, 3), (3, 1, 1, 4)):
            p = random_problem(seed, block_sizes=sizes, m_eq=3, m_ineq=2, density=0.5)
            for q in (p, as_kind(p, DOUBLE_DOUBLE)):
                slices = ColumnSlices(q)
                assert reassemble(q, slices)
                # no cell of a column's slot matrix holds two entries
                assert all(len(np.unique(sl.cell)) == len(sl.cell) for block in slices.by_block for sl in block)
                # each column's equalities are its first n_eq constraints
                assert all(sl.n_eq == np.searchsorted(sl.sup, q.m_eq)
                           for block in slices.by_block for sl in block)


@pytest.mark.parametrize("kind", ["double", "dd"])
def test_column_deltas_match_the_dense_oracle(kind):
    # DV of column_deltas, on the binary64 W0 = M V^T, against
    # fresh(after) - fresh(before) on the column's slots and the cost, both
    # recomputed in double-double: within a few units of binary64 roundoff of
    # the magnitudes of DV's terms. At dd the data and V carry low words
    # that the binary64 slice and slot matrix round away.
    dd = DOUBLE_DOUBLE
    for seed in range(5):
        p = random_problem(seed, block_sizes=(5, 3), m_eq=4, m_ineq=3, density=0.5)
        rng = np.random.default_rng(300 + seed)
        V = random_V_blocks(rng, p)
        if kind == "dd":
            p = scale(as_kind(p, dd))[0]
            V = [dd.asarray(W) / 3.0 for W in V]
        slices = ColumnSlices(p)
        exact = as_kind(p, dd)
        before = fresh_cache(exact, [dd.asarray(W) for W in V])
        for b, n in enumerate(p.block_sizes):
            V64 = to_float_array(V[b])
            for i in range(n):
                sl = slices.by_block[b][i]
                d = 10.0 ** rng.uniform(-8.0, 0.0) * rng.standard_normal(V64.shape[0])
                M = linops.slot_matrix(sl, n)
                got = column_deltas(M[:, i], M @ V64.T, d, d @ d)
                moved = [dd.asarray(W) for W in V]
                moved[b][:, i] = moved[b][:, i] + d
                after = fresh_cache(exact, moved)
                want = np.append(after.values[sl.sup] - before.values[sl.sup], after.cost_value - before.cost_value)
                err = np.abs(to_float_array(want - got))
                assert np.all(err <= 8 * 2.0**-53 * increment_terms(sl, V64, i, d))


@pytest.mark.parametrize("kind", ["double", "dd"])
def test_slot_matrix_rows_match_the_dense_oracle(kind):
    # W0 = M V^T of every column, as the column context forms it, against
    # sum_p (A_j)_ip V[:, p] of the dense rows (the cost in slot len(sup)),
    # within binary64 roundoff of the magnitudes of its terms: on order-1
    # blocks among larger ones, and on column 2 of a problem whose only
    # entry there is diagonal. At dd V carries low words that W0 rounds away.
    u = 2.0**-53
    cases = [random_problem(seed, block_sizes=(3, 1, 1, 4), m_eq=3, m_ineq=2, density=0.5) for seed in range(4)]
    cases.append(one_constraint_problem(3, [(0, 0, 2.0), (1, 1, 1.0), (2, 2, -1.0), (0, 1, 0.5)]))
    diagonal_only = 0
    for seed, p in enumerate(cases):
        q = as_kind(p, DOUBLE_DOUBLE) if kind == "dd" else p
        V = [q.kind.asarray(W) / 3.0 for W in random_V_blocks(np.random.default_rng(seed), p)]
        st = make_state(q, V, q.kind.zeros(q.m), 1.0)
        if kind == "dd":
            sweep_start(st)
        for b, n in enumerate(p.block_sizes):
            V64 = to_float_array(st.V_blocks[b])
            for i in range(n):
                ctx = ColumnContext(st, b, i)
                rows = np.array([to_float_array(dense_row(q, j, b))[i] for j in [*ctx.sup.tolist(), q.m]])
                assert np.all(np.abs(ctx.W0 - rows @ V64.T) <= 2 * n * u * (np.abs(rows) @ np.abs(V64).T))
                assert np.array_equal(ctx.diag, rows[:, i])  # each slot's (i, i) coefficient
                sl = st.slices.by_block[b][i]
                diagonal_only += n > 1 and len(sl.cell) > 0 and bool(np.all(sl.cell % n == i))
    assert diagonal_only >= 1


def test_incremental_identity_when_column_unchanged():
    p = random_problem(2, block_sizes=(4,), m_eq=3, m_ineq=1)
    slices = ColumnSlices(p)
    rng = np.random.default_rng(2)
    V = random_V_blocks(rng, p)
    cache = fresh_cache(p, V)
    v = V[0][:, 1].copy()
    out = incremental_operator_values(cache, slices, V, 0, 1, v, v)
    assert np.array_equal(out, cache.values)


def test_incremental_diagonal_only_constraint():
    # only the norm term moves the value: A diagonal means no off-diagonal slice
    p = one_constraint_problem(3, [(0, 0, 2.0), (1, 1, 1.0)])
    slices = ColumnSlices(p)
    rng = np.random.default_rng(3)
    V = [rng.standard_normal((2, 3))]
    cache = fresh_cache(p, V)
    v_start = V[0][:, 0].copy()
    v_trial = v_start * 2.0
    out = incremental_operator_values(cache, slices, V, 0, 0, v_start, v_trial)
    dn = v_trial @ v_trial - v_start @ v_start
    assert out[0] == pytest.approx(cache.values[0] + 2.0 * dn, rel=1e-13)


def test_incremental_random_vs_direct_recomputation():
    trials = 0
    for seed in range(25):
        p = random_problem(seed, block_sizes=(5, 3), m_eq=4, m_ineq=3, density=0.5)
        slices = ColumnSlices(p)
        rng = np.random.default_rng(500 + seed)
        V = random_V_blocks(rng, p)
        cache = fresh_cache(p, V)
        for _ in range(40):
            b = rng.integers(p.q)
            i = rng.integers(p.block_sizes[b])
            v_start = V[b][:, i].copy()
            v_trial = v_start + rng.standard_normal(v_start.shape)
            got = incremental_operator_values(cache, slices, V, b, i, v_start, v_trial)
            V2 = [W.copy() for W in V]
            V2[b][:, i] = v_trial
            want = apply_operator(p, V2)
            assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))
            trials += 1
    assert trials == 1000


def zero_dual_state(p, V):
    return make_state(p, V, np.zeros(p.m), 1.0)


def test_commit_column_agrees_with_direct_values():
    p = random_problem(9, block_sizes=(4, 4), m_eq=5, m_ineq=2)
    rng = np.random.default_rng(9)
    st = zero_dual_state(p, random_V_blocks(rng, p))
    commit_move(st, 1, 2, st.V_blocks[1][:, 2] + rng.standard_normal(st.V_blocks[1].shape[0]))
    direct = apply_operator(p, st.V_blocks)
    assert np.all(np.abs(st.cache.values - direct) <= 1e-12 * (1 + np.abs(direct)))
    assert st.cache.cost_value == pytest.approx(OperatorCache.fresh(p, st.V).cost_value, rel=1e-12)


def test_commit_identical_column_keeps_cache_bitwise():
    p = random_problem(10, block_sizes=(3,), m_eq=2, m_ineq=1)
    rng = np.random.default_rng(10)
    st = zero_dual_state(p, random_V_blocks(rng, p))
    before, cost_before, column = st.cache.values.copy(), st.cache.cost_value, st.V_blocks[0][:, 1].copy()
    commit_move(st, 0, 1, column)
    assert np.array_equal(st.cache.values, before) and st.cache.cost_value == cost_before
    assert np.array_equal(st.V_blocks[0][:, 1], column)


def test_sweep_of_commits_low_drift():
    p = random_problem(11, block_sizes=(6,), m_eq=5, m_ineq=3, density=0.6)
    rng = np.random.default_rng(11)
    st = zero_dual_state(p, random_V_blocks(rng, p))
    for i in range(6):
        commit_move(st, 0, i, st.V_blocks[0][:, i] + 0.1 * rng.standard_normal(st.V_blocks[0].shape[0]))
    fresh = apply_operator(p, st.V_blocks)
    assert np.all(np.abs(st.cache.values - fresh) <= 1e-11 * (1 + np.abs(fresh)))


# -- eigendecomposition ------------------------------------------------------


def test_jacobi_matches_numpy_eigh():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 8, 15):
        M = rng.standard_normal((n, n))
        M = (M + M.T) / 2
        w, U = jacobi_eigh(M)
        np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(M), atol=1e-12 * max(1, np.abs(M).max()))
        np.testing.assert_allclose(U @ np.diag(w) @ U.T, M, atol=1e-12)
        np.testing.assert_allclose(U.T @ U, np.eye(n), atol=1e-12)


def test_jacobi_nonconvergence_raises():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((6, 6))
    M = (M + M.T) / 2
    with pytest.raises(NumericalError, match="convergence"):
        jacobi_eigh(M, max_sweeps=1)


def test_project_psd_fixed_cases():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((4, 4))
    PSD = B @ B.T
    np.testing.assert_allclose(project_psd(PSD), PSD, atol=1e-12 * np.abs(PSD).max())
    np.testing.assert_allclose(project_psd(np.array([[0.0, 1.0], [1.0, 0.0]])), [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)
    np.testing.assert_allclose(project_psd(-np.eye(3)), np.zeros((3, 3)), atol=1e-15)


def test_project_psd_optimality_properties():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(2, 9)
        M = rng.standard_normal((n, n))
        M = (M + M.T) / 2
        Z = project_psd(M)
        fro = np.linalg.norm(M)
        assert np.linalg.eigvalsh(Z).min() >= -1e-12 * fro
        assert np.linalg.eigvalsh(Z - M).max() >= -1e-15  # projection moves up
        assert np.linalg.eigvalsh(M - Z).max() <= 1e-12 * fro  # Z - M PSD-dominates
        assert abs(np.tensordot(Z, Z - M)) <= 1e-10 * fro**2
        # independent oracle: eigendecomposition via numpy
        w, U = np.linalg.eigh(M)
        want = (U * np.maximum(w, 0)) @ U.T
        np.testing.assert_allclose(Z, want, atol=1e-11 * max(1.0, fro))


def test_project_psd_double_double():
    M64 = np.array([[0.0, 1.0], [1.0, 0.0]])
    Z = project_psd(DOUBLE_DOUBLE.asarray(M64))
    for i in range(2):
        for j in range(2):
            assert abs(float(Z[i, j]) - 0.5) < 1e-28


def _random_orthogonal(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def _jacobi_projection(M):
    w, U = jacobi_eigh(M)
    Z = (U * np.maximum(w, 0.0)) @ U.T
    return (Z + Z.T) / 2


@pytest.mark.parametrize("n", [1, 2, 5, 30, 60, 100])
def test_project_psd_double_matches_jacobi(n):
    rng = np.random.default_rng(100 + n)
    B = rng.standard_normal((n, n))
    Q = _random_orthogonal(rng, n)
    repeated = (Q * np.where(np.arange(n) < n // 2, -1.5, 2.0)) @ Q.T  # two eigenvalues, each repeated
    F = rng.standard_normal((n, max(1, n // 3)))
    cases = {
        "random": (B + B.T) / 2,
        "repeated": (repeated + repeated.T) / 2,
        "zero": np.zeros((n, n)),
        "rank_deficient_psd": F @ F.T,
    }
    for name, M in cases.items():
        err = np.abs(project_psd(M) - _jacobi_projection(M)).max()
        assert err <= 1e-12 * np.abs(M).max(), (name, err)


def _dd_symmetric_with_lo_words(rng, H):
    """dd matrix hi + lo, lo a random perturbation below half an ulp of hi."""
    n = H.shape[0]
    L = np.triu(H * rng.uniform(-1e-17, 1e-17, size=(n, n)))
    L = L + np.triu(L, 1).T
    M = DOUBLE_DOUBLE.asarray(H) + DOUBLE_DOUBLE.asarray(L)
    assert any(x.lo != 0.0 for x in M.reshape(-1))
    return M


def _rank3_psd():
    """A promoted rank-3 PSD matrix of order 10: its seven zero eigenvalues
    are one cluster, split by rounding into eigenvalues of either sign."""
    rng = np.random.default_rng(0)
    Q = _random_orthogonal(rng, 10)
    w = np.zeros(10)
    w[:3] = rng.uniform(0.5, 3, 3)
    M = Q @ np.diag(w) @ Q.T
    return DOUBLE_DOUBLE.asarray((M + M.T) / 2)


def _random_dd(rng, n):
    B = rng.standard_normal((n, n))
    return _dd_symmetric_with_lo_words(rng, B + B.T)


def _repeated_dd(rng, eigenvalues):
    Q = _random_orthogonal(rng, len(eigenvalues))
    H = (Q * np.asarray(eigenvalues)) @ Q.T
    return _dd_symmetric_with_lo_words(rng, (H + H.T) / 2)


def _straddling_dd(rng):
    """Q diag(-8e-24, 5e-24, 0.7, ...) Q^T of order 10, formed in
    double-double: two eigenvalues far below binary64 roundoff, one on each
    side of 0, as in the final C - A^T y of the two-stage solve."""
    w = np.concatenate([[-8e-24, 5e-24, 0.7], rng.uniform(-2.0, 2.0, 7)])
    Q = DOUBLE_DOUBLE.asarray(_random_orthogonal(rng, 10))
    M = (Q * DOUBLE_DOUBLE.asarray(w)) @ Q.T
    return (M + M.T) * 0.5


_MPMATH_CASES = {
    "random": lambda rng: _random_dd(rng, 8),
    "repeated": lambda rng: _repeated_dd(rng, [-1.0, -1.0, -1.0, 0.5, 0.5, 2.0, 2.0, 2.0]),
    "rank3": lambda rng: _rank3_psd(),
    "random40": lambda rng: _random_dd(rng, 40),
    "random60": lambda rng: _random_dd(rng, 60),
    "repeated20": lambda rng: _repeated_dd(rng, np.repeat([-1.5, 0.25, 0.75, 3.0], [6, 5, 1, 8])),
    "straddling": _straddling_dd,
}


@pytest.mark.parametrize("case", sorted(_MPMATH_CASES))
def test_project_psd_double_double_matches_mpmath(case):
    mpmath = pytest.importorskip("mpmath")
    M = _MPMATH_CASES[case](np.random.default_rng(7))
    n = len(M)
    Z = project_psd(M)

    with mpmath.workdps(50):
        A = mpmath.matrix([[mpmath.mpf(x.hi) + mpmath.mpf(x.lo) for x in row] for row in M])
        E, U = mpmath.eigsy(A)
        if case == "straddling":
            assert sum(-1e-23 < e < 0 for e in E) == 1 and sum(0 < e < 1e-23 for e in E) == 1
        Zref = U * mpmath.diag([max(e, 0) for e in E]) * U.T
        err = max(abs(mpmath.mpf(Z[i, j].hi) + mpmath.mpf(Z[i, j].lo) - Zref[i, j])
                  for i in range(n) for j in range(n))
        scale = max(abs(A[i, j]) for i in range(n) for j in range(n))
        assert err <= mpmath.mpf("1e-28") * scale, float(err / scale)


@pytest.mark.parametrize("kind", ["double", "dd"])
def test_project_psd_nonfinite_input_raises(kind):
    for bad in (np.nan, np.inf):
        M = np.array([[1.0, bad], [bad, 2.0]])
        if kind == "dd":
            M = DOUBLE_DOUBLE.asarray(M)
        with pytest.raises(NumericalError, match="nonfinite"):
            project_psd(M)
