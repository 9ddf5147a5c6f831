"""Augmented Lagrangian value/gradient against dense and finite-difference oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sdpmix.auglag import ColumnContext, make_state, refresh_cache
from sdpmix.ddouble import DOUBLE_DOUBLE, DDArray, to_float_array
from sdpmix.instances import Graph, maxcut_relaxation
from sdpmix.linops import OperatorCache, column_deltas, commit_column
from sdpmix.problem import as_kind

from helpers import (
    apply_operator,
    build_problem,
    column_objective_grad,
    commit_move,
    dense_auglag_oracle,
    dense_constraint,
    dense_cost,
    dense_row,
    eval_auglag,
    fd_gradient,
    full_gradient,
    increment_terms,
    multipliers,
    random_problem,
    random_V_blocks,
    words_equal,
)


def stagnation_fixture():
    """Two 1x1 blocks: min x1 s.t. x1 + x2 = 2, x2 = 1."""
    one = [(0, 0, 1.0)]
    problem = build_problem((1, 1), [one, []], [{0: one, 1: one}, {1: one}], [2.0, 1.0], ineq_start=3)
    V = [np.array([[0.0]]), np.array([[math.sqrt(1.5)]])]
    return problem, V, np.array([2.0, -2.0])


def random_state(seed, m_ineq=3):
    p = random_problem(seed, block_sizes=(4, 3), m_eq=3, m_ineq=m_ineq, density=0.6)
    rng = np.random.default_rng(10_000 + seed)
    V = random_V_blocks(rng, p)
    y = np.concatenate([rng.standard_normal(p.m_eq), np.abs(rng.standard_normal(p.m_ineq))])
    mu = rng.uniform(0.5, 3.0)
    return p, make_state(p, V, y, mu)


def test_eval_feasible_zero_duals_is_objective():
    p = random_problem(0, block_sizes=(3,), m_eq=2, m_ineq=2)
    rng = np.random.default_rng(0)
    V = random_V_blocks(rng, p)
    vals = apply_operator(p, V)
    feasible = replace(p, rhs=vals)
    st = make_state(feasible, V, np.zeros(p.m), 2.0)
    assert eval_auglag(st) == pytest.approx(st.cache.cost_value, rel=1e-13)


def test_eval_hand_case_1x1():
    # C = 0, one equality x = 1, v = 0, y = 0, mu = 2: L = (mu/2) * 1 = 1
    p = build_problem((1,), [[]], [{0: [(0, 0, 1.0)]}], [1.0], 2)
    st = make_state(p, [np.array([[0.0]])], np.zeros(1), 2.0)
    assert eval_auglag(st) == pytest.approx(1.0, abs=1e-15)


def test_eval_stagnation_fixture_value():
    # direct evaluation of the hinge formula gives 3 here (objective 0,
    # linear terms 1 + 1, penalty 0.5 + 0.5)
    p, V, y = stagnation_fixture()
    st = make_state(p, V, y, 4.0)
    got = eval_auglag(st)
    assert got == pytest.approx(3.0, abs=1e-12)
    assert got == pytest.approx(dense_auglag_oracle(p, V, y, 4.0), abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_eval_matches_dense_oracle(seed):
    p, st = random_state(seed)
    want = dense_auglag_oracle(
        p,
        st.V_blocks,
        np.asarray(st.y, dtype=float),
        float(st.mu),
    )
    assert eval_auglag(st) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_gradient_matches_finite_differences():
    h = 1e-5
    states = 0
    both_branch_states = 0
    for seed in range(100):
        p, st = random_state(seed)
        t = np.asarray(st.y + st.mu * st.residual(), dtype=float)[p.m_eq:]
        if np.any(t > 0) and np.any(t <= 0):
            both_branch_states += 1
        grads = full_gradient(st)
        for b in range(p.q):
            shape = st.V_blocks[b].shape

            def f(flat):
                Vb = [W.copy() for W in st.V_blocks]
                Vb[b] = flat.reshape(shape)
                return dense_auglag_oracle(p, Vb, np.asarray(st.y, float), float(st.mu))

            fd = fd_gradient(f, st.V_blocks[b].ravel().copy(), h=h).reshape(shape)
            scale = 1.0 + np.abs(grads[b]).max()
            assert np.abs(grads[b] - fd).max() <= 1e-6 * scale
        states += 1
    assert states >= 100
    assert both_branch_states >= 30  # both hinge branches well represented


def test_gradient_zero_cases():
    # no data: C = 0 and no constraints
    p = build_problem((2,), [[]], [], [], ineq_start=1)
    st = make_state(p, [np.ones((1, 2))], np.zeros(0), 1.0)
    assert np.all(full_gradient(st)[0] == 0)
    val, g = column_objective_grad(st, 0, 0, np.array([1.0]))
    assert val == 0 and np.all(g == 0)


def test_equality_only_never_touches_hinge_paths():
    # the hinge branches of a column's model run only on its inequality slots
    p, st = random_state(42, m_ineq=0)
    for b in range(p.q):
        for i in range(p.block_sizes[b]):
            ctx = ColumnContext(st, b, i)
            assert ctx.n_eq == len(ctx.sup) and not hasattr(ctx, "t0")


def test_column_grad_matches_full_gradient_column():
    for seed in range(8):
        p, st = random_state(seed)
        full = full_gradient(st)
        for b in range(p.q):
            for i in range(p.block_sizes[b]):
                _, g = column_objective_grad(st, b, i, st.V_blocks[b][:, i].copy())
                ref = full[b][:, i]
                assert np.abs(g - ref).max() <= 1e-12 * (1 + np.abs(ref).max())


def test_column_gradient_rounds_like_cost_minus_constraint_sum():
    # the cost is the last slot of a column, so summing -lam_j a_j and then
    # adding c rounds exactly like c - sum_j lam_j a_j summed in constraint
    # order (here at most 7 terms per column, where numpy's sum is sequential)
    for seed in range(8):
        p, st = random_state(seed)
        lam = multipliers(st)
        for b in range(p.q):
            V = st.V_blocks[b]
            C = dense_row(p, p.m, b)
            A = [dense_constraint(p, j)[b] for j in range(p.m)]
            for i in range(p.block_sizes[b]):
                g_n = np.empty(p.block_sizes[b])
                for r in range(len(g_n)):
                    total = 0.0
                    for j in range(p.m):
                        if A[j][r, i] != 0:
                            total += lam[j] * A[j][r, i]
                    g_n[r] = C[r, i] - total
                _, got = column_objective_grad(st, b, i, V[:, i].copy())
                assert np.array_equal(got, 2.0 * (V @ g_n))


def test_column_value_matches_eval_at_current_column():
    p, st = random_state(5)
    val, _ = column_objective_grad(st, 1, 0, st.V_blocks[1][:, 0].copy())
    assert val == pytest.approx(eval_auglag(st), rel=1e-12)


def test_column_value_matches_eval_after_move():
    # move a column, compare the restricted value against a fresh full eval
    p, st = random_state(6)
    rng = np.random.default_rng(1)
    v_new = st.V_blocks[0][:, 2] + rng.standard_normal(st.V_blocks[0].shape[0])
    val, _ = column_objective_grad(st, 0, 2, v_new)
    V2 = [W.copy() for W in st.V_blocks]
    V2[0][:, 2] = v_new
    st2 = make_state(p, V2, st.y, st.mu)
    assert val == pytest.approx(eval_auglag(st2), rel=1e-11, abs=1e-11)


def test_stagnation_fixture_column_gradient_zero():
    p, V, y = stagnation_fixture()
    st = make_state(p, V, y, 4.0)
    _, g1 = column_objective_grad(st, 0, 0, np.array([0.0]))
    _, g2 = column_objective_grad(st, 1, 0, V[1][:, 0].copy())
    assert abs(g1[0]) <= 1e-12
    assert abs(g2[0]) <= 1e-12


def test_commit_column_keeps_cache_consistent():
    p, st = random_state(7)
    rng = np.random.default_rng(2)
    for b in range(p.q):
        for i in range(p.block_sizes[b]):
            commit_move(st, b, i, st.V_blocks[b][:, i] + 0.05 * rng.standard_normal(st.V_blocks[b].shape[0]))
    direct = apply_operator(p, st.V_blocks)
    assert np.abs(st.cache.values - direct).max() <= 1e-11 * (1 + np.abs(direct).max())
    before = st.cache.values.copy()
    refresh_cache(st)
    assert np.abs(st.cache.values - before).max() <= 1e-11 * (1 + np.abs(before).max())


@pytest.mark.parametrize("kind", ["double", "dd"])
def test_commit_reuses_the_increments_of_the_last_evaluation(kind, monkeypatch):
    # the commit at the solver's accepted d adds the DV that the model's last
    # evaluation formed there, equal to a fresh column_deltas bit for bit; a
    # commit at any other array, even one evaluated before, forms them again
    from sdpmix import auglag
    from sdpmix.lbfgs import minimize_column

    formed = []

    def counting(*args):
        formed.append(True)
        return column_deltas(*args)

    monkeypatch.setattr(auglag, "column_deltas", counting)
    commits = 0
    for seed in range(4):
        p, st = random_state(seed)
        if kind == "dd":
            dd = DOUBLE_DOUBLE
            p = as_kind(p, dd)
            st = make_state(p, [dd.asarray(V) for V in st.V_blocks], dd.asarray(st.y), dd.scalar(st.mu))
        for b in range(p.q):
            for i in range(p.block_sizes[b]):
                ctx = ColumnContext(st, b, i)
                d, _, _ = minimize_column(ctx.value_and_grad, ctx.start, ctx.hessian, 1e-12, 0.01, 200)
                if d is ctx.start:
                    continue
                for at, evaluated_last in ((d, True), (d.copy(), False), (d, False)):
                    if not evaluated_last and at is d:
                        ctx.value_and_grad(0.5 * d)  # d is no longer the last evaluation
                    fresh = column_deltas(ctx.diag, ctx.U, ctx.v0, at)
                    cache = OperatorCache(st.cache.values.copy(), st.cache.cost_value)
                    want = st.cache.values.copy()
                    want[ctx.sup] += fresh[:-1]
                    formed.clear()
                    commit_column(cache, st.V_blocks[b].copy(), i, ctx, at)
                    assert len(formed) == (0 if evaluated_last else 1)
                    assert words_equal(cache.values, want)
                    assert words_equal(cache.cost_value, st.cache.cost_value + fresh[-1])
                commit_column(st.cache, st.V_blocks[b], i, ctx, d)
                commits += 1
    assert commits >= 20


def triangle_state(seed):
    """Max-Cut of K7 with its 140 triangle inequalities at a random iterate:
    per column, 60 triangle slots of two entries each."""
    p = maxcut_relaxation(Graph.complete(7), with_triangles=True).problem
    rng = np.random.default_rng(30_000 + seed)
    V = random_V_blocks(rng, p)
    y_b = np.abs(rng.standard_normal(p.m_ineq)) * rng.integers(0, 2, p.m_ineq)
    return p, make_state(p, V, np.concatenate([rng.standard_normal(p.m_eq), y_b]), rng.uniform(0.5, 3.0))


def _activity(p, st, block, i, v):
    """The inequalities' activity y + mu s > 0 with column i set to v."""
    V = [W.copy() for W in st.V_blocks]
    V[block][:, i] = v
    s = np.asarray(p.rhs[p.m_eq:], float) - apply_operator(p, [np.asarray(W, float) for W in V])[p.m_eq:]
    return np.asarray(st.y[p.m_eq:], float) + float(st.mu) * s > 0


@pytest.mark.parametrize("case", ["double", "dd", "triangles"])
def test_column_hessian_matches_central_differences(case):
    # hessian(d) against central differences (step 1e-5) of value_and_grad's
    # gradient, at moves d that change the activity of some inequality, as
    # in criterion 05; samples whose difference stencil crosses a hinge
    # (where the Hessian jumps) are skipped
    h = 1e-5
    changed = checked = 0
    worst = 0.0
    for seed in range(30):
        p, st = triangle_state(seed) if case == "triangles" else random_state(seed)
        if case == "dd":
            dd = DOUBLE_DOUBLE
            st = make_state(as_kind(p, dd), [dd.asarray(V) for V in st.V_blocks], dd.asarray(st.y), dd.scalar(st.mu))
        rng = np.random.default_rng(40_000 + seed)
        for b in range(p.q):
            for i in range(p.block_sizes[b]):
                ctx = ColumnContext(st, b, i)
                v0 = np.asarray(ctx.v0, float)
                k = len(v0)
                d = rng.standard_normal(k) * rng.choice([0.05, 0.3, 1.0])
                act = _activity(p, st, b, i, v0 + d)
                stencil = [v0 + d + s * h * e for e in np.eye(k) for s in (1.0, -1.0)]
                if any(np.any(_activity(p, st, b, i, v) != act) for v in stencil):
                    continue
                changed += bool(np.any(act != _activity(p, st, b, i, v0)))
                checked += 1
                H = ctx.hessian(d)
                assert H.dtype == np.float64 and H.shape == (k, k)
                fd = np.column_stack([(ctx.value_and_grad(d + h * e)[1] - ctx.value_and_grad(d - h * e)[1]) / (2 * h)
                                      for e in np.eye(k)])
                worst = max(worst, np.abs(H - fd).max() / (1.0 + np.abs(H).max()))
    assert checked >= 100 and changed >= 15
    assert worst <= 1e-6


@pytest.mark.parametrize("case", ["double", "dd", "triangles"])
def test_column_start_returns_full_gradient(case):
    # at its start, value_and_grad returns 0 and g0 without evaluating the
    # model; evaluated at another zero array, the model gives the same
    for seed in range(5):
        p, st = triangle_state(seed) if case == "triangles" else random_state(seed)
        if case == "dd":
            dd = DOUBLE_DOUBLE
            st = make_state(as_kind(p, dd), [dd.asarray(V) for V in st.V_blocks], dd.asarray(st.y), dd.scalar(st.mu))
        grads = full_gradient(st)
        for b in range(p.q):
            for i in range(p.block_sizes[b]):
                ctx = ColumnContext(st, b, i)
                f, g = ctx.value_and_grad(ctx.start)
                ref = np.asarray(grads[b][:, i], float)
                assert f == 0.0 and np.abs(g - ref).max() <= 1e-11 * (1 + np.abs(ref).max())
                f, g_zero = ctx.value_and_grad(np.zeros(len(ctx.v0)))
                assert f == 0.0 and np.array_equal(g_zero, g)


@pytest.mark.parametrize("kind", ["double", "dd"])
def test_cached_column_hessian_matches_recomputation(kind, monkeypatch):
    # hessian(d) reuses what value_and_grad computed at the same array d;
    # at every Hessian a short solve asks for, it must equal hessian on a
    # copy of d, which recomputes; on Max-Cut with triangles and on a
    # random problem with inequalities
    from sdpmix import solver

    moved = []
    inner = solver.minimize_column

    def recording(objective_grad, x0, hessian, *budget):
        def checked(x):
            H = hessian(x)
            assert np.array_equal(H, hessian(x.copy()))
            moved.append(bool(x.any()))
            return H

        return inner(objective_grad, x0, checked, *budget)

    monkeypatch.setattr(solver, "minimize_column", recording)
    for p in (maxcut_relaxation(Graph.complete(7), with_triangles=True).problem, random_state(3)[0]):
        solver.solve(as_kind(p, DOUBLE_DOUBLE) if kind == "dd" else p, solver.SolverOptions(max_iters=6, seed=1))
    assert moved.count(True) >= 20 and moved.count(False) >= 20  # at d = 0 and away from it


def test_hinge_crossing_is_continuous():
    # one inequality x >= 0 with y + mu*(0 - x) crossing zero at x = 1
    p = build_problem((1,), [[]], [{0: [(0, 0, 1.0)]}], [0.0], ineq_start=1)
    vstar = 1.0  # t = y - mu*v^2 = 0 at v = 1 with y = mu = 1
    vals = []
    for dv in (-1e-9, 0.0, 1e-9):
        st = make_state(p, [np.array([[vstar + dv]])], np.array([1.0]), 1.0)
        vals.append(float(eval_auglag(st)))
    assert abs(vals[0] - vals[1]) <= 1e-8 * (1 + abs(vals[1]))
    assert abs(vals[2] - vals[1]) <= 1e-8 * (1 + abs(vals[1]))
    # membership flips across the crossing
    st_lo = make_state(p, [np.array([[vstar - 1e-9]])], np.array([1.0]), 1.0)
    st_hi = make_state(p, [np.array([[vstar + 1e-9]])], np.array([1.0]), 1.0)
    t_lo = 1.0 + 1.0 * float(st_lo.residual()[0])
    t_hi = 1.0 + 1.0 * float(st_hi.residual()[0])
    assert t_lo > 0 >= t_hi


def test_accepted_column_updates_never_increase_value():
    from sdpmix.lbfgs import minimize_column

    p, st = random_state(17)
    for sweep in range(3):
        for b in range(p.q):
            for i in range(p.block_sizes[b]):
                before = eval_auglag(st)
                ctx = ColumnContext(st, b, i)
                d, _, _ = minimize_column(ctx.value_and_grad, np.zeros(len(ctx.v_start)), ctx.hessian, 1e-8, 0.01, 200)
                commit_column(st.cache, st.V_blocks[b], i, ctx, d)
                after = eval_auglag(st)
                assert float(after) <= float(before) + 1e-10 * (1 + abs(float(before)))


def _mp(x):
    """The exact value of a binary64 or double-double scalar as an mpf."""
    import mpmath

    return mpmath.mpf(x.hi) + mpmath.mpf(x.lo) if isinstance(x, DDArray) else mpmath.mpf(float(x))


def _mp_auglag(p, V_blocks, y, mu, block, i):
    """Dense augmented Lagrangian and its gradient in column i of `block`,
    in mpmath on the exact values of the iterate (multipliers y in row
    order); also every inequality's activity argument y + mu s."""
    import mpmath

    X = [mpmath.matrix(V).T * mpmath.matrix(V) for V in V_blocks]

    def inner(mats, b):
        M = mats[b]
        return mpmath.fsum(mpmath.mpf(float(M[r, c])) * X[b][r, c] for r in range(len(M)) for c in range(len(M)))

    cost = dense_cost(p)
    cons = [dense_constraint(p, j) for j in range(p.m)]
    obj = mpmath.fsum(inner(cost, b) for b in range(p.q))
    total, lam, acts = obj, [], []
    for j in range(p.m):
        res = _mp(p.rhs[j]) - mpmath.fsum(inner(cons[j], b) for b in range(p.q))
        if j < p.m_eq:
            total += y[j] * res + mu / 2 * res**2
            lam.append(y[j] + mu * res)
        else:
            t = y[j] + mu * res
            total += (max(t, 0) ** 2 - y[j] ** 2) / (2 * mu)
            lam.append(max(t, 0))
            acts.append(t)
    n = p.block_sizes[block]
    M = [mpmath.mpf(float(cost[block][r, i])) - mpmath.fsum(lam[j] * mpmath.mpf(float(cons[j][block][r, i]))
                                                            for j in range(p.m)) for r in range(n)]
    V = V_blocks[block]
    grad = [2 * mpmath.fsum(V[a][r] * M[r] for r in range(n)) for a in range(len(V))]
    return total, grad, acts


@pytest.mark.parametrize("kind", ["double", "dd"])
def test_increment_kernel_matches_mpmath_difference(kind):
    # Df(d) and g(d) of the column kernel against f(v0 + d) - f(v0) and the
    # gradient at v0 + d of the dense augmented Lagrangian at 40 digits, for
    # |d| from 1e-1 to 1e-12. In each case one inequality of the column gets
    # its activity argument set to mu DV / 2, so the move takes it to
    # -mu DV / 2 (active -> inactive when DV > 0, inactive -> active when
    # DV < 0); the other inequalities keep their activity.
    import mpmath

    seen = set()
    worst_f = worst_g = 0.0
    for seed in range(4):
        p0, st0 = random_state(seed)
        rng = np.random.default_rng(20_000 + seed)
        for size in 10.0 ** -np.arange(1.0, 13.0):
            b = int(rng.integers(p0.q))
            i = int(rng.integers(p0.block_sizes[b]))
            sl = st0.slices.by_block[b][i]
            ineq = sl.sup[sl.sup >= p0.m_eq]
            u = rng.standard_normal(st0.V_blocks[b].shape[0])
            d = size * u / np.linalg.norm(u)
            rhs = p0.rhs.copy()
            if len(ineq):
                j = int(rng.choice(ineq))
                V2 = [W.copy() for W in st0.V_blocks]
                V2[b][:, i] += d
                dv = float(apply_operator(p0, V2)[j] - st0.cache.values[j])
                t_now = float(st0.y[j] + st0.mu * st0.residual()[j])
                rhs[j] += (0.5 * st0.mu * dv - t_now) / st0.mu
            p = replace(p0, rhs=rhs)
            st = make_state(p, st0.V_blocks, st0.y, st0.mu)
            if kind == "dd":
                dd = DOUBLE_DOUBLE
                st = make_state(as_kind(p, dd), [dd.asarray(V) for V in st.V_blocks],
                                dd.asarray(st.y), dd.scalar(st.mu))
            df, g = ColumnContext(st, b, i).value_and_grad(d)
            assert isinstance(df, float) and g.dtype == np.float64

            with mpmath.workdps(40):
                mu = _mp(st.mu)
                y = [_mp(x) for x in st.y]
                V0 = [[[_mp(x) for x in row] for row in V] for V in st.V_blocks]
                V1 = [[row[:] for row in V] for V in V0]
                for a in range(len(d)):
                    V1[b][a][i] += mpmath.mpf(float(d[a]))
                f0, g0, t0 = _mp_auglag(p, V0, y, mu, b, i)
                f1, g1, t1 = _mp_auglag(p, V1, y, mu, b, i)
                seen.update((bool(a0 > 0), bool(a1 > 0)) for a0, a1 in zip(t0, t1))
                # the scale of the increment: |d| times the larger gradient norm
                scale = size * float(max(mpmath.norm(mpmath.matrix(g0)), mpmath.norm(mpmath.matrix(g1))))
                worst_f = max(worst_f, abs(float(mpmath.mpf(float(df)) - (f1 - f0))) / scale)
                g_err = max(abs(float(mpmath.mpf(float(x)) - y)) for x, y in zip(g, g1))
                worst_g = max(worst_g, g_err / (1.0 + max(abs(float(y)) for y in g1)))
    assert seen == {(True, True), (False, False), (True, False), (False, True)}
    assert worst_f <= 1e-14
    assert worst_g <= 1e-14


def test_dd_sweep_cache_is_accurate_relative_to_its_increments():
    # one sweep of the solver's column steps at double-double adds binary64
    # increments to the dd cache: each row then differs from its fresh
    # recomputation by a few units of binary64 roundoff of the magnitudes of
    # the increments' terms summed over the sweep, not of the row's value;
    # refresh_cache makes it exact again
    from sdpmix.lbfgs import minimize_column

    dd = DOUBLE_DOUBLE
    moved = 0
    for seed in range(3):
        p, st64 = random_state(seed)
        st = make_state(as_kind(p, dd), [dd.asarray(V) / 3.0 for V in st64.V_blocks],
                        dd.asarray(st64.y), dd.scalar(st64.mu))
        budget = np.zeros(p.m + 1)
        for b in range(p.q):
            for i in range(p.block_sizes[b]):
                ctx = ColumnContext(st, b, i)
                d, _, _ = minimize_column(ctx.value_and_grad, np.zeros(len(ctx.v_start)), ctx.hessian, 1e-12, 0.01, 200)
                sl = st.slices.by_block64[b][i]
                budget[np.append(sl.sup, p.m)] += increment_terms(sl, to_float_array(st.V_blocks[b]), i, d)
                moved += bool(d.any())
                commit_column(st.cache, st.V_blocks[b], i, ctx, d)
        incremental = np.append(st.cache.values, st.cache.cost_value)
        refresh_cache(st)
        fresh = OperatorCache.fresh(st.problem, st.V_blocks)
        exact = np.append(fresh.values, fresh.cost_value)
        refreshed = np.append(st.cache.values, st.cache.cost_value)
        assert np.array_equal(refreshed.hi, exact.hi) and np.array_equal(refreshed.lo, exact.lo)
        err = np.abs(to_float_array(incremental - exact))
        assert np.all(err <= 8 * 2.0**-53 * budget)
    assert moved >= 15


def test_column_refinement_reaches_double_double_stationarity():
    # rounds of the solver's column step at double-double: each round builds
    # the context (gradient formed in dd), minimizes the binary64 increment,
    # installs v_start + d in dd and adds the binary64 slot increments to
    # the cache, which refresh_cache then recomputes in dd, as the solver
    # does after each sweep. The increments are accurate relative to
    # themselves, so the rounds drive the column gradient far below
    # binary64 resolution; the 40-digit gradient at the result confirms it.
    import mpmath

    from sdpmix.lbfgs import minimize_column

    dd = DOUBLE_DOUBLE
    for seed in range(3):
        p, st64 = random_state(seed)
        st = make_state(as_kind(p, dd), [dd.asarray(V) for V in st64.V_blocks],
                        dd.asarray(st64.y), dd.scalar(st64.mu))
        b, i = 0, seed
        for _ in range(4):
            ctx = ColumnContext(st, b, i)
            d, _, _ = minimize_column(ctx.value_and_grad, np.zeros(len(ctx.v_start)), ctx.hessian, 1e-30, 1e-10, 500)
            commit_column(st.cache, st.V_blocks[b], i, ctx, d)
            refresh_cache(st)
        with mpmath.workdps(40):
            V = [[[_mp(x) for x in row] for row in W] for W in st.V_blocks]
            _, g, _ = _mp_auglag(p, V, [_mp(x) for x in st.y], _mp(st.mu), b, i)
            assert max(abs(float(x)) for x in g) < 1e-26
