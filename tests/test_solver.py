"""Outer loop: rank rule, updates, error measures, termination, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sdpmix.auglag import make_state
from sdpmix.ddouble import DOUBLE, DOUBLE_DOUBLE, to_float_array
from sdpmix.errors import NumericalError, ValidationError
from sdpmix.instances import gen_random_sdp
from sdpmix.linops import project_psd
from sdpmix.precision import promote
from sdpmix.problem import as_kind
from sdpmix.solver import (
    ErrorReport,
    SolverOptions,
    WarmStart,
    compute_errors,
    init_state,
    penalty_ratio,
    rank_rule,
    solve,
    sweep_order,
    update_duals,
    update_penalty,
)

from helpers import (
    build_problem,
    dense_adjoint_oracle,
    dense_apply_oracle,
    dense_cost,
    dense_entries,
    gram_blocks,
    random_problem,
    random_V_blocks,
    uneven_problem,
)
from test_auglag import stagnation_fixture


def toy_trace_problem():
    identity = [(0, 0, 1.0), (1, 1, 1.0)]
    return build_problem((2,), [identity], [{0: identity}], [1.0], 2)


def gen_rand(n, m, density, seed, blocks=1):
    rng = np.random.default_rng(seed)

    def randsym(order):
        entries = [(r, c, rng.uniform(-1, 1)) for r in range(order) for c in range(r, order) if rng.random() < density]
        if not entries:
            entries = [(0, 0, rng.uniform(0.2, 1.0))]
        return entries

    sizes = (n,) * blocks
    costs = [randsym(n) for _ in range(blocks)]
    cons = [{b: [(i, i, 1.0) for i in range(n)] for b in range(blocks)}]
    for _ in range(m - 1):
        cons.append({b: randsym(n) for b in range(blocks)})
    rhs = []
    for con in cons:
        tot = 0.0
        for b, entries in con.items():
            tot += sum(float(v) for r, c, v in entries if r == c)
        rhs.append(tot)
    return build_problem(sizes, costs, cons, rhs, m + 1)


# -- rank rule ----------------------------------------------------------------


def test_rank_rule_grid():
    assert rank_rule(100, 50, 0) == 10
    assert rank_rule(3, 100, 0) == 3
    assert rank_rule(100, 30, 20) == 10
    assert rank_rule(7, 1, 1) == 2
    assert rank_rule(5, 0, 0) == 0
    for n in (1, 4, 17):
        for m in (1, 3, 10, 64):
            k = rank_rule(n, m, 0)
            assert k == min(n, math.ceil(math.sqrt(2 * m)))


def test_init_state_unit_columns_and_determinism():
    p = random_problem(0, block_sizes=(6, 3), m_eq=4, m_ineq=2)
    opts = SolverOptions(seed=11)
    st1 = init_state(p, opts)
    st2 = init_state(p, opts)
    for V1, V2 in zip(st1.V_blocks, st2.V_blocks):
        assert np.array_equal(V1, V2)
        for i in range(V1.shape[1]):
            assert abs(np.linalg.norm(V1[:, i]) - 1.0) <= 1e-12
    st3 = init_state(p, SolverOptions(seed=12))
    assert not np.array_equal(st1.V_blocks[0], st3.V_blocks[0])
    assert st1.V_blocks[0].shape[0] == rank_rule(6, 4, 2)
    assert float(st1.mu) == math.sqrt(6)


# -- sweep orders -------------------------------------------------------------


def test_sweep_order_cyclic():
    assert sweep_order(3, 1, SolverOptions()).tolist() == [0, 1, 2]


def test_sweep_order_double_sweep():
    opts = SolverOptions(double_sweep=True)
    assert sweep_order(3, 1, opts).tolist() == [0, 1, 2, 2, 1, 0]


def test_sweep_order_shuffling_reproducible():
    opts = SolverOptions(shuffling=True, seed=5)
    a = sweep_order(8, 3, opts)
    b = sweep_order(8, 3, opts)
    assert np.array_equal(a, b)
    assert sorted(a.tolist()) == list(range(8))
    c = sweep_order(8, 4, opts)
    assert not np.array_equal(a, c)  # fresh permutation per outer iteration


# -- dual update --------------------------------------------------------------


def test_update_duals_cases():
    p = random_problem(1, block_sizes=(3,), m_eq=1, m_ineq=1)
    rng = np.random.default_rng(0)
    st = make_state(p, [rng.standard_normal((2, 3))], np.array([1.0]), np.array([0.0]), 2.0)
    # zero residuals: duals unchanged
    feasible = replace(p, rhs=st.cache.values.copy())
    stf = make_state(feasible, st.V_blocks, np.array([1.0]), np.array([0.5]), 2.0)
    update_duals(stf, feasible, 1.0)
    assert float(stf.y_a[0]) == 1.0 and float(stf.y_b[0]) == 0.5
    # y_a = 1, residual 0.5, p = 1, mu = 2  ->  y_a = 2
    rigged = replace(p, rhs=np.array([float(st.cache.values[0]) + 0.5, float(st.cache.values[1]) - 1.0]))
    str_ = make_state(rigged, st.V_blocks, np.array([1.0]), np.array([0.0]), 2.0)
    update_duals(str_, rigged, 1.0)
    assert float(str_.y_a[0]) == pytest.approx(2.0, rel=1e-14)
    # y_b clipped at zero when the inequality is slack (residual -1)
    assert float(str_.y_b[0]) == 0.0


def test_dual_update_nonnegativity_fuzz():
    rng = np.random.default_rng(99)
    p = random_problem(7, block_sizes=(4,), m_eq=2, m_ineq=5)
    st = make_state(p, [rng.standard_normal((3, 4))], np.zeros(2), np.zeros(5), 1.0)
    for step in range(1000):
        st.y_b = np.abs(rng.standard_normal(5)) * rng.choice([0.0, 1.0], size=5)
        st.cache.values = rng.standard_normal(p.m) * 2
        st.mu = rng.uniform(0.1, 10.0)
        update_duals(st, p, rng.uniform(0.1, 2.0))
        assert np.all(st.y_b >= 0)


# -- penalty ratio and update -------------------------------------------------


def rigged_state_for_ratio():
    p = random_problem(2, block_sizes=(3,), m_eq=2, m_ineq=0)
    rng = np.random.default_rng(1)
    st = make_state(p, [rng.standard_normal((2, 3))], np.zeros(2), np.zeros(0), 2.0)
    return p, st


def test_penalty_ratio_arithmetic():
    p, st = rigged_state_for_ratio()
    # numerator norm 1.0, mu = 2, denominator value-change norm 0.5 -> ratio 1.0
    st.cache.values = np.asarray(p.rhs, dtype=float) - np.array([0.6, 0.8])
    st.prev_values = st.cache.values - np.array([0.3, 0.4])
    st.mu = 2.0
    assert penalty_ratio(st, p) == pytest.approx(1.0, rel=1e-14)


def test_penalty_ratio_feasible_is_zero():
    p, st = rigged_state_for_ratio()
    st.cache.values = np.asarray(p.rhs, dtype=float).copy()
    st.prev_values = st.cache.values + 1.0
    assert penalty_ratio(st, p) == 0.0


def test_penalty_ratio_stalled_is_inf():
    p, st = rigged_state_for_ratio()
    st.cache.values = np.asarray(p.rhs, dtype=float) + 1.0
    st.prev_values = st.cache.values.copy()
    assert penalty_ratio(st, p) == math.inf


def test_penalty_ratio_active_set():
    # inactive inequality (negative residual, zero multiplier) is excluded
    p = random_problem(3, block_sizes=(3,), m_eq=1, m_ineq=1)
    rng = np.random.default_rng(2)
    st = make_state(p, [rng.standard_normal((2, 3))], np.zeros(1), np.zeros(1), 1.0)
    st.cache.values = np.asarray(p.rhs, float) + np.array([-0.6, 0.8])  # r_eq=0.6, s=-0.8 slack
    st.prev_values = st.cache.values - np.array([0.3, 123.0])
    assert penalty_ratio(st, p) == pytest.approx(0.6 / (1.0 * 0.3), rel=1e-12)
    # positive multiplier pulls the inequality back in
    st.y_b = np.array([0.5])
    num = math.hypot(0.6, -0.8)
    den = math.hypot(0.3, 123.0)
    assert penalty_ratio(st, p) == pytest.approx(num / den, rel=1e-12)


def test_update_penalty_branches():
    p, st = rigged_state_for_ratio()
    opts = SolverOptions()
    st.mu = 1.0
    update_penalty(st, 1.3, opts)
    assert float(st.mu) == pytest.approx(1.03)
    update_penalty(st, 0.5, opts)
    assert float(st.mu) == pytest.approx(1.0)
    mu_before = float(st.mu)
    update_penalty(st, 1.0, opts)
    assert float(st.mu) == mu_before
    update_penalty(st, math.inf, opts)
    assert float(st.mu) == pytest.approx(mu_before * 1.03)


# -- error measures -----------------------------------------------------------


def one_var_problem():
    return build_problem((1,), [[(0, 0, 1.0)]], [{0: [(0, 0, 1.0)]}], [1.0], 2)


KINDS = (DOUBLE, DOUBLE_DOUBLE)


def test_compute_errors_exact_kkt_point():
    for kind in KINDS:
        p = as_kind(one_var_problem(), kind)
        rep = compute_errors(p, [kind.asarray([[1.0]])], kind.asarray([1.0]), kind.zeros(0), [kind.asarray([[0.0]])])
        assert rep.pinf == 0 and rep.gap == 0 and rep.dinf == 0 and rep.compl == 0 and rep.compl_star == 0


def test_compute_errors_pinf_normalization():
    for kind in KINDS:
        p = as_kind(one_var_problem(), kind)
        rep = compute_errors(p, [kind.asarray([[1.1]])], kind.zeros(1), kind.zeros(0))
        assert float(rep.pinf) == pytest.approx(0.1 / 2.0, rel=1e-12)


def test_compute_errors_dinf_zero_duals():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 3))
    M = (M + M.T) / 2
    C = dense_entries(M)
    for kind in KINDS:
        p = as_kind(build_problem((3,), [C], [{0: [(0, 0, 1.0)]}], [1.0], 2), kind)
        Z = project_psd(kind.asarray(M))
        rep = compute_errors(p, [kind.asarray(np.eye(3))], kind.zeros(1), kind.zeros(0), [Z])
        want = np.linalg.norm(M - to_float_array(Z)) / (1.0 + np.linalg.norm(M))
        assert float(rep.dinf) == pytest.approx(want, rel=1e-12)


def dense_kkt_oracle(problem, X, y_a, y_b, Z):
    """The five KKT measures by their definitions, on dense binary64 matrices."""
    vals = dense_apply_oracle(problem, X)
    C = dense_cost(problem)
    pobj = sum(np.tensordot(Cb, Xb) for Cb, Xb in zip(C, X))
    ma = problem.m_eq
    a, bvec = to_float_array(problem.rhs[:ma]), to_float_array(problem.rhs[ma:])
    viol = max(np.max(np.abs(a - vals[:ma]), initial=0.0), np.max(bvec - vals[ma:], initial=0.0))
    pinf = viol / (1.0 + max(np.max(np.abs(a), initial=0.0), np.max(np.abs(bvec), initial=0.0)))
    dobj = a @ y_a + bvec @ y_b
    denom = 1.0 + abs(pobj) + abs(dobj)
    adj = dense_adjoint_oracle(problem, np.concatenate([y_a, y_b]))
    resid = np.sqrt(sum(np.sum((Cb - Ab - Zb) ** 2) for Cb, Ab, Zb in zip(C, adj, Z)))
    return {
        "pinf": pinf,
        "gap": abs(pobj - dobj) / denom,
        "compl_star": abs(pobj - (y_a @ vals[:ma] + y_b @ vals[ma:])) / denom,
        "dinf": resid / (1.0 + np.sqrt(sum(np.sum(Cb ** 2) for Cb in C))),
        "compl": abs(sum(np.sum(Xb * Zb) for Xb, Zb in zip(X, Z))) / denom,
    }


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_compute_errors_matches_dense_oracle(kind):
    # multi-block with inequalities, and one with an untouched block, a zero
    # cost and a constraint that skips a block
    for seed, prob in enumerate((random_problem(4, block_sizes=(3, 2), m_eq=2, m_ineq=2), uneven_problem(6))):
        rng = np.random.default_rng(80 + seed)
        X = gram_blocks(random_V_blocks(rng, prob))
        Z = gram_blocks([rng.standard_normal((2, n)) for n in prob.block_sizes])
        y_a, y_b = rng.standard_normal(prob.m_eq), np.abs(rng.standard_normal(prob.m_ineq))
        want = dense_kkt_oracle(prob, X, y_a, y_b, Z)
        q = as_kind(prob, kind)
        args = [[kind.asarray(Xb) for Xb in X], kind.asarray(y_a), kind.asarray(y_b)]
        got = compute_errors(q, *args, [kind.asarray(Zb) for Zb in Z]).as_dict()
        cheap = compute_errors(q, *args).as_dict()
        for key, val in want.items():
            assert got[key] == pytest.approx(val, rel=1e-12, abs=1e-15), key
            assert cheap[key] == (None if key in ("dinf", "compl") else got[key]), key


def test_error_report_max_and_dict():
    rep = ErrorReport(pinf=0.1, gap=0.2, compl_star=0.05)
    assert rep.max_error() == 0.2
    assert rep.as_dict()["dinf"] is None
    rep.dinf, rep.compl = 0.5, 0.0
    assert rep.max_error() == 0.5


# -- solve --------------------------------------------------------------------


def test_solve_toy_to_tolerance():
    sol, warm = solve(toy_trace_problem(), SolverOptions(tol=1e-10, max_iters=500, iters_Z=5))
    assert sol.status == "tol"
    assert float(sol.objective) == pytest.approx(1.0, abs=1e-9)
    assert float(sol.report.max_error()) < 1e-8
    assert np.all(np.linalg.eigvalsh(sol.Z[0]) >= -1e-12)


def test_solve_reports_errors_recomputed_on_original_data():
    p = gen_rand(10, 6, 1.0, 5)
    sol, _ = solve(p, SolverOptions(tol=1e-9, max_iters=5000, iters_Z=10))
    assert sol.status == "tol"
    fresh = compute_errors(p, sol.X, sol.y_a, sol.y_b, sol.Z)
    for key, val in fresh.as_dict().items():
        assert val == pytest.approx(sol.report.as_dict()[key], abs=1e-15)
    # dinf matches its definition with the returned Z, recomputed here
    assert float(sol.report.max_error()) < 1e-7


def test_solve_with_inequalities_active():
    # min 2 X01 s.t. diag(X) = 1, X01 >= -0.3: optimum -0.6 with the bound active
    constraints = [{0: [(0, 0, 1.0)]}, {0: [(1, 1, 1.0)]}, {0: [(0, 1, 0.5)]}]
    p = build_problem((2,), [[(0, 1, 1.0)]], constraints, [1.0, 1.0, -0.3], ineq_start=3)
    sol, _ = solve(p, SolverOptions(tol=1e-10, max_iters=3000, iters_Z=10))
    assert sol.status == "tol"
    assert float(sol.objective) == pytest.approx(-0.6, abs=1e-8)
    assert float(sol.X[0][0, 1]) == pytest.approx(-0.3, abs=1e-8)
    assert float(sol.y_b[0]) > 0  # active inequality carries a multiplier


def test_solve_multiblock():
    p = gen_rand(8, 5, 0.8, 6, blocks=2)
    sol, _ = solve(p, SolverOptions(tol=1e-9, max_iters=5000, iters_Z=10))
    assert sol.status == "tol"
    assert float(sol.report.max_error()) < 1e-7


def test_solve_status_iter_and_time():
    p = gen_rand(10, 6, 1.0, 7)
    sol, _ = solve(p, SolverOptions(max_iters=3))
    assert sol.status == "iter" and sol.iterations == 3
    sol, _ = solve(p, SolverOptions(time_limit=1e-9))
    assert sol.status == "time"


def test_solve_trajectory_determinism():
    p = gen_rand(8, 5, 1.0, 8)
    opts = SolverOptions(max_iters=25, seed=3)
    log1, log2 = [], []
    sol1, w1 = solve(p, opts, progress=log1.append)
    sol2, w2 = solve(p, opts, progress=log2.append)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "elapsed"} for r in rows]
    assert strip(log1) == strip(log2)
    for V1, V2 in zip(w1.V_blocks, w2.V_blocks):
        assert np.array_equal(V1, V2)
    assert np.array_equal(w1.y_a, w2.y_a)


def test_solve_mu_changes_by_tau_factors_only():
    p = gen_rand(8, 5, 1.0, 9)
    log = []
    solve(p, SolverOptions(max_iters=60, seed=1), progress=log.append)
    mu0 = math.sqrt(8)
    prev = mu0
    for row in log:
        ratio = row["mu"] / prev
        assert min(abs(ratio - 1.03), abs(ratio - 1 / 1.03), abs(ratio - 1.0)) < 1e-12
        prev = row["mu"]


def test_solve_equality_only_never_runs_hinge_paths():
    p = gen_rand(8, 5, 1.0, 10)
    assert p.m_ineq == 0
    log = []
    solve(p, SolverOptions(max_iters=20), progress=log.append)
    assert all(row["hinge_evals"] == 0 for row in log)
    # every column solve evaluates at least once, and the count only grows
    evals = [row["column_evals"] for row in log]
    assert evals == sorted(evals)
    assert all(row["column_evals"] >= row["iter"] * sum(p.block_sizes) for row in log)
    # so does the count of column solves that ended unconverged
    unconverged = [row["inner_unconverged"] for row in log]
    assert all(type(u) is int for u in unconverged) and unconverged == sorted(unconverged)
    # a budget of one evaluation leaves every column that has to move unconverged
    starved = []
    solve(p, SolverOptions(max_iters=2, max_evals=1), progress=starved.append)
    assert 0 < starved[-1]["inner_unconverged"] <= 2 * sum(p.block_sizes)
    # the same trajectory with inequalities present does run hinge code
    ineq = replace(p, ineq_start=p.m)
    log2 = []
    solve(ineq, SolverOptions(max_iters=5), progress=log2.append)
    assert log2[-1]["hinge_evals"] > 0


def test_solve_sweep_variants_still_converge():
    p = gen_rand(8, 5, 1.0, 11)
    for opts in (
        SolverOptions(tol=1e-9, max_iters=4000, iters_Z=10, shuffling=True, seed=4),
        SolverOptions(tol=1e-9, max_iters=4000, iters_Z=10, double_sweep=True),
    ):
        sol, _ = solve(p, opts)
        assert sol.status == "tol"


def test_solve_warm_start_resume():
    p = gen_rand(10, 6, 1.0, 12)
    sol1, warm = solve(p, SolverOptions(max_iters=10))
    assert sol1.status == "iter"
    sol2, _ = solve(p, SolverOptions(tol=1e-9, max_iters=5000, iters_Z=5), warm_start=warm)
    assert sol2.status == "tol"


def test_solve_warm_start_shape_mismatch():
    p = gen_rand(10, 6, 1.0, 13)
    bad = WarmStart([np.zeros((2, 4))], np.zeros(6), np.zeros(0), 1.0)
    with pytest.raises(ValidationError):
        solve(p, SolverOptions(max_iters=5), warm_start=bad)


def test_solve_rejects_negative_warm_duals():
    p = gen_rand(6, 4, 1.0, 14)
    ineq = replace(p, ineq_start=4)
    k = rank_rule(6, 3, 1)
    bad = WarmStart([np.ones((k, 6))], np.zeros(3), np.array([-1.0]), 1.0)
    with pytest.raises(ValidationError, match="negative"):
        solve(ineq, SolverOptions(max_iters=5), warm_start=bad)


def test_solve_rejects_nonfinite_warm_start():
    p = gen_rand(6, 4, 1.0, 14)
    ineq = replace(p, ineq_start=4)
    k = rank_rule(6, 3, 1)
    good = WarmStart([np.ones((k, 6))], np.zeros(3), np.array([0.5]), 1.0)
    for kind in KINDS:
        q = as_kind(ineq, kind)
        for field in ("V 1", "ya", "yb", "mu"):
            warm = promote(good, kind)
            if field == "mu":
                warm.mu = kind.from_float(math.nan)
            else:
                values = warm.V_blocks[0] if field == "V 1" else getattr(warm, field.replace("y", "y_"))
                values[-1] = kind.from_float(math.inf if field == "yb" else math.nan)
            with pytest.raises(ValidationError, match=f"warm start field {field} has a nonfinite value"):
                solve(q, SolverOptions(max_iters=5), warm_start=warm)


def test_solve_nonfinite_aborts_with_diagnostic():
    p = build_problem((1,), [[(0, 0, 1.0)]], [{0: [(0, 0, 1.0)]}], [1e308], 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError):
            solve(p, SolverOptions(max_iters=50, scaling=False))


def test_stagnation_fixture_blocks_do_not_move():
    problem, V, y = stagnation_fixture()
    warm = WarmStart([v.copy() for v in V], y.copy(), np.zeros(0), 4.0)
    log = []
    sol, wend = solve(problem, SolverOptions(max_iters=100, scaling=False), warm_start=warm, progress=log.append)
    assert sol.status == "iter"
    assert abs(float(wend.V_blocks[0][0, 0])) <= 1e-12  # first block stays at 0
    assert abs(float(wend.V_blocks[1][0, 0]) - math.sqrt(1.5)) <= 1e-10
    # duals keep drifting in the (+1, -1) direction
    assert float(wend.y_a[0]) > float(y[0]) and float(wend.y_a[1]) < float(y[1])


def test_invalid_options_rejected():
    for kwargs in (
        {"tol": 0.0},
        {"tau": 1.0},
        {"rat_min": 1.3},
        {"p": 0.0},
        {"max_evals": 0},
        {"iters_Z": 0},
        {"mu_start": -1.0},
    ):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)


def test_unscale_round_trip_toy_within_slack():
    # solve the scaled problem, map back, recompute on original data:
    # status tol holds for all five measures there
    p = gen_rand(6, 4, 1.0, 19)
    tol = 1e-9
    sol, _ = solve(p, SolverOptions(tol=tol, max_iters=20000, iters_Z=10))
    assert sol.status == "tol"
    assert compute_errors(p, sol.X, sol.y_a, sol.y_b, sol.Z).max_error() < tol


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_status_tol_means_the_reported_errors(seed):
    # the scaled iterate's errors pass tol a check period before the
    # caller's do on these instances; tol must wait for the caller's
    tol = 1e-10
    sol, _ = solve(gen_random_sdp((12,), 8, 1.0, seed=seed), SolverOptions(tol=tol, iters_Z=10))
    assert sol.status == "tol"
    assert sol.report.max_error() < tol


def test_solve_unconstrained_psd_cost():
    # m = 0: rank rule gives the empty factor, X = 0 is optimal for PSD C
    p = build_problem((2,), [[(0, 0, 1.0), (1, 1, 2.0)]], [], [], ineq_start=1)
    sol, _ = solve(p, SolverOptions(tol=1e-10, max_iters=200, iters_Z=2))
    assert sol.status == "tol"
    assert float(sol.objective) == 0.0
    assert sol.factor[0].shape == (0, 2)
