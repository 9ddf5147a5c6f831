"""Outer loop: rank rule, updates, error measures, termination, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sdpmix import solver
from sdpmix.auglag import ColumnContext, make_state
from sdpmix.ddouble import DOUBLE, DOUBLE_DOUBLE, kind_of, to_float_array
from sdpmix.errors import NumericalError, ValidationError
from sdpmix.instances import Graph, gen_random_sdp, maxcut_relaxation, theta_relaxation
from sdpmix.linops import project_psd
from sdpmix.precision import promote
from sdpmix.problem import as_kind, scale
from sdpmix.solver import (
    ErrorReport,
    Solution,
    SolverOptions,
    WarmStart,
    compute_errors,
    init_state,
    penalty_ratio,
    rank_rule,
    solve,
    unscale_solution,
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
    start_at_mu,
    uneven_problem,
    words_equal,
)
from test_auglag import stagnation_fixture

KINDS = (DOUBLE, DOUBLE_DOUBLE)


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


# -- sweep order --------------------------------------------------------------


def test_sweep_visits_each_column_once_in_index_order(monkeypatch):
    # two blocks of orders 3 and 4: each outer iteration visits block 1's
    # columns, then block 2's, each block in column order
    visits = []

    def recording(state, b, i):
        visits.append((b, i))
        return ColumnContext(state, b, i)

    monkeypatch.setattr("sdpmix.solver.ColumnContext", recording)
    sol, _ = solve(gen_random_sdp((3, 4), 3, 1.0, 5), SolverOptions(max_iters=2))
    assert sol.iterations == 2
    sweep = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3)]
    assert visits == sweep + sweep


# -- dual update --------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_update_duals_cases(kind):
    # one equality, then one inequality: y = (y_eq, y_ineq)
    p = as_kind(random_problem(1, block_sizes=(3,), m_eq=1, m_ineq=1), kind)
    rng = np.random.default_rng(0)
    st = make_state(p, [rng.standard_normal((2, 3))], np.array([1.0, 0.0]), 2.0)
    # zero residuals: duals unchanged
    feasible = replace(p, rhs=st.cache.values.copy())
    stf = make_state(feasible, st.V_blocks, np.array([1.0, 0.5]), 2.0)
    update_duals(stf, feasible)
    assert float(stf.y[0]) == 1.0 and float(stf.y[1]) == 0.5
    # y_eq = 1, residual 0.5, mu = 2  ->  y_eq = 2
    rigged = replace(p, rhs=kind.asarray([float(st.cache.values[0]) + 0.5, float(st.cache.values[1]) - 1.0]))
    str_ = make_state(rigged, st.V_blocks, np.array([1.0, 0.0]), 2.0)
    update_duals(str_, rigged)
    assert float(str_.y[0]) == pytest.approx(2.0, rel=1e-14)
    # y_ineq clipped at zero when the inequality is slack (residual -1)
    assert float(str_.y[1]) == 0.0
    assert kind_of(str_.y) is kind


def test_dual_update_nonnegativity_fuzz():
    rng = np.random.default_rng(99)
    p = random_problem(7, block_sizes=(4,), m_eq=2, m_ineq=5)
    st = make_state(p, [rng.standard_normal((3, 4))], np.zeros(7), 1.0)
    for step in range(1000):
        st.y[2:] = np.abs(rng.standard_normal(5)) * rng.choice([0.0, 1.0], size=5)
        st.cache.values = rng.standard_normal(p.m) * 2
        st.mu = rng.uniform(0.1, 10.0)
        update_duals(st, p)
        assert np.all(st.y[2:] >= 0)


# -- penalty ratio and update -------------------------------------------------


def rigged_state_for_ratio():
    p = random_problem(2, block_sizes=(3,), m_eq=2, m_ineq=0)
    rng = np.random.default_rng(1)
    st = make_state(p, [rng.standard_normal((2, 3))], np.zeros(2), 2.0)
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


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_penalty_ratio_active_set(kind):
    # inactive inequality (negative residual, zero multiplier) is excluded
    p = as_kind(random_problem(3, block_sizes=(3,), m_eq=1, m_ineq=1), kind)
    rng = np.random.default_rng(2)
    st = make_state(p, [rng.standard_normal((2, 3))], np.zeros(2), 1.0)
    st.cache.values = p.rhs + kind.asarray([-0.6, 0.8])  # r_eq=0.6, s=-0.8 slack
    st.prev_values = st.cache.values - kind.asarray([0.3, 123.0])
    assert penalty_ratio(st, p) == pytest.approx(0.6 / (1.0 * 0.3), rel=1e-12)
    # positive multiplier pulls the inequality back in
    st.y = kind.asarray([0.0, 0.5])
    num = math.hypot(0.6, -0.8)
    den = math.hypot(0.3, 123.0)
    assert penalty_ratio(st, p) == pytest.approx(num / den, rel=1e-12)
    # an equality counts whatever the sign of its residual and its multiplier
    st.y = kind.zeros(2)
    st.cache.values = p.rhs + kind.asarray([0.6, 0.8])  # r_eq=-0.6, s=-0.8 slack
    st.prev_values = st.cache.values - kind.asarray([0.3, 123.0])
    assert penalty_ratio(st, p) == pytest.approx(0.6 / 0.3, rel=1e-12)


def test_update_penalty_branches():
    p, st = rigged_state_for_ratio()
    st.mu = 1.0
    update_penalty(st, 1.3)
    assert float(st.mu) == pytest.approx(1.03)
    update_penalty(st, 0.5)
    assert float(st.mu) == pytest.approx(1.0)
    mu_before = float(st.mu)
    update_penalty(st, 1.0)
    assert float(st.mu) == mu_before
    update_penalty(st, math.inf)
    assert float(st.mu) == pytest.approx(mu_before * 1.03)


# -- error measures -----------------------------------------------------------


def one_var_problem():
    return build_problem((1,), [[(0, 0, 1.0)]], [{0: [(0, 0, 1.0)]}], [1.0], 2)


def test_compute_errors_exact_kkt_point():
    for kind in KINDS:
        p = as_kind(one_var_problem(), kind)
        rep, Z, _ = compute_errors(p, [kind.asarray([[1.0]])], kind.asarray([1.0]))
        assert float(Z[0][0, 0]) == 0.0
        assert rep.pinf == 0 and rep.gap == 0 and rep.dinf == 0 and rep.compl == 0 and rep.compl_star == 0


def test_compute_errors_pinf_normalization():
    for kind in KINDS:
        p = as_kind(one_var_problem(), kind)
        rep, _, _ = compute_errors(p, [kind.asarray([[1.1]])], kind.zeros(1))
        assert float(rep.pinf) == pytest.approx(0.1 / 2.0, rel=1e-12)


def test_compute_errors_dinf_zero_duals():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 3))
    M = (M + M.T) / 2
    C = dense_entries(M)
    for kind in KINDS:
        p = as_kind(build_problem((3,), [C], [{0: [(0, 0, 1.0)]}], [1.0], 2), kind)
        Z = project_psd(kind.asarray(M))
        rep, _, _ = compute_errors(p, [kind.asarray(np.eye(3))], kind.zeros(1))
        want = np.linalg.norm(M - to_float_array(Z)) / (1.0 + np.linalg.norm(M))
        assert float(rep.dinf) == pytest.approx(want, rel=1e-12)


def dense_kkt_oracle(problem, X, y_a, y_b):
    """The five KKT measures by their definitions, on dense binary64 matrices,
    with Z the eigh projection of C - A^T y onto the PSD cone."""
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
    Z = []
    for Cb, Ab in zip(C, adj):
        w, Q = np.linalg.eigh(Cb - Ab)
        Z.append((Q * np.maximum(w, 0.0)) @ Q.T)
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
        y_a, y_b = rng.standard_normal(prob.m_eq), np.abs(rng.standard_normal(prob.m_ineq))
        want = dense_kkt_oracle(prob, X, y_a, y_b)
        q = as_kind(prob, kind)
        got = compute_errors(q, [kind.asarray(Xb) for Xb in X], kind.asarray(np.concatenate([y_a, y_b])))[0].as_dict()
        for key, val in want.items():
            assert got[key] == pytest.approx(val, rel=1e-12, abs=1e-15), key


def test_error_report_max_and_dict():
    rep = ErrorReport(pinf=0.1, gap=0.2, compl_star=0.05, dinf=0.5, compl=0.0)
    assert rep.max_error() == 0.5
    assert rep.as_dict() == {"pinf": 0.1, "gap": 0.2, "compl_star": 0.05, "dinf": 0.5, "compl": 0.0}
    with pytest.raises(TypeError):  # a report always holds all five measures
        ErrorReport(pinf=0.1, gap=0.2, compl_star=0.05)


# -- solve --------------------------------------------------------------------


def test_solve_toy_to_tolerance():
    sol, warm = solve(toy_trace_problem(), SolverOptions(tol=1e-10, max_iters=500))
    assert sol.status == "tol"
    assert float(sol.objective) == pytest.approx(1.0, abs=1e-9)
    assert float(sol.report.max_error()) < 1e-8
    assert np.all(np.linalg.eigvalsh(sol.Z[0]) >= -1e-12)


def test_solve_reports_errors_recomputed_on_original_data():
    p = gen_rand(10, 6, 1.0, 5)
    sol, _ = solve(p, SolverOptions(tol=1e-9, max_iters=5000))
    assert sol.status == "tol"
    fresh, _, _ = compute_errors(p, sol.X, sol.y)
    for key, val in fresh.as_dict().items():
        assert val == pytest.approx(sol.report.as_dict()[key], abs=1e-15)
    # dinf matches its definition with the returned Z, recomputed here
    assert float(sol.report.max_error()) < 1e-7


def test_solve_with_inequalities_active():
    # min 2 X01 s.t. diag(X) = 1, X01 >= -0.3: optimum -0.6 with the bound active
    constraints = [{0: [(0, 0, 1.0)]}, {0: [(1, 1, 1.0)]}, {0: [(0, 1, 0.5)]}]
    p = build_problem((2,), [[(0, 1, 1.0)]], constraints, [1.0, 1.0, -0.3], ineq_start=3)
    sol, _ = solve(p, SolverOptions(tol=1e-10, max_iters=3000))
    assert sol.status == "tol"
    assert float(sol.objective) == pytest.approx(-0.6, abs=1e-8)
    assert float(sol.X[0][0, 1]) == pytest.approx(-0.3, abs=1e-8)
    assert float(sol.y_b[0]) > 0  # active inequality carries a multiplier


def test_solve_multiblock():
    p = gen_rand(8, 5, 0.8, 6, blocks=2)
    sol, _ = solve(p, SolverOptions(tol=1e-9, max_iters=5000))
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


def test_solve_equality_only_never_runs_hinge_paths(monkeypatch):
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
    with monkeypatch.context() as patch:
        patch.setattr(solver, "MAX_EVALS", 1)
        solve(p, SolverOptions(max_iters=2), progress=starved.append)
    assert 0 < starved[-1]["inner_unconverged"] <= 2 * sum(p.block_sizes)
    # the same trajectory with inequalities present does run hinge code
    ineq = replace(p, ineq_start=p.m)
    log2 = []
    solve(ineq, SolverOptions(max_iters=5), progress=log2.append)
    assert log2[-1]["hinge_evals"] > 0


def test_progress_counters_match_the_recounted_evaluations(monkeypatch):
    # the loop counts from what each column solve returns; recount the model
    # evaluations themselves: every call, and for a column with inequality
    # slots every call plus one for its context's hinge
    problem = maxcut_relaxation(Graph.complete(4), with_triangles=True).problem
    assert problem.m_ineq > 0
    calls, hinge, contexts = [0], [0], set()
    raw = ColumnContext.value_and_grad

    def counted(ctx, d):
        calls[0] += 1
        if bool(np.any(ctx.sup >= problem.m_eq)):
            hinge[0] += 1 + (ctx not in contexts)
            contexts.add(ctx)
        return raw(ctx, d)

    monkeypatch.setattr(ColumnContext, "value_and_grad", counted)
    rows = []
    solve(problem, SolverOptions(max_iters=20, seed=2), progress=lambda row: rows.append((row, calls[0], hinge[0])))
    assert len(rows) == 20 and hinge[0] > calls[0] > 20 * problem.block_sizes[0]
    for row, n_calls, n_hinge in rows:
        assert row["column_evals"] == n_calls and row["hinge_evals"] == n_hinge, row["iter"]


def test_anderson_counts_match_a_recount(monkeypatch):
    # recount the steps from the iterates themselves: every iteration's T(s)
    # (flat_iterate after the tol check) and every iterate written back
    # (install_iterate). A write in an iteration whose input was a plain
    # T(s) is a step; the next iteration is its trial, kept iff its |g| is
    # below the |g| of the iteration that took the step, else undone by
    # writing back that iteration's T(s)
    events = []
    raw_flat, raw_install = solver.flat_iterate, solver.install_iterate

    def flat(state):
        out = raw_flat(state)
        events.append(("T", out.copy()))
        return out

    def install(state, s):
        events.append(("write", s.copy()))
        raw_install(state, s)

    monkeypatch.setattr(solver, "flat_iterate", flat)
    monkeypatch.setattr(solver, "install_iterate", install)
    rows = []
    sol, _ = solve(theta_relaxation(Graph.cycle(9), strengthened=True).problem, SolverOptions(tol=1e-8),
                   progress=lambda row: rows.append((row, len(events))))
    assert sol.status == "tol"
    accepted = rejected = 0
    s = T_step = gnorm_step = None  # the input, and the T(s) and |g| of the iteration that took a step
    start = 0
    for row, stop in rows:
        mine, start = events[start:stop], stop
        if row is rows[-1][0]:  # the tol iteration ends the loop before flat_iterate
            assert mine == []
            break
        (tag, T), writes = mine[0], [vec for tag, vec in mine[1:]]
        assert tag == "T" and len(writes) <= 1
        gnorm = None if s is None else np.linalg.norm(T - s)
        if T_step is not None:  # the trial of the step taken in the iteration before
            if gnorm < gnorm_step:
                accepted += 1
                assert writes == []
            else:
                rejected += 1
                assert len(writes) == 1 and np.array_equal(writes[0], T_step)
            s, T_step = (writes or [T])[0], None
        else:
            if writes:
                T_step, gnorm_step = T, gnorm
            s = (writes or [T])[0]
        assert (row["aa_accepted"], row["aa_rejected"]) == (accepted, rejected), row["iter"]
    assert accepted > 0 and rejected > 0


def test_solve_writes_equal_solution_files_for_one_seed(tmp_path):
    # Anderson steps included, a solve is deterministic: two solves of one
    # problem with one seed write the same solution file, but for its clock
    from sdpmix.cli import main
    from sdpmix.formats import write_native

    prob = tmp_path / "p.sdp"
    write_native(theta_relaxation(Graph.cycle(9), strengthened=True).problem, prob)
    texts = []
    for name in ("a.sol", "b.sol"):
        assert main(["solve", str(prob), "-o", str(tmp_path / name), "--tol", "1e-8", "--seed", "4"]) == 0
        texts.append([ln for ln in (tmp_path / name).read_text().splitlines() if not ln.startswith("elapsed ")])
    assert texts[0] == texts[1]


def test_solve_warm_start_resume():
    p = gen_rand(10, 6, 1.0, 12)
    sol1, warm = solve(p, SolverOptions(max_iters=10))
    assert sol1.status == "iter"
    sol2, _ = solve(p, SolverOptions(tol=1e-9, max_iters=5000), warm_start=warm)
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
                warm.mu = kind.scalar(math.nan)
            else:
                values = warm.V_blocks[0] if field == "V 1" else getattr(warm, field.replace("y", "y_"))
                values[-1] = kind.scalar(math.inf if field == "yb" else math.nan)
            with pytest.raises(ValidationError, match=f"warm start field {field} has a nonfinite value"):
                solve(q, SolverOptions(max_iters=5), warm_start=warm)


def test_solve_nonfinite_aborts_with_diagnostic():
    # x = 1 and x = 2: infeasible, so the duals grow by about mu each iteration
    p = build_problem((1,), [[(0, 0, 1.0)]], [{0: [(0, 0, 1.0)]}, {0: [(0, 0, 1.0)]}], [1.0, 2.0], 3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"^nonfinite duals at outer iteration 4 \(mu=1\.093e\+308\)$"):
            solve(p, SolverOptions(max_iters=50), warm_start=start_at_mu(p, 1e308))


def test_stagnation_fixture_blocks_do_not_move():
    problem, _, _ = stagnation_fixture()
    # the fixture's iterate in scaled space: the rows (1, 1)/sqrt(2) and
    # (0, 1) with rhs (sqrt(2), 1)/sqrt(3); x2 is the least-squares
    # compromise 4/(3 sqrt(3)) of the two rows, 4/3 unscaled
    V = [np.array([[0.0]]), np.array([[math.sqrt(4 / (3 * math.sqrt(3)))]])]
    y = np.array([2 * math.sqrt(2), -2.0])
    warm = WarmStart([v.copy() for v in V], y.copy(), np.zeros(0), 4.0)
    log = []
    sol, wend = solve(problem, SolverOptions(max_iters=100), warm_start=warm, progress=log.append)
    assert sol.status == "iter"
    assert abs(float(wend.V_blocks[0][0, 0])) <= 1e-12  # first block stays at 0
    assert abs(float(wend.V_blocks[1][0, 0]) - float(V[1][0, 0])) <= 1e-10
    # duals keep drifting in the (+1, -1) direction
    assert float(wend.y_a[0]) > float(y[0]) and float(wend.y_a[1]) < float(y[1])


@pytest.mark.parametrize("coef, rhs, objective", [(1e-170, 1e-170, 1.0), (1e160, 1e160, 1.0), (1.0, 1e200, 1e200)])
def test_solve_data_whose_squares_leave_the_range(coef, rhs, objective):
    # minimize x s.t. coef * x = rhs on a 1x1 block: x = rhs / coef; a square
    # of coef or rhs underflows or overflows in binary64
    p = build_problem((1,), [[(0, 0, 1.0)]], [{0: [(0, 0, coef)]}], [rhs], 2)
    sol, _ = solve(p, SolverOptions(tol=1e-10, max_iters=300))
    assert sol.status == "tol"
    assert float(sol.objective) == pytest.approx(objective, rel=1e-10)


def test_report_of_a_cost_whose_square_overflows():
    # min 1e160 x s.t. x = 1, at x = 1 and y = 1e160 (1 + f): the dual
    # residual is about 1e160 f, and dinf its ratio to 1 + |C| = 1 + 1e160;
    # at f = 1e-5 the residual's square overflows
    p = build_problem((1,), [[(0, 0, 1e160)]], [{0: [(0, 0, 1.0)]}], [1.0], 2)
    for f in (1e-10, 1e-5):
        report, _, _ = compute_errors(p, [np.array([[1.0]])], np.array([1e160 * (1 + f)]))
        assert float(report.dinf) == pytest.approx(f, rel=1e-5), f


def test_invalid_options_rejected():
    for kwargs in (
        {"tol": 0.0},
        {"time_limit": 0.0},
        {"max_iters": 0},
        {"seed": -1},
    ):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)
    SolverOptions(time_limit=math.inf)  # no time limit


@pytest.mark.parametrize("field", ["tol"])
def test_infinite_options_rejected(field):
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        SolverOptions(**{field: math.inf})


def test_unscale_round_trip_toy_within_slack():
    # solve the scaled problem, map back, recompute on original data:
    # status tol holds for all five measures there
    p = gen_rand(6, 4, 1.0, 19)
    tol = 1e-9
    sol, _ = solve(p, SolverOptions(tol=tol, max_iters=20000))
    assert sol.status == "tol"
    assert compute_errors(p, sol.X, sol.y)[0].max_error() < tol


@pytest.mark.parametrize("count", [1, 3])
def test_unscale_rejects_a_factor_with_the_wrong_block_count(count):
    # the kernels zip the blocks, so a missing block would drop out of the
    # report unnoticed and an extra one would index past the block sizes
    p = gen_rand(3, 2, 1.0, 0, blocks=2)
    sol = Solution([np.ones((2, 3))] * count, np.zeros(p.m_eq), np.zeros(p.m_ineq), Z=None, status="iter",
                   report=None)
    with pytest.raises(ValidationError, match=f"solution has {count} blocks, problem has 2"):
        unscale_solution(sol, scale(p)[1], p)


def test_report_pieces_formed_once_match_a_fresh_report():
    # the report, Z and objective of unscale_solution must equal a fresh
    # compute_errors on the returned solution, bit for bit
    for kind in (DOUBLE, DOUBLE_DOUBLE):
        p = as_kind(gen_rand(6, 4, 1.0, 19), kind)
        sol, _ = solve(p, SolverOptions(tol=1e-30, max_iters=15))
        fresh, Z, objective = compute_errors(p, sol.X, sol.y)
        for key in ("pinf", "gap", "compl_star", "dinf", "compl"):
            assert words_equal(getattr(fresh, key), getattr(sol.report, key)), (kind.name, key)
        assert words_equal(objective, sol.objective) and all(words_equal(a, b) for a, b in zip(Z, sol.Z))


# -- cadence of the dual-slack check -------------------------------------------


def record_checks(monkeypatch, fail=False):
    """Record the report max error of every dual-slack check of the solves
    that follow, by iteration; with fail=True every check reports a failure
    to the solver, so the solve runs on to max_iters."""
    log = {}
    unscale = solver.unscale_solution

    def recording(sol, record, problem):
        out = unscale(sol, record, problem)
        if sol.status == "tol":  # a check; the final report of a stopped solve passes its own status
            log[sol.iterations] = float(out.report.max_error())
            if fail:
                out.report.dinf = math.inf
        return out

    monkeypatch.setattr(solver, "unscale_solution", recording)
    return log


def cheap_passes(row, tol):
    return max(row["pinf"], row["gap"], row["compl_star"]) < tol


def test_checks_back_off_and_fall_on_multiples_of_iters_Z(monkeypatch):
    # every check fails, so the whole schedule shows: the first check at the
    # first iteration whose cheap measures pass, then gaps of 1, 2, 4, ...
    # capped at iters_Z, cut short by each multiple of iters_Z
    checks = record_checks(monkeypatch, fail=True)
    p, tol, iters_Z = gen_rand(8, 5, 1.0, 5), 1e-9, 16
    monkeypatch.setattr(solver, "ITERS_Z", iters_Z)
    rows = []
    sol, _ = solve(p, SolverOptions(tol=tol, max_iters=140), progress=rows.append)
    # the checks were made to fail; the final report of the capped run meets tol
    assert sol.iterations == 140 and sol.status == "tol"
    first = next(r["iter"] for r in rows if cheap_passes(r, tol))
    assert all(cheap_passes(r, tol) for r in rows[first - 1:])  # so no check waits on the cheap measures
    want, t, gap = [first], first, 1
    while True:
        t = min(t + gap, (t // iters_Z + 1) * iters_Z)
        gap = min(2 * gap, iters_Z)
        if t > 140:
            break
        want.append(t)
    assert sorted(checks) == want
    # 29, then + 1, + 2, + 4, + 8 = 44; the capped gap of 16 is cut at 48 = 3 * 16
    assert first == 29 and want[:9] == [29, 30, 32, 36, 44, 48, 64, 80, 96]
    # the progress rows mark each check with the max error the solver saw
    assert [r["iter"] for r in rows if r["zcheck"] is not None] == want
    assert all(r["zcheck"] in (None, math.inf) for r in rows)


def _cadence_instances():
    return {
        "rand_8_5": (gen_rand(8, 5, 1.0, 5), 1e-9),
        "rand_10_6": (gen_rand(10, 6, 1.0, 6), 1e-12),
        "rand_12_8": (gen_random_sdp((12,), 8, 1.0, seed=1), 1e-12),
        "rand_2x8_6": (gen_rand(8, 6, 0.7, 13, blocks=2), 1e-9),
        "maxcut_K4_triangles": (maxcut_relaxation(Graph.complete(4), with_triangles=True).problem, 1e-10),
        "theta_prime_C5": (theta_relaxation(Graph.cycle(5), strengthened=True).problem, 1e-10),
    }


@pytest.mark.parametrize("name", sorted(_cadence_instances()))
def test_back_off_stops_no_later_than_checking_at_multiples(monkeypatch, name):
    p, tol = _cadence_instances()[name]
    iters_Z, horizon = 20, 200
    # checks leave the trajectory alone, so one ITERS_Z = 1 run whose checks
    # all fail gives the report at every iteration whose cheap measures pass
    every = record_checks(monkeypatch, fail=True)
    monkeypatch.setattr(solver, "ITERS_Z", 1)
    solve(p, SolverOptions(tol=tol, max_iters=horizon))
    old_stop = min(t for t, err in every.items() if t % iters_Z == 0 and err < tol)

    monkeypatch.undo()
    checks = record_checks(monkeypatch)
    monkeypatch.setattr(solver, "ITERS_Z", iters_Z)
    rows = []
    sol, _ = solve(p, SolverOptions(tol=tol, max_iters=horizon), progress=rows.append)
    assert sol.status == "tol" and sol.report.max_error() < tol
    assert {r["iter"]: r["zcheck"] for r in rows if r["zcheck"] is not None} == checks
    assert sol.iterations <= old_stop
    assert sol.iterations == min(t for t, err in every.items() if err < tol and t in checks)
    assert all(checks[t] == every[t] for t in checks)  # the same trajectory, bit for bit
    assert min(checks) == min(every)  # the first check at the first cheap pass


def test_capped_solve_whose_final_report_meets_tol_is_labelled_tol():
    # the cap falls between the backed-off checks at 59 (which fails) and
    # 63; the report built on the iterate at the cap meets tol
    tol, rows = 1e-12, []
    sol, _ = solve(gen_random_sdp((30,), 20, 1.0, 1), SolverOptions(tol=tol, max_iters=61), progress=rows.append)
    checks = {r["iter"]: r["zcheck"] for r in rows if r["zcheck"] is not None}
    assert max(checks) == 59 and checks[59] >= tol
    assert sol.iterations == 61 and sol.status == "tol" and sol.report.max_error() < tol


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_status_tol_means_the_reported_errors(seed):
    # the scaled iterate's errors pass tol a check period before the
    # caller's do on these instances; tol must wait for the caller's
    tol = 1e-10
    sol, _ = solve(gen_random_sdp((12,), 8, 1.0, seed=seed), SolverOptions(tol=tol))
    assert sol.status == "tol"
    assert sol.report.max_error() < tol


def test_solve_unconstrained_psd_cost():
    # m = 0: rank rule gives the empty factor, X = 0 is optimal for PSD C
    p = build_problem((2,), [[(0, 0, 1.0), (1, 1, 2.0)]], [], [], ineq_start=1)
    sol, _ = solve(p, SolverOptions(tol=1e-10, max_iters=200))
    assert sol.status == "tol"
    assert float(sol.objective) == 0.0
    assert sol.factor[0].shape == (0, 2)
