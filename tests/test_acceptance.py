"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Lines are written to the real stdout so they stay visible under pytest's
capture; every criterion also asserts, so failures break the build.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from sdpmix.auglag import make_state
from sdpmix.ddouble import norm2
from sdpmix.formats import parse_native, read_solution, write_native, write_solution
from sdpmix.instances import Graph, gen_random_sdp, maxcut_relaxation, theta_relaxation
from sdpmix.linops import ColumnSlices
from sdpmix.precision import solve_two_stage
from sdpmix.problem import row_norms_sq, scale
from sdpmix.solver import SolverOptions, WarmStart, compute_errors, rank_rule, solve, update_duals, update_penalty

from helpers import apply_operator, column_objective_grad, commit_move, incremental_operator_values, random_problem
from test_auglag import random_state, stagnation_fixture
from test_instances import maxcut_enumeration_oracle
from test_perfbench_hooks import load_perfbench_module


def finish(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {tag}  {desc}{('  [' + detail + ']') if detail else ''}"
    print(line, flush=True)
    import conftest

    conftest.acceptance_lines.append(line)
    assert ok, f"criterion {num}: {desc} {detail}"


def _solve_reported(inst, tol, max_iters=30000):
    t0 = time.perf_counter()
    sol, _ = solve(inst.problem, SolverOptions(tol=tol, max_iters=max_iters))
    dt = time.perf_counter() - t0
    return inst.reported_objective(sol.objective), sol, dt


def test_criterion_01_maxcut_k3():
    val_basic, sol_b, t_basic = _solve_reported(maxcut_relaxation(Graph.complete(3)), tol=1e-11)
    val_tri, sol_t, t_tri = _solve_reported(maxcut_relaxation(Graph.complete(3), with_triangles=True), tol=1e-11)
    exact_cut = maxcut_enumeration_oracle(Graph.complete(3))
    ok = (
        abs(val_basic - 9 / 4) <= 1e-8
        and abs(val_tri - 2.0) <= 1e-8
        and exact_cut == 2.0
        and sol_b.status == "tol"
        and sol_t.status == "tol"
        and t_basic < 1.0
        and t_tri < 1.0
    )
    finish(1, "Max-Cut K3: basic 9/4, with triangles 2.0 (1e-8), < 1 s each", ok,
           f"basic={val_basic:.10f} in {t_basic:.2f}s, triangles={val_tri:.10f} in {t_tri:.2f}s")


def _theta_prime_c5_closed_form():
    """theta'(C5) = sqrt 5, with its optimal X checked for feasibility.

    X = (I + t(P^2 + P^-2))/5, t = 2/(1+sqrt 5), P the cyclic shift: trace 1,
    zero on the edges of C5 (distance 1), t/5 >= 0 on the non-edges
    (distance 2), eigenvalues (1 + 2t cos(4 pi k/5))/5 >= 0. Its value
    sum(X) = 1 + 2t = sqrt 5 meets theta'(C5) <= theta(C5) = sqrt 5.
    """
    n = 5
    P = np.roll(np.eye(n), 1, axis=1)
    t = 2.0 / (1.0 + math.sqrt(5))
    X = (np.eye(n) + t * (P @ P + P.T @ P.T)) / n
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    dist = np.minimum(dist, n - dist)
    assert abs(np.trace(X) - 1.0) <= 1e-15
    assert np.all(X[dist == 1] == 0.0) and np.all(X[dist == 2] >= 0.0)
    assert np.linalg.eigvalsh(X).min() >= -1e-15
    assert abs(X.sum() - math.sqrt(5)) <= 1e-15
    return math.sqrt(5)


def _theta_prime_c5_cvxpy(cp):
    n, edges = 5, {(i, (i + 1) % 5) for i in range(5)}
    edges = {(min(i, j), max(i, j)) for i, j in edges}
    X = cp.Variable((n, n), PSD=True)
    cons = [cp.trace(X) == 1]
    cons += [X[i, j] == 0 for i, j in edges]
    cons += [X[i, j] >= 0 for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    return cp.Problem(cp.Maximize(cp.sum(X)), cons).solve(solver=cp.CLARABEL)


def test_criterion_02_theta_values():
    t_total = 0.0
    v_k5, s1, dt = _solve_reported(theta_relaxation(Graph.complete(5)), tol=1e-11)
    t_total += dt
    v_e5, s2, dt = _solve_reported(theta_relaxation(Graph.empty(5)), tol=1e-10)
    t_total += dt
    v_c5, s3, dt = _solve_reported(theta_relaxation(Graph.cycle(5)), tol=1e-10)
    t_total += dt
    v_c5p, s4, dt = _solve_reported(theta_relaxation(Graph.cycle(5), strengthened=True), tol=1e-10)
    t_total += dt

    # independent references for theta-prime of C5: the closed form always,
    # a cvxpy solve as well when cvxpy is installed
    refs = {"closed form": _theta_prime_c5_closed_form()}
    try:
        import cvxpy as cp
    except ImportError:
        cp = None
    if cp is not None:
        t0 = time.perf_counter()
        refs["cvxpy"] = _theta_prime_c5_cvxpy(cp)
        t_total += time.perf_counter() - t0

    ok = (
        abs(v_k5 - 1.0) <= 1e-9
        and abs(v_e5 - 5.0) <= 1e-8
        and abs(v_c5 - math.sqrt(5)) <= 1e-7
        and all(abs(v_c5p - ref) <= 1e-7 for ref in refs.values())
        and all(s.status == "tol" for s in (s1, s2, s3, s4))
        and t_total < 5.0
    )
    finish(2, "theta: K5=1 (1e-9), empty5=5 (1e-8), C5=sqrt5 (1e-7), theta'(C5) vs reference (1e-7), < 5 s", ok,
           f"K5={v_k5:.10f} E5={v_e5:.9f} C5={v_c5:.9f} C5'={v_c5p:.9f} "
           + " ".join(f"ref[{k}]={v:.9f}" for k, v in refs.items()) + f" t={t_total:.2f}s")


def test_criterion_03_random_sdps():
    results = []
    for name, blocks, m, dens in (("rand_30_20_1.0", (30,), 20, 1.0), ("rand_2x20_15_0.5", (20, 20), 15, 0.5)):
        p = gen_random_sdp(blocks, m, dens, seed=0)
        t0 = time.perf_counter()
        sol, _ = solve(p, SolverOptions(tol=1e-10, max_iters=100000))
        dt = time.perf_counter() - t0
        rep = sol.report.as_dict()
        four = [rep["pinf"], rep["gap"], rep["dinf"], rep["compl"]]
        results.append((name, sol.status, max(four), dt))
    ok = all(st == "tol" and err < 1e-8 and dt < 60.0 for _, st, err, dt in results)
    finish(3, "random SDPs (single and multi-block): status tol at 1e-10, unscaled errors < 1e-8, < 60 s each", ok,
           "; ".join(f"{n}: {st}, max4={e:.2e}, {dt:.1f}s" for n, st, e, dt in results))


def test_criterion_04_stagnation_regression():
    problem, V, y = stagnation_fixture()
    st = make_state(problem, V, y, 4.0)
    _, g1 = column_objective_grad(st, 0, 0, np.array([0.0]))
    warm = WarmStart([v.copy() for v in V], y.copy(), np.zeros(0), 4.0)
    sol, wend = solve(problem, SolverOptions(max_iters=100), warm_start=warm)
    v1_final = abs(float(wend.V_blocks[0][0, 0]))
    ok = v1_final <= 1e-12 and abs(float(g1[0])) <= 1e-12 and sol.iterations == 100
    finish(4, "stagnation fixture: first block stays 0 for 100 iterations, column gradient 0 (1e-12)", ok,
           f"|v1|={v1_final:.2e}, |grad|={abs(float(g1[0])):.2e}")


def test_criterion_05_gradient_consistency():
    from helpers import dense_auglag_oracle, fd_gradient, full_gradient

    h = 1e-5
    checked = 0
    both = 0
    worst = 0.0
    for seed in range(100):
        p, st = random_state(seed)
        t = np.asarray(st.y + st.mu * st.residual(), float)[p.m_eq:]
        if np.any(t > 0) and np.any(t <= 0):
            both += 1
        grads = full_gradient(st)
        for b in range(p.q):
            shape = st.V_blocks[b].shape

            def f(flat):
                Vb = [W.copy() for W in st.V_blocks]
                Vb[b] = flat.reshape(shape)
                return dense_auglag_oracle(p, Vb, np.asarray(st.y, float), float(st.mu))

            fd = fd_gradient(f, st.V_blocks[b].ravel().copy(), h=h).reshape(shape)
            rel = np.abs(grads[b] - fd).max() / (1.0 + np.abs(grads[b]).max())
            worst = max(worst, rel)
        checked += 1
    ok = checked >= 100 and both >= 20 and worst <= 1e-6
    finish(5, "gradient matches central differences over 100 random states (rel 1e-6 at step 1e-5)", ok,
           f"states={checked}, both-branch states={both}, worst rel={worst:.2e}")


def test_criterion_06_incremental_operator_oracle():
    trials = 0
    worst = 0.0
    for seed in range(25):
        p = random_problem(seed, block_sizes=(5, 3), m_eq=4, m_ineq=3, density=0.5)
        slices = ColumnSlices(p)
        rng = np.random.default_rng(7000 + seed)
        from helpers import fresh_cache, random_V_blocks

        V = random_V_blocks(rng, p)
        cache = fresh_cache(p, V)
        for _ in range(40):
            b = int(rng.integers(p.q))
            i = int(rng.integers(p.block_sizes[b]))
            v_start = V[b][:, i].copy()
            v_trial = v_start + rng.standard_normal(v_start.shape)
            got = incremental_operator_values(cache, slices, V, b, i, v_start, v_trial)
            V2 = [W.copy() for W in V]
            V2[b][:, i] = v_trial
            want = apply_operator(p, V2)
            worst = max(worst, float(np.max(np.abs(got - want) / (1 + np.abs(want)))))
            trials += 1
    # one full sweep of commits, then compare against a fresh recomputation
    p = random_problem(3, block_sizes=(6,), m_eq=5, m_ineq=3, density=0.6)
    rng = np.random.default_rng(1)
    from helpers import random_V_blocks

    st = make_state(p, random_V_blocks(rng, p), np.zeros(p.m), 1.0)
    for i in range(6):
        commit_move(st, 0, i, st.V_blocks[0][:, i] + 0.2 * rng.standard_normal(st.V_blocks[0].shape[0]))
    fresh = apply_operator(p, st.V_blocks)
    drift = float(np.max(np.abs(st.cache.values - fresh) / (1 + np.abs(fresh))))
    ok = trials >= 1000 and worst <= 1e-12 and drift <= 1e-11
    finish(6, "incremental operator values: 1000 random perturbations (1e-12), sweep drift (1e-11)", ok,
           f"trials={trials}, worst={worst:.2e}, drift={drift:.2e}")


def test_criterion_07_penalty_and_dual_rules():
    p = random_problem(2, block_sizes=(3,), m_eq=2, m_ineq=0)
    rng = np.random.default_rng(5)
    st = make_state(p, [rng.standard_normal((2, 3))], np.zeros(2), 1.0)
    branch_ok = True
    for ratio, factor in ((1.2000000001, 1.03), (1.2, 1.0), (1.0, 1.0), (0.8, 1.0), (0.7999999999, 1 / 1.03), (math.inf, 1.03)):
        st.mu = 1.0
        update_penalty(st, ratio)
        branch_ok = branch_ok and abs(float(st.mu) - factor) < 1e-15

    fuzz = random_problem(7, block_sizes=(4,), m_eq=2, m_ineq=5)
    stf = make_state(fuzz, [rng.standard_normal((3, 4))], np.zeros(7), 1.0)
    nonneg = True
    for _ in range(1000):
        stf.y[2:] = np.abs(rng.standard_normal(5)) * rng.choice([0.0, 1.0], size=5)
        stf.cache.values = rng.standard_normal(fuzz.m) * 3
        stf.mu = rng.uniform(0.05, 20.0)
        update_duals(stf, fuzz)
        nonneg = nonneg and bool(np.all(stf.y[2:] >= 0))
    ok = branch_ok and nonneg
    finish(7, "penalty branches fire exactly at 0.8/1.2 with tau 1.03; y_b >= 0 in 1000-step fuzz", ok)


def test_criterion_08_scaling_suite(tmp_path):
    ok = True
    details = []
    for seed in range(5):
        p = random_problem(seed, block_sizes=(3, 4), m_eq=4, m_ineq=3)
        scaled, rec = scale(p)
        norms_sq = row_norms_sq(scaled).astype(float)
        ok = ok and bool(np.all(np.abs(norms_sq[:-1] - 1.0) <= 4e-15))
        ok = ok and abs(norms_sq[-1] - 1.0) <= 4e-15
        ok = ok and abs(float(norm2(scaled.rhs[: p.m_eq])) - 1.0) <= 4e-15
        rbar = p.rhs / rec.constraint_norms
        ok = ok and abs(float(norm2(rbar[: p.m_eq] / rec.primal_scale)) - 1.0) <= 4e-15
        ok = ok and np.allclose((rbar / rec.primal_scale).astype(float), scaled.rhs.astype(float), rtol=4e-15, atol=0)
        again, rec2 = scale(scaled)
        ok = ok and np.allclose(rec2.constraint_norms.astype(float), 1.0, rtol=4e-15, atol=0)
        ok = ok and np.allclose(again.rhs.astype(float), scaled.rhs.astype(float), rtol=1e-14, atol=1e-300)
    ineq_only = random_problem(11, block_sizes=(4,), m_eq=0, m_ineq=5)
    s2, _ = scale(ineq_only)
    ok = ok and abs(float(norm2(s2.rhs[ineq_only.m_eq :])) - 1.0) <= 4e-15

    # unscaled-solution errors match an independent check recomputation
    p = gen_random_sdp((6,), 5, 1.0, seed=3)
    prob_path, sol_path = tmp_path / "p.sdp", tmp_path / "p.sol"
    write_native(p, prob_path)
    sol, _ = solve(parse_native(prob_path), SolverOptions(tol=1e-10, max_iters=20000))
    write_solution(sol, sol_path)
    back = read_solution(sol_path)
    rep, _, _ = compute_errors(parse_native(prob_path), back.X, back.y)
    for key, val in rep.as_dict().items():
        diff = abs(val - sol.report.as_dict()[key])
        ok = ok and diff <= 1e-14
        details.append(f"{key} diff {diff:.1e}")
    finish(8, "scaling: unit norms (1e-15), recorded rhs norms, scale twice fixed point, check matches solve", ok,
           ", ".join(details))


def test_criterion_09_extended_precision(tmp_path):
    p = gen_random_sdp((10,), 10, 1.0, seed=42)
    t0 = time.perf_counter()
    sol, _ = solve_two_stage(p, SolverOptions(tol=1e-20, max_iters=100000))
    dt = time.perf_counter() - t0
    rep = sol.report.as_dict()
    four = [rep["pinf"], rep["gap"], rep["dinf"], rep["compl"]]
    # the same four measures recomputed independently of the solver's
    # arithmetic: the benchmark's mpmath oracle (50 digits) on the problem
    # file and the solution's exact hi/lo words
    oracle = load_perfbench_module("oracle")
    write_native(p, tmp_path / "rand_10_10.sdp")
    with mpmath.workdps(oracle.MP_DIGITS):
        def exact(a):
            return [mpmath.mpf(h) + mpmath.mpf(lo) for h, lo in zip(a.hi.ravel().tolist(), a.lo.ravel().tolist())]

        factor = [mpmath.matrix([exact(row) for row in F]) for F in sol.factor]
        errors = oracle.kkt_mpmath(oracle.read_problem(tmp_path / "rand_10_10.sdp"), factor, exact(sol.y_a),
                                   exact(sol.y_b))
    mp_four = [errors[k] for k in ("pinf", "gap", "dinf", "compl")]
    ok = sol.status == "tol" and max(four) < 1e-18 and max(mp_four) < 1e-18 and dt < 600.0
    finish(9, "two-stage double-double on rand_10_10_1.0 at tol 1e-20: unscaled errors < 1e-18, also in 50-digit "
           "mpmath from the raw data, < 10 min", ok,
           f"status={sol.status}, max4={max(four):.2e}, mpmath max4={max(mp_four):.2e}, t={dt:.1f}s, "
           f"iters={sol.iterations}")


def test_criterion_10_rank_rule():
    ok = rank_rule(100, 50, 0) == 10 and rank_rule(3, 100, 0) == 3
    for n in (1, 2, 5, 30, 100):
        for m_a, m_b in ((1, 0), (5, 3), (50, 0), (0, 100), (60, 60)):
            want = min(n, math.ceil(math.sqrt(2 * (m_a + m_b))))
            ok = ok and rank_rule(n, m_a, m_b) == want
    # multi-block: every block gets min(n_i, ceil(sqrt(2 m)))
    p = random_problem(0, block_sizes=(9, 2, 40), m_eq=6, m_ineq=2)
    from sdpmix.solver import init_state

    st = init_state(p, SolverOptions(seed=0))
    shapes = [V.shape[0] for V in st.V_blocks]
    want_k = [min(n, math.ceil(math.sqrt(2 * 8))) for n in (9, 2, 40)]
    ok = ok and shapes == want_k
    finish(10, "rank rule k = min(n, ceil(sqrt(2m))) incl. (100,50)->10, (3,100)->3, per-block sizes", ok,
           f"shapes={shapes}")
