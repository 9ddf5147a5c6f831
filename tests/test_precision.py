"""Promotion and the two-stage extended-precision workflow."""

import numpy as np
import pytest

from sdpmix import precision
from sdpmix.ddouble import DDArray, DOUBLE, DOUBLE_DOUBLE, to_float_array
from sdpmix.instances import Graph, gen_random_sdp, maxcut_relaxation, theta_relaxation
from sdpmix.precision import promote, solve_two_stage
from sdpmix.problem import as_kind
from sdpmix.solver import SolverOptions, WarmStart, solve

from test_solver import gen_rand


def small_warm():
    rng = np.random.default_rng(0)
    return WarmStart([rng.standard_normal((2, 4))], rng.standard_normal(3), np.abs(rng.standard_normal(2)), 1.75)


def test_promote_is_exact_embedding():
    warm = small_warm()
    up = promote(warm, DOUBLE_DOUBLE)
    assert up.kind is DOUBLE_DOUBLE
    assert np.array_equal(to_float_array(up.V_blocks[0]), warm.V_blocks[0])
    assert all(v.lo == 0.0 for v in up.V_blocks[0].reshape(-1))
    assert np.array_equal(to_float_array(up.y_a), warm.y_a)
    assert float(up.mu) == warm.mu and isinstance(up.mu, DDArray) and up.mu.shape == ()


def test_promote_empty_duals():
    warm = WarmStart([np.ones((1, 2))], np.zeros(0), np.zeros(0), 2.0)
    up = promote(warm, DOUBLE_DOUBLE)
    assert up.y_a.size == 0 and up.y_b.size == 0


def test_promote_identity_and_narrowing():
    warm = small_warm()
    same = promote(warm, DOUBLE)
    assert np.array_equal(same.V_blocks[0], warm.V_blocks[0])
    dd = promote(warm, DOUBLE_DOUBLE)
    with pytest.raises(ValueError, match="narrowing"):
        promote(dd, DOUBLE)


def test_two_stage_target_already_met_is_single_stage():
    p = gen_rand(6, 4, 1.0, 3)
    sol, _ = solve_two_stage(p, SolverOptions(tol=1e-6, max_iters=20000))
    assert sol.status == "tol"
    assert sol.X[0].dtype == np.float64  # stage 2 never ran


def test_two_stage_propagates_stage1_failure():
    p = gen_rand(8, 6, 1.0, 4)
    sol, _ = solve_two_stage(p, SolverOptions(tol=1e-20, max_iters=3))
    assert sol.status == "iter"
    assert sol.X[0].dtype == np.float64


def test_two_stage_time_status_propagates():
    p = gen_rand(8, 6, 1.0, 5)
    sol, _ = solve_two_stage(p, SolverOptions(tol=1e-20, time_limit=1e-9))
    assert sol.status == "time"


@pytest.mark.parametrize("limit, spent, left", [(10.0, 2.5, 7.5), (3.0, 5.0, 1e-3)])
def test_two_stage_gives_stage_2_the_time_left(monkeypatch, limit, spent, left):
    # stage 2's time_limit is time_limit less stage 1's elapsed time, but
    # at least 1e-3; a stand-in records each stage's options and reports
    # `spent` as stage 1's time
    limits = []

    def recording(problem, options, warm_start=None, progress=None):
        sol, warm = solve(problem, options, warm_start=warm_start, progress=progress)
        if not limits:
            sol.elapsed = spent
        limits.append(options.time_limit)
        return sol, warm

    monkeypatch.setattr(precision, "solve", recording)
    solve_two_stage(gen_rand(6, 4, 1.0, 3), SolverOptions(tol=1e-20, time_limit=limit))
    assert limits == [limit, left]


@pytest.mark.parametrize("cap", [45, 46, 50, 64, 65, 70])
def test_two_stage_max_iters_caps_both_stages_together(cap):
    # the binary64 stage meets 1e-12 at 46 iterations (the dd_refine
    # instance); a cap it uses up, exactly or not, leaves no refinement,
    # and a larger cap ends inside the double-double stage (79 in all)
    p = gen_random_sdp((10,), 10, 1.0, seed=42)
    sol, _ = solve_two_stage(p, SolverOptions(tol=1e-20, max_iters=cap))
    assert sol.status == "iter" and sol.iterations == cap
    assert isinstance(sol.X[0], DDArray) == (cap > 46)  # stage 2 ran on what was left


def test_two_stage_linear_tail_is_accelerated():
    # rand_10_10 seed 2 converges at a steady linear rate to 1e-20: the
    # plain iteration took 4320 outer iterations; Anderson steps, kept in
    # double-double in the second stage, at least halve that
    sol, warm = solve_two_stage(gen_random_sdp((10,), 10, 1.0, seed=2), SolverOptions(tol=1e-20))
    assert sol.status == "tol" and isinstance(sol.factor[0], DDArray) and warm.kind is DOUBLE_DOUBLE
    assert sol.iterations <= 2160
    assert float(sol.report.max_error()) < 1e-20


def test_two_stage_reaches_extended_accuracy():
    p = gen_rand(6, 5, 1.0, 21)
    sol, warm = solve_two_stage(p, SolverOptions(tol=1e-20, max_iters=20000))
    assert sol.status == "tol"
    assert isinstance(sol.X[0], DDArray)  # refined stage output
    assert warm.kind is DOUBLE_DOUBLE
    assert float(sol.report.max_error()) < 1e-18


@pytest.mark.parametrize("name", ["rand_6_5", "maxcut_k5_triangles"])
def test_dd_solve_from_scratch_reaches_below_1e20(name):
    # a double-double solve from the random start: every sweep commits the
    # column model's binary64 increments and refreshes the cache in dd, and
    # that is enough to reach a 1e-20 report, with and without inequalities
    if name == "rand_6_5":
        p = gen_random_sdp((6, 5), 8, 0.7, 3)
        assert p.m_ineq == 0
    else:
        p = maxcut_relaxation(Graph.complete(5), with_triangles=True).problem
        assert p.m_ineq > 0
    sol, _ = solve(as_kind(p, DOUBLE_DOUBLE), SolverOptions(tol=1e-20))
    assert sol.status == "tol" and isinstance(sol.factor[0], DDArray)
    assert float(sol.report.max_error()) < 1e-20


def test_two_stage_theta_prime_c5_reaches_sqrt5():
    # the double-double stage with inequalities, X_ij >= 0, to 1e-20: the
    # objective is theta'(C5) = sqrt 5, the closed form of criterion 02, to
    # 1e-18 when its double-double words are read in 40 digits
    import mpmath

    inst = theta_relaxation(Graph.cycle(5), strengthened=True)
    assert inst.problem.m_ineq > 0
    sol, _ = solve_two_stage(inst.problem, SolverOptions(tol=1e-20))
    assert sol.status == "tol" and isinstance(sol.objective, DDArray)
    with mpmath.workdps(40):
        value = inst.sense * (mpmath.mpf(sol.objective.hi) + mpmath.mpf(sol.objective.lo)) + inst.offset
        assert abs(value - mpmath.sqrt(5)) < 1e-18


def test_two_stage_rejects_extended_input():
    p = as_kind(gen_rand(4, 3, 1.0, 6), DOUBLE_DOUBLE)
    with pytest.raises(ValueError, match="binary64"):
        solve_two_stage(p, SolverOptions(tol=1e-20))


def test_first_iterate_agrees_across_kinds():
    p = gen_rand(5, 4, 1.0, 33)
    opts = SolverOptions(max_iters=1, seed=2)
    _, w64 = solve(p, opts)
    _, wdd = solve(as_kind(p, DOUBLE_DOUBLE), opts)
    for V1, V2 in zip(w64.V_blocks, wdd.V_blocks):
        rel = np.abs(V1 - to_float_array(V2)) / (1 + np.abs(V1))
        assert rel.max() <= 1e-14  # at least 14 significant digits
    assert np.abs(w64.y_a - to_float_array(wdd.y_a)).max() <= 1e-14
    assert float(w64.mu) == float(wdd.mu)


def test_dd_solve_hands_lbfgs_binary64_only(monkeypatch):
    # the column kernel's model is binary64 at every kind: no double-double
    # value reaches the inner solver (objective, gradient or Hessian), and
    # the committed iterate stays dd
    from sdpmix import solver

    starts, evals, hessians = [], [], []
    inner = solver.minimize_column

    def recording(objective_grad, x0, hessian, *budget):
        def checked(x):
            f, g = objective_grad(x)
            evals.append((x.dtype, type(f), g.dtype))
            return f, g

        def checked_hessian(x):
            H, low = hessian(x)
            hessians.append((x.dtype, H.dtype, H.shape == (len(x), len(x)), type(low)))
            return H, low

        starts.append(x0.dtype)
        return inner(checked, x0, checked_hessian, *budget)

    monkeypatch.setattr(solver, "minimize_column", recording)
    p = as_kind(gen_rand(5, 4, 1.0, 33), DOUBLE_DOUBLE)
    _, warm = solve(p, SolverOptions(max_iters=2, seed=2))
    assert len(starts) == 2 * 5 and set(starts) == {np.dtype(np.float64)}
    assert evals and all(xt == np.float64 and issubclass(ft, float) and gt == np.float64 for xt, ft, gt in evals)
    assert hessians and all(xt == np.float64 and ht == np.float64 and square and issubclass(lt, float)
                            for xt, ht, square, lt in hessians)
    assert isinstance(warm.V_blocks[0], DDArray)
