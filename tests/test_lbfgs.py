"""The Newton column solver (sdpmix.lbfgs.minimize_column) on analytic problems,
and its certified step on the Hessians that solves ask for."""

import math

import numpy as np
import pytest

from sdpmix import solver
from sdpmix.ddouble import DOUBLE_DOUBLE, norm_inf, to_float_array
from sdpmix.instances import Graph, gen_random_sdp, maxcut_relaxation
from sdpmix.lbfgs import minimize_column
from sdpmix.precision import STAGE1_TOL, solve_two_stage
from sdpmix.solver import SolverOptions, solve


def quadratic(c):
    def f(v):
        d = v - c
        return d @ d, 2.0 * d

    return f


def identity_hessian(scale):
    """scale I, with its eigenvalue as the bound."""
    return lambda v: (scale * np.eye(len(v)), scale)


def test_quadratic_reaches_analytic_minimizer():
    # exact curvature: one Newton step lands on the minimizer
    rng = np.random.default_rng(0)
    c = rng.standard_normal(6)
    v0 = rng.standard_normal(6)
    v, evals, ok = minimize_column(quadratic(c), v0, identity_hessian(2.0), 1e-8, 1e-12, 1000)
    assert ok and evals == 2
    assert np.linalg.norm(v - c) <= 1e-14


def test_immediate_stop_when_start_gradient_small():
    c = np.zeros(3)
    v0 = np.full(3, 1e-10)  # gradient 2e-10 << eps

    def no_hessian(v):
        raise AssertionError("a converged start needs no Newton step")

    v, evals, ok = minimize_column(quadratic(c), v0, no_hessian, 0.01, 0.01, 1000)
    assert ok and evals == 1 and np.array_equal(v, v0)


def rosenbrock(v):
    x, y = v
    f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
    g = np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])
    return f, g


def rosenbrock_hessian(v):
    x, y = v
    return np.array([[2 - 400 * (y - 3 * x * x), -400 * x], [-400 * x, 200.0]]), -math.inf


def test_budget_returns_best_iterate():
    v0 = np.array([-1.2, 1.0])
    f0 = rosenbrock(v0)[0]
    for budget in (2, 3, 5, 8):
        v, evals, ok = minimize_column(rosenbrock, v0, rosenbrock_hessian, 1e-12, 0.01, budget)
        assert not ok and evals == budget
        assert rosenbrock(v)[0] <= f0
    # with room, the damped Newton method reaches the minimizer (1, 1)
    v, evals, ok = minimize_column(rosenbrock, v0, rosenbrock_hessian, 1e-10, 1e-14, 200)
    assert ok and np.abs(v - 1.0).max() < 1e-8


def test_monotone_acceptance_on_random_problems():
    rng = np.random.default_rng(1)
    for _ in range(30):
        k = int(rng.integers(1, 8))
        A = rng.standard_normal((k, k))
        Q = A @ A.T + 0.1 * np.eye(k)
        b = rng.standard_normal(k)
        e0 = np.eye(k)[0]

        def f(v):
            return 0.5 * v @ Q @ v + b @ v + 3.0 * math.sin(v[0]), Q @ v + b + 3.0 * e0 * math.cos(v[0])

        def hess(v):  # Q's eigenvalues are at least 0.1
            return Q - 3.0 * math.sin(v[0]) * np.outer(e0, e0), 0.1 - 3.0 * max(math.sin(v[0]), 0.0)

        v0 = rng.standard_normal(k) * 3
        budget = int(rng.integers(2, 40))
        v, evals, ok = minimize_column(f, v0, hess, 1e-9, 0.01, budget)
        assert f(v)[0] <= f(v0)[0]
        assert evals <= budget


def test_stop_rule_holds_at_returned_point():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 10))
        A = rng.standard_normal((k, k))
        Q = A @ A.T + 0.1 * np.eye(k)
        c = rng.standard_normal(k)

        def fun(v):
            # a quartic bowl: Newton needs several steps
            d = v - c
            return 0.5 * d @ Q @ d + 0.25 * (d @ d) ** 2, Q @ d + (d @ d) * d

        def hess(v):
            d = v - c
            return Q + (d @ d) * np.eye(k) + 2.0 * np.outer(d, d), 0.1 + d @ d

        eps, delta = rng.uniform(1e-8, 1e-2), rng.uniform(1e-6, 0.5)
        v0 = rng.standard_normal(k) * 2
        v, _, ok = minimize_column(fun, v0, hess, eps, delta, 1000)
        assert ok
        g_start = fun(v0)[1]
        g_ret = fun(v)[1]  # fresh evaluation
        assert float(norm_inf(g_ret)) < max(eps, delta * float(norm_inf(g_start)))


def test_determinism():
    rng = np.random.default_rng(3)
    v0 = rng.standard_normal(2) * 2
    r1 = minimize_column(rosenbrock, v0.copy(), rosenbrock_hessian, 1e-10, 0.01, 1000)
    r2 = minimize_column(rosenbrock, v0.copy(), rosenbrock_hessian, 1e-10, 0.01, 1000)
    assert np.array_equal(r1[0], r2[0]) and r1[1:] == r2[1:]


@pytest.mark.parametrize("k", [2, 10, 25, 50])
def test_convex_quadratics_high_accuracy(k):
    rng = np.random.default_rng(k)
    A = rng.standard_normal((k, k))
    Q = A @ A.T + 0.5 * np.eye(k)
    b = rng.standard_normal(k)

    def f(v):
        return 0.5 * v @ Q @ v + b @ v, Q @ v + b

    v0 = rng.standard_normal(k)
    v, evals, ok = minimize_column(f, v0, lambda v: (Q, 0.5), 1e-10, 1e-14, 10 * 1000)
    assert ok
    assert evals <= 3
    assert np.abs(f(v)[1]).max() < 1e-10


def test_nonfinite_objective_returns_start():
    calls = {"n": 0}

    def f(v):
        calls["n"] += 1
        if calls["n"] > 1:
            return math.nan, np.zeros_like(v)
        return float(v @ v + 10), 2.0 * v

    v0 = np.array([3.0, 4.0])
    v, evals, ok = minimize_column(f, v0, identity_hessian(2.0), 1e-12, 0.01, 1000)
    assert not ok and evals == 2 and np.array_equal(v, v0)

    def inf_gradient(v):
        return 0.0, np.full_like(v, math.inf)

    v, evals, ok = minimize_column(inf_gradient, v0, identity_hessian(2.0), 0.01, 0.01, 1000)
    assert not ok and evals == 1 and np.array_equal(v, v0)


def test_failed_eigendecomposition_returns_start():
    # LAPACK's eigh gives up on an all-inf 3 x 3 Hessian (as after a penalty
    # near the binary64 range), and returns NaNs for one with a single NaN;
    # either way the subproblem aborts like a nonfinite evaluation, before
    # any trial
    def inf_hessian(v):
        return np.full((3, 3), math.inf), -math.inf

    def nan_hessian(v):
        H = 2.0 * np.eye(3)
        H[1, 1] = math.nan
        return H, 2.0

    def nan_off_diagonal(v):  # a bound that certifies it: the linear solve returns NaNs
        H = 2.0 * np.eye(3)
        H[0, 1] = math.nan
        return H, 2.0

    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(inf_hessian(None)[0])
    v0 = np.array([1.0, 2.0, 3.0])
    for hessian in (inf_hessian, nan_hessian, nan_off_diagonal):
        v, evals, ok = minimize_column(quadratic(np.zeros(3)), v0, hessian, 0.01, 0.01, 1000)
        assert v is v0 and evals == 1 and not ok


def test_positive_definite_curvature_under_the_floor_is_floored():
    # H = diag(2, 1e-12) is positive definite, but its small curvature is under
    # the floor 2^-26 * 2: the step along it is the floored one (about 34), not
    # Newton's 1e6, which would run into the wall at |v| = 1e5
    b = np.array([1.0, 1e-6])

    def f(v):
        if norm_inf(v) > 1e5:
            return math.inf, np.full(2, math.inf)
        return v[0] ** 2 + 0.5e-12 * v[1] ** 2 - b @ v, np.array([2.0 * v[0], 1e-12 * v[1]]) - b

    def hessian(v):  # its bound is positive but under the floor: no certified step
        return np.diag([2.0, 1e-12]), 1e-12

    v0 = np.zeros(2)
    v, evals, ok = minimize_column(f, v0, hessian, 1e-12, 1e-12, 2)
    assert evals == 2 and not ok
    assert v[0] == 0.5 and v[1] == pytest.approx(1e-6 / 2.0**-25, rel=1e-12)
    v, evals, ok = minimize_column(f, v0, hessian, 1e-12, 1e-12, 50)
    f_v, g_v = f(v)
    assert math.isfinite(f_v) and f_v < f(v0)[0] and np.isfinite(g_v).all()


def test_concave_function_no_crash_and_monotone():
    # negative curvature everywhere: the step follows |eigenvalues| downhill
    def f(v):
        return -(v @ v), -2.0 * v

    v0 = np.array([1.0, -2.0])
    v, evals, ok = minimize_column(f, v0, identity_hessian(-2.0), 1e-10, 0.01, 100)
    assert not ok and evals == 100
    assert f(v)[0] < f(v0)[0]


def test_indefinite_start_stays_monotone():
    # f = x^4/4 - x^2/2 + y^2: a saddle at 0, minima at (+-1, 0); from a
    # start where the x-curvature is negative, Newton must still descend
    def f(v):
        x, y = v
        return x**4 / 4 - x**2 / 2 + y**2, np.array([x**3 - x, 2 * y])

    def hess(v):
        return np.array([[3 * v[0] ** 2 - 1, 0.0], [0.0, 2.0]]), min(3 * v[0] ** 2 - 1, 2.0)

    for v0 in (np.array([0.1, 1.0]), np.array([-0.3, -2.0]), np.array([1e-6, 0.5])):
        v, evals, ok = minimize_column(f, v0, hess, 1e-10, 1e-12, 200)
        assert ok and abs(abs(v[0]) - 1.0) < 1e-9 and abs(v[1]) < 1e-9
        assert f(v)[0] < f(v0)[0]


def test_a_rise_within_rounding_passes_the_line_search_but_not_the_result():
    # f = 1 + |v - c|^2 with an error of 4 ulp(1) at every point but the
    # start, whose true decrease to c, 2e-18, is below the rounding of f:
    # the Newton step to c raises the value by that error, which fails
    # Armijo's test but lies within the rounding level 128 u |f| while the
    # slope along the step has not turned, so the line search accepts it
    # (approximate Armijo); the gradient there meets the stopping rule, but
    # the value is above the start's, so the start is returned, unconverged
    c = np.array([0.5, -0.25])
    v0 = c + 1e-9

    def f(v):
        d = v - c
        return 1.0 + d @ d + (0.0 if v is v0 else 4 * 2.0**-52), 2.0 * d

    v, evals, ok = minimize_column(f, v0, identity_hessian(2.0), 1e-12, 1e-12, 10)
    assert v is v0 and evals == 2 and not ok


def test_empty_vector_immediate():
    def f(v):
        return 0.0, v

    v, evals, ok = minimize_column(f, np.zeros(0), lambda v: (np.zeros((0, 0)), -math.inf), 0.01, 0.01, 1000)
    assert ok and evals == 1 and v.size == 0


def test_double_double_quadratic_to_extreme_accuracy():
    # the solver's double-double scheme on |v - c|^2: each round forms the
    # gradient g0 at v in double-double, Newton minimizes the increment
    # f(v + d) - f(v) = g0.d + |d|^2 in binary64, and v + d is formed in
    # double-double; c is not a binary64 vector, so one round cannot hit it
    kind = DOUBLE_DOUBLE
    c = kind.asarray([0.5, -1.25, 2.0]) / 3.0
    v = kind.asarray([3.0, 3.0, 3.0])
    for rounds in range(1, 6):
        g0 = to_float_array(2.0 * (v - c))

        def f(d):
            return g0 @ d + d @ d, g0 + 2.0 * d

        d, evals, ok = minimize_column(f, np.zeros(3), identity_hessian(2.0), 1e-24, 1e-10, 500)
        assert ok and d.dtype == np.float64
        if evals == 1:  # the start gradient is below eps: v is the minimizer
            break
        v = v + d
    assert rounds <= 4
    err = max(abs(float(x - y)) for x, y in zip(v, c))
    assert err < 1e-22


def test_zero_eps_accepts_a_zero_gradient():
    # the threshold keeps a positive floor, so eps = 0 still stops at once
    # where the gradient vanishes instead of spending the budget there
    def f(v):
        return 0.0, np.zeros_like(v)

    v0 = np.array([1.0, -1.0])
    v, evals, ok = minimize_column(f, v0, identity_hessian(2.0), 0.0, 0.01, 1000)
    assert ok and evals == 1 and v is v0


def record_steps(monkeypatch, calls, active=lambda: True):
    """Append "eigh" or "solve" to calls at every such numpy.linalg call
    made while active()."""
    for name in ("eigh", "solve"):
        def call(*args, _name=name, _original=getattr(np.linalg, name)):
            if active():
                calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(np.linalg, name, call)


def test_indefinite_start_takes_eigh_then_the_certified_solve(monkeypatch):
    # from x = 0.1 the bound 3 x^2 - 1 is negative: the first step is the
    # floored eigh step; near the minimum at x = 1 the bound is 2 and
    # certifies every eigenvalue, so the later steps are linear solves
    calls = []
    record_steps(monkeypatch, calls)

    def f(v):
        x, y = v
        return x**4 / 4 - x**2 / 2 + y**2, np.array([x**3 - x, 2 * y])

    def hess(v):
        return np.array([[3 * v[0] ** 2 - 1, 0.0], [0.0, 2.0]]), min(3 * v[0] ** 2 - 1, 2.0)

    v, evals, ok = minimize_column(f, np.array([0.1, 1.0]), hess, 1e-10, 1e-12, 200)
    assert ok and abs(v[0] - 1.0) < 1e-9
    assert calls[0] == "eigh" and calls[-1] == "solve" and "solve" in calls


# -- the certified step on the Hessians of solves ------------------------------


def maxcut_triangles(n):
    """Max-Cut with triangles over G(n, 1/2) drawn from default_rng(0)."""
    rng = np.random.default_rng(0)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return maxcut_relaxation(Graph.build(n, edges), with_triangles=True).problem


def newton_steps(monkeypatch, run, keep=True):
    """Run `run` with every column solve recorded: the (H, low, g) of each
    Newton step (g the gradient at the point H is asked for) when `keep`,
    and how many eigh and solve calls the column solves made."""
    steps, calls, inside = [], [], []
    inner = solver.minimize_column

    def recording(objective_grad, x0, hessian, *budget):
        last = []

        def evaluated(x):
            f, g = objective_grad(x)
            last[:] = [g]
            return f, g

        def asked(x):
            H, low = hessian(x)
            if keep:
                steps.append((H, low, last[0]))
            return H, low

        inside.append(True)
        try:
            return inner(evaluated, x0, asked, *budget)
        finally:
            inside.pop()

    with monkeypatch.context() as patch:
        patch.setattr(solver, "minimize_column", recording)
        record_steps(patch, calls, lambda: bool(inside))
        run()
    return steps, {name: calls.count(name) for name in ("eigh", "solve")}


def test_certified_step_equals_the_floored_eigh_step(monkeypatch):
    # every (H, low, g) that solves of big_block, Max-Cut G(16) with
    # triangles and dd_refine's stage 2 ask for: low bounds H's eigenvalues,
    # and where it clears the floor the linear solve's step is the floored
    # eigh step. The two agree to 1e-12 relative, or to 16 u tr H / low
    # where that is larger: tr H / low bounds H's condition, which reaches
    # about 1e4 on a few G(16) steps, whose two steps differ by about 2e-12.
    # Coverage: no step of big_block calls eigh, and on Max-Cut G(16) and
    # G(24) with triangles (G(24) counted only) at least 99 % of the steps
    # are linear solves
    u = 2.0**-53
    p = gen_random_sdp((10,), 10, 1.0, 42)
    _, warm = solve(p, SolverOptions(tol=STAGE1_TOL))
    runs = {"big_block": (lambda: solve(gen_random_sdp((100,), 3, 0.05, 0), SolverOptions(tol=1e-8)), 1.0, True),
            "maxcut_G16": (lambda: solve(maxcut_triangles(16), SolverOptions(tol=1e-8)), 0.99, True),
            "dd_refine_stage_2": (lambda: solve_two_stage(p, SolverOptions(tol=1e-20), warm_start=warm), 1.0, True),
            "maxcut_G24": (lambda: solve(maxcut_triangles(24), SolverOptions(tol=1e-8)), 0.99, False)}
    for name, (run, share, keep) in runs.items():
        steps, counts = newton_steps(monkeypatch, run, keep)
        certified = 0
        for H, low, g in steps:
            w, Q = np.linalg.eigh(H)
            assert w[0] >= low - 64 * u * np.abs(w).max(), name
            g_norm = float(norm_inf(g))
            if not (low > 0 and low >= 2.0**-26 * H.trace() and low >= u * g_norm):
                continue
            certified += 1
            curv = np.abs(w)
            floored = Q @ ((Q.T @ g) / -np.maximum(curv, max(2.0**-26 * curv.max(), u * g_norm)))
            err = np.linalg.norm(np.linalg.solve(H, -g) - floored) / np.linalg.norm(floored)
            assert err <= max(1e-12, 16 * u * H.trace() / low), name
        if keep:
            assert counts == {"eigh": len(steps) - certified, "solve": certified}, name
        assert counts["solve"] >= share * (counts["solve"] + counts["eigh"]) > 0, name
