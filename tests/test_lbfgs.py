"""The Newton column solver (sdpmix.lbfgs.minimize_column) on analytic problems."""

import math

import numpy as np
import pytest

from sdpmix.ddouble import DOUBLE_DOUBLE, norm_inf, to_float_array
from sdpmix.lbfgs import minimize_column


def quadratic(c):
    def f(v):
        d = v - c
        return d @ d, 2.0 * d

    return f


def identity_hessian(scale):
    return lambda v: scale * np.eye(len(v))


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
    return np.array([[2 - 400 * (y - 3 * x * x), -400 * x], [-400 * x, 200.0]])


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

        def hess(v):
            return Q - 3.0 * math.sin(v[0]) * np.outer(e0, e0)

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
            return Q + (d @ d) * np.eye(k) + 2.0 * np.outer(d, d)

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
    v, evals, ok = minimize_column(f, v0, lambda v: Q, 1e-10, 1e-14, 10 * 1000)
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
        return np.full((3, 3), math.inf)

    def nan_hessian(v):
        H = 2.0 * np.eye(3)
        H[1, 1] = math.nan
        return H

    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(inf_hessian(None))
    v0 = np.array([1.0, 2.0, 3.0])
    for hessian in (inf_hessian, nan_hessian):
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

    def hessian(v):
        return np.diag([2.0, 1e-12])

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
        return np.array([[3 * v[0] ** 2 - 1, 0.0], [0.0, 2.0]])

    for v0 in (np.array([0.1, 1.0]), np.array([-0.3, -2.0]), np.array([1e-6, 0.5])):
        v, evals, ok = minimize_column(f, v0, hess, 1e-10, 1e-12, 200)
        assert ok and abs(abs(v[0]) - 1.0) < 1e-9 and abs(v[1]) < 1e-9
        assert f(v)[0] < f(v0)[0]


def test_empty_vector_immediate():
    def f(v):
        return 0.0, v

    v, evals, ok = minimize_column(f, np.zeros(0), lambda v: np.zeros((0, 0)), 0.01, 0.01, 1000)
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
