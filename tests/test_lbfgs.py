"""Inner solver on analytic problems."""

import math

import numpy as np
import pytest

from sdpmix.ddouble import DOUBLE_DOUBLE, norm_inf, to_float_array
from sdpmix.lbfgs import InnerConfig, minimize_column


def quadratic(c):
    def f(v):
        d = v - c
        return d @ d, 2.0 * d

    return f


def test_quadratic_reaches_analytic_minimizer():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(6)
    v0 = rng.standard_normal(6)
    v, evals, ok = minimize_column(quadratic(c), v0, InnerConfig(eps=1e-8, delta=1e-12))
    assert ok and evals <= 30
    assert np.linalg.norm(v - c) <= 1e-6


def test_immediate_stop_when_start_gradient_small():
    c = np.zeros(3)
    v0 = np.full(3, 1e-10)  # gradient 2e-10 << eps
    v, evals, ok = minimize_column(quadratic(c), v0, InnerConfig(eps=0.01))
    assert ok and evals == 1 and np.array_equal(v, v0)


def test_budget_returns_best_iterate():
    def rosenbrock(v):
        x, y = v
        f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
        g = np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])
        return f, g

    v0 = np.array([-1.2, 1.0])
    v, evals, ok = minimize_column(rosenbrock, v0, InnerConfig(eps=1e-12, max_evals=2))
    assert not ok and evals <= 2
    assert rosenbrock(v)[0] <= rosenbrock(v0)[0]


def test_monotone_acceptance_on_random_problems():
    rng = np.random.default_rng(1)
    for _ in range(30):
        k = rng.integers(1, 8)
        A = rng.standard_normal((k, k))
        Q = A @ A.T + 0.1 * np.eye(k)
        b = rng.standard_normal(k)

        def f(v):
            return 0.5 * v @ Q @ v + b @ v + math.sin(v[0]), Q @ v + b + np.eye(k)[0] * math.cos(v[0])

        v0 = rng.standard_normal(k) * 3
        budget = int(rng.integers(2, 40))
        v, evals, ok = minimize_column(f, v0, InnerConfig(eps=1e-9, max_evals=budget))
        assert f(v)[0] <= f(v0)[0]
        assert evals <= budget


def test_stop_rule_holds_at_returned_point():
    rng = np.random.default_rng(2)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = rng.integers(1, 10)
        c = rng.standard_normal(k)
        cfg = InnerConfig(eps=rng.uniform(1e-8, 1e-2), delta=rng.uniform(1e-6, 0.5))
        fun = quadratic(c)
        v0 = rng.standard_normal(k)
        v, _, ok = minimize_column(fun, v0, cfg)
        if ok:
            g_start = fun(v0)[1]
            g_ret = fun(v)[1]  # fresh evaluation
            assert float(norm_inf(g_ret)) < max(cfg.eps, cfg.delta * float(norm_inf(g_start)))


def test_determinism():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(5)
    v0 = rng.standard_normal(5)
    r1 = minimize_column(quadratic(c), v0.copy(), InnerConfig(eps=1e-10))
    r2 = minimize_column(quadratic(c), v0.copy(), InnerConfig(eps=1e-10))
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
    v, evals, ok = minimize_column(f, v0, InnerConfig(eps=1e-10, delta=1e-14, max_evals=10 * 1000))
    assert ok
    assert evals <= 10 * k
    assert np.abs(f(v)[1]).max() < 1e-10


def test_nonfinite_objective_returns_start():
    calls = {"n": 0}

    def f(v):
        calls["n"] += 1
        if calls["n"] > 1:
            return math.nan, np.zeros_like(v)
        return float(v @ v + 10), 2.0 * v

    v0 = np.array([3.0, 4.0])
    v, evals, ok = minimize_column(f, v0, InnerConfig(eps=1e-12))
    assert not ok and np.array_equal(v, v0)


def test_concave_function_no_crash_and_monotone():
    def f(v):
        return -(v @ v), -2.0 * v

    v0 = np.array([1.0, -2.0])
    v, evals, ok = minimize_column(f, v0, InnerConfig(eps=1e-10, max_evals=100))
    assert f(v)[0] <= f(v0)[0]


def test_empty_vector_immediate():
    def f(v):
        return 0.0, v

    v, evals, ok = minimize_column(f, np.zeros(0), InnerConfig())
    assert ok and evals == 1 and v.size == 0


def test_double_double_quadratic_to_extreme_accuracy():
    # the solver's double-double scheme on |v - c|^2: each round forms the
    # gradient g0 at v in double-double, L-BFGS minimizes the increment
    # f(v + d) - f(v) = g0.d + |d|^2 in binary64, and v + d is formed in
    # double-double; c is not a binary64 vector, so one round cannot hit it
    kind = DOUBLE_DOUBLE
    c = kind.asarray([0.5, -1.25, 2.0]) / 3.0
    v = kind.asarray([3.0, 3.0, 3.0])
    for rounds in range(1, 6):
        g0 = to_float_array(2.0 * (v - c))

        def f(d):
            return g0 @ d + d @ d, g0 + 2.0 * d

        d, evals, ok = minimize_column(f, np.zeros(3), InnerConfig(eps=1e-24, delta=1e-10, max_evals=500))
        assert ok and d.dtype == np.float64
        if evals == 1:  # the start gradient is below eps: v is the minimizer
            break
        v = v + d
    assert rounds <= 4
    err = max(abs(float(x - y)) for x, y in zip(v, c))
    assert err < 1e-22


def test_config_validation():
    with pytest.raises(ValueError):
        InnerConfig(eps=0.0)
    with pytest.raises(ValueError):
        InnerConfig(delta=-1.0)
    with pytest.raises(ValueError):
        InnerConfig(memory=0)
    with pytest.raises(ValueError):
        InnerConfig(max_evals=0)
