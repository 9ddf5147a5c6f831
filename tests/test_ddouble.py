"""Double-double scalars (0-d DDArrays) and the kind helpers against an
mpmath oracle."""

import math

import mpmath
import numpy as np
import pytest

from sdpmix.ddouble import (
    DOUBLE,
    DOUBLE_DOUBLE,
    all_finite,
    dot,
    kind_by_name,
    kind_of,
    norm2,
    norm_inf,
    segment_sum,
    to_float_array,
)

from test_ddarray import assert_scalar, scalar

mpmath.mp.prec = 240


def to_mp(x):
    return mpmath.mpf(x.hi) + mpmath.mpf(x.lo)


def test_exact_tail_addition():
    tiny = 2.0**-80
    x = (DOUBLE_DOUBLE.scalar(1.0) + tiny) - 1.0
    assert_scalar(x)
    assert x.hi == tiny and x.lo == 0.0


def test_promotion_roundtrip_exact():
    for v in [0.0, 1.0, -3.75, 1e300, 5e-324, math.pi]:
        x = DOUBLE_DOUBLE.scalar(v)
        assert_scalar(x)
        assert float(x) == v and DOUBLE_DOUBLE.scalar(x) is x and DOUBLE.scalar(x) == v


@pytest.mark.parametrize("seed", range(6))
def test_field_ops_match_mpmath(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        a = scalar(rng.normal(), rng.normal() * 1e-18)
        b = scalar(rng.normal(), rng.normal() * 1e-18)
        ma, mb = to_mp(a), to_mp(b)
        for got, want in [
            (a + b, ma + mb),
            (a - b, ma - mb),
            (a * b, ma * mb),
        ]:
            assert_scalar(got)
            err = abs(to_mp(got) - want)
            assert err <= mpmath.mpf(2) ** -99 * (1 + abs(want))
        if float(b) != 0.0:
            err = abs(to_mp(a / b) - ma / mb)
            assert err <= mpmath.mpf(2) ** -99 * (1 + abs(ma / mb))


def test_sqrt_matches_mpmath():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = scalar(abs(rng.normal()) + 1e-6, rng.normal() * 1e-20)
        want = mpmath.sqrt(to_mp(a))
        got = np.sqrt(a)
        assert_scalar(got)
        err = abs(to_mp(got) - want)
        assert err <= mpmath.mpf(2) ** -100 * (1 + abs(want))
    assert float(np.sqrt(scalar(0.0))) == 0.0
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert math.isnan(float(np.sqrt(scalar(-1.0))))  # as numpy's sqrt of a negative array element


def test_ordering_uses_low_word():
    a = scalar(1.0, 1e-20)
    b = scalar(1.0, -1e-20)
    assert b < a and a > b and a != b and a >= b and not (a <= b)
    assert scalar(2.0) > 1.5 and scalar(2.0) < 3
    assert max([b, a, scalar(-1.0)]) is a


def test_mixed_scalar_ops():
    a = scalar(2.0)
    for got, want in [(1 + a, 3.0), (1.5 * a, 3.0), (1.0 - a, -1.0), (6.0 / a, 3.0), (sum([a, a]), 4.0)]:
        assert_scalar(got)
        assert float(got) == want


def test_numpy_object_arrays():
    kind = DOUBLE_DOUBLE
    x = kind.asarray([1.0, -2.0, 3.0])
    y = kind.asarray([4.0, 5.0, 6.0])
    assert float(dot(x, y)) == pytest.approx(12.0)
    assert float(norm2(kind.asarray([3.0, 4.0]))) == pytest.approx(5.0)
    assert float(norm_inf(x)) == 3.0
    assert kind_of(x) is kind and kind_of(np.zeros(2)) is DOUBLE
    assert all_finite(x)
    bad = x.copy()
    bad[1] = DOUBLE_DOUBLE.scalar(math.inf)
    assert not all_finite(bad)
    assert all_finite(x[1]) and not all_finite(bad[1]) and not all_finite(scalar(1.0, math.nan))
    assert all_finite(1.0) and not all_finite(math.nan)
    assert np.array_equal(to_float_array(x), [1.0, -2.0, 3.0])


def test_segment_sum_both_kinds():
    ids = np.array([0, 2, 0, 2, 1])
    vals64 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.allclose(segment_sum(vals64, ids, 4), [4.0, 5.0, 6.0, 0.0])
    got = segment_sum(DOUBLE_DOUBLE.asarray(vals64), ids, 4)
    assert [float(v) for v in got] == [4.0, 5.0, 6.0, 0.0]


def test_empty_reductions_are_zero():
    for kind in (DOUBLE, DOUBLE_DOUBLE):
        e = kind.zeros(0)
        assert float(norm2(e)) == 0.0
        assert float(norm_inf(e)) == 0.0
        assert float(dot(e, e)) == 0.0


def test_kind_lookup():
    assert kind_by_name("double") is DOUBLE
    assert kind_by_name("dd") is DOUBLE_DOUBLE
    with pytest.raises(ValueError):
        kind_by_name("binary128")
