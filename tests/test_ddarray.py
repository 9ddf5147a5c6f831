"""DDArray, the struct-of-arrays double-double, against 60-digit mpmath,
and the scalar-kind helpers.

Field operations must stay within 2**-99 (1 + |want|) of the exact result
of their exact operands, sqrt within 2**-100 (1 + |want|), and an addition
that cancels within 2**-104 of its result; reductions of N terms within
N 2**-104 times the sum of the terms' magnitudes. Operands carry nonzero
low words.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpmix import ddouble
from sdpmix.ddouble import (
    DOUBLE,
    DOUBLE_DOUBLE,
    DDArray,
    Words,
    all_finite,
    dot,
    kind_by_name,
    kind_of,
    norm2,
    norm_inf,
    segment_sum,
    to_float_array,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
FIELD = mpmath.mpf(2) ** -99
REDUCE = mpmath.mpf(2) ** -104


def word_pair(mantissa, exponent, tail):
    """Normalized words of mantissa 2**exponent with a low word tail ulp-sized."""
    hi = math.ldexp(mantissa, exponent)
    lo = hi * tail * 2.0**-53
    s = hi + lo
    return s, lo - (s - hi)


# mantissas in [0.5, 1) keep every operand and product far from underflow
mantissas = st.floats(0.5, 1.0, exclude_max=True) | st.floats(-1.0, -0.5, exclude_min=True)
nonzero = st.builds(word_pair, mantissas, st.integers(-40, 40), st.floats(-1.0, 1.0))
values = nonzero | st.just((0.0, 0.0))


def scalar(hi, lo=0.0):
    """A 0-d DDArray, the double-double scalar, of the words hi and lo."""
    return DDArray(np.float64(hi), np.float64(lo))


def dd(pairs, shape=None):
    hi = np.array([h for h, _ in pairs], dtype=np.float64)
    lo = np.array([lo for _, lo in pairs], dtype=np.float64)
    if shape is not None:
        hi, lo = hi.reshape(shape), lo.reshape(shape)
    return DDArray(hi, lo)


def mp(x):
    return mpmath.mpf(float(x.hi)) + mpmath.mpf(float(x.lo))


def exact(a):
    """The exact values of a DDArray as a nested list of mpf."""
    return [exact(row) for row in a] if a.ndim > 1 else [mp(x) for x in a]


def assert_normalized(a):
    assert np.array_equal(a.hi + a.lo, a.hi)


def assert_scalar(x):
    assert isinstance(x, DDArray) and x.shape == ()
    assert type(x.hi) is np.float64 and type(x.lo) is np.float64


def check_field(got, want):
    assert isinstance(got, DDArray) and len(got) == len(want)
    assert_normalized(got)
    for x, w in zip(got, want):
        assert abs(mp(x) - w) <= FIELD * (1 + abs(w))


def pairs_of(n, elements=values):
    return st.lists(elements, min_size=n, max_size=n)


def operand(pairs, kind):
    """The pairs as a DDArray, as its binary64 hi words, or (the first) as a
    0-d DDArray; and the exact values it stands for, one per pair."""
    if kind == "binary64":
        a = dd(pairs).hi
        return a, [mpmath.mpf(float(v)) for v in a]
    if kind == "scalar":
        a = scalar(*pairs[0])
        return a, [mp(a)] * len(pairs)
    a = dd(pairs)
    return a, exact(a)


@SETTINGS
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(pairs_of(n), pairs_of(n), pairs_of(n, nonzero))),
       st.sampled_from(["dd", "binary64", "scalar"]))
def test_field_ops_match_mpmath(operands, other):
    xs, ys, zs = operands
    with mpmath.workdps(60):
        x, mx = operand(xs, "dd")
        w, mw = operand(zs, "dd")
        y, my = operand(ys, other)  # the second operand: any kind
        z, mz = operand(zs, other)
        check_field(x + y, [a + b for a, b in zip(mx, my)])
        check_field(y + x, [a + b for a, b in zip(mx, my)])
        check_field(x - y, [a - b for a, b in zip(mx, my)])
        check_field(y - x, [b - a for a, b in zip(mx, my)])
        check_field(x * y, [a * b for a, b in zip(mx, my)])
        check_field(y * x, [a * b for a, b in zip(mx, my)])
        check_field(x / z, [a / b for a, b in zip(mx, mz)])
        check_field(y / w, [a / b for a, b in zip(my, mw)])
        check_field(x * 2.0, [2 * a for a in mx])
        check_field(0.5 * x, [a / 2 for a in mx])
        check_field(-x, [-a for a in mx])
        check_field(abs(x), [abs(a) for a in mx])
        check_field(np.sqrt(abs(x)), [mpmath.sqrt(abs(a)) for a in mx])


@SETTINGS
@given(values, values, nonzero)
def test_scalar_field_ops_match_mpmath(a, b, c):
    # 0-d op 0-d: double-double scalars stay 0-d DDArrays
    with mpmath.workdps(60):
        x, y, z = scalar(*a), scalar(*b), scalar(*c)
        mx, my, mz = mp(x), mp(y), mp(z)
        for got, want in [(x + y, mx + my), (x - y, mx - my), (x * y, mx * my), (x / z, mx / mz),
                          (y / z, my / mz), (-x, -mx), (abs(x), abs(mx)), (np.sqrt(abs(x)), mpmath.sqrt(abs(mx)))]:
            assert_scalar(got)
            assert_normalized(got)
            assert abs(mp(got) - want) <= FIELD * (1 + abs(want))


def test_sqrt_matches_mpmath():
    rng = np.random.default_rng(3)
    with mpmath.workdps(60):
        for _ in range(200):
            a = scalar(abs(rng.normal()) + 1e-6, rng.normal() * 1e-20)
            want = mpmath.sqrt(mp(a))
            got = np.sqrt(a)
            assert_scalar(got)
            err = abs(mp(got) - want)
            assert err <= mpmath.mpf(2) ** -100 * (1 + abs(want))
    assert float(np.sqrt(scalar(0.0))) == 0.0
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert math.isnan(float(np.sqrt(scalar(-1.0))))  # as numpy's sqrt of a negative array element


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


@SETTINGS
@given(st.integers(1, 10).flatmap(lambda n: pairs_of(n)), st.integers(-60, -1))
def test_cancellation_keeps_the_tail(xs, tail_exponent):
    # x + (-x + tiny): the high words cancel and the result is tiny, exact
    # to a few units of 2**-104 relative to itself. The tail lies up to
    # 2**-120 below the operands, so the oracle needs more than 60 digits.
    with mpmath.workdps(120):
        x = dd(xs)
        tiny = math.ldexp(1.0, tail_exponent) * np.abs(x.hi) * 2.0**-60
        z = -x + tiny
        got = x + z
        assert_normalized(got)
        for g, a, b in zip(got, exact(x), exact(z)):
            want = a + b
            assert abs(mp(g) - want) <= REDUCE * abs(want)


def check_reduction(got, want, magnitude, n):
    assert abs(mp(got) - want) <= n * REDUCE * magnitude


@SETTINGS
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(pairs_of(n), pairs_of(n))))
def test_dot_and_sum_match_mpmath(operands):
    with mpmath.workdps(60):
        x, y = dd(operands[0]), dd(operands[1])
        mx, my = exact(x), exact(y)
        n = len(mx)
        got = dot(x, y)
        assert_scalar(got)
        check_reduction(got, mpmath.fsum(a * b for a, b in zip(mx, my)), sum(abs(a * b) for a, b in zip(mx, my)), n)
        got = np.add.reduce(x, axis=None)
        check_reduction(got, mpmath.fsum(mx), sum(abs(a) for a in mx), n)
        assert np.sum(x) == got
        if n == 0:
            assert float(got) == 0.0 and float(dot(x, y)) == 0.0


@SETTINGS
@given(st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(st.just(s), pairs_of(s[0] * s[1]), pairs_of(s[1] * s[2]), pairs_of(s[1]))))
def test_matmul_matches_mpmath(operands):
    (r, k, c), a_pairs, b_pairs, v_pairs = operands
    with mpmath.workdps(60):
        A, B, v = dd(a_pairs, (r, k)), dd(b_pairs, (k, c)), dd(v_pairs)
        mA, mB, mv = exact(A), exact(B), exact(v)
        got = A @ B
        assert got.shape == (r, c)
        for i in range(r):
            for j in range(c):
                terms = [mA[i][t] * mB[t][j] for t in range(k)]
                check_reduction(got[i, j], mpmath.fsum(terms), sum(abs(t) for t in terms), k)
        got = A @ v
        assert got.shape == (r,)
        for i in range(r):
            terms = [mA[i][t] * mv[t] for t in range(k)]
            check_reduction(got[i], mpmath.fsum(terms), sum(abs(t) for t in terms), k)
        got = v @ B
        assert got.shape == (c,)
        for j in range(c):
            terms = [mv[t] * mB[t][j] for t in range(k)]
            check_reduction(got[j], mpmath.fsum(terms), sum(abs(t) for t in terms), k)
        got = v @ v
        assert_scalar(got)
        terms = [t * t for t in mv]
        check_reduction(got, mpmath.fsum(terms), sum(abs(t) for t in terms), k)
        # a binary64 operand on either side
        got = A.hi @ B
        for i in range(r):
            for j in range(c):
                terms = [mpmath.mpf(float(A.hi[i, t])) * mB[t][j] for t in range(k)]
                check_reduction(got[i, j], mpmath.fsum(terms), sum(abs(t) for t in terms), k)


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda nseg: st.integers(0, 30).flatmap(
    lambda n: st.tuples(st.just(nseg), pairs_of(n), st.lists(st.integers(0, nseg - 1), min_size=n, max_size=n)))))
def test_segment_sum_matches_mpmath(operands):
    nseg, pairs, ids = operands
    with mpmath.workdps(60):
        values = dd(pairs)
        got = segment_sum(values, np.array(ids, dtype=np.int64), nseg)
        assert isinstance(got, DDArray) and got.shape == (nseg,)
        assert_normalized(got)
        mv = exact(values)
        for s in range(nseg):
            terms = [v for v, j in zip(mv, ids) if j == s]
            check_reduction(got[s], mpmath.fsum(terms), sum(abs(t) for t in terms), max(len(terms), 1))


def test_segment_sum_memory_is_linear_for_unequal_buckets():
    # one bucket of 2000 values among 20000 single-value buckets (a dense cost
    # row among three-entry constraints): a bucket-by-rank grid would hold
    # 2000 x 20001 words, 320 MB
    import tracemalloc

    n_small = 20000
    ids = np.concatenate([np.zeros(2000, dtype=np.int64), np.arange(1, n_small + 1)])
    values = DDArray(np.full(len(ids), 1.0 / 3.0), np.full(len(ids), 2.0**-60))
    tracemalloc.start()
    try:
        got = segment_sum(values, ids, n_small + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    with mpmath.workdps(60):
        want = 2000 * (mpmath.mpf(1.0 / 3.0) + mpmath.mpf(2.0**-60))
        assert abs(mp(got[0]) - want) <= 2000 * REDUCE * want
    assert got[1].hi == 1.0 / 3.0 and got[1].lo == 2.0**-60


def test_matmul_memory_is_bounded():
    # the products of a 2-d @ 2-d product come a chunk of rows at a time: all
    # 200**3 at once would be 64 MB a temporary, with several alive
    import tracemalloc

    rng = np.random.default_rng(3)
    n = 200
    a = DDArray(rng.standard_normal((n, n)), rng.standard_normal((n, n)) * 2.0**-60)
    b = DDArray(rng.standard_normal((n, n)), rng.standard_normal((n, n)) * 2.0**-60)
    tracemalloc.start()
    try:
        got = a @ b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    with mpmath.workdps(60):
        for i, j in [(0, 0), (77, 123), (n - 1, n - 1)]:
            terms = [mp(a[i, t]) * mp(b[t, j]) for t in range(n)]
            check_reduction(got[i, j], mpmath.fsum(terms), sum(abs(t) for t in terms), n)


def test_matmul_chunks_give_the_rows_of_one_product(monkeypatch):
    rng = np.random.default_rng(4)
    a = DDArray(rng.standard_normal((7, 5)), rng.standard_normal((7, 5)) * 2.0**-60)
    b = DDArray(rng.standard_normal((5, 6)), rng.standard_normal((5, 6)) * 2.0**-60)
    whole = a @ b
    monkeypatch.setattr(ddouble, "_MATMUL_WORDS", 60)  # two rows a chunk: 2, 2, 2, 1
    chunked = a @ b
    assert np.array_equal(chunked.hi, whole.hi) and np.array_equal(chunked.lo, whole.lo)
    assert np.array_equal((a.hi @ b).hi, (DDArray(a.hi, np.zeros_like(a.hi)) @ b).hi)
    with pytest.raises(ValueError, match="summed dimension"):
        a @ a


def test_empty_and_order_one_shapes():
    e = DOUBLE_DOUBLE.zeros(0)
    for got in (e + e, e - 1.0, e * e, e / DOUBLE_DOUBLE.scalar(3.0), np.sqrt(e), abs(e)):
        assert isinstance(got, DDArray) and got.shape == (0,)
    assert float(dot(e, e)) == 0.0 and float(np.add.reduce(e, axis=None)) == 0.0
    assert segment_sum(e, np.zeros(0, dtype=np.int64), 3).shape == (3,)
    Z = DOUBLE_DOUBLE.zeros((2, 0)) @ DOUBLE_DOUBLE.zeros((0, 3))
    assert Z.shape == (2, 3) and not np.any(to_float_array(Z))
    one = DDArray(np.array([[1.5]]), np.array([[2.0**-60]]))
    got = one @ one
    assert got.shape == (1, 1) and got[0, 0].hi == 2.25 and got[0, 0].lo == 3 * 2.0**-60


def test_compare_where_maximum_and_indexing():
    x = DDArray(np.array([1.0, 1.0, -2.0, 0.0]), np.array([2.0**-60, -(2.0**-60), 0.0, 0.0]))
    one = DOUBLE_DOUBLE.scalar(1.0)
    assert (x > one).tolist() == [True, False, False, False]
    assert (x <= 1.0).tolist() == [False, True, True, True]
    assert (x == x).all() and not (x != x).any()
    assert (one < x).tolist() == [True, False, False, False]
    top = np.maximum(x, 0.0)
    assert top[1].lo == -(2.0**-60) and top[2].hi == 0.0
    assert np.where(x > 0, x, one)[3].hi == 1.0
    assert np.maximum.reduce(x, axis=None).lo == 2.0**-60
    y = x.copy()
    y[1:3] = np.array([5.0, 6.0])
    y[0] = scalar(7.0, 2.0**-55)
    assert y[0].lo == 2.0**-55 and y[1].hi == 5.0 and y[1].lo == 0.0 and x[0].hi == 1.0
    assert np.array_equal(np.concatenate([x, np.ones(1)]).hi, [1.0, 1.0, -2.0, 0.0, 1.0])
    for got in (x[0], x.sum(), x.max(), np.where(x[0] > 0, x[0], one)):
        assert_scalar(got)
    joined = np.append(x, scalar(2.0, 2.0**-80))
    assert isinstance(joined, DDArray)
    assert joined.hi.tolist() == [1.0, 1.0, -2.0, 0.0, 2.0] and joined.lo.tolist() == x.lo.tolist() + [2.0**-80]
    grid = np.append(x.reshape(2, 2), np.ones((1, 2)), axis=0)
    assert isinstance(grid, DDArray) and grid.shape == (3, 2) and grid.lo[0, 0] == 2.0**-60


def test_truth_value_follows_numpy():
    assert not DOUBLE_DOUBLE.zeros(1) and not DOUBLE_DOUBLE.scalar(0.0)
    assert DOUBLE_DOUBLE.asarray([-2.0]) and DOUBLE_DOUBLE.scalar(0.5)
    for shape in [(2,), (0,)]:
        with pytest.raises(ValueError, match="ambiguous"):
            bool(DOUBLE_DOUBLE.zeros(shape))


def test_object_array_boundary_is_exact():
    x = DDArray(np.array([[1.0, -3.0]]), np.array([[2.0**-70, 2.0**-60]]))
    objects = np.asarray(x)
    assert objects.dtype == object and objects.shape == (1, 2)
    assert [(v.hi, v.lo) for v in objects.ravel()] == [(1.0, 2.0**-70), (-3.0, 2.0**-60)]
    assert all(isinstance(v, Words) for v in objects.ravel())
    with pytest.raises(TypeError):
        objects - objects  # the words records carry no arithmetic
    assert np.array_equal(to_float_array(objects), to_float_array(x))
    assert np.asarray(x, dtype=float).dtype == np.float64
    assert np.asarray(x[0, 1])[()] == Words(-3.0, 2.0**-60)
    # numpy keeps the 0-d DDArrays of a list in its object array
    scalars = np.asarray([x[0, 1], x[0, 0]])
    assert scalars.dtype == object and to_float_array(scalars).tolist() == [-3.0, 1.0]
    # the object array goes one way: it is no operand and no kind's input
    assert kind_of(objects) is DOUBLE
    for refused in (lambda: x + objects, lambda: objects * x, lambda: DOUBLE_DOUBLE.asarray(objects),
                    lambda: DOUBLE_DOUBLE.asarray([x[0, 1], x[0, 0]])):
        with pytest.raises(TypeError):
            refused()
    # a numpy function DDArray does not implement raises, naming DDArray
    for refused in (lambda: np.flip(x, axis=1), lambda: np.argsort(x[0])):
        with pytest.raises(TypeError, match="DDArray"):
            refused()


@pytest.mark.parametrize("shape", [(0,), (1,), (3,), (2, 3)])
def test_shape_helpers(shape):
    x = DOUBLE_DOUBLE.asarray(np.arange(float(np.prod(shape))).reshape(shape))
    assert x.shape == shape and x.size == int(np.prod(shape)) and x.ndim == len(shape)
    assert x.T.shape == shape[::-1]
    assert len(list(x)) == shape[0]


def test_kind_helpers():
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


def test_kind_lookup():
    assert kind_by_name("double") is DOUBLE
    assert kind_by_name("dd") is DOUBLE_DOUBLE
    with pytest.raises(ValueError):
        kind_by_name("binary128")


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
