"""Double-double arrays, and the scalar-kind abstraction.

A double-double value is an unevaluated sum hi + lo of two binary64 values,
kept normalized (hi = fl(hi + lo), so |lo| <= ulp(hi) / 2): about 31
significant decimal digits. DDArray is the one double-double type: an array
of such values as a struct of arrays, two float64 ndarrays `hi` and `lo` of
one shape, so every operation is a handful of whole-array numpy
expressions. A double-double scalar is a 0-d DDArray, whose words are
np.float64 scalars.

Arithmetic is built from the error-free transforms of Hida, Li and Bailey
(QD, 2001): two-sum (Knuth), fast two-sum (Dekker) and two-product by
Dekker's splitting (numpy has no fused multiply-add). With u = 2**-53 and
the double-word bounds of Joldes, Muller and Popescu (ACM TOMS 44, 2017):

- add and subtract: AccurateDWPlusDW, relative error about 3 u^2 at most;
  with a binary64 operand it is DWPlusFP, about 2 u^2;
- multiply: DWTimesDW1, relative error about 7 u^2 at most;
- divide: QD's long division with two correction steps, and sqrt: one
  Newton step from the binary64 root; their accuracy is tested against
  mpmath, not proven.

Reductions (sum, dot, segment_sum, @) are one summation, the error-free
extraction of AccSum (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
2008). The hi words of each sum are scaled by 2**-e, e the binary exponent
of the sum's largest |hi|, so that the splitting constants stay far from
overflow; two rounds of extraction split every scaled word into two heads
and a rest, and the heads of one sum add exactly in binary64 in any order,
with no sort and no padding. The rests and all lo words are summed in
binary64, scaled back, and the result is renormalized once. For N terms
the error stays below about N u^2 times the sum of the terms' magnitudes
plus O(N^4 u^3) times the largest (N counts every value of a segment sum),
and the first term dominates while N (N + 2)^2 u <= 1, about 2e5 terms.
Memory is linear in the input. dot is the product @ of its flattened
operands, and a matrix product takes the rows of its left factor in
chunks, so it never holds all of its products at once.

The kernels are written once for both kinds: DDArray implements the numpy
operators, ufuncs and functions they use (arithmetic, sqrt, ldexp, abs,
comparisons, where, maximum, concatenate, diag, sum, indexing and index
assignment). Indexing one element or reducing to a scalar gives a 0-d
DDArray. Any other numpy function raises TypeError naming DDArray, and an
object array is no operand. Three more pieces of numpy boundary stay:
- np.asarray(dd_array), an object array of Words with the exact words that
  to_float_array rounds back, is how perfbench's worker reads a solution;
- np.asarray(dd_array, dtype=float) rounds to binary64, for float readers;
- np.append joins double-double arrays for perfbench's drift hook.
Binary64 arrays stay plain float64 ndarrays and never pass through this
module's double-double code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, splits a double into two 26-bit halves

# The error-free transforms below work on Python floats, np.float64 scalars
# and float64 arrays alike.


def _two_sum(a, b):
    """s + err == a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_two_sum(a, b):
    """s + err == a + b exactly, assuming |a| >= |b| (Dekker)."""
    s = a + b
    err = b - (s - a)
    return s, err


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    """p + err == a * b exactly (Dekker splitting; numpy has no fma)."""
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


# -- double-word algorithms -------------------------------------------------------
#
# The helpers below take the words (hi, lo) of a DDArray; lo is None for a
# binary64 operand, which saves the work on a zero word and gives the same
# result as a zero word would.


def _add(ah, al, bh, bl):
    """AccurateDWPlusDW, or DWPlusFP when bl is None."""
    s, e = _two_sum(ah, bh)
    if bl is None:
        return _quick_two_sum(s, e + al)
    t, f = _two_sum(al, bl)
    s, e = _quick_two_sum(s, e + t)
    return _quick_two_sum(s, e + f)


def _mul(ah, al, bh, bl):
    """DWTimesDW1; a binary64 operand skips the ah * bl term."""
    p, e = _two_prod(ah, bh)
    return _quick_two_sum(p, e + (al * bh if bl is None else ah * bl + al * bh))


def _div(ah, al, bh, bl):
    """Long division with two correction steps (QD's accurate division)."""
    bl = 0.0 if bl is None else bl
    q1 = ah / bh
    rh, rl = _add(ah, al, *_neg(*_mul(bh, bl, q1, None)))
    q2 = rh / bh
    rh, _ = _add(rh, rl, *_neg(*_mul(bh, bl, q2, None)))
    s, e = _quick_two_sum(q1, q2)
    return _quick_two_sum(s, e + rh / bh)


def _neg(h, l):
    return -h, (None if l is None else -l)


def _less(a, b, strict):
    """a < b (a <= b when not strict) for double-double or binary64
    operands: normalized words compare lexicographically."""
    (ah, al), (bh, bl) = _words(a), _words(b)
    al, bl = (0.0 if al is None else al), (0.0 if bl is None else bl)
    return (ah < bh) | ((ah == bh) & ((al < bl) if strict else (al <= bl)))


# -- double-double arrays ------------------------------------------------------


def _extract_sum(w, n, total, e, low):
    """Normalized words of 2**e times each sum of the words w, plus low, for
    sums of at most n terms whose words are scaled below 1 in magnitude;
    `total` sums one array of per-term parts into its sums.

    Two rounds of AccSum's extraction split each word, with 2**g >= n + 2,
    at sigma = 2**g and then 2**(2g - 53): head = (sigma + w) - sigma and
    w - head are exact, and the heads of one sum add exactly in any order.
    The first round's total is a multiple of 2**(g - 53) and the second's
    at most 2**(2g - 53), a multiple of 2**(2g - 106), so their fast
    two-sum is exact; the rests (|rest| <= 2**(2g - 106)) join its error."""
    g = (n + 1).bit_length()
    heads = []
    for sigma in (2.0**g, 2.0 ** (2 * g - 53)):
        head = (sigma + w) - sigma
        w = w - head
        heads.append(total(head))
    s, t = _quick_two_sum(*heads)
    return _two_sum(np.ldexp(s, e), np.ldexp(t + total(w), e) + low)


def _reduce(hi, low):
    """The sum over axis 0 of the words hi, plus `low` (the binary64 sum of
    the terms' low parts, which need not be normalized against hi), as
    normalized words, each sum scaled by its largest |hi|."""
    e = np.frexp(np.maximum.reduce(np.abs(hi), axis=0, initial=0.0))[1]
    return _extract_sum(np.ldexp(hi, -e), len(hi), partial(np.add.reduce, axis=0), e, low)


_MATMUL_WORDS = 1 << 16  # products held at once by a 2-d @ 2-d product (512 KiB a tensor)


def _matmul(ah, al, bh, bl):
    """a @ b for 1-d and 2-d words. A 2-d @ 2-d product is formed a chunk
    of rows of a at a time, so that the products of a chunk (summed index
    x rows x columns) stay within _MATMUL_WORDS words, or one row's
    products where they are more."""
    if ah.ndim == 2 and bh.ndim == 2:
        step = max(1, _MATMUL_WORDS // max(1, ah.shape[1] * bh.shape[1]))
        if step < len(ah):
            chunks = [_matmul_chunk(ah[i:i + step], None if al is None else al[i:i + step], bh, bl)
                      for i in range(0, len(ah), step)]
            return np.concatenate([h for h, _ in chunks]), np.concatenate([lo for _, lo in chunks])
    return _matmul_chunk(ah, al, bh, bl)


def _matmul_chunk(ah, al, bh, bl):
    """a @ b for 1-d and 2-d words: the exact products hi + err (plus the
    lo terms) laid out with the summed index first, then one reduction."""
    if ah.ndim == 2:
        ah, al = ah.T, (None if al is None else al.T)
    k = ah.shape[0]
    if bh.shape[0] != k:
        raise ValueError(f"matmul: mismatch in the summed dimension ({k} vs {bh.shape[0]})")

    def place(x, before, after):
        return None if x is None else x.reshape((k,) + (1,) * before + x.shape[1:] + (1,) * after)

    a_extra, b_extra = ah.ndim - 1, bh.ndim - 1
    ah, al = place(ah, 0, b_extra), place(al, 0, b_extra)
    bh, bl = place(bh, a_extra, 0), place(bl, a_extra, 0)
    p, e = _two_prod(ah, bh)
    if al is not None:
        e = e + al * bh
    if bl is not None:
        e = e + ah * bl
    return _reduce(p, np.add.reduce(e, axis=0))


def _words(x):
    """(hi, lo) of a double-double or binary64 operand; lo is None for
    binary64. None for anything else, an object array included."""
    if isinstance(x, DDArray):
        return x.hi, x.lo
    if isinstance(x, (float, int, np.floating, np.integer)):
        return float(x), None
    if isinstance(x, np.ndarray) and x.dtype != object:
        return x.astype(np.float64, copy=False), None
    return None


@dataclass(frozen=True, slots=True)
class Words:
    """The exact words of one double-double value, as np.asarray(dd_array)
    hands them to plain numpy: a record, with no arithmetic of its own."""

    hi: float
    lo: float


def _object_words(a: np.ndarray):
    """The words of an object array of Words, of 0-d DDArrays (numpy keeps
    those when it converts a list of them) or of plain numbers."""
    hi, lo = _WORDS_OF(a)
    return np.asarray(hi, dtype=np.float64), np.asarray(lo, dtype=np.float64)


_WORDS_OF = np.frompyfunc(lambda x: (x.hi, x.lo) if isinstance(x, (Words, DDArray)) else (float(x), 0.0), 1, 2)
_TO_OBJECTS = np.frompyfunc(Words, 2, 1)


class DDArray:
    """An array of double-double values: float64 ndarrays hi and lo of one
    shape, each pair normalized; a 0-d DDArray, with np.float64 words, is a
    double-double scalar. Build one with DOUBLE_DOUBLE.asarray,
    DOUBLE_DOUBLE.zeros or DOUBLE_DOUBLE.scalar; the constructor takes the
    words as they are."""

    __slots__ = ("hi", "lo")
    __hash__ = None

    def __init__(self, hi: np.ndarray, lo: np.ndarray):
        self.hi = hi
        self.lo = lo

    # -- shape and indexing ------------------------------------------------

    @property
    def shape(self):
        return self.hi.shape

    @property
    def ndim(self) -> int:
        return self.hi.ndim

    @property
    def size(self) -> int:
        return self.hi.size

    @property
    def T(self) -> "DDArray":
        return DDArray(self.hi.T, self.lo.T)

    def __len__(self) -> int:
        return len(self.hi)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def copy(self) -> "DDArray":
        return DDArray(self.hi.copy(), self.lo.copy())

    def reshape(self, *shape) -> "DDArray":
        return DDArray(self.hi.reshape(*shape), self.lo.reshape(*shape))

    def __getitem__(self, key):
        return DDArray(self.hi[key], self.lo[key])

    def __setitem__(self, key, value):
        words = _words(value)
        if words is None:
            raise TypeError(f"cannot store {type(value).__name__} in a DDArray")
        self.hi[key] = words[0]
        self.lo[key] = 0.0 if words[1] is None else words[1]

    def __repr__(self) -> str:
        return f"DDArray(hi={self.hi!r}, lo={self.lo!r})"

    def __float__(self) -> float:
        return float(self.hi + self.lo)

    def __bool__(self) -> bool:
        """As numpy's: the truth of a single value, an error for more. A
        normalized value is zero exactly when its hi word is."""
        return bool(self.hi)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        w = _words(other)
        return NotImplemented if w is None else DDArray(*_add(self.hi, self.lo, *w))

    __radd__ = __add__

    def __sub__(self, other):
        w = _words(other)
        return NotImplemented if w is None else DDArray(*_add(self.hi, self.lo, *_neg(*w)))

    def __rsub__(self, other):
        w = _words(other)
        return NotImplemented if w is None else DDArray(*_add(-self.hi, -self.lo, *w))

    def __mul__(self, other):
        w = _words(other)
        return NotImplemented if w is None else DDArray(*_mul(self.hi, self.lo, *w))

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = _words(other)
        return NotImplemented if w is None else DDArray(*_div(self.hi, self.lo, *w))

    def __rtruediv__(self, other):
        w = _words(other)
        if w is None:
            return NotImplemented
        return DDArray(*_div(w[0], 0.0 if w[1] is None else w[1], self.hi, self.lo))

    def __matmul__(self, other):
        w = _words(other)
        if w is None:
            return NotImplemented
        return DDArray(*_matmul(self.hi, self.lo, np.asarray(w[0]), w[1]))

    def __neg__(self) -> "DDArray":
        return DDArray(-self.hi, -self.lo)

    def __abs__(self) -> "DDArray":
        neg = self.hi < 0
        return DDArray(np.abs(self.hi), np.where(neg, -self.lo, self.lo)[()])  # [()] as in _where

    def sqrt(self) -> "DDArray":
        """One Newton step x + (a - x^2) / (2x) from the binary64 root x; 0
        at 0, and NaN (with numpy's warning) below 0."""
        x = np.sqrt(self.hi)
        residual = _add(self.hi, self.lo, *_neg(*_two_prod(x, x)))[0]  # the high word of a - x^2
        r = np.divide(residual, 2.0 * x, out=np.zeros_like(x), where=x > 0)
        return DDArray(*_quick_two_sum(x, r))

    def ldexp(self, e) -> "DDArray":
        """self * 2**e, word by word: exact while the words stay normal."""
        return DDArray(np.ldexp(self.hi, e), np.ldexp(self.lo, e))

    # -- comparisons -------------------------------------------------------

    def __lt__(self, other):
        return NotImplemented if _words(other) is None else _less(self, other, True)

    def __le__(self, other):
        return NotImplemented if _words(other) is None else _less(self, other, False)

    def __gt__(self, other):
        return NotImplemented if _words(other) is None else _less(other, self, True)

    def __ge__(self, other):
        return NotImplemented if _words(other) is None else _less(other, self, False)

    def __eq__(self, other):
        w = _words(other)
        if w is None:
            return NotImplemented
        return (self.hi == w[0]) & (self.lo == (0.0 if w[1] is None else w[1]))

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else ~eq

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None):
        """Double-double sum over all elements (a 0-d DDArray) or along axis 0."""
        hi, lo = self.hi, self.lo
        if axis is None:
            hi, lo = hi.reshape(-1), lo.reshape(-1)
        elif axis != 0:
            raise ValueError(f"DDArray sums over all elements or along axis 0, not axis {axis}")
        return DDArray(*_reduce(hi, np.add.reduce(lo, axis=0)))

    def max(self):
        """The largest element, a 0-d DDArray; NaN when any hi word is NaN."""
        top = np.lexsort((self.lo.reshape(-1), self.hi.reshape(-1)))[-1]
        return DDArray(self.hi.reshape(-1)[top], self.lo.reshape(-1)[top])

    # -- numpy protocols ---------------------------------------------------

    def __array__(self, dtype=None, copy=None):
        """The boundary to plain numpy: an object array of Words with the
        exact words, or the binary64 rounding for a float dtype; always a
        new array."""
        if copy is False:
            raise ValueError("a DDArray converts to numpy only by a copy")
        if dtype is not None and np.dtype(dtype) != object:
            return (self.hi + self.lo).astype(dtype)
        return np.asarray(_TO_OBJECTS(self.hi, self.lo), dtype=object)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "reduce" and len(inputs) == 1 and set(kwargs) <= {"axis"}:
            axis = kwargs.get("axis", 0)
            if ufunc is np.add:
                return inputs[0].sum(axis)
            if ufunc is np.maximum and axis is None:
                return inputs[0].max()
            return NotImplemented
        op = _UFUNCS.get(ufunc)
        if method != "__call__" or kwargs or op is None:
            return NotImplemented
        first = inputs[0] if isinstance(inputs[0], DDArray) else DOUBLE_DOUBLE.asarray(inputs[0])
        return op(first, *inputs[1:])

    def __array_function__(self, func, types, args, kwargs):
        impl = _FUNCTIONS.get(func)
        return NotImplemented if impl is None else impl(*args, **kwargs)


def _full_words(x):
    """(hi, lo) with a lo word even for a binary64 operand; a list is read
    as np.asarray reads it."""
    w = _words(np.asarray(x) if isinstance(x, (list, tuple)) else x)
    if w is None:
        raise TypeError(f"not a double-double operand: {type(x).__name__}")
    return w[0], (np.zeros_like(w[0]) if w[1] is None else w[1])


def _where(cond, x, y):
    # [()] turns np.where's 0-d arrays into the np.float64 words of a scalar
    (xh, xl), (yh, yl) = _full_words(x), _full_words(y)
    return DDArray(np.where(cond, xh, yh)[()], np.where(cond, xl, yl)[()])


def _maximum(x, y):
    """The larger of x and y; a NaN in x propagates, as np.maximum's would."""
    return _where(_less(x, y, True), y, x)


def _concatenate(arrays, axis=0):
    """As np.concatenate: axis None joins the raveled operands."""
    words = [_full_words(a) for a in arrays]
    return DDArray(np.concatenate([h for h, _ in words], axis), np.concatenate([lo for _, lo in words], axis))


def _append(arr, values, axis=None):
    return _concatenate([arr, values], axis)


def _diag(v, k=0):
    return DDArray(np.diag(v.hi, k), np.diag(v.lo, k))


def _sum(a, axis=None):
    return a.sum(axis)


_UFUNCS = {
    np.add: DDArray.__add__,
    np.subtract: DDArray.__sub__,
    np.multiply: DDArray.__mul__,
    np.true_divide: DDArray.__truediv__,
    np.matmul: DDArray.__matmul__,
    np.negative: DDArray.__neg__,
    np.absolute: DDArray.__abs__,
    np.sqrt: DDArray.sqrt,
    np.ldexp: DDArray.ldexp,
    np.less: DDArray.__lt__,
    np.less_equal: DDArray.__le__,
    np.greater: DDArray.__gt__,
    np.greater_equal: DDArray.__ge__,
    np.equal: DDArray.__eq__,
    np.not_equal: DDArray.__ne__,
    np.maximum: _maximum,
}

_FUNCTIONS = {
    np.where: _where,
    np.concatenate: _concatenate,
    np.append: _append,
    np.diag: _diag,
    np.sum: _sum,
}


# -- scalar kinds ----------------------------------------------------------------


@dataclass(frozen=True)
class ScalarKind:
    """A floating-point kind the kernels can be instantiated at."""

    name: str
    epsilon: float
    is_extended: bool

    def scalar(self, x):
        """A number of either kind as one of this kind (exact when
        widening): a float, or a 0-d DDArray."""
        if not self.is_extended:
            return float(x)
        return x if isinstance(x, DDArray) else DDArray(np.float64(x), np.float64(0.0))

    def asarray(self, values):
        """Copy `values`, a DDArray or binary64 data (lists of floats
        included), into a new array of this kind (exact promotion)."""
        if not self.is_extended:
            return np.array(to_float_array(values), dtype=np.float64)
        hi, lo = _full_words(values)
        return DDArray(np.array(hi, dtype=np.float64), np.array(lo, dtype=np.float64))

    def zeros(self, shape):
        if self.is_extended:
            return DDArray(np.zeros(shape), np.zeros(shape))
        return np.zeros(shape, dtype=np.float64)


DOUBLE = ScalarKind("double", 2.0**-53, False)
DOUBLE_DOUBLE = ScalarKind("dd", 2.0**-104, True)

_KINDS = {k.name: k for k in (DOUBLE, DOUBLE_DOUBLE)}


def kind_by_name(name: str) -> ScalarKind:
    try:
        return _KINDS[name]
    except KeyError:
        raise ValueError(f"unknown scalar kind {name!r}; expected one of {sorted(_KINDS)}") from None


def kind_of(arr) -> ScalarKind:
    """Infer the kind of an array (or scalar)."""
    if isinstance(arr, DDArray):
        return DOUBLE_DOUBLE
    return DOUBLE


# -- generic helpers used by the kernels -----------------------------------


def fsqrt(x):
    """Square root for either scalar kind."""
    if isinstance(x, DDArray):
        return x.sqrt()
    return math.sqrt(x)


def all_finite(arr) -> bool:
    """Whether every value of an array or scalar of either kind is finite."""
    if isinstance(arr, DDArray):
        return bool(np.isfinite(arr.hi).all() and np.isfinite(arr.lo).all())
    return bool(np.all(np.isfinite(arr)))


def to_float_array(arr) -> np.ndarray:
    """Round an array of either kind (a DDArray, or an object array of
    Words) down to binary64."""
    if isinstance(arr, DDArray):
        return arr.hi + arr.lo
    a = np.asarray(arr)
    if a.dtype == object:
        hi, lo = _object_words(a)
        return hi + lo
    return a.astype(np.float64, copy=False)


def dot(x, y):
    """Inner product in the arrays' own arithmetic; 0.0 for empty input.

    The add reduction is pairwise for binary64, keeping long accumulations
    accurate; it is the reduction np.sum makes, without np.sum's wrapper.
    Double-double operands go to @, which forms the products and their
    exact errors."""
    if x.size == 0:
        return kind_of(x).scalar(0.0)
    if isinstance(x, DDArray) or isinstance(y, DDArray):
        return x.reshape(-1) @ y.reshape(-1)
    return np.add.reduce(x * y, axis=None)


def norm2(x):
    """The 2-norm of either kind: x scaled by 2**-e (exact) before squaring,
    e the binary exponent of its largest |entry|, so no square overflows."""
    e = int(np.frexp(np.maximum.reduce(np.abs(to_float_array(x)), axis=None, initial=0.0))[1])
    y = np.ldexp(x, -e)
    return np.ldexp(fsqrt(dot(y, y)), e)


def norm_inf(x):
    if x.size == 0:
        return kind_of(x).scalar(0.0)
    return np.maximum.reduce(np.abs(x), axis=None)


def segment_sum(values, seg_ids: np.ndarray, nseg: int):
    """Sum `values` into `nseg` buckets given by `seg_ids`.

    Double-double values get _reduce's summation within each bucket, in
    memory linear in len(values) however unequal the buckets: np.maximum.at
    finds each bucket's scale, and np.bincount sums every part."""
    if not isinstance(values, DDArray):
        return np.bincount(seg_ids, weights=values, minlength=nseg)
    top = np.zeros(nseg)
    np.maximum.at(top, seg_ids, np.abs(values.hi))
    e = np.frexp(top)[1]
    total = partial(np.bincount, seg_ids, minlength=nseg)
    return DDArray(*_extract_sum(np.ldexp(values.hi, -e[seg_ids]), len(seg_ids), total, e, total(values.lo)))
