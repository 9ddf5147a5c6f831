"""Double-double scalars and arrays, and the scalar-kind abstraction.

A double-double value is an unevaluated sum hi + lo of two binary64 values,
kept normalized (hi = fl(hi + lo), so |lo| <= ulp(hi) / 2): about 31
significant decimal digits. DDouble is one such scalar. DDArray is an array
of them as a struct of arrays: two float64 ndarrays `hi` and `lo` of one
shape, so every operation is a handful of whole-array numpy expressions.

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

Reductions (sum, dot, segment_sum, @) add the hi words pairwise, each
addition by two-sum, so the tree of hi words is exact; the two-sum errors
of each level and all lo words are summed in binary64, and the result is
renormalized once. For N terms the error stays below about N u^2 times the
sum of the terms' magnitudes. A matrix product takes the rows of its left
factor in chunks, so it never holds all of its products at once.

The kernels are written once for both kinds: DDArray implements the numpy
operators, ufuncs and functions they use (arithmetic, sqrt, abs,
comparisons, where, maximum, concatenate, diag, sum, argsort,
array_equal, indexing and index assignment). Indexing one element or
reducing to a scalar gives a DDouble. The boundary to everything else is
np.asarray(dd_array), an object array of DDouble holding the exact words:
any numpy function not listed sees that array, and DOUBLE_DOUBLE.asarray
and to_float_array accept it back. Binary64 arrays stay plain float64
ndarrays and never pass through this module's double-double code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, splits a double into two 26-bit halves

# The error-free transforms below work on Python floats and on float64
# arrays alike.


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
# The helpers below take words (hi, lo) of Python floats (DDouble) or of
# float64 arrays (DDArray); lo is None for a binary64 operand, which saves
# the work on a zero word and gives the same result as a zero word would.


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


def _sqrt_residual(x, ah, al):
    """The high word of a - x^2, for the Newton step of a square root."""
    return _add(ah, al, *_neg(*_two_prod(x, x)))[0]


def _neg(h, l):
    return -h, (None if l is None else -l)


def _less(a, b, strict):
    """a < b (a <= b when not strict) for double-double or binary64
    operands: normalized words compare lexicographically."""
    (ah, al), (bh, bl) = _words(a), _words(b)
    al, bl = (0.0 if al is None else al), (0.0 if bl is None else bl)
    return (ah < bh) | ((ah == bh) & ((al < bl) if strict else (al <= bl)))


class DDouble:
    """Immutable double-double number."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float = 0.0, lo: float = 0.0):
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo", lo)

    def __setattr__(self, name, value):
        raise AttributeError("DDouble is immutable")

    # -- construction / conversion -------------------------------------

    @staticmethod
    def from_float(x) -> "DDouble":
        return DDouble(float(x), 0.0)

    def __float__(self) -> float:
        return self.hi + self.lo

    def __repr__(self) -> str:
        return f"DDouble({self.hi!r}, {self.lo!r})"

    def is_finite(self) -> bool:
        return math.isfinite(self.hi) and math.isfinite(self.lo)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, DDouble):
            return x
        if isinstance(x, (int, float, np.floating, np.integer)):
            return DDouble(float(x), 0.0)
        return NotImplemented

    def __add__(self, other):
        o = DDouble._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return DDouble(*_add(self.hi, self.lo, o.hi, o.lo))

    __radd__ = __add__

    def __neg__(self):
        return DDouble(-self.hi, -self.lo)

    def __sub__(self, other):
        o = DDouble._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.__add__(DDouble(-o.hi, -o.lo))

    def __rsub__(self, other):
        o = DDouble._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = DDouble._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return DDouble(*_mul(self.hi, self.lo, o.hi, o.lo))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = DDouble._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return DDouble(*_div(self.hi, self.lo, o.hi, o.lo))

    def __rtruediv__(self, other):
        o = DDouble._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __abs__(self):
        return DDouble(-self.hi, -self.lo) if self.hi < 0.0 else self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = DDouble(1.0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sqrt(self) -> "DDouble":
        """One Newton step x + (a - x^2) / (2x) from the binary64 root x."""
        if self.hi == 0.0 and self.lo == 0.0:
            return DDouble(0.0)
        if self.hi < 0.0:
            raise ValueError("sqrt of negative DDouble")
        x = math.sqrt(self.hi)
        return DDouble(*_quick_two_sum(x, _sqrt_residual(x, self.hi, self.lo) / (2.0 * x)))

    # -- ordering ----------------------------------------------------------
    # (hi, lo) is normalized, so lexicographic order is numeric order.

    def _cmp(self, other):
        o = DDouble._coerce(other)
        if o is NotImplemented:
            return None
        if self.hi != o.hi:
            return -1 if self.hi < o.hi else 1
        if self.lo != o.lo:
            return -1 if self.lo < o.lo else 1
        return 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __ne__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c != 0

    def __hash__(self):
        return hash((self.hi, self.lo))

    def __bool__(self):
        return self.hi != 0.0 or self.lo != 0.0


# -- double-double arrays ------------------------------------------------------


def _reduce(hi, low):
    """The sum over axis 0 of the words hi, plus `low` (the binary64 sum of
    the terms' low parts, which need not be normalized against hi), as
    normalized words.

    The hi words are added pairwise, each addition by two-sum, so the tree
    is exact; the errors of all levels are summed in binary64 with `low`,
    and the result is renormalized once.
    """
    n = len(hi)
    if n & (n - 1) or not n:  # pad to a power of two, so that every level halves
        hi = np.concatenate([hi, np.zeros(((1 << n.bit_length()) - n,) + hi.shape[1:])])
    errors = []
    while len(hi) > 1:
        half = len(hi) // 2
        hi, e = _two_sum(hi[:half], hi[half:])
        errors.append(e)
    if errors:
        low = low + np.add.reduce(np.concatenate(errors), axis=0)
    return _two_sum(hi[0], low)


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
    binary64. None for anything else."""
    if isinstance(x, (DDArray, DDouble)):
        return x.hi, x.lo
    if isinstance(x, (float, int, np.floating, np.integer)):
        return float(x), None
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return _object_words(x)
        return x.astype(np.float64, copy=False), None
    return None


def _object_words(a: np.ndarray):
    """The words of an object array of DDouble (or of plain numbers)."""
    hi, lo = _WORDS_OF(a)
    return np.asarray(hi, dtype=np.float64), np.asarray(lo, dtype=np.float64)


_WORDS_OF = np.frompyfunc(lambda x: (x.hi, x.lo) if isinstance(x, DDouble) else (float(x), 0.0), 1, 2)
_TO_OBJECTS = np.frompyfunc(DDouble, 2, 1)


def _result(hi, lo):
    """A DDArray, or a DDouble for a 0-d result."""
    if not getattr(hi, "ndim", 0):
        return DDouble(float(hi), float(lo))
    return DDArray(hi, lo)


class DDArray:
    """An array of double-double values: float64 ndarrays hi and lo of one
    shape, each pair normalized. Build one with DOUBLE_DOUBLE.asarray or
    DOUBLE_DOUBLE.zeros; the constructor takes the words as they are."""

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
        return _result(self.hi[key], self.lo[key])

    def __setitem__(self, key, value):
        words = _words(value)
        if words is None:
            raise TypeError(f"cannot store {type(value).__name__} in a DDArray")
        self.hi[key] = words[0]
        self.lo[key] = 0.0 if words[1] is None else words[1]

    def __repr__(self) -> str:
        return f"DDArray(hi={self.hi!r}, lo={self.lo!r})"

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
        return _result(*_matmul(self.hi, self.lo, np.asarray(w[0]), w[1]))

    def __neg__(self) -> "DDArray":
        return DDArray(-self.hi, -self.lo)

    def __abs__(self) -> "DDArray":
        neg = self.hi < 0
        return DDArray(np.abs(self.hi), np.where(neg, -self.lo, self.lo))

    def sqrt(self) -> "DDArray":
        """One Newton step x + (a - x^2) / (2x) from the binary64 root x; 0
        at 0, and NaN (with numpy's warning) below 0."""
        x = np.sqrt(self.hi)
        r = np.divide(_sqrt_residual(x, self.hi, self.lo), 2.0 * x, out=np.zeros_like(x), where=x > 0)
        return DDArray(*_quick_two_sum(x, r))

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
        """Compensated sum over all elements (a DDouble) or along one axis."""
        hi, lo = self.hi, self.lo
        if axis is None:
            hi, lo = hi.reshape(-1), lo.reshape(-1)
        elif axis != 0:
            hi, lo = np.moveaxis(hi, axis, 0), np.moveaxis(lo, axis, 0)
        return _result(*_reduce(hi, np.add.reduce(lo, axis=0)))

    def max(self):
        """The largest element, a DDouble; NaN when any hi word is NaN."""
        top = np.lexsort((self.lo.reshape(-1), self.hi.reshape(-1)))[-1]
        return DDouble(float(self.hi.reshape(-1)[top]), float(self.lo.reshape(-1)[top]))

    # -- numpy protocols ---------------------------------------------------

    def __array__(self, dtype=None, copy=None):
        """The boundary to plain numpy: an object array of DDouble with the
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
        if impl is not None:
            return impl(*args, **kwargs)
        return func(*_objects(args), **_objects(kwargs))


def _objects(x):
    """x with every DDArray in it replaced by its object array."""
    if isinstance(x, DDArray):
        return np.asarray(x)
    if isinstance(x, (list, tuple)):
        return type(x)(map(_objects, x))
    if isinstance(x, dict):
        return {k: _objects(v) for k, v in x.items()}
    return x


def _full_words(x):
    """(hi, lo) with a lo word even for a binary64 operand; a list is read
    as np.asarray reads it."""
    w = _words(np.asarray(x) if isinstance(x, (list, tuple)) else x)
    if w is None:
        raise TypeError(f"not a double-double operand: {type(x).__name__}")
    return w[0], (np.zeros_like(w[0]) if w[1] is None else w[1])


def _where(cond, x, y):
    (xh, xl), (yh, yl) = _full_words(x), _full_words(y)
    return DDArray(np.where(cond, xh, yh), np.where(cond, xl, yl))


def _maximum(x, y):
    """The larger of x and y; a NaN in x propagates, as np.maximum's would."""
    return _where(_less(x, y, True), y, x)


def _concatenate(arrays, axis=0):
    words = [_full_words(a) for a in arrays]
    return DDArray(np.concatenate([h for h, _ in words], axis), np.concatenate([lo for _, lo in words], axis))


def _diag(v, k=0):
    return DDArray(np.diag(v.hi, k), np.diag(v.lo, k))


def _sum(a, axis=None):
    return a.sum(axis)


def _argsort(a, kind=None):
    if a.ndim != 1:
        raise ValueError("argsort of a DDArray needs a 1-d array")
    return np.lexsort((a.lo, a.hi))


def _array_equal(a1, a2):
    (h1, l1), (h2, l2) = _full_words(a1), _full_words(a2)
    return bool(np.array_equal(h1, h2) and np.array_equal(l1, l2))


_UFUNCS = {
    np.add: DDArray.__add__,
    np.subtract: DDArray.__sub__,
    np.multiply: DDArray.__mul__,
    np.true_divide: DDArray.__truediv__,
    np.matmul: DDArray.__matmul__,
    np.negative: DDArray.__neg__,
    np.absolute: DDArray.__abs__,
    np.sqrt: DDArray.sqrt,
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
    np.diag: _diag,
    np.sum: _sum,
    np.argsort: _argsort,
    np.array_equal: _array_equal,
}


# -- scalar kinds ----------------------------------------------------------------


@dataclass(frozen=True)
class ScalarKind:
    """A floating-point kind the kernels can be instantiated at."""

    name: str
    epsilon: float
    is_extended: bool

    def from_float(self, x: float):
        if self.is_extended:
            return DDouble.from_float(x)
        return float(x)

    def asarray(self, values):
        """Copy `values` into a new array of this kind (exact promotion)."""
        if not self.is_extended:
            return np.array(to_float_array(values), dtype=np.float64)
        hi, lo = _full_words(values)
        return DDArray(np.array(hi, dtype=np.float64), np.array(lo, dtype=np.float64))

    def zeros(self, shape):
        if self.is_extended:
            return DDArray(np.zeros(shape), np.zeros(shape))
        return np.zeros(shape, dtype=np.float64)

    def coerce_scalar(self, x):
        """Bring a scalar of either kind to this kind (exact when widening)."""
        if self.is_extended:
            return x if isinstance(x, DDouble) else DDouble.from_float(x)
        return float(x)


DOUBLE = ScalarKind("double", 2.0**-53, False)
DOUBLE_DOUBLE = ScalarKind("dd", 2.0**-104, True)

_KINDS = {k.name: k for k in (DOUBLE, DOUBLE_DOUBLE)}
_KIND_RANK = {"double": 0, "dd": 1}


def kind_by_name(name: str) -> ScalarKind:
    try:
        return _KINDS[name]
    except KeyError:
        raise ValueError(f"unknown scalar kind {name!r}; expected one of {sorted(_KINDS)}") from None


def kind_of(arr) -> ScalarKind:
    """Infer the kind of an array (or scalar)."""
    if isinstance(arr, (DDArray, DDouble)):
        return DOUBLE_DOUBLE
    if isinstance(arr, np.ndarray) and arr.dtype == object:
        return DOUBLE_DOUBLE
    return DOUBLE


def at_least_as_precise(target: ScalarKind, source: ScalarKind) -> bool:
    return _KIND_RANK[target.name] >= _KIND_RANK[source.name]


# -- generic helpers used by the kernels -----------------------------------


def fsqrt(x):
    """Square root for either scalar kind."""
    if isinstance(x, DDouble):
        return x.sqrt()
    return math.sqrt(x)


def is_finite_scalar(x) -> bool:
    if isinstance(x, DDouble):
        return x.is_finite()
    return math.isfinite(x)


def all_finite(arr) -> bool:
    if isinstance(arr, DDArray):
        return bool(np.isfinite(arr.hi).all() and np.isfinite(arr.lo).all())
    return bool(np.all(np.isfinite(arr)))


def to_float_array(arr) -> np.ndarray:
    """Round an array of either kind (a DDArray, or an object array of
    DDouble) down to binary64."""
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
    Double-double products feed their exact error terms straight into the
    compensated sum."""
    if x.size == 0:
        return kind_of(x).from_float(0.0)
    if isinstance(x, DDArray) or isinstance(y, DDArray):
        (xh, xl), (yh, yl) = _words(x), _words(y)
        p, e = _two_prod(xh, yh)
        if xl is not None:
            e = e + xl * yh
        if yl is not None:
            e = e + xh * yl
        return _result(*_reduce(p.reshape(-1), np.add.reduce(e, axis=None)))
    return np.add.reduce(x * y, axis=None)


def norm2(x):
    return fsqrt(dot(x, x))


def norm_inf(x):
    if x.size == 0:
        return kind_of(x).from_float(0.0)
    return np.maximum.reduce(np.abs(x), axis=None)


def segment_sum(values, seg_ids: np.ndarray, nseg: int):
    """Sum `values` into `nseg` buckets given by `seg_ids`.

    Double-double values get the compensated reduction within each bucket,
    in memory linear in len(values) however unequal the buckets: sorted by
    bucket, the element of rank r in its bucket is added by two-sum into
    the element of rank r - b, b the lowest set bit of r, at level b
    (levels in increasing order), which makes each bucket a pairwise tree
    of its hi words; the tree's errors and the lo words are summed in
    binary64 per bucket."""
    if not isinstance(values, DDArray):
        return np.bincount(seg_ids, weights=values, minlength=nseg)
    order = np.argsort(seg_ids, kind="stable")
    ids, hi = seg_ids[order], values.hi[order]
    rank = np.arange(len(ids)) - np.searchsorted(ids, ids)
    lowbit = rank & -rank  # 0 for the first element of a bucket, which takes its total
    by_level = np.argsort(lowbit, kind="stable")
    cuts = np.searchsorted(lowbit[by_level], 1 << np.arange(int(rank.max(initial=0)).bit_length() + 1))
    errors, into = [], []
    for level, (start, stop) in enumerate(zip(cuts[:-1], cuts[1:])):
        added = by_level[start:stop]
        into.append(added - (1 << level))
        hi[into[-1]], e = _two_sum(hi[into[-1]], hi[added])
        errors.append(e)
    low = np.bincount(seg_ids, weights=values.lo, minlength=nseg)
    if errors:
        low = low + np.bincount(ids[np.concatenate(into)], weights=np.concatenate(errors), minlength=nseg)
    head = by_level[:cuts[0]]
    total = np.zeros(nseg)
    total[ids[head]] = hi[head]
    return DDArray(*_two_sum(total, low))
