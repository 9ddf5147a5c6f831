"""Double-double scalars and the scalar-kind abstraction.

A DDouble is an unevaluated sum hi + lo of two binary64 values with
|lo| <= 0.5 ulp(hi), giving roughly 31 significant decimal digits
(unit roundoff 2**-104). All numeric kernels in this package are written
against plain numpy arrays; running them at extended precision means
handing them object-dtype arrays of DDouble. numpy dispatches arithmetic
ufuncs to the Python operators below and np.sqrt to the sqrt() method,
so the kernel code is identical for both kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, splits a double into two 26-bit halves


def _two_sum(a: float, b: float):
    """s + err == a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_two_sum(a: float, b: float):
    """s + err == a + b exactly, assuming |a| >= |b| (Dekker)."""
    s = a + b
    err = b - (s - a)
    return s, err


def _split(a: float):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a: float, b: float):
    """p + err == a * b exactly (Dekker splitting; no fma on py3.10)."""
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


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
        s, e = _two_sum(self.hi, o.hi)
        t, f = _two_sum(self.lo, o.lo)
        e += t
        s, e = _quick_two_sum(s, e)
        e += f
        hi, lo = _quick_two_sum(s, e)
        return DDouble(hi, lo)

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
        p, e = _two_prod(self.hi, o.hi)
        e += self.hi * o.lo + self.lo * o.hi
        hi, lo = _quick_two_sum(p, e)
        return DDouble(hi, lo)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = DDouble._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # long division with two refinement steps
        q1 = self.hi / o.hi
        r = self - o * DDouble(q1)
        q2 = r.hi / o.hi
        r = r - o * DDouble(q2)
        q3 = r.hi / o.hi
        s, e = _quick_two_sum(q1, q2)
        e += q3
        hi, lo = _quick_two_sum(s, e)
        return DDouble(hi, lo)

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
        """Karp-Markstein style square root, full dd accuracy."""
        if self.hi == 0.0 and self.lo == 0.0:
            return DDouble(0.0)
        if self.hi < 0.0:
            raise ValueError("sqrt of negative DDouble")
        x = math.sqrt(self.hi)
        # one dd Newton step: x + (a - x*x) / (2x)
        xdd = DDouble(x)
        r = (self - xdd * xdd).hi / (2.0 * x)
        hi, lo = _quick_two_sum(x, r)
        return DDouble(hi, lo)

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


@dataclass(frozen=True)
class ScalarKind:
    """A floating-point kind the kernels can be instantiated at."""

    name: str
    epsilon: float
    dtype: object  # numpy dtype for array storage

    def from_float(self, x: float):
        if self.dtype is object:
            return DDouble.from_float(x)
        return float(x)

    def asarray(self, values) -> np.ndarray:
        """Copy `values` into an array of this kind (exact promotion)."""
        a = np.asarray(values)
        if self.dtype is object:
            out = np.empty(a.shape, dtype=object)
            flat_in = a.reshape(-1)
            flat = out.reshape(-1)
            for i, x in enumerate(flat_in):
                flat[i] = x if isinstance(x, DDouble) else DDouble.from_float(x)
            return out
        if a.dtype == object:
            return np.array([float(x) for x in a.reshape(-1)], dtype=np.float64).reshape(a.shape)
        return a.astype(np.float64)

    def zeros(self, shape) -> np.ndarray:
        if self.dtype is object:
            out = np.empty(shape, dtype=object)
            out.reshape(-1)[:] = [DDouble(0.0)] * out.size
            return out
        return np.zeros(shape, dtype=np.float64)

    def coerce_scalar(self, x):
        """Bring a scalar of either kind to this kind (exact when widening)."""
        if self.dtype is object:
            return x if isinstance(x, DDouble) else DDouble.from_float(x)
        return float(x)

    @property
    def is_extended(self) -> bool:
        return self.dtype is object


DOUBLE = ScalarKind("double", 2.0**-53, np.float64)
DOUBLE_DOUBLE = ScalarKind("dd", 2.0**-104, object)

_KINDS = {k.name: k for k in (DOUBLE, DOUBLE_DOUBLE)}
_KIND_RANK = {"double": 0, "dd": 1}


def kind_by_name(name: str) -> ScalarKind:
    try:
        return _KINDS[name]
    except KeyError:
        raise ValueError(f"unknown scalar kind {name!r}; expected one of {sorted(_KINDS)}") from None


def kind_of(arr) -> ScalarKind:
    """Infer the kind of an array (or scalar)."""
    if isinstance(arr, DDouble):
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


def all_finite(arr: np.ndarray) -> bool:
    a = np.asarray(arr)
    if a.dtype == object:
        return all(is_finite_scalar(x) for x in a.reshape(-1))
    return bool(np.all(np.isfinite(a)))


def to_float_array(arr: np.ndarray) -> np.ndarray:
    """Round an array of either kind down to binary64."""
    a = np.asarray(arr)
    if a.dtype == object:
        return np.array([float(x) for x in a.reshape(-1)], dtype=np.float64).reshape(a.shape)
    return a.astype(np.float64, copy=False)


def dot(x: np.ndarray, y: np.ndarray):
    """Inner product in the arrays' own arithmetic; 0.0 for empty input.

    The add reduction is pairwise for binary64, keeping long accumulations
    accurate; it is the reduction np.sum makes, without np.sum's wrapper."""
    if x.size == 0:
        return kind_of(x).from_float(0.0)
    return np.add.reduce(x * y, axis=None)


def norm2(x: np.ndarray):
    return fsqrt(dot(x, x))


def norm_inf(x: np.ndarray):
    if x.size == 0:
        return kind_of(x).from_float(0.0)
    return np.maximum.reduce(np.abs(x), axis=None)


def segment_sum(values: np.ndarray, seg_ids: np.ndarray, nseg: int) -> np.ndarray:
    """Sum `values` into `nseg` buckets given by `seg_ids`."""
    if values.dtype == object:
        out = DOUBLE_DOUBLE.zeros(nseg)
        np.add.at(out, seg_ids, values)
        return out
    return np.bincount(seg_ids, weights=values, minlength=nseg)
