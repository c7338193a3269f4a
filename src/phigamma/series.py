"""Truncated Laurent series over F_{p^m} with explicit support windows.

A series is known exactly on exponents [floor, order); ``order`` may be
``math.inf`` for exact Laurent polynomials.  Arithmetic tracks the reliable
window and never silently extends it.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .field import Field, FieldElement

INF = math.inf


class PrecisionError(ArithmeticError):
    """A coefficient beyond the reliable window was requested or needed."""


class PadicInteger:
    """A p-adic integer known to ``ndigits`` base-p digits (exact int backing)."""

    __slots__ = ("p", "value", "ndigits")

    def __init__(self, p: int, value: int, ndigits: int):
        self.p = p
        self.value = value
        self.ndigits = ndigits

    @classmethod
    def from_digits(cls, p: int, digits) -> "PadicInteger":
        v = 0
        for d in reversed(list(digits)):
            if not 0 <= d < p:
                raise ValueError("digit out of range [0, p)")
            v = v * p + d
        return cls(p, v, len(list(digits)) if not isinstance(digits, list) else len(digits))

    def digits(self, n: int = None) -> list:
        n = self.ndigits if n is None else n
        if n > self.ndigits:
            raise PrecisionError("p-adic integer only known to %d digits" % self.ndigits)
        v = self.value % self.p**n
        out = []
        for _ in range(n):
            out.append(v % self.p)
            v //= self.p
        return out

    def is_unit(self) -> bool:
        return self.value % self.p != 0

    def unit_level(self) -> int:
        """Largest n with value = 1 mod p^n (capped at ndigits)."""
        n = 0
        while n < self.ndigits and (self.value - 1) % self.p ** (n + 1) == 0:
            n += 1
        return n

    def __mul__(self, other):
        o = other.value if isinstance(other, PadicInteger) else other
        nd = min(self.ndigits, other.ndigits) if isinstance(other, PadicInteger) else self.ndigits
        return PadicInteger(self.p, self.value * o, nd)

    def __pow__(self, e: int):
        return PadicInteger(self.p, pow(self.value, e, self.p ** (self.ndigits + 64)), self.ndigits)

    def __repr__(self):
        return "PadicInteger(p=%d, %d + O(%d^%d))" % (self.p, self.value % self.p**self.ndigits, self.p, self.ndigits)


def _as_order(x):
    return x if x == INF else int(x)


class LaurentSeries:
    """Coefficients on exponents [floor, floor + len(rows)); zero up to ``order``.

    Rows are numpy int64 vectors of length m (the field degree).  The leading
    row is nonzero and trailing zero rows are trimmed, so exponents in
    [floor + len(rows), order) carry implicit zeros.
    """

    __slots__ = ("field", "floor", "order", "rows")

    def __init__(self, field: Field, floor: int, order, rows: np.ndarray, _normalized=False):
        self.field = field
        self.order = _as_order(order)
        if _normalized:
            self.floor = floor
            self.rows = rows
            return
        rows = np.asarray(rows, dtype=np.int64) % field.p
        if rows.ndim == 1:
            rows = rows.reshape(-1, field.m)
        nz = np.flatnonzero(rows.any(axis=1))
        if nz.size == 0:
            self.floor = self.order
            self.rows = rows[:0]
        else:
            lo, hi = int(nz[0]), int(nz[-1])
            self.floor = floor + lo
            self.rows = np.ascontiguousarray(rows[lo : hi + 1])
        if self.floor != INF and self.order != INF and self.floor + len(self.rows) > self.order:
            self.rows = self.rows[: max(0, self.order - self.floor)]
            if len(self.rows) == 0 or not self.rows.any():
                self.floor, self.rows = self.order, self.rows[:0]

    # -- constructors ----------------------------------------------------------
    @classmethod
    def zero(cls, field: Field, order=INF) -> "LaurentSeries":
        return cls(field, _as_order(order), order, np.zeros((0, field.m), dtype=np.int64), _normalized=True)

    @classmethod
    def monomial(cls, field: Field, n: int, coeff=1, order=INF) -> "LaurentSeries":
        c = field.coerce(coeff) if not isinstance(coeff, FieldElement) else coeff
        if not c:
            return cls.zero(field, order)
        return cls(field, n, order, c.row().reshape(1, -1))

    @classmethod
    def one(cls, field: Field, order=INF) -> "LaurentSeries":
        return cls.monomial(field, 0, 1, order)

    @classmethod
    def const(cls, field: Field, c, order=INF) -> "LaurentSeries":
        return cls.monomial(field, 0, c, order)

    @classmethod
    def from_pairs(cls, field: Field, pairs, order=INF) -> "LaurentSeries":
        """Build from {exponent: coefficient}."""
        pairs = dict(pairs)
        if not pairs:
            return cls.zero(field, order)
        lo, hi = min(pairs), max(pairs)
        rows = np.zeros((hi - lo + 1, field.m), dtype=np.int64)
        for n, c in pairs.items():
            rows[n - lo] = field.element(c).row() if not isinstance(c, FieldElement) else c.row()
        return cls(field, lo, order, rows)

    # -- inspection --------------------------------------------------------------
    @property
    def low(self):
        """Lower bound for the valuation: floor if nonzero on window, else order."""
        return self.floor if len(self.rows) else self.order

    def val(self):
        """Exact valuation, or None if the series is zero on its window."""
        return self.floor if len(self.rows) else None

    def is_zero(self) -> bool:
        return len(self.rows) == 0

    def known(self, n: int) -> bool:
        return n < self.order

    def coeff(self, n: int) -> FieldElement:
        if n >= self.order:
            raise PrecisionError("coefficient of pi^%d beyond window order %s" % (n, self.order))
        i = n - self.floor
        if i < 0 or i >= len(self.rows):
            return self.field.zero()
        return self.field.from_row(self.rows[i])

    def coeff_rows(self, lo: int, hi: int) -> np.ndarray:
        """Dense rows for exponents [lo, hi); raises if hi exceeds the window."""
        if hi <= lo:
            return np.zeros((0, self.field.m), dtype=np.int64)
        if hi > self.order:
            raise PrecisionError("window [%d, %d) exceeds order %s" % (lo, hi, self.order))
        out = np.zeros((hi - lo, self.field.m), dtype=np.int64)
        a = max(lo, self.floor)
        b = min(hi, self.floor + len(self.rows))
        if a < b:
            out[a - lo : b - lo] = self.rows[a - self.floor : b - self.floor]
        return out

    def support(self):
        return [self.floor + i for i in range(len(self.rows)) if self.rows[i].any()]

    def items(self):
        for i in range(len(self.rows)):
            if self.rows[i].any():
                yield self.floor + i, self.field.from_row(self.rows[i])

    # -- arithmetic ----------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = LaurentSeries.const(self.field, other)
        order = min(self.order, other.order)
        sups = [s.floor + len(s.rows) for s in (self, other) if len(s.rows)]
        if not sups:
            return LaurentSeries.zero(self.field, order)
        lo = int(min(s.low for s in (self, other) if len(s.rows)))
        hi = int(max(min(order, max(sups)), lo))
        rows = self.coeff_rows(lo, hi) + other.coeff_rows(lo, hi)
        return LaurentSeries(self.field, lo, order, rows)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.field, self.floor, self.order, (-self.rows) % self.field.p, _normalized=True)

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = LaurentSeries.const(self.field, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "LaurentSeries":
        c = self.field.coerce(c)
        if not c:
            return LaurentSeries.zero(self.field, self.order if self.is_zero() else INF if self.order == INF else self.order)
        if self.is_zero():
            return self
        if self.field.m == 1:
            rows = (self.rows * int(c.coeffs[0])) % self.field.p
        else:
            rows = self.field.mul_rows(self.rows, c.row().reshape(1, -1))
        return LaurentSeries(self.field, self.floor, self.order, rows, _normalized=False)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        if self.field is not other.field and self.field.key != other.field.key:
            raise ValueError("series over different fields")
        order = min(self.order + other.low, other.order + self.low)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(self.field, order)
        floor = self.floor + other.floor
        if self.field.m == 1:
            conv = np.convolve(self.rows[:, 0], other.rows[:, 0]) % self.field.p
            rows = conv.reshape(-1, 1)
        else:
            rows = self.field.mul_rows(self.rows, other.rows)
        return LaurentSeries(self.field, floor, order, rows)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by pi^k."""
        return LaurentSeries(
            self.field, self.floor + k, self.order if self.order == INF else self.order + k, self.rows, _normalized=True
        )

    def truncate(self, order) -> "LaurentSeries":
        order = _as_order(order)
        if order >= self.order:
            return self
        return LaurentSeries(self.field, self.floor, order, self.rows)

    def substitute_power(self, k: int) -> "LaurentSeries":
        """g(pi) -> g(pi^k); intermediate exponents are exactly zero."""
        if k == 1:
            return self
        if k < 1:
            raise ValueError("substitution power must be >= 1")
        order = self.order if self.order == INF else k * self.order
        if self.is_zero():
            return LaurentSeries.zero(self.field, order)
        rows = np.zeros((k * (len(self.rows) - 1) + 1, self.field.m), dtype=np.int64)
        rows[::k] = self.rows
        return LaurentSeries(self.field, k * self.floor, order, rows)

    def inv_unit(self, order=None) -> "LaurentSeries":
        """Inverse of a nonzero series, by Newton iteration on the unit part."""
        if self.is_zero():
            raise ZeroDivisionError("cannot invert a series that vanishes on its window")
        v = self.floor
        if order is None:
            if self.order == INF and len(self.rows) == 1:
                c = self.field.from_row(self.rows[0]).inv()
                return LaurentSeries.monomial(self.field, -v, c)
            if self.order == INF:
                raise PrecisionError("inverting an exact polynomial needs an explicit order")
            rel = self.order - v
        else:
            rel = _as_order(order) + v
            if self.order != INF:
                rel = min(rel, self.order - v)
        if rel <= 0:
            raise PrecisionError("no relative precision available for inversion")
        u = LaurentSeries(self.field, 0, rel, self.rows)  # unit part, val 0
        c0 = self.field.from_row(self.rows[0])
        x = LaurentSeries.const(self.field, c0.inv(), 1)
        prec = 1
        while prec < rel:
            prec = min(2 * prec, rel)
            ut = u.truncate(prec)
            # Newton self-corrects: extending the claimed window of x is sound here
            xe = LaurentSeries(self.field, x.floor, prec, x.rows, _normalized=True)
            e = LaurentSeries.one(self.field, prec) - ut * xe
            x = (xe + xe * e).truncate(prec)
        return x.shift(-v)

    def __truediv__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(self.field.coerce(other).inv())
        return self * other.inv_unit()

    def pow(self, e: int, order=None) -> "LaurentSeries":
        if e < 0:
            return self.inv_unit(order=None if order is None else order).pow(-e, order)
        result = LaurentSeries.one(self.field, INF if order is None else order)
        base = self if order is None else self.truncate(_as_order(order) + max(0, -e * min(0, self.low)))
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result if order is None else result.truncate(order)

    # -- comparison helpers ------------------------------------------------------
    def agrees_with(self, other, lo=None, hi=None) -> bool:
        """Equality of coefficients on the common (or given) window."""
        if isinstance(other, (int, FieldElement)):
            other = LaurentSeries.const(self.field, other)
        lo = min(self.low, other.low) if lo is None else lo
        hi = min(self.order, other.order) if hi is None else hi
        if hi == INF:
            hi = max(self.floor + len(self.rows), other.floor + len(other.rows), lo)
        if lo >= hi:
            return True
        return bool(np.array_equal(self.coeff_rows(lo, hi), other.coeff_rows(lo, hi)))

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            if isinstance(other, (int, FieldElement)):
                other = LaurentSeries.const(self.field, other)
            else:
                return NotImplemented
        return (
            self.floor == other.floor
            and self.order == other.order
            and self.rows.shape == other.rows.shape
            and bool(np.array_equal(self.rows, other.rows))
        )

    def __repr__(self):
        terms = []
        for n, c in list(self.items())[:8]:
            terms.append("%s*pi^%d" % (list(c.coeffs), n))
        tail = " + ..." if len(self.rows) > 8 else ""
        o = "inf" if self.order == INF else str(self.order)
        return "<series %s%s + O(pi^%s)>" % (" + ".join(terms) or "0", tail, o)


@functools.lru_cache(maxsize=None)
def _pascal_block(p: int, size: int, inverse: bool) -> np.ndarray:
    """The Kronecker power, over the digits of ``size`` = p^g, of the p x p matrix
    (-1)^(n-k) C(n, k) mod p (pi^n -> y^k), or of C(k, j) mod p (y^k -> pi^j)."""
    base = np.array(
        [[math.comb(n, k) * (1 if inverse else (-1) ** ((n - k) % 2)) % p for n in range(p)] for k in range(p)],
        dtype=np.int64,
    )
    out = np.ones((1, 1), dtype=np.int64)
    while out.shape[0] < size:
        out = np.kron(out, base) % p
    out.setflags(write=False)  # shared by every caller through the cache
    return out


def pascal_transform(x: np.ndarray, p: int, inverse: bool = False) -> np.ndarray:
    """Change of basis pi^n <-> y^k, y = 1 + pi, on coefficient rows x of shape (p^N, m).

    Forward gives the coefficients in the basis y^k; ``inverse`` goes back.  By
    Lucas's theorem both matrices are N-fold Kronecker powers of one p x p
    Pascal matrix, so they are applied a block of digits (at most 64 indices)
    at a time on the (..., block, ...) view of x."""
    P = x.shape[0]
    width = p
    while width * p <= 64:
        width *= p
    a, c = 1, x.size
    while a < P:
        blk = _pascal_block(p, min(width, P // a), inverse)
        b = blk.shape[0]
        c //= b
        x = np.matmul(blk, x.reshape(a, b, c)) % p
        a *= b
    return x.reshape(P, -1)


def pascal_size(p: int, n: int) -> int:
    """The smallest power of p that is at least n."""
    P = 1
    while P < n:
        P *= p
    return P


def one_plus_pi_pow(field: Field, u, order) -> LaurentSeries:
    """(1 + pi)^u truncated below ``order``: the back-transform of y^(u mod p^N), p^N >= order."""
    p = field.p
    order = int(order)
    if order <= 0:
        return LaurentSeries.zero(field, order)
    if isinstance(u, PadicInteger):
        if p**u.ndigits < order:
            raise PrecisionError("need p^ndigits >= order to expand (1+pi)^u")
        u = u.value
    P = pascal_size(p, order)
    y = np.zeros((P, 1), dtype=np.int64)
    y[int(u) % P] = 1
    rows = np.zeros((order, field.m), dtype=np.int64)
    rows[:, :1] = pascal_transform(y, p, inverse=True)[:order]
    return LaurentSeries(field, 0, order, rows)


def nth_root_unit(g: LaurentSeries, d: int, order=None) -> LaurentSeries:
    """The unique h = 1 mod pi with h^d = g, for g = 1 mod pi and gcd(d, p) = 1."""
    field = g.field
    if g.is_zero() or g.val() != 0 or g.coeff(0) != field.one():
        raise ValueError("nth_root_unit needs g in 1 + pi*F[[pi]]")
    if d % field.p == 0:
        raise ValueError("root degree divisible by p")
    if d < 0:
        return nth_root_unit(g.inv_unit(order), -d, order)
    if d == 1:
        return g if order is None else g.truncate(order)
    if order is None:
        if g.order == INF:
            raise PrecisionError("root of an exact polynomial needs an explicit order")
        order = g.order
    order = int(min(order, g.order))
    h = LaurentSeries.one(field, 1)
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        gt = g.truncate(prec)
        # Newton for f(h) = h^d - g:  h <- h - (h^d - g) / (d h^(d-1));
        # extending the claimed window of h is sound (quadratic convergence)
        he = LaurentSeries(field, h.floor, prec, h.rows, _normalized=True)
        hpow = he.pow(d - 1, prec)
        corr = (hpow * he - gt) * (hpow.scale(d)).inv_unit()
        h = (he - corr).truncate(prec)
    return h
