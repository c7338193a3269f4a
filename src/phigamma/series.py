"""Truncated Laurent series over a coefficient ring with explicit support windows.

The ring is F_{p^m} (a ``Field``) or W(F_{p^m})/p^N (a ``wach.PadicRing``).  A
series is known exactly on exponents [floor, order); ``order`` may be
``math.inf`` for exact Laurent polynomials.  Arithmetic tracks the reliable
window and never silently extends it.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .field import Field, FieldElement, ResidueRing

INF = math.inf


class PrecisionError(ArithmeticError):
    """A coefficient beyond the reliable window was requested or needed."""


def _as_order(x):
    return x if x == INF else int(x)


class LaurentSeries:
    """Coefficients on exponents [floor, floor + len(rows)); zero up to ``order``.

    Rows are numpy vectors of length m over the coefficient ring ``field`` (a
    ``ResidueRing``: Z/N[x]/(g)), reduced mod N and stored in ``field.dtype``, the
    smallest unsigned dtype that holds N - 1; arithmetic widens them to int64, and
    ``coeff_rows`` returns int64.  The leading row is nonzero and trailing zero rows
    are trimmed, so exponents in [floor + len(rows), order) carry implicit zeros.
    Methods that take or return a ``FieldElement`` need a ``Field``.
    """

    __slots__ = ("field", "floor", "order", "rows")

    def __init__(self, field: ResidueRing, floor: int, order, rows: np.ndarray, _normalized=False):
        self.field = field
        self.order = _as_order(order)
        if _normalized:
            self.floor = floor
            self.rows = rows.astype(field.dtype, copy=False)
            return
        rows = np.asarray(rows, dtype=np.int64)  # a caller's rows may lie outside [0, N)
        if rows.ndim == 1:
            rows = rows.reshape(-1, field.m)
        if self.order != INF:
            rows = rows[: max(0, self.order - floor)]
        rows = rows % field.N  # after the cut, so no row beyond the window stays referenced
        nz = np.flatnonzero(rows.any(axis=1))
        if nz.size == 0:
            self.floor = self.order
            self.rows = rows[:0].astype(field.dtype)
        else:
            lo, hi = int(nz[0]), int(nz[-1])
            self.floor = floor + lo
            self.rows = np.ascontiguousarray(rows[lo : hi + 1], dtype=field.dtype)

    # -- constructors ----------------------------------------------------------
    @classmethod
    def zero(cls, field: ResidueRing, order=INF) -> "LaurentSeries":
        return cls(field, _as_order(order), order, np.zeros((0, field.m), dtype=field.dtype), _normalized=True)

    @classmethod
    def monomial(cls, field: ResidueRing, n: int, coeff=1, order=INF) -> "LaurentSeries":
        row = field.row(coeff)
        if not row.any():
            return cls.zero(field, order)
        return cls(field, n, order, row.reshape(1, -1))

    @classmethod
    def one(cls, field: ResidueRing, order=INF) -> "LaurentSeries":
        return cls.monomial(field, 0, 1, order)

    @classmethod
    def const(cls, field: ResidueRing, c, order=INF) -> "LaurentSeries":
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
        """Dense int64 rows for exponents [lo, hi); raises if hi exceeds the window."""
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
        return (self.floor + np.flatnonzero(self.rows.any(axis=1))).tolist()

    def items(self):
        for i in range(len(self.rows)):
            if self.rows[i].any():
                yield self.floor + i, self.field.from_row(self.rows[i])

    # -- arithmetic ----------------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
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
        neg = -self.rows.astype(np.int64) % self.field.N  # widened first: -x of unsigned rows wraps mod 2^bits
        return LaurentSeries(self.field, self.floor, self.order, neg, _normalized=True)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.const(self.field, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "LaurentSeries":
        """Times the scalar c (an int, a coefficient row, or a FieldElement over a Field)."""
        if self.is_zero():
            return self
        return LaurentSeries(self.field, self.floor, self.order, self.rows @ self.field.mul_matrix(c).T % self.field.N)

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return self.scale(other)
        if self.field is not other.field and self.field.key != other.field.key:
            raise ValueError("series over different fields")
        order = min(self.order + other.low, other.order + self.low)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(self.field, order)
        if len(self.rows) == 1 or len(other.rows) == 1:  # a monomial factor: a scale and a shift
            mono, s = (self, other) if len(self.rows) == 1 else (other, self)
            return s.scale(mono.rows[0]).shift(mono.floor).truncate(order)
        floor = self.floor + other.floor
        keep = None if order == INF else order - floor  # rows that can land below the result's order
        rows = self.field.mul_rows(self.rows[:keep], other.rows[:keep])
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

    def substitute_power(self, k: int, order=INF) -> "LaurentSeries":
        """g(pi) -> g(pi^k) below ``order``; intermediate exponents are exactly zero.
        Only the source rows that land below the window are read."""
        if k == 1:
            return self.truncate(order)
        if k < 1:
            raise ValueError("substitution power must be >= 1")
        order = min(self.order if self.order == INF else k * self.order, _as_order(order))
        if self.is_zero() or order <= k * self.floor:
            return LaurentSeries.zero(self.field, order)
        n = len(self.rows) if order == INF else min(len(self.rows), -((k * self.floor - order) // k))
        rows = np.zeros((k * (n - 1) + 1, self.field.m), dtype=self.rows.dtype)
        rows[::k] = self.rows[:n]
        return LaurentSeries(self.field, k * self.floor, order, rows)

    def inv_unit(self, order=None) -> "LaurentSeries":
        """Inverse of a nonzero series, by Newton iteration on the unit part."""
        if self.is_zero():
            raise ZeroDivisionError("cannot invert a series that vanishes on its window")
        v = self.floor
        c0 = self.field.unit_inv_scalar(self.rows[0])
        if order is None:
            if self.order == INF and len(self.rows) == 1:
                return LaurentSeries.monomial(self.field, -v, c0)
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
        x = LaurentSeries.const(self.field, c0, 1)
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
        if not isinstance(other, LaurentSeries):
            return self.scale(self.field.unit_inv_scalar(self.field.row(other)))
        return self * other.inv_unit()

    def pow(self, e: int, order=None) -> "LaurentSeries":
        if e < 0:
            return self.inv_unit(order=None if order is None else order).pow(-e, order)
        if e == 0:
            return LaurentSeries.one(self.field, INF if order is None else order)
        result = None  # from the first factor on: a base with a pole keeps the window of repeated products
        base = self if order is None else self.truncate(_as_order(order) + max(0, -e * min(0, self.low)))
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result if order is None else result.truncate(order)

    # -- comparison helpers ------------------------------------------------------
    def agrees_with(self, other, lo=None, hi=None) -> bool:
        """Equality of coefficients on the common (or given) window."""
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.const(self.field, other)
        lo = min(self.low, other.low) if lo is None else lo
        hi = min(self.order, other.order) if hi is None else hi
        if hi == INF:
            hi = max([s.floor + len(s.rows) for s in (self, other) if len(s.rows)], default=lo)
        if lo >= hi:
            return True
        return bool(np.array_equal(self.coeff_rows(lo, hi), other.coeff_rows(lo, hi)))

    def reduce_mod_p(self, field: Field) -> "LaurentSeries":
        """The same floor, order and rows over ``field``, reduced mod its p."""
        return LaurentSeries(field, self.floor, self.order, self.rows)

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
        terms = ["%s*pi^%d" % (self.rows[n - self.floor].tolist(), n) for n in self.support()[:8]]
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


def pascal_transform(x: np.ndarray, p: int, inverse: bool = False, live=None) -> np.ndarray:
    """Change of basis pi^n <-> y^k, y = 1 + pi, on coefficient rows x of shape (p^N, m).

    Forward gives the coefficients in the basis y^k; ``inverse`` goes back.  By
    Lucas's theorem both matrices are N-fold Kronecker powers of one p x p
    Pascal matrix, so they are applied a block of digits (at most 64 indices)
    at a time on the (..., block, ...) view of x.  They map an index to digit-wise
    smaller ones only: with x zero from row ``live`` on (forward), or rows below
    ``live`` wanted (inverse), the blocks run on the slabs that meet [0, live)."""
    P = x.shape[0]
    cols = x.size // P
    x = x.reshape(P, cols)
    width = p
    while width * p <= 64:
        width *= p
    a, n = 1, P  # a slabs of n rows each
    while n > 1:
        b = min(width, n)
        n //= b
        k = b if live is None or a > 1 else min(b, -(-live // n))
        blk = _pascal_block(p, b, inverse)[:k, : b if inverse else k]
        x = np.matmul(blk, x[: a * blk.shape[1] * n].reshape(a, blk.shape[1], n * cols)) % p
        a *= k
        x = x.reshape(a * n, cols)
    return x


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
    P = pascal_size(p, order)
    y = np.zeros((P, 1), dtype=np.int64)
    y[int(u) % P] = 1
    rows = np.zeros((order, field.m), dtype=np.int64)
    rows[:, :1] = pascal_transform(y, p, inverse=True, live=order)[:order]
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
