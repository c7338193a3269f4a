"""Series over W(F)/p^N are LaurentSeries over a PadicRing.  The references here are
the separate p-adic series type and its np.convolve product that the merged type
replaced, kept verbatim apart from names: the random tests compare the two."""
import numpy as np
import pytest

from phigamma import INF, FieldSpec, LaurentSeries, PadicRing, PrecisionError, make_field
from phigamma.field import default_modulus

from conftest import ctx_for


class RefPadicRing:
    """The product of the old PadicRing: x^k reduced by subtracting c g (a monic modulus
    only) and one np.convolve per pair of nonzero columns."""

    def __init__(self, field, depth):
        self.field = field
        self.p, self.m = field.p, field.m
        self.depth = depth
        self.pN = field.p**depth
        m, pN = self.m, self.pN
        modulus = [int(c) for c in field.modulus]
        red = np.zeros((2 * m - 1, m), dtype=np.int64)
        for k in range(2 * m - 1):
            poly = [0] * k + [1]
            while len(poly) - 1 >= m:
                c = poly[-1] % pN
                d = len(poly) - 1 - m
                for i, mi in enumerate(modulus):
                    poly[d + i] = (poly[d + i] - c * mi) % pN
                while poly and poly[-1] % pN == 0:
                    poly.pop()
            row = [0] * m
            for i, c in enumerate(poly):
                row[i] = c % pN
            red[k] = row
        self._red = red

    def mul_rows(self, a, b):
        ka, kb, m = a.shape[0], b.shape[0], self.m
        if ka == 0 or kb == 0:
            return np.zeros((0, m), dtype=np.int64)
        acc = np.zeros((ka + kb - 1, 2 * m - 1), dtype=np.int64)
        for i in range(m):
            ca = a[:, i]
            if not ca.any():
                continue
            for j in range(m):
                cb = b[:, j]
                if cb.any():
                    acc[:, i + j] += np.convolve(ca, cb)
        return (acc % self.pN) @ self._red % self.pN

    def mul_scalar(self, a_row, b_row):
        return self.mul_rows(np.asarray(a_row).reshape(1, -1), np.asarray(b_row).reshape(1, -1))[0]

    def unit_inv_scalar(self, row):
        x = self.field.from_row(np.asarray(row) % self.p)
        if not x:
            raise ZeroDivisionError("not a unit in W/p^N")
        cur = x.inv().row() % self.pN
        r = np.asarray(row, dtype=np.int64) % self.pN
        for _ in range(self.depth.bit_length() + 2):
            prod = self.mul_scalar(r, cur)
            corr = (-prod) % self.pN
            corr[0] = (corr[0] + 2) % self.pN
            cur = self.mul_scalar(cur, corr)
        return cur


class RefPadicSeries:
    """Truncated series over W/p^N on exponents [floor, order)."""

    __slots__ = ("ring", "floor", "order", "rows")

    def __init__(self, ring, floor, order, rows, _normalized=False):
        self.ring = ring
        self.order = order if order == INF else int(order)
        rows = np.asarray(rows, dtype=np.int64) % ring.pN
        if rows.ndim == 1:
            rows = rows.reshape(-1, ring.m)
        if not _normalized:
            nz = np.flatnonzero(rows.any(axis=1))
            if nz.size == 0:
                floor, rows = self.order, rows[:0]
            else:
                lo, hi = int(nz[0]), int(nz[-1])
                floor, rows = floor + lo, rows[lo : hi + 1]
            if floor != INF and self.order != INF and floor + len(rows) > self.order:
                rows = rows[: max(0, self.order - floor)]
                if len(rows) == 0 or not rows.any():
                    floor, rows = self.order, rows[:0]
        self.floor = floor
        self.rows = np.ascontiguousarray(rows)

    @classmethod
    def zero(cls, ring, order=INF):
        return cls(ring, order if order == INF else int(order), order, np.zeros((0, ring.m), dtype=np.int64), True)

    @classmethod
    def monomial(cls, ring, n, coeff_row, order=INF):
        return cls(ring, n, order, np.asarray(coeff_row, dtype=np.int64).reshape(1, -1))

    @classmethod
    def one(cls, ring, order=INF):
        row = np.zeros(ring.m, dtype=np.int64)
        row[0] = 1
        return cls.monomial(ring, 0, row, order)

    @property
    def low(self):
        return self.floor if len(self.rows) else self.order

    def is_zero(self):
        return len(self.rows) == 0

    def coeff_rows(self, lo, hi):
        if hi <= lo:
            return np.zeros((0, self.ring.m), dtype=np.int64)
        if hi > self.order:
            raise PrecisionError("padic window [%d, %d) exceeds order %s" % (lo, hi, self.order))
        out = np.zeros((hi - lo, self.ring.m), dtype=np.int64)
        a, b = max(lo, self.floor), min(hi, self.floor + len(self.rows))
        if a < b:
            out[a - lo : b - lo] = self.rows[a - self.floor : b - self.floor]
        return out

    def __add__(self, other):
        order = min(self.order, other.order)
        sups = [s.floor + len(s.rows) for s in (self, other) if len(s.rows)]
        if not sups:
            return RefPadicSeries.zero(self.ring, order)
        lo = int(min(s.low for s in (self, other) if len(s.rows)))
        hi = int(max(min(order, max(sups)), lo))
        return RefPadicSeries(self.ring, lo, order, self.coeff_rows(lo, hi) + other.coeff_rows(lo, hi))

    def __neg__(self):
        return RefPadicSeries(self.ring, self.floor, self.order, (-self.rows) % self.ring.pN, True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        order = min(self.order + other.low, other.order + self.low)
        if self.is_zero() or other.is_zero():
            return RefPadicSeries.zero(self.ring, order)
        rows = self.ring.mul_rows(self.rows, other.rows)
        return RefPadicSeries(self.ring, self.floor + other.floor, order, rows)

    def shift(self, k):
        return RefPadicSeries(self.ring, self.floor + k, self.order if self.order == INF else self.order + k, self.rows, True)

    def truncate(self, order):
        if order >= self.order:
            return self
        return RefPadicSeries(self.ring, self.floor, order, self.rows)

    def scale_row(self, row):
        if self.is_zero():
            return self
        rows = self.ring.mul_rows(self.rows, np.asarray(row, dtype=np.int64).reshape(1, -1))
        return RefPadicSeries(self.ring, self.floor, self.order, rows)

    def inv_unit(self, order=None):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero padic series")
        v = self.floor
        if order is None:
            if self.order == INF and len(self.rows) == 1:
                return RefPadicSeries.monomial(self.ring, -v, self.ring.unit_inv_scalar(self.rows[0]))
            if self.order == INF:
                raise PrecisionError("need explicit order")
            rel = self.order - v
        else:
            rel = int(order) + v
            if self.order != INF:
                rel = min(rel, self.order - v)
        u = RefPadicSeries(self.ring, 0, rel, self.rows, True)
        x = RefPadicSeries.monomial(self.ring, 0, self.ring.unit_inv_scalar(self.rows[0]), 1)
        prec = 1
        while prec < rel:
            prec = min(2 * prec, rel)
            xe = RefPadicSeries(self.ring, x.floor, prec, x.rows, True)
            e = RefPadicSeries.one(self.ring, prec) - u.truncate(prec) * xe
            x = (xe + xe * e).truncate(prec)
        return x.shift(-v)

    def pow(self, e, order=None):
        if e == 0:
            return RefPadicSeries.one(self.ring, INF if order is None else order)
        result = None  # from the first factor on, as LaurentSeries.pow
        base = self
        if e < 0:
            base = base.inv_unit(order)
            e = -e
        if order is not None:
            base = base.truncate(order + max(0, -e * min(0, self.low)))
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result if order is None else result.truncate(order)

    def agrees_with(self, other, lo=None, hi=None):
        lo = min(self.low, other.low) if lo is None else lo
        hi = min(self.order, other.order) if hi is None else hi
        if hi == INF:
            hi = max(self.floor + len(self.rows), other.floor + len(other.rows), lo)
        if lo >= hi:
            return True
        return bool(np.array_equal(self.coeff_rows(lo, hi), other.coeff_rows(lo, hi)))


def field_for(p, m, modulus=None):
    return make_field(FieldSpec(p, 1, m, modulus or default_modulus(p, m)))


def non_monic(p, m):
    """The default modulus times its smallest non-1 unit: irreducible, leading coefficient 2."""
    return tuple(2 * c % p for c in default_modulus(p, m))


def assert_same(mine, ref):
    """Same floor, order and rows; the reference may keep zero rows that a cut left at
    the top, which the merged type trims."""
    rows = ref.rows
    while len(rows) and not rows[-1].any():
        rows = rows[:-1]
    assert (mine.floor, mine.order) == (ref.floor, ref.order)
    assert np.array_equal(mine.rows, rows)


def assert_agree(x, rx, y, ry, *window):
    """agrees_with of both types, where the reference can compare: it fails on an exact
    zero against an exact nonzero series (test_exact_zero_agrees_only_with_zero)."""
    if INF in (x.order, y.order) and (x.is_zero() or y.is_zero()) and not window:
        return
    assert x.agrees_with(y, *window) == rx.agrees_with(ry, *window)


def random_pair(gen, p, N, m, unit=False):
    """One random series as (merged, reference): floor in [-4, 6), order finite or
    infinite, rows mod N with p-divisible rows mixed in; ``unit`` makes its leading
    row a unit mod p."""
    floor = int(gen.integers(-4, 6))
    n = int(gen.integers(0, 14))
    rows = gen.integers(0, N, (n, m))
    rows[gen.random(n) < 0.3] *= p
    if unit and n:
        rows[0, 0] = rows[0, 0] * p + 1
    order = INF if gen.random() < 0.25 else floor + int(gen.integers(0 if not unit else 1, n + 6))
    return floor, order, rows


SETS = [(2, 1, 3), (3, 2, 3), (5, 2, 3), (5, 3, 2)]


@pytest.mark.parametrize("p,f,N", SETS)
def test_merged_series_matches_padic_reference(p, f, N):
    """+, -, *, shift, truncate, inv_unit, pow (e >= 0) and agrees_with of LaurentSeries
    over a PadicRing against the reference type, on random windowed inputs."""
    field = ctx_for(p, f).field
    ring, ref_ring = PadicRing(field, N), RefPadicRing(field, N)
    gen = np.random.default_rng(100 * p + 10 * f + N)

    def pair(unit=False):
        floor, order, rows = random_pair(gen, p, p**N, field.m, unit)
        return LaurentSeries(ring, floor, order, rows), RefPadicSeries(ref_ring, floor, order, rows)

    for _ in range(60):
        (a, ra), (b, rb) = pair(), pair()
        assert_same(a, ra)
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert_same(a * b, ra * rb)
        k = int(gen.integers(-5, 6))
        assert_same(a.shift(k), ra.shift(k))
        cut = a.floor + int(gen.integers(-2, 8)) if a.floor != INF else int(gen.integers(-2, 8))
        assert_same(a.truncate(cut), ra.truncate(cut))
        assert_agree(a, ra, b, rb)
        assert_agree(a, ra, a + b.shift(12), ra + rb.shift(12))
        lo, hi = sorted(int(x) for x in gen.integers(-4, 12, 2))
        if hi <= min(a.order, b.order):
            assert_agree(a, ra, b, rb, lo, hi)
        e = int(gen.integers(0, 5))
        o = None if a.order == INF and len(a.rows) < 6 else int(gen.integers(1, 16))
        assert_same(a.pow(e, o), ra.pow(e, o))
        u, ru = pair(unit=True)
        if u.is_zero():
            continue
        for o in (None, int(gen.integers(1, 20)) - u.floor):  # o + floor > 0: some relative precision
            if o is None and u.order == INF and len(u.rows) > 1:
                continue
            assert_same(u.inv_unit(o), ru.inv_unit(o))
    # a row scalar against the old one-row product
    a, ra = pair()
    c = gen.integers(0, p**N, field.m)
    assert_same(a.scale(c), ra.scale_row(c))


@pytest.mark.parametrize("p,f,N", SETS + [(7, 2, 3), (5, 3, 4)])
def test_padic_mul_rows_matches_reference(p, f, N):
    """The convolve_rows product of PadicRing against the np.convolve loop, with
    all-(p^N - 1) operands too."""
    field = ctx_for(p, f).field
    ring, ref = PadicRing(field, N), RefPadicRing(field, N)
    gen = np.random.default_rng(7 * p + f + N)
    shapes = [(1, 1), (1, 9), (9, 1), (40, 33), (300, 7), (2, 250)]
    for ka, kb in shapes:
        a, b = gen.integers(0, p**N, (ka, field.m)), gen.integers(0, p**N, (kb, field.m))
        assert np.array_equal(ring.mul_rows(a, b), ref.mul_rows(a, b)), (ka, kb)
        a[:], b[:] = p**N - 1, p**N - 1
        assert np.array_equal(ring.mul_rows(a, b), ref.mul_rows(a, b)), (ka, kb)


GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)]


@pytest.mark.parametrize("p,m,monic", [(p, m, True) for p, m in GRID] + [(3, 2, False), (5, 2, False), (5, 3, False), (7, 2, False)])
def test_padic_reduction_table_reduces_to_field(p, m, monic):
    """W/p^N reduces to F mod p, for non-monic moduli too, and the modulus of F
    vanishes at x in W/p^N."""
    field = field_for(p, m, None if monic else non_monic(p, m))
    for depth in (1, 2, 3):
        ring = PadicRing(field, depth)
        assert np.array_equal(ring._red % p, field._red)
        if m > 1:
            x = np.zeros(m, dtype=np.int64)
            x[1] = 1
            g = sum(int(gi) * ring.pow_scalar(x, i) for i, gi in enumerate(field.modulus))
            assert not (g % ring.N).any()
    if monic:
        assert np.array_equal(PadicRing(field, 3)._red, RefPadicRing(field, 3)._red)


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (5, 3)])
def test_non_monic_ring_inverse_and_teichmuller(p, m):
    field = field_for(p, m, non_monic(p, m))
    ring = PadicRing(field, 3)
    one = ring.row(1)
    for idx in range(1, field.q, max(1, field.q // 17)):
        row = field.from_index(idx).row() + p * np.arange(m)
        assert np.array_equal(ring.mul_scalar(row, ring.unit_inv_scalar(row)), one)
    t = ring.teichmuller(field.generator())
    assert np.array_equal(t % p, field.generator().row())
    assert np.array_equal(ring.pow_scalar(t, field.q - 1), one)


def test_series_over_different_rings_refuse_to_multiply():
    field = ctx_for(3, 2).field
    a = LaurentSeries.one(PadicRing(field, 2), 5)
    with pytest.raises(ValueError, match="different"):
        a * LaurentSeries.one(PadicRing(field, 3), 5)
    with pytest.raises(ValueError, match="different"):
        a * LaurentSeries.one(field, 5)


def test_reduce_mod_p_keeps_window():
    field = ctx_for(3, 1).field
    ring = PadicRing(field, 2)
    s = LaurentSeries(ring, 2, 9, [[3], [4], [0], [9]])  # 9 = 0 mod 9
    r = s.reduce_mod_p(field)
    assert (r.floor, r.order, r.rows.tolist()) == (3, 9, [[1]])
    z = LaurentSeries(ring, 0, 7, [[3], [6]]).reduce_mod_p(field)
    assert z.is_zero() and (z.floor, z.order) == (7, 7)
    assert LaurentSeries.zero(ring).reduce_mod_p(field) == LaurentSeries.zero(field)


def test_exact_zero_agrees_only_with_zero():
    for ring in (ctx_for(3, 2).field, PadicRing(ctx_for(3, 2).field, 2)):
        zero, pi2 = LaurentSeries.zero(ring), LaurentSeries.monomial(ring, 2, 1)
        assert zero.agrees_with(zero) and pi2.agrees_with(pi2)
        assert not zero.agrees_with(pi2) and not pi2.agrees_with(zero)
        assert zero.agrees_with(pi2, 0, 2) and zero.agrees_with(pi2 - pi2)
