"""A series stores its rows in its ring's smallest unsigned dtype (``ResidueRing.dtype``)
and widens them to int64 for arithmetic.  Every constructor and operation is checked
here against a reference in Python ints on {exponent: row} dicts: a result keeps the
compact dtype, is normalised, and equals the reference, window included."""
import random

import numpy as np
import pytest

from phigamma import INF, FieldSpec, LaurentSeries, PadicRing, make_field, nth_root_unit
from phigamma.field import Field, default_modulus
from test_field import schoolbook_mul_rows

FIELDS = [(p, m) for p in (2, 3, 5, 7) for m in (1, 2, 3)] + [(251, 1)]  # at 251, 2 (p - 1) > 255
# (p, m, depth, dtype): both sides of each dtype boundary; at p = 2 int64 products that
# wrap stay exact mod 2^depth
DEPTHS = [(2, 2, 8, "uint8"), (5, 2, 4, "uint16"), (2, 2, 16, "uint16"), (3, 2, 11, "uint32"), (2, 2, 32, "uint32"), (2, 2, 40, "int64")]


def field_of(p, m):
    return make_field(FieldSpec(p, 1 if m == 1 else m, m, default_modulus(p, m)))


def ring_mul(ring, x, y):
    """The product of two coefficient rows (lists of ints) in Z/N[x]/(g)."""
    acc = [0] * (2 * ring.m - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            acc[i + j] += a * b
    red = ring._red.tolist()
    return [sum(c * red[k][col] for k, c in enumerate(acc)) % ring.N for col in range(ring.m)]


class Ref:
    """A series as {exponent: nonzero row of Python ints in [0, N)} below ``order``."""

    def __init__(self, ring, order, coeffs):
        self.ring, self.order = ring, order
        rows = {e: [int(c) % ring.N for c in row] for e, row in coeffs.items() if e < order}
        self.coeffs = {e: row for e, row in rows.items() if any(row)}

    @classmethod
    def of(cls, s):
        return cls(s.field, s.order, {s.floor + i: row for i, row in enumerate(s.rows.tolist())})

    @property
    def low(self):
        return min(self.coeffs, default=self.order)

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, row in other.coeffs.items():
            out[e] = [a + b for a, b in zip(out.get(e, [0] * self.ring.m), row)]
        return Ref(self.ring, min(self.order, other.order), out)

    def __neg__(self):
        return Ref(self.ring, self.order, {e: [-c for c in row] for e, row in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        order = min(self.order + other.low, other.order + self.low)
        out = {}
        for e, x in self.coeffs.items():
            for f, y in other.coeffs.items():
                out[e + f] = [a + b for a, b in zip(out.get(e + f, [0] * self.ring.m), ring_mul(self.ring, x, y))]
        return Ref(self.ring, order, out)

    def scale(self, c):
        c = self.ring.row(c).tolist()
        return Ref(self.ring, self.order, {e: ring_mul(self.ring, c, row) for e, row in self.coeffs.items()})

    def truncate(self, order):
        return Ref(self.ring, min(self.order, order), self.coeffs)

    def substitute_power(self, k, order=INF):
        return Ref(self.ring, min(k * self.order, order), {k * e: row for e, row in self.coeffs.items()})

    def inv_unit(self, order=None):
        """By long division: x_n = -x_0 sum_{0<k<=n} u_k x_(n-k), on the window of ``inv_unit``."""
        v, one = self.low, [1] + [0] * (self.ring.m - 1)
        rel = self.order - v if order is None else min(order + v, self.order - v)
        u = [self.coeffs.get(v + k, [0] * self.ring.m) for k in range(rel)]
        x = [self.ring.unit_inv_scalar(np.array(u[0])).tolist()]
        minus_x0 = ring_mul(self.ring, x[0], [self.ring.N - 1] + one[1:])
        for n in range(1, rel):
            acc = [0] * self.ring.m
            for k in range(1, n + 1):
                acc = [a + b for a, b in zip(acc, ring_mul(self.ring, u[k], x[n - k]))]
            x.append(ring_mul(self.ring, minus_x0, acc))
        return Ref(self.ring, rel - v, {n - v: row for n, row in enumerate(x)})

    def pow(self, e, order=INF):
        out = Ref(self.ring, INF, {0: [1] + [0] * (self.ring.m - 1)})
        for _ in range(e):
            out = out * self
        return out.truncate(order)

    def nth_root(self, d, order):
        """h = 1 + sum h_n pi^n with h^d = g below ``order``: d h_n is g_n minus the
        coefficient of pi^n in (h below pi^n)^d."""
        h = {0: [1] + [0] * (self.ring.m - 1)}
        dinv = pow(d, -1, self.ring.N)
        for n in range(1, order):
            t = Ref(self.ring, n + 1, h).pow(d).coeffs.get(n, [0] * self.ring.m)
            h[n] = [(a - b) * dinv for a, b in zip(self.coeffs.get(n, [0] * self.ring.m), t)]
        return Ref(self.ring, order, h)

    def reduce_mod_p(self, field):
        return Ref(field, self.order, self.coeffs)


def check(s, ref):
    """s holds compact, normalised rows equal to the reference on the same window."""
    assert s.rows.dtype == s.field.dtype
    assert len(s.rows) == 0 or (s.rows[0].any() and s.rows[-1].any())
    got = Ref.of(s)
    assert (got.order, got.coeffs) == (ref.order, ref.coeffs)


def random_series(ring, gen, unit=False):
    """A series with rows drawn from [-2N, 2N), so the constructor reduces them, and its
    reference; with ``unit`` its floor row is a unit."""
    N, lo, n = ring.N, int(gen.integers(-4, 5)), int(gen.integers(1 if unit else 0, 16))
    raw = gen.integers(-2 * N, 2 * N, (n, ring.m), dtype=np.int64)
    if unit:
        raw[0, 0] = int(gen.integers(1, ring.p)) + ring.p * int(gen.integers(0, N // ring.p))
        raw[0, 1:] = ring.p * gen.integers(0, N // ring.p, ring.m - 1)
    order = INF if not unit and gen.random() < 0.3 else lo + n + int(gen.integers(0 if unit else -3, 6))
    if unit:
        order = max(order, lo + 1)
    s = LaurentSeries(ring, lo, order, raw)
    ref = Ref(ring, order, {lo + i: row for i, row in enumerate(raw.tolist())})
    check(s, ref)
    return s, ref


def rings():
    for p, m in FIELDS:
        field = field_of(p, m)
        assert field.dtype == np.uint8
        yield pytest.param(field, id="F%d^%d" % (p, m))
    for p, m, depth, dtype in DEPTHS:
        ring = PadicRing(field_of(p, m), depth)
        assert ring.dtype == np.dtype(dtype)
        yield pytest.param(ring, id="W%d^%d/%d^%d" % (p, m, p, depth))


@pytest.mark.parametrize("ring", list(rings()))
def test_compact_rows_match_a_widened_reference(ring):
    gen = np.random.default_rng(ring.N * 10 + ring.m)
    zero = LaurentSeries.zero(ring, 7)
    check(zero, Ref(ring, 7, {}))
    check(LaurentSeries.monomial(ring, 3, ring.N - 1), Ref(ring, INF, {3: [ring.N - 1] + [0] * (ring.m - 1)}))
    check(LaurentSeries.one(ring, 5), Ref(ring, 5, {0: [1] + [0] * (ring.m - 1)}))
    for _ in range(12):
        (a, ra), (b, rb) = random_series(ring, gen), random_series(ring, gen)
        check(a + b, ra + rb)
        check(a - b, ra - rb)
        check(-a, -ra)
        c = gen.integers(0, ring.N, ring.m)
        check(a.scale(c), ra.scale(c))
        check(a.scale(ring.N - 1), ra.scale(ring.N - 1))
        check(a * b, ra * rb)
        check(a.shift(3), Ref(ring, ra.order + 3, {e + 3: row for e, row in ra.coeffs.items()}))
        check(a.truncate(2), ra.truncate(2))
        k = int(gen.integers(2, 5))
        check(a.substitute_power(k), ra.substitute_power(k))
        check(a.substitute_power(k, 9), ra.substitute_power(k, 9))
        if isinstance(ring, Field):
            x = ring.random_element(random.Random(k))
            check(a.scale(x), ra.scale(x))
        u, ru = random_series(ring, gen, unit=True)
        check(u.inv_unit(), ru.inv_unit())
        check(u.inv_unit(order=4 - u.floor), ru.inv_unit(order=4 - u.floor))
        check(u.pow(3, 8), ru.pow(3, 8))  # floor, order and rows of repeated products, poles included
        check(a.pow(2), ra.pow(2))
        if isinstance(ring, PadicRing):
            check(a.reduce_mod_p(ring.field), ra.reduce_mod_p(ring.field))


@pytest.mark.parametrize("ring", [r for r in rings() if r.values[0].N < 2**16])
def test_product_with_a_one_row_operand_is_a_scale_and_a_shift(ring, monkeypatch):
    """A factor with one stored row (a monomial, with a pole or not) on either side of a
    product: floor, order and rows against ``schoolbook_mul_rows``, with no call to the
    product kernel."""
    gen = np.random.default_rng(ring.N + ring.m)
    pairs = []
    for _ in range(40):
        s, _ = random_series(ring, gen)
        row = gen.integers(0, ring.N, (1, ring.m))
        row[0, 0] = row[0, 0] or 1
        order = INF if gen.random() < 0.5 else int(gen.integers(-6, 10))
        mono = LaurentSeries(ring, min(int(gen.integers(-6, 4)), order - 1), order, row)
        pairs += [(mono, s), (s, mono)]
    want = []
    for x, y in pairs:
        rows = schoolbook_mul_rows(ring, x.rows, y.rows)
        want.append(LaurentSeries(ring, x.floor + y.floor, min(x.order + y.low, y.order + x.low), rows))
    monkeypatch.setattr(type(ring), "mul_rows", None)  # a call to the kernel would fail
    for (x, y), w in zip(pairs, want):
        got = x * y
        assert got.rows.dtype == ring.dtype
        assert (got.floor, got.order) == (w.floor, w.order) and np.array_equal(got.rows, w.rows), (x, y)


@pytest.mark.parametrize("p,m", FIELDS)
def test_nth_root_unit_matches_a_widened_reference(p, m):
    field = field_of(p, m)
    gen = np.random.default_rng(p * 10 + m)
    for d in (2, 3, 4):
        if d % p == 0:
            continue
        raw = gen.integers(0, p, (10, m))
        raw[0] = [1] + [0] * (m - 1)
        g = LaurentSeries(field, 0, 10, raw)
        check(nth_root_unit(g, d), Ref.of(g).nth_root(d, 10))
        check(nth_root_unit(g, d, order=6), Ref.of(g).nth_root(d, 6))
