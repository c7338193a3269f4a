import math
import random

import numpy as np
import pytest

from phigamma import FieldSpec, LaurentSeries, PrecisionError, make_field, nth_root_unit, one_plus_pi_pow
from phigamma.field import default_modulus
from phigamma.series import INF, pascal_transform


def F(p, m=1):
    return make_field(FieldSpec(p, 1 if m == 1 else m, m, default_modulus(p, m)))


def rand_series(field, rng, lo, hi, order):
    pairs = {e: field.random_element(rng) for e in range(lo, hi)}
    return LaurentSeries.from_pairs(field, pairs, order)


def test_mul_examples():
    F3 = F(3)
    one, pi = LaurentSeries.one(F3), LaurentSeries.monomial(F3, 1)
    assert ((one + pi) * (one - pi)).agrees_with(LaurentSeries.from_pairs(F3, {0: 1, 2: 2}))
    assert (LaurentSeries.monomial(F3, -2) * pi * pi).agrees_with(one)
    F5 = F(5)
    lhs = (LaurentSeries.one(F5) + LaurentSeries.monomial(F5, 1, 2)) * (
        LaurentSeries.const(F5, 3) + LaurentSeries.monomial(F5, 1)
    )
    assert lhs.agrees_with(LaurentSeries.from_pairs(F5, {0: 3, 1: 2, 2: 2}))


def test_valuation_of_products(rng):
    F9 = F(3, 2)
    for _ in range(200):
        a = rand_series(F9, rng, -3, 4, 30)
        b = rand_series(F9, rng, -2, 5, 30)
        ab = a * b
        if a.val() is not None and b.val() is not None:
            assert ab.val() == a.val() + b.val()


def test_inv_unit():
    F3 = F(3)
    one, pi = LaurentSeries.one(F3), LaurentSeries.monomial(F3, 1)
    inv = (one + pi).inv_unit(order=6)
    assert inv.agrees_with(LaurentSeries.from_pairs(F3, {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2}))
    assert pi.inv_unit().agrees_with(LaurentSeries.monomial(F3, -1))
    b = LaurentSeries.const(F3, 2) + pi
    assert (b * b.inv_unit(order=9)).agrees_with(one, 0, 9)
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero(F3, 5).inv_unit()


def test_substitute_power():
    F3 = F(3)
    pi = LaurentSeries.monomial(F3, 1)
    g = pi + pi * pi
    assert g.substitute_power(3).agrees_with(LaurentSeries.from_pairs(F3, {3: 1, 6: 1}))
    assert g.substitute_power(1) is g


def test_substitute_power_properties(rng):
    F5 = F(5)
    for _ in range(100):
        g = rand_series(F5, rng, -2, 6, 25)
        k = rng.choice([2, 3, 5])
        if g.val() is not None:
            assert g.substitute_power(k).val() == k * g.val()
    for _ in range(50):
        a = rand_series(F5, rng, 0, 5, 20)
        b = rand_series(F5, rng, 0, 5, 20)
        k = rng.choice([2, 5])
        lhs = (a * b).substitute_power(k)
        rhs = a.substitute_power(k) * b.substitute_power(k)
        assert lhs.agrees_with(rhs)


def test_one_plus_pi_pow():
    F3 = F(3)
    assert one_plus_pi_pow(F3, 3, 9).agrees_with(LaurentSeries.from_pairs(F3, {0: 1, 3: 1}))
    assert one_plus_pi_pow(F3, 1, 5).agrees_with(LaurentSeries.from_pairs(F3, {0: 1, 1: 1}))
    # u = 4, p = 3: binomials 4,6,4,1 mod 3
    assert one_plus_pi_pow(F3, 4, 5).agrees_with(LaurentSeries.from_pairs(F3, {0: 1, 1: 1, 3: 1, 4: 1}))


def test_one_plus_pi_pow_additive(rng):
    F3 = F(3)
    for _ in range(100):
        u, v = rng.randrange(0, 3**6), rng.randrange(0, 3**6)
        lhs = one_plus_pi_pow(F3, u + v, 30)
        rhs = one_plus_pi_pow(F3, u, 30) * one_plus_pi_pow(F3, v, 30)
        assert lhs.agrees_with(rhs, 0, 30)


def test_nth_root_unit():
    F3 = F(3)
    one, pi = LaurentSeries.one(F3), LaurentSeries.monomial(F3, 1)
    g = one_plus_pi_pow(F3, 2, 12)
    assert nth_root_unit(g, 2).agrees_with(one + pi, 0, 12)
    assert nth_root_unit(one + pi, 1) == one + pi
    with pytest.raises(ValueError):
        nth_root_unit(pi, 2)
    with pytest.raises(ValueError):
        nth_root_unit(one + pi, 3, order=5)  # p | d


def test_nth_root_round_trip(rng):
    F9 = F(3, 2)
    d = (9 - 1) // (3 - 1)
    for _ in range(200):
        rows = np.array([[1, 0]] + [[rng.randrange(3), rng.randrange(3)] for _ in range(20)])
        h0 = LaurentSeries(F9, 0, 21, rows)
        assert nth_root_unit(h0.pow(d, 21), d).agrees_with(h0, 0, 21)


def test_ring_axioms(rng):
    F4 = F(2, 2)
    for _ in range(200):
        a = rand_series(F4, rng, -2, 4, 16)
        b = rand_series(F4, rng, -1, 5, 16)
        c = rand_series(F4, rng, 0, 4, 16)
        assert ((a + b) + c).agrees_with(a + (b + c))
        assert (a * b).agrees_with(b * a)
        lhs = a * (b + c)
        rhs = a * b + a * c
        hi = min(lhs.order, rhs.order)
        assert lhs.agrees_with(rhs, None, hi)


def test_window_tracking():
    F3 = F(3)
    a = LaurentSeries.from_pairs(F3, {0: 1}, 5)
    b = LaurentSeries.from_pairs(F3, {2: 1}, 8)
    assert (a * b).order == 7  # min(5 + 2, 8 + 0)
    assert (a + b).order == 5
    with pytest.raises(PrecisionError):
        (a * b).coeff(7)


def test_order_cut_trims_trailing_zero_rows():
    F3 = F(3)
    cut = LaurentSeries(F3, 0, 3, [[1], [0], [0], [1]])
    assert cut == LaurentSeries(F3, 0, 3, [[1]])
    assert cut.rows.shape == (1, 1)
    assert LaurentSeries(F3, 0, 5, [[1], [0], [1]]).truncate(2) == LaurentSeries(F3, 0, 2, [[1]])
    assert LaurentSeries(F3, 2, 3, [[0], [1]]).is_zero()


def test_scale_matches_series_product(rng):
    for p, m in [(2, 2), (3, 2), (2, 3), (5, 2)]:
        field = F(p, m)
        s = rand_series(field, rng, -3, 12, 20)
        for _ in range(5):
            c = field.random_element(rng, nonzero=True)
            assert s.scale(c) == s * LaurentSeries.const(field, c)


def test_padic_integer():
    from phigamma import PadicInteger

    u = PadicInteger(3, 4, 5)
    assert u.digits() == [1, 1, 0, 0, 0]
    assert PadicInteger(3, -1, 4).digits() == [2, 2, 2, 2]


def test_one_plus_pi_pow_insufficient_digits():
    from phigamma import PadicInteger

    F3 = F(3)
    u = PadicInteger(3, 4, 2)  # knows 2 digits: covers orders < 9 only
    assert one_plus_pi_pow(F3, u, 9).agrees_with(one_plus_pi_pow(F3, 4, 9))
    with pytest.raises(PrecisionError):
        one_plus_pi_pow(F3, u, 10)


def _full_product(a, b):
    """a * b from the whole rows of both factors, cut only at the result's order."""
    from test_field import schoolbook_mul_rows

    order = min(a.order + b.low, b.order + a.low)
    if a.is_zero() or b.is_zero():
        return LaurentSeries.zero(a.field, order)
    return LaurentSeries(a.field, a.floor + b.floor, order, schoolbook_mul_rows(a.field, a.rows, b.rows))


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 2), (5, 1), (5, 3)])
def test_cut_product_equals_full_product_truncated(rng, p, m):
    field = F(p, m)
    orders = [INF, 0, 1, 7, 40, 300]
    for _ in range(120):
        lo_a, lo_b = rng.randrange(-30, 10), rng.randrange(-30, 10)
        a = rand_series(field, rng, lo_a, lo_a + rng.randrange(0, 250), rng.choice(orders))
        b = rand_series(field, rng, lo_b, lo_b + rng.randrange(0, 250), rng.choice(orders))
        if rng.random() < 0.3:  # an F_p-coefficient factor, as lambda or kappa
            b = LaurentSeries(field, b.floor, b.order, b.rows * np.eye(m, dtype=np.int64)[0]) if not b.is_zero() else b
        assert a * b == _full_product(a, b)
        assert b * a == _full_product(b, a)


def test_truncate_frees_rows_beyond_the_window():
    F9 = F(3, 2)
    s = LaurentSeries(F9, -5, INF, np.ones((20000, 2), dtype=np.int64))
    for cut in (s.truncate(95), s.substitute_power(3).shift(7).truncate(95)):
        rows = cut.rows
        while rows.base is not None:
            rows = rows.base
        assert rows.nbytes <= (95 - cut.floor) * 2 * 8


@pytest.mark.parametrize("p,m", [(2, 1), (3, 2), (5, 3)])
def test_support_matches_rowwise_scan(rng, p, m):
    """support() against the row-at-a-time scan it replaced, on sparse series, on
    spread-out rows from substitute_power, and on empty series."""
    field = F(p, m)
    cases = [LaurentSeries.zero(field), LaurentSeries.zero(field, 7), LaurentSeries.one(field)]
    for _ in range(40):
        lo = rng.randrange(-40, 10)
        pairs = {e: field.random_element(rng) for e in range(lo, lo + rng.randrange(0, 60)) if rng.random() < 0.3}
        s = LaurentSeries.from_pairs(field, pairs, rng.choice([INF, lo + 30]))
        cases += [s, s.substitute_power(p).shift(-3), -s]
    for s in cases:
        want = [s.floor + i for i in range(len(s.rows)) if s.rows[i].any()]
        got = s.support()
        assert got == want and all(type(e) is int for e in got)
    assert LaurentSeries.zero(field).support() == []


def _substitute_oracle(s, k):
    """g(pi^k) from its terms, on the window k * order."""
    return LaurentSeries.from_pairs(s.field, {k * e: c for e, c in s.items()}, s.order if s.order == INF else k * s.order)


@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (5, 3)])
def test_capped_substitution_matches_full_substitution_truncated(rng, p, f):
    """substitute_power(k, order) reads only the rows below the window, and agrees in
    floor, order and rows with the full substitution cut afterwards."""
    field = F(p, f)
    samples = [LaurentSeries.zero(field), LaurentSeries.zero(field, 7), LaurentSeries.zero(field, -3)]
    for _ in range(12):
        lo = rng.randrange(-2 * p, 3)
        hi = lo + rng.randrange(1, 4 * p)
        samples.append(rand_series(field, rng, lo, hi, rng.choice([INF, hi, hi + rng.randrange(1, 9)])))
    for s in samples:
        for k in sorted({1, p, p**f}):
            full = s.substitute_power(k)
            assert full == _substitute_oracle(s, k)
            assert s.substitute_power(k, INF) == full
            kfloor = k * s.floor if s.floor != INF else 0
            top = full.order if full.order != INF else kfloor + k * len(s.rows) + 1
            orders = {kfloor - 1, kfloor, rng.randrange(kfloor + 1, max(top, kfloor + 2) + 1), top + k}
            for order in orders:
                assert s.substitute_power(k, order) == full.truncate(order), (s, k, order)  # floor, order and rows
        assert s.substitute_power(1) is s


def _lucas_matrix(p, P, inverse):
    """The dense change of basis from binomials: pi^n -> y^k has (-1)^(n-k) C(n, k),
    y^k -> pi^j has C(k, j), both mod p (rows the output index)."""
    if inverse:
        return np.array([[math.comb(k, j) % p for k in range(P)] for j in range(P)], dtype=np.int64)
    return np.array([[(-1) ** ((n - k) % 2) * math.comb(n, k) % p for n in range(P)] for k in range(P)], dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pruned_pascal_transform_matches_full(p):
    """pascal_transform(live=...) against the full transform: forward, on inputs
    that vanish from row ``live`` on, it returns whole slabs that hold every
    nonzero row; inverse, its rows below ``live`` are the full transform's."""
    gen = np.random.default_rng(p)
    width = p  # the digit block: the largest power of p <= 64
    while width * p <= 64:
        width *= p
    for g in range(6):
        P = p**g
        for inverse in (False, True):
            if P <= 125:
                x = gen.integers(0, p, (P, 2))
                assert np.array_equal(pascal_transform(x, p, inverse), _lucas_matrix(p, P, inverse) @ x % p)
            for live in sorted({1, P // 3 + 1, max(P - 1, 1), P}):
                x = gen.integers(0, p, (P, 3))
                if not inverse:
                    x[live:] = 0
                full = pascal_transform(x, p, inverse)
                got = pascal_transform(x, p, inverse, live=live)
                slab = P // min(width, P)  # the rows of one slab of the leading digit block
                assert live <= len(got) <= -(-live // slab) * slab and got.shape[1] == 3
                if inverse:
                    assert np.array_equal(got[:live], full[:live]), (P, live)
                else:
                    assert np.array_equal(got, full[: len(got)]), (P, live)
                    assert not full[len(got) :].any(), (P, live)
