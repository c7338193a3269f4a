import random

import numpy as np
import pytest

from phigamma import FieldError, FieldSpec, frobenius, make_field
from phigamma.field import convolve_rows, default_modulus


def test_prime_field_arithmetic():
    F3 = make_field(FieldSpec(3, 1, 1, (0, 1)))
    two = F3.element(2)
    assert two * two == F3.one()
    assert (two + F3.one()) == F3.zero()


def test_degree_one_modulus_must_be_x():
    with pytest.raises(FieldError):
        make_field(FieldSpec(3, 1, 1, (2, 1)))  # x - 1 convention not used


def test_f4_generator_table():
    F4 = make_field(FieldSpec(2, 2, 2, (1, 1, 1)))
    g = F4.generator()
    assert g * g == g + F4.one()
    # exhaustive check of the 4-element multiplication table against polynomials
    for a in F4.elements():
        for b in F4.elements():
            assert (a * b).coeffs == (b * a).coeffs


def test_f25_square_of_generator_polynomial():
    F25 = make_field(FieldSpec(5, 2, 2, (2, 0, 1)))
    x = F25.element([0, 1])
    assert x * x == F25.element(3)  # x^2 = -2 = 3


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        make_field(FieldSpec(3, 1, 2, (0, 0, 1)))  # x^2
    with pytest.raises(FieldError):
        make_field(FieldSpec(2, 1, 2, (1, 0, 1)))  # x^2 + 1 = (x+1)^2
    with pytest.raises(FieldError):
        make_field(FieldSpec(4, 1, 1, (0, 1)))  # p not prime
    with pytest.raises(FieldError):
        make_field(FieldSpec(3, 2, 3, default_modulus(3, 3)))  # f does not divide m


def test_frobenius_basics(rng):
    F4 = make_field(FieldSpec(2, 2, 2, (1, 1, 1)))
    g = F4.generator()
    assert frobenius(g, 1) == g + F4.one()
    for spec in [FieldSpec(3, 2, 2, default_modulus(3, 2)), FieldSpec(5, 1, 1, (0, 1))]:
        F = make_field(spec)
        for _ in range(100):
            x = F.random_element(rng)
            assert frobenius(x, 0) == x
            assert frobenius(x, F.m) == x


def test_frobenius_is_ring_hom(rng):
    F = make_field(FieldSpec(3, 2, 2, default_modulus(3, 2)))
    for _ in range(1000):
        x, y = F.random_element(rng), F.random_element(rng)
        k = rng.randrange(0, 3)
        assert frobenius(x + y, k) == frobenius(x, k) + frobenius(y, k)
        assert frobenius(x * y, k) == frobenius(x, k) * frobenius(y, k)


def test_inverses(rng):
    for spec in [FieldSpec(2, 2, 2, (1, 1, 1)), FieldSpec(5, 2, 2, default_modulus(5, 2))]:
        F = make_field(spec)
        for x in F.elements():
            if x:
                assert x * x.inv() == F.one()


def test_subfield_k_size():
    # k = fixed field of the p^f-power map has exactly p^f elements
    for p, f, m in [(2, 1, 2), (2, 2, 4), (3, 1, 2), (5, 1, 2)]:
        F = make_field(FieldSpec(p, f, m, default_modulus(p, m)))
        assert sum(F.frobenius(x, f) == x for x in F.elements()) == p**f


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_mul_matrix_is_multiplication(p, m):
    field = make_field(FieldSpec(p, 1, m, default_modulus(p, m)))
    for c in field.elements():
        mat = field.mul_matrix(c)
        for x in field.elements():
            assert tuple(int(v) for v in mat @ x.row() % p) == (c * x).coeffs


def schoolbook_mul_rows(field, a, b):
    """Reference product of coefficient rows over a ``Field`` or a ``PadicRing``: one
    np.convolve per pair of nonzero columns, then reduction by the modulus (int64;
    small N only)."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)  # np.convolve keeps uint8 and wraps
    ka, kb, m = a.shape[0], b.shape[0], field.m
    acc = np.zeros((max(ka + kb - 1, 0), 2 * m - 1), dtype=np.int64)
    for i in range(m):
        col_a = a[:, i]
        if not col_a.any():
            continue
        for j in range(m):
            col_b = b[:, j]
            if col_b.any():
                acc[:, i + j] += np.convolve(col_a, col_b)
    return (acc % field.N) @ field._red % field.N


def int_mul_rows(field, a, b):
    """Reference product in Python ints, exact for any p."""
    p, m = field.p, field.m
    acc = [[0] * (2 * m - 1) for _ in range(max(len(a) + len(b) - 1, 0))]
    for i, ra in enumerate(a.tolist()):
        for j, rb in enumerate(b.tolist()):
            for s, x in enumerate(ra):
                for t, y in enumerate(rb):
                    acc[i + j][s + t] += x * y
    red = field._red.tolist()
    out = [[sum(c * red[k][col] for k, c in enumerate(row)) % p for col in range(m)] for row in acc]
    return np.array(out, dtype=np.int64).reshape(-1, m)


def slot_bytes(p, a, b):
    """The slot width of the Kronecker product of a and b, in bytes."""
    widths = [int(np.flatnonzero(x.any(axis=0))[-1]) + 1 for x in (a, b)]
    return ((min(len(a), len(b)) * min(widths) * (p - 1) ** 2).bit_length() + 7) // 8


def random_rows(gen, p, n, m, d):
    """n random rows with entries in [0, p) in the first d columns only."""
    rows = np.zeros((n, m), dtype=np.int64)
    rows[:, :d] = gen.integers(0, p, (n, d))
    return rows


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)])
def test_mul_rows_matches_schoolbook(p, m):
    field = make_field(FieldSpec(p, 1, m, default_modulus(p, m)))
    gen = np.random.default_rng(1000 * p + m)
    cases = [(0, 3, m, m), (4, 0, m, m), (0, 0, m, m), (1, 1, m, m), (1, 7, 1, m), (9, 1, m, 1), (3000, 2500, m, m)]
    cases += [(3000, 40, 1, m), (1, 3000, m, m)]
    for _ in range(40):
        ka, kb = (int(k) for k in gen.integers(1, 400, 2))
        cases.append((ka, kb, int(gen.integers(1, m + 1)), int(gen.integers(1, m + 1))))
    for ka, kb, da, db in cases:  # da, db = 1: F_p-coefficient rows
        a, b = random_rows(gen, p, ka, m, da), random_rows(gen, p, kb, m, db)
        got = field.mul_rows(a, b)
        assert got.shape == (max(ka + kb - 1, 0), m)
        assert np.array_equal(got, schoolbook_mul_rows(field, a, b)), (ka, kb, da, db)
    zero = np.zeros((5, m), dtype=np.int64)
    assert np.array_equal(field.mul_rows(zero, random_rows(gen, p, 6, m, m)), np.zeros((10, m), dtype=np.int64))
    # unreduced and negative entries mean their residues mod p
    a, b = gen.integers(-3 * p, 3 * p, (20, m)), gen.integers(-3 * p, 3 * p, (30, m))
    assert np.array_equal(field.mul_rows(a, b), schoolbook_mul_rows(field, a % p, b % p))


@pytest.mark.parametrize(
    "p,m,ka,kb,da,db,width",
    [
        (2, 1, 5, 5, 1, 1, 1),
        (5, 3, 300, 320, 1, 3, 2),
        (5, 3, 3000, 3000, 3, 3, 3),
        (65521, 1, 300, 280, 1, 1, 6),
        (2**31 - 1, 1, 300, 280, 1, 1, 9),
        (2**31 - 1, 1, 1, 1, 1, 1, 8),
    ],
)
def test_mul_rows_slot_widths(p, m, ka, kb, da, db, width):
    field = make_field(FieldSpec(p, 1, m, default_modulus(p, m)))
    gen = np.random.default_rng(ka + p)
    a, b = random_rows(gen, p, ka, m, da), random_rows(gen, p, kb, m, db)
    a[0, da - 1] = b[0, db - 1] = p - 1  # the largest entries reach the top of the slot
    assert slot_bytes(p, a, b) == width
    want = schoolbook_mul_rows(field, a, b) if p < 2**20 else int_mul_rows(field, a, b)
    assert np.array_equal(field.mul_rows(a, b), want)
    if p > 2**20:  # every coefficient at its maximum: the carries the slots must absorb
        full = np.full((ka, m), p - 1, dtype=np.int64)
        assert np.array_equal(field.mul_rows(full, full), int_mul_rows(field, full, full))


def int_convolve_rows(a, b, N):
    """Reference product in Z/N[pi, x] in Python ints, exact for any N."""
    acc = [[0] * (a.shape[1] + b.shape[1] - 1) for _ in range(len(a) + len(b) - 1)]
    for i, ra in enumerate(a.tolist()):
        for j, rb in enumerate(b.tolist()):
            for s, x in enumerate(ra):
                if x:
                    for t, y in enumerate(rb):
                        acc[i + j][s + t] += x * y
    return np.array([[c % N for c in row] for row in acc], dtype=np.int64).reshape(len(acc), -1)


@pytest.mark.parametrize(
    "N,ka,kb,da,db",
    [
        (2, 5, 7, 1, 1),
        (5, 40, 33, 4, 3),
        (5, 60, 50, 1, 80),  # 80 x-slots of one F_p factor, as in op_lambda_gamma_rows
        (65521, 30, 40, 2, 3),
        (2**31 - 1, 300, 280, 1, 3),  # 9-byte slots
        (2**31 - 1, 120, 130, 3, 3),
        # the x-outer layout: lopsided shapes both ways, one column against 3-40
        (5, 3, 400, 1, 3),
        (5, 400, 3, 1, 40),
        (5, 1, 60, 1, 12),  # ka = 1
        (5, 70, 1, 2, 5),  # kb = 1
        (5, 50, 45, 4, 1),  # da > 1 against db = 1
        (2, 200, 3, 1, 40),
        (2, 1, 30, 3, 1),
        (2**31 - 1, 5, 200, 1, 40),
        (2**31 - 1, 300, 5, 3, 1),
        # all-(N-1) operands: the top coefficient 10 * 2 * 4^2 = 320 needs a second byte,
        # which a slot sized without min(da, db) (10 * 4^2 = 160) would not give
        (5, 10, 10, 2, 2),
        # moduli p^n, as in W/p^n: the slot bound and byte weights use N, not p
        (9, 3, 5, 2, 2),  # 3 * 2 * 8^2 = 384 needs a second byte, 3 * 8^2 = 192 does not
        (27, 10, 12, 10, 10),  # 10 * 10 * 26^2 = 67600 needs a third byte, 6760 does not
        (125, 40, 33, 4, 3),
        (8, 60, 50, 1, 80),
        (5**13, 120, 130, 3, 3),  # 9-byte slots, N > 2^30
    ],
)
def test_convolve_rows_matches_int_reference(N, ka, kb, da, db):
    gen = np.random.default_rng(ka * kb + N)
    a, b = gen.integers(0, N, (ka, da)), gen.integers(0, N, (kb, db))
    a[0], b[0] = N - 1, N - 1  # the largest entries reach the top of the slot
    b[:, 1::3] = 0  # zero x-slots between nonzero ones
    got = convolve_rows(a, b, N)
    assert got.shape == (ka + kb - 1, da + db - 1)
    assert np.array_equal(got, int_convolve_rows(a, b, N))
    if N > 2**30:
        assert ((min(ka, kb) * min(da, db) * (N - 1) ** 2).bit_length() + 7) // 8 == 9
    # entries of any sign mean their residues mod N
    assert np.array_equal(convolve_rows(a - N, b + 2 * N, N), got)
    # all-(N-1) operands fill the slot up to its bound min(ka, kb) min(da, db) (N-1)^2
    a[:], b[:] = N - 1, N - 1
    assert np.array_equal(convolve_rows(a, b, N), int_convolve_rows(a, b, N))


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5, 7) for m in range(1, 10) if p**m <= 729])
def test_gf_tables_match_the_broadcast_formula(p, m):
    """The addition and negation tables of the table-backed oracle of the F_q linear algebra."""
    from gf_oracle import TableGF

    gf = TableGF(make_field(FieldSpec(p, 1, m, default_modulus(p, m))))
    q, pows = p**m, p ** np.arange(m)
    digits = np.arange(q)[:, None] // pows % p
    assert gf.ADD.dtype == gf.NEG.dtype == np.int32
    assert np.array_equal(gf.ADD, (digits[:, None, :] + digits[None, :, :]) % p @ pows)
    assert np.array_equal(gf.NEG, (-digits) % p @ pows)
