import random

import pytest

from phigamma import FieldError, FieldSpec, frobenius, make_field
from phigamma.field import default_modulus


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
        assert len(F.subfield_k_elements()) == p**f


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_mul_matrix_is_multiplication(p, m):
    field = make_field(FieldSpec(p, 1, m, default_modulus(p, m)))
    for c in field.elements():
        mat = field.mul_matrix(c)
        for x in field.elements():
            assert tuple(int(v) for v in mat @ x.row() % p) == (c * x).coeffs
