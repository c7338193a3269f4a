"""The digit-plane linear algebra of ``phigamma.gflinalg`` against the table-backed
oracle of ``gf_oracle`` for q <= 4096, and against the defining properties (reduced
echelon form, A N = 0, A x = b, the row space of R) beyond it, where no table fits."""
import random

import numpy as np
import pytest

from phigamma import FieldSpec, make_field
from phigamma.field import default_modulus
from phigamma.gflinalg import GF, Factored, gf

from gf_oracle import encode, oracle_gf

ORACLE_GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 3), (5, 2), (5, 3), (7, 2)]
SHAPES = [(6, 4), (3, 7), (12, 3), (1, 1), (5, 5), (9, 2), (2, 9)]  # tall, wide and square


def field_of(p, m):
    return make_field(FieldSpec(p, 1, m, default_modulus(p, m)))


def random_planes(F, rng, shape):
    return np.array([F.random_element(rng).row() for _ in range(int(np.prod(shape)))], dtype=np.int64).reshape(*shape, F.m)


def field_matmul(F, A, B):
    """A B over F, one FieldElement product at a time."""
    out = np.zeros((A.shape[0], B.shape[1], F.m), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            out[i, j] = sum((F.from_row(A[i, k]) * F.from_row(B[k, j]) for k in range(A.shape[1])), F.zero()).row()
    return out


def low_rank(F, rng, rows, cols, k):
    """A rows x cols matrix of rank k: L U with an identity block in k random rows of L
    and in k random columns of U."""
    L, U = random_planes(F, rng, (rows, k)), random_planes(F, rng, (k, cols))
    L[rng.sample(range(rows), k)] = GF(F).eye(k)
    U[:, rng.sample(range(cols), k)] = GF(F).eye(k)
    return field_matmul(F, L, U)


def invertible(F, rng, n):
    """L U with L unit lower and U unit upper triangular, random off the diagonal."""
    L, U = random_planes(F, rng, (n, n)), random_planes(F, rng, (n, n))
    L[np.triu_indices(n, 1)] = 0
    U[np.tril_indices(n, -1)] = 0
    L[range(n), range(n)] = U[range(n), range(n)] = F.one().row()
    return field_matmul(F, L, U)


def matrices(F, rng):
    """Random, zero, rank-deficient and sparse matrices of every shape, a repeated row,
    and matrices with no rows or no columns."""
    for rows, cols in SHAPES:
        A = random_planes(F, rng, (rows, cols))
        yield A
        yield np.zeros_like(A)
        k = min(rows, cols)
        for r in {1, max(k - 1, 1)}:
            yield low_rank(F, rng, rows, cols, r)
        sparse = A.copy()
        sparse[np.array([rng.random() < 0.7 for _ in range(rows)])] = 0
        yield sparse
        if rows > 1:
            A = A.copy()
            A[-1] = A[0]
            yield A
    yield np.zeros((0, 4, F.m), dtype=np.int64)
    yield np.zeros((3, 0, F.m), dtype=np.int64)


@pytest.mark.parametrize("p,m", ORACLE_GRID)
def test_digit_planes_match_the_table_oracle(p, m):
    """rref, nullspace, solve (consistent and random targets), span_equal (the same row
    space in another basis, and a different one) and Factored.solve give the oracle's
    answers, element for element."""
    F = field_of(p, m)
    G, O = gf(F), oracle_gf(F)
    rng = random.Random(1000 * p + m)
    outcomes = set()
    for A in matrices(F, rng):
        rows, cols = A.shape[:2]
        R, pivots = G.rref(A)
        Ro, po = O.rref(encode(A, p))
        assert pivots == po and np.array_equal(encode(R, p), Ro), A
        assert np.array_equal(encode(G.nullspace(A), p), O.nullspace(encode(A, p)))
        if not cols:
            continue
        fac = Factored(G, A)
        x = random_planes(F, rng, (cols, 1))
        for b in [field_matmul(F, A, x)[:, 0], random_planes(F, rng, (rows,))]:
            want = O.solve(encode(A, p), encode(b, p))
            got = G.solve(A, b)
            assert (got is None) == (want is None), A
            if want is not None:
                assert np.array_equal(encode(got, p), want) and np.array_equal(fac.solve(b), got)
            else:
                assert fac.solve(b) is None
            outcomes.add(want is None)
        if rows:
            mix = field_matmul(F, invertible(F, rng, rows), A)
            assert G.span_equal(A, mix) and O.span_equal(encode(A, p), encode(mix, p))
            other = random_planes(F, rng, (rows, cols))
            assert G.span_equal(A, other) == O.span_equal(encode(A, p), encode(other, p))
    assert outcomes == {True, False}


@pytest.mark.parametrize("p,m", [(2, 13), (3, 8), (5, 6)])
def test_rref_beyond_the_old_table_limit(p, m):
    """q > 4096: R is in reduced echelon form with as many rows as the rank, A is the
    pivot columns of A times R, A N = 0 for the nullspace N, and solve returns a
    solution of a consistent system."""
    F = field_of(p, m)
    assert F.q > 4096
    G = gf(F)
    rng = random.Random(p * m)
    one = F.one().row()
    for rows, cols in SHAPES:
        for k in {1, min(rows, cols)}:
            A = low_rank(F, rng, rows, cols, k)
            R, pivots = G.rref(A)
            assert len(pivots) == k and pivots == sorted(pivots)
            for r, c in enumerate(pivots):
                assert np.array_equal(R[r, c], one) and not R[:r, c].any() and not R[r + 1 :, c].any()
                assert not R[r, :c].any()
            assert np.array_equal(field_matmul(F, A[:, pivots], R), A)
            N = G.nullspace(A)
            assert N.shape == (cols - k, cols, m)
            assert not field_matmul(F, A, N.transpose(1, 0, 2)).any()
            x = random_planes(F, rng, (cols, 1))
            b = field_matmul(F, A, x)[:, 0]
            sol = G.solve(A, b)
            assert sol is not None and np.array_equal(field_matmul(F, A, sol[:, None])[:, 0], b)
            assert np.array_equal(Factored(G, A).solve(b), sol)
