"""Exact dense linear algebra over F = F_{p^m} on F_p digit planes.

A matrix over F is an integer array (rows, cols, m): entry (i, j) is the coefficient
row of a_ij in the basis 1, x, ..., x^(m-1) of ``Field``.  Multiplication by c in F
is the F_p-linear map with matrix sum_k c_k X_k, X_k that of x^k (Lidl-Niederreiter,
Finite Fields, ch. 2), so elimination is int64 arithmetic mod p and nothing kept here
grows with q = p^m.  ``Factored`` keeps one matrix's independent rows, pivot columns
and inverse block as F_p matrices, each F entry its m x m multiplication matrix, for
many right-hand sides.
"""
from __future__ import annotations

import numpy as np

from .field import Field

_CACHE = {}


class GF:
    """Row operations over F_q on digit planes (..., m), in int64 mod p."""

    def __init__(self, field: Field):
        self.field = field
        self.p, self.m = field.p, field.m
        self.X = np.stack([field.mul_matrix(row) for row in np.eye(self.m, dtype=np.int64)])  # x^k as m x m matrices
        self._inv = {}  # a pivot's digits -> the matrix of its inverse, for the pivots met

    def eye(self, n: int) -> np.ndarray:
        """The n x n identity as digit planes."""
        out = np.zeros((n, n, self.m), dtype=np.int64)
        out[..., 0] = np.eye(n, dtype=np.int64)
        return out

    def _inverse(self, c: np.ndarray) -> np.ndarray:
        key = tuple(c.tolist())
        if key not in self._inv:
            self._inv[key] = self.field.mul_matrix(self.field.from_row(c).inv())
        return self._inv[key]

    def blocks(self, A) -> np.ndarray:
        """The F_p form (r m, n m) of an (r, n, m) matrix, each entry its m x m
        multiplication matrix: blocks(A) @ x.ravel() = (A x).ravel() mod p."""
        r, n = np.shape(A)[:2]
        return np.einsum("rnk,kij->rinj", np.asarray(A, dtype=np.int64), self.X).reshape(r * self.m, n * self.m) % self.p

    # -- gaussian elimination ---------------------------------------------------
    def rref(self, mat: np.ndarray):
        """Reduced row echelon form; returns (R, pivot_columns), R in int64."""
        p, m = self.p, self.m
        R = np.asarray(mat, dtype=np.int64) % p
        nr, nc = R.shape[:2]
        pivots = []
        r = 0
        for c in range(nc):
            if r >= nr:
                break
            nz = np.flatnonzero(R[r:, c].any(axis=1))
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                R[[r, i]] = R[[i, r]]
            R[r] = R[r] @ self._inverse(R[r, c]).T % p
            rows = np.flatnonzero(R[:, c].any(axis=1))
            rows = rows[rows != r]
            if rows.size:
                mats = (R[rows, c] @ self.X.reshape(m, m * m) % p).reshape(-1, m)  # each factor's m x m matrix, stacked
                upd = mats @ R[r].T  # (rows m, nc): each factor times the pivot row
                R[rows] = (R[rows] - upd.reshape(-1, m, nc).transpose(0, 2, 1)) % p
            pivots.append(c)
            r += 1
        return R[:r], pivots

    def nullspace(self, mat: np.ndarray) -> np.ndarray:
        """Basis of the right kernel, rows = basis vectors."""
        nc = np.shape(mat)[1]
        R, pivots = self.rref(mat)
        free = [c for c in range(nc) if c not in pivots]
        basis = self.eye(nc)[free]
        basis[:, pivots] = -R[:, free].transpose(1, 0, 2) % self.p
        return basis

    def solve(self, A: np.ndarray, b: np.ndarray):
        """One solution x (cols, m) of A x = b, or None; one elimination of [A | b]."""
        nc = np.shape(A)[1]
        R, pivots = self.rref(np.concatenate([A, np.asarray(b)[:, None]], axis=1))
        if nc in pivots:
            return None
        x = np.zeros((nc, self.m), dtype=np.int64)
        x[pivots] = R[:, nc]
        return x

    def span_equal(self, A: np.ndarray, B: np.ndarray) -> bool:
        if A.shape[1] != B.shape[1]:
            return False
        (ra, pa), (rb, pb) = self.rref(A), self.rref(B)
        return pa == pb and bool(np.array_equal(ra, rb))


class Factored:
    """A x = b for one matrix A and many b.  S are the independent rows of A, the
    pivots of rref(A^T), and P the pivot columns of A[S], which are those of A; the
    F_p blocks of A and of A[S, P]^-1 are kept.  ``solve`` takes x_P = A[S, P]^-1 b_S
    and x = 0 elsewhere, and returns x if A x = b and None otherwise.  When A x = b is
    solvable, rref([A[S] | b_S]) is the nonzero part of rref([A | b]), so this is what
    ``GF.solve`` returns."""

    def __init__(self, G: GF, A):
        self.G = G
        self.A = np.asarray(A)
        n = self.A.shape[1]
        self.S = np.array(G.rref(self.A.transpose(1, 0, 2))[1], dtype=np.int64)
        # E [A[S] | 1] = [rref(A[S]) | E]: E A[S, P] = 1, as rref(A[S]) is the identity on P
        R, P = G.rref(np.concatenate([self.A[self.S], G.eye(len(self.S))], axis=1))
        self.P = np.array(P, dtype=np.int64)
        self.blocks = G.blocks(self.A)
        self.inv = G.blocks(R[:, n:])

    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.A, self.S, self.P, self.blocks, self.inv))

    def solve(self, b):
        G = self.G
        d = np.asarray(b, dtype=np.int64)
        x = np.zeros((self.A.shape[1], G.m), dtype=np.int64)
        x[self.P] = (self.inv @ d[self.S].ravel() % G.p).reshape(-1, G.m)
        if ((self.blocks @ x.ravel() - d.ravel()) % G.p).any():
            return None
        return x


def gf(field: Field) -> GF:
    key = field.key
    if key not in _CACHE:
        _CACHE[key] = GF(field)
    return _CACHE[key]
