"""Exact dense linear algebra over F_{p^m}, with elements encoded as integers.

An element sum c_i x^i is encoded as sum c_i p^i in [0, q).  Addition is a
table lookup; multiplication goes through discrete log/exp tables relative to
the field generator.  Intended for the moderate systems arising from tail
functionals (a few thousand rows); tables require q <= 4096.  ``Factored`` keeps
one matrix's independent rows, pivot columns and inverse block as F_p matrices,
each F_q entry its m x m multiplication matrix, for many right-hand sides.
"""
from __future__ import annotations

import numpy as np

from .field import Field

TABLE_LIMIT = 4096
_CACHE = {}


class GF:
    """Table-backed arithmetic for vectorized row operations over F_q."""

    def __init__(self, field: Field):
        if field.q > TABLE_LIMIT:
            raise ValueError("GF tables limited to q <= %d (got %d)" % (TABLE_LIMIT, field.q))
        self.field = field
        self.p, self.m, self.q = field.p, field.m, field.q
        p, m, q = self.p, self.m, self.q
        # digit decomposition of all indices
        digits = np.zeros((q, m), dtype=np.int32)
        v = np.arange(q)
        for i in range(m):
            digits[:, i] = v % p
            v = v // p
        self.ADD = np.zeros((q, q), dtype=np.int32)
        for i in range(m):  # one digit plane at a time: no (q, q, m) intermediate
            plane = np.add.outer(digits[:, i], digits[:, i])
            plane %= p
            plane *= p**i
            self.ADD += plane
        self.NEG = (-digits) % p @ (p ** np.arange(m, dtype=np.int32))
        g = field.generator()
        exp = np.zeros(2 * (q - 1), dtype=np.int32)
        log = np.zeros(q, dtype=np.int64)
        x = field.one()
        for k in range(q - 1):
            idx = x.index()
            exp[k] = idx
            exp[k + q - 1] = idx
            log[idx] = k
            x = x * g
        self.EXP = exp
        self.LOG = log
        self.X = np.stack([field.mul_matrix(row) for row in np.eye(m, dtype=np.int64)])  # x^k as m x m matrices

    def encode_rows(self, rows: np.ndarray) -> np.ndarray:
        """(n, m, ...) coefficient rows -> (n, ...) encoded indices, one digit plane at
        a time, so no reduced copy of all of ``rows`` is made."""
        rows = np.asarray(rows, dtype=np.int64)
        out = rows[:, 0] % self.p
        for k in range(1, self.m):
            out += rows[:, k] % self.p * self.p**k
        return out

    def digits(self, a) -> np.ndarray:
        """Encoded indices (...) -> their F_p digits (..., m)."""
        return np.asarray(a, dtype=np.int64)[..., None] // self.p ** np.arange(self.m) % self.p

    def blocks(self, A) -> np.ndarray:
        """The F_p form (r m, n m) of an encoded (r, n) matrix, each entry its m x m
        multiplication matrix: blocks(A) @ digits(x).ravel() = digits(A x).ravel() mod p."""
        r, n = np.shape(A)
        return np.einsum("rnk,kij->rinj", self.digits(A), self.X).reshape(r * self.m, n * self.m) % self.p

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self.EXP[self.LOG[a] + self.LOG[b]].astype(np.int64)
        return np.where((a == 0) | (b == 0), 0, out)

    def add(self, a, b):
        return self.ADD[np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)].astype(np.int64)

    def sub(self, a, b):
        return self.add(a, self.NEG[np.asarray(b, dtype=np.int64)].astype(np.int64))

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inverting zero")
        return self.EXP[(self.q - 1) - self.LOG[a]].astype(np.int64)

    # -- gaussian elimination ---------------------------------------------------
    def rref(self, mat: np.ndarray):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        R = np.array(mat, dtype=np.int64)
        nr, nc = R.shape
        pivots = []
        r = 0
        for c in range(nc):
            if r >= nr:
                break
            col = R[r:, c]
            nz = np.flatnonzero(col)
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                R[[r, i]] = R[[i, r]]
            R[r] = self.mul(np.full(nc, self.inv(R[r, c])), R[r])
            rows = np.flatnonzero(R[:, c])
            rows = rows[rows != r]
            if rows.size:
                factors = R[rows, c]
                upd = self.mul(factors[:, None], R[r][None, :])
                R[rows] = self.sub(R[rows], upd)
            pivots.append(c)
            r += 1
        return R[:r], pivots

    def nullspace(self, mat: np.ndarray) -> np.ndarray:
        """Basis of the right kernel, rows = basis vectors."""
        mat = np.asarray(mat, dtype=np.int64)
        nc = mat.shape[1]
        R, pivots = self.rref(mat)
        free = [c for c in range(nc) if c not in pivots]
        basis = np.zeros((len(free), nc), dtype=np.int64)
        for k, fc in enumerate(free):
            basis[k, fc] = 1
            for r, pc in enumerate(pivots):
                basis[k, pc] = self.NEG[R[r, fc]]
        return basis

    def solve(self, A: np.ndarray, b: np.ndarray):
        """One solution x of A x = b, or None; one elimination of [A | b]."""
        A = np.asarray(A, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64).reshape(-1, 1)
        R, pivots = self.rref(np.concatenate([A, b], axis=1))
        nc = A.shape[1]
        if nc in pivots:
            return None
        x = np.zeros(nc, dtype=np.int64)
        x[pivots] = R[:, nc]
        return x

    def span_equal(self, A, B) -> bool:
        A = np.asarray(A, dtype=np.int64).reshape(-1, A.shape[-1] if hasattr(A, "shape") else len(A[0]))
        B = np.asarray(B, dtype=np.int64).reshape(-1, B.shape[-1] if hasattr(B, "shape") else len(B[0]))
        if A.shape[1] != B.shape[1]:
            return False
        ra, pa = self.rref(A)
        rb, pb = self.rref(B)
        return ra.shape == rb.shape and pa == pb and bool(np.array_equal(ra, rb))


class Factored:
    """A x = b for one encoded matrix A and many b.  S are the independent rows of A,
    the pivots of rref(A^T), and P the pivot columns of A[S], which are those of A;
    the F_p blocks of A and of A[S, P]^-1 are kept.  ``solve`` takes x_P = A[S, P]^-1 b_S
    and x = 0 elsewhere, and returns x if A x = b and None otherwise.  When A x = b is
    solvable, rref([A[S] | b_S]) is the nonzero part of rref([A | b]), so this is what
    ``GF.solve`` returns."""

    def __init__(self, G: GF, A):
        self.G = G
        self.A = np.asarray(A, dtype=np.int64)
        n = self.A.shape[1]
        self.S = np.array(G.rref(self.A.T)[1], dtype=np.int64)
        # E [A[S] | 1] = [rref(A[S]) | E]: E A[S, P] = 1, as rref(A[S]) is the identity on P
        R, P = G.rref(np.concatenate([self.A[self.S], np.eye(len(self.S), dtype=np.int64)], axis=1))
        self.P = np.array(P, dtype=np.int64)
        self.blocks = G.blocks(self.A)
        self.inv = G.blocks(R[:, n:])

    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.A, self.S, self.P, self.blocks, self.inv))

    def solve(self, b):
        G = self.G
        d = G.digits(b)
        x = np.zeros((self.A.shape[1], G.m), dtype=np.int64)
        x[self.P] = (self.inv @ d[self.S].ravel() % G.p).reshape(-1, G.m)
        if ((self.blocks @ x.ravel() - d.ravel()) % G.p).any():
            return None
        return x @ G.p ** np.arange(G.m)


def gf(field: Field) -> GF:
    key = field.key
    if key not in _CACHE:
        _CACHE[key] = GF(field)
    return _CACHE[key]
