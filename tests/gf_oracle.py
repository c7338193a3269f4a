"""Table-backed linear algebra over F_{p^m}: the oracle of ``phigamma.gflinalg``.

An element sum c_i x^i is encoded as the integer sum c_i p^i in [0, q).  Addition is
a lookup in a q x q table; multiplication goes through discrete log/exp tables
relative to the field generator, so the tables need q <= TABLE_LIMIT.  ``encode``
takes the digit planes (..., m) that ``phigamma.gflinalg`` works on to this encoding.
"""
from __future__ import annotations

import numpy as np

TABLE_LIMIT = 4096
_CACHE = {}


def encode(A, p: int) -> np.ndarray:
    """Digit planes (..., m) -> encoded indices (...)."""
    A = np.asarray(A, dtype=np.int64) % p
    return A @ p ** np.arange(A.shape[-1], dtype=np.int64)


def oracle_gf(field) -> "TableGF":
    if field.key not in _CACHE:
        _CACHE[field.key] = TableGF(field)
    return _CACHE[field.key]


class TableGF:
    """Table-backed arithmetic for vectorized row operations over F_q."""

    def __init__(self, field):
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
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if A.shape[1] != B.shape[1]:
            return False
        ra, pa = self.rref(A)
        rb, pb = self.rref(B)
        return ra.shape == rb.shape and pa == pb and bool(np.array_equal(ra, rb))
