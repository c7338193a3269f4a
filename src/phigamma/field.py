"""Arithmetic in a finite field F = F_{p^m} with a distinguished subfield k = F_{p^f}.

Elements are dense coefficient vectors over F_p in the basis 1, x, ..., x^{m-1}
modulo a caller-supplied irreducible polynomial.  The embedding set S of k into
F is identified with Z/fZ via tau_i = tau_0 o (Frobenius^i).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class FieldError(ValueError):
    """Raised for invalid field specifications or illegal element operations."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _trim(poly: list) -> list:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> list:
    a = [c % p for c in a]
    _trim(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm:
        k = len(a) - 1 - dm
        c = (a[-1] * inv_lead) % p
        for i, mi in enumerate(mod):
            a[k + i] = (a[k + i] - c * mi) % p
        _trim(a)
    return a


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list:
    a, b = list(a), list(b)
    _trim(a)
    _trim(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _x_pow_q_mod(q: int, mod: Sequence[int], p: int) -> list:
    """x^q mod ``mod`` by square-and-multiply."""
    result = [1]
    base = [0, 1]
    e = q
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), mod, p)
        base = _poly_mod(_poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _width(rows: np.ndarray) -> int:
    """The highest nonzero column of ``rows`` plus 1 (0 for an all-zero array)."""
    cols = rows.any(axis=0).tolist()
    return len(cols) - cols[::-1].index(True) if True in cols else 0


def _pack(rows: np.ndarray, w: int, slot: int) -> int:
    """sum rows[i, s] 2^(8 slot (i w + s)), from little-endian bytes."""
    k, d = rows.shape
    vb = min(slot, 8)  # entries are < N and (N-1)^2 fits in a slot
    buf = np.zeros((k, w, slot), dtype=np.uint8)
    buf[:, :d, :vb] = np.ascontiguousarray(rows, dtype="<i8").view(np.uint8).reshape(k, d, 8)[..., :vb]
    return int.from_bytes(buf.tobytes(), "little")


def convolve_rows(a: np.ndarray, b: np.ndarray, N: int) -> np.ndarray:
    """The product in Z/N[pi, x] of (ka, da) and (kb, db) coefficient arrays (rows the
    powers of pi, columns those of x), of shape (ka + kb - 1, da + db - 1), by exact
    Kronecker substitution: each operand becomes one Python int with pi at one slot and x
    at a stride of n = ka + kb - 1 slots, so one int product holds every coefficient, and
    a Z/N factor (one column) packs to ka slots, a short int against a long one.  A slot is
    a whole number of bytes above min(ka, kb) min(da, db) (N-1)^2, so no carry crosses it."""
    a, b = np.asarray(a, dtype=np.int64) % N, np.asarray(b, dtype=np.int64) % N
    (ka, da), (kb, db) = a.shape, b.shape
    n, w = max(ka + kb - 1, 0), max(da + db - 1, 0)
    if not (n and da and db):
        return np.zeros((n, w), dtype=np.int64)
    slot = ((min(ka, kb) * min(da, db) * (N - 1) ** 2).bit_length() + 7) // 8
    prod = _pack(a.T, n, slot) * _pack(b.T, n, slot)
    digits = np.frombuffer(prod.to_bytes(w * n * slot, "little"), dtype=np.uint8).reshape(w, n, slot)
    weights = np.array([pow(256, j, N) for j in range(slot)], dtype=np.int64)
    return (digits.astype(np.int64) @ weights % N).T  # slot value mod N, in int64 under any promotion rules


def _reduction_table(modulus, N: int) -> np.ndarray:
    """Row k is x^k mod g over Z/N, k < 2m - 1, m = deg g: the reduction by the monic
    lead^-1 g, so the leading coefficient of g need only be a unit mod N."""
    m = len(modulus) - 1
    inv = pow(int(modulus[-1]), -1, N)
    g = [int(c) * inv % N for c in modulus[:-1]]
    red = np.zeros((2 * m - 1, m), dtype=np.int64)
    row = [1] + [0] * (m - 1)
    for k in range(2 * m - 1):
        red[k] = row
        row = [(r - row[-1] * gi) % N for r, gi in zip([0] + row[:-1], g)]  # x row, as x^m = -(g_0 + ... + g_(m-1) x^(m-1))
    return red


def _residue_dtype(N: int) -> np.dtype:
    """The smallest unsigned dtype that holds every residue in [0, N); int64 above 2^32,
    the dtype of every kernel (a uint64 operand would promote int64 arithmetic to float)."""
    for dt in (np.uint8, np.uint16, np.uint32):
        if N - 1 <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(np.int64)


class ResidueRing:
    """Z/N[x]/(g) on coefficient rows of length m = deg g: the arithmetic that
    F_{p^m} (N = p) and W(F_{p^m})/p^n (N = p^n, g lifted to Z) share.  ``dtype`` is
    the storage dtype of its series' rows; the arithmetic below is int64."""

    def __init__(self, modulus, N: int):
        self.N, self.m = N, len(modulus) - 1
        self.dtype = _residue_dtype(N)
        self._red = _reduction_table(modulus, N)

    def row(self, c) -> np.ndarray:
        """The coefficient row of a scalar: an int (a constant) or a length-m row."""
        if isinstance(c, (int, np.integer)):
            out = np.zeros(self.m, dtype=np.int64)
            out[0] = int(c) % self.N
            return out
        return np.asarray(c, dtype=np.int64) % self.N

    def mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Convolution of coefficient-row arrays (ka, m) x (kb, m) -> (ka+kb-1, m): the
        ``convolve_rows`` product of their nonzero columns (up to the highest), reduced
        by the modulus."""
        N, m = self.N, self.m
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        da, db = _width(a), _width(b)  # of unreduced rows at worst wider: convolve_rows reduces mod N
        if not (da and db):
            return np.zeros((max(len(a) + len(b) - 1, 0), m), dtype=np.int64)
        prod = convolve_rows(a[:, :da], b[:, :db], N)
        return prod @ self._red[: da + db - 1] % N  # rows k < m of _red are x^k: a Z/N factor is only padded

    def mul_matrix(self, c) -> np.ndarray:
        """The m x m matrix of x -> c x on coefficient columns:
        mul_matrix(c) @ row(x) = row(c x) mod N."""
        m = self.m
        shifted = np.zeros((m, 2 * m - 1), dtype=np.int64)
        c = self.row(c)
        for j in range(m):
            shifted[j, j : j + m] = c  # c x^j before reduction
        return (shifted @ self._red % self.N).T


@dataclass(frozen=True)
class FieldSpec:
    """Parameters of the coefficient field: p, f = [K:Q_p], m = [F:F_p], modulus."""

    p: int
    f: int
    m: int
    modulus: tuple

    def __post_init__(self):
        object.__setattr__(self, "modulus", tuple(c % self.p for c in self.modulus))


class FieldElement:
    """An element of F_{p^m}, stored as a coefficient tuple in the modulus basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "Field", coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        other = self.field.coerce(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self.field.coerce(other))

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __mul__(self, other):
        other = self.field.coerce(other)
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self.field.coerce(other).inv()

    def __rtruediv__(self, other):
        return self.field.coerce(other) * self.inv()

    def __pow__(self, e: int):
        f = self.field
        if e < 0:
            return self.inv() ** (-e)
        result, base = f.one(), self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inv(self) -> "FieldElement":
        if not self:
            raise FieldError("division by zero")
        return self ** (self.field.q - 2)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.coerce(other)
        return isinstance(other, FieldElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def index(self) -> int:
        """Encode as an integer in [0, q): sum c_i p^i."""
        p = self.field.p
        v = 0
        for c in reversed(self.coeffs):
            v = v * p + c
        return v

    def row(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.int64)

    def __repr__(self):
        return "F%d(%s)" % (self.field.q, list(self.coeffs))


class Field(ResidueRing):
    """F_{p^m} with dense mod-p coefficient vectors and exact arithmetic."""

    def __init__(self, spec: FieldSpec):
        p, f, m = spec.p, spec.f, spec.m
        if not is_prime(p):
            raise FieldError("p = %d is not prime" % p)
        if not (1 <= f <= m) or m % f != 0:
            raise FieldError("need 1 <= f <= m with f | m (got f=%d, m=%d)" % (f, m))
        modulus = list(spec.modulus)
        _trim(modulus)
        if len(modulus) - 1 != m:
            raise FieldError("modulus degree %d != m = %d" % (len(modulus) - 1, m))
        if m == 1 and tuple(modulus) != (0, 1):
            raise FieldError("degree-1 modulus must be x (coefficients (0, 1))")
        super().__init__(modulus, p)
        self.spec = spec
        self.p, self.f = p, f
        self.q = p**m
        self.modulus = tuple(modulus)
        self._check_irreducible()
        self._zero = FieldElement(self, (0,) * m)
        self._one = FieldElement(self, (1,) + (0,) * (m - 1))
        self._gen = None

    @property
    def key(self):
        return (self.p, self.f, self.m, self.modulus)

    def _check_irreducible(self):
        p, m, modulus = self.p, self.m, self.modulus
        if m == 1:
            return
        xqm = _x_pow_q_mod(p**m, modulus, p)
        diff = list(xqm) + [0, 0]
        diff[1] = (diff[1] - 1) % p
        if _trim(diff):
            raise FieldError("modulus is not irreducible (x^(p^m) != x)")
        for ell in {d for d in range(2, m + 1) if m % d == 0 and is_prime(d)}:
            d = m // ell
            xq = _x_pow_q_mod(p**d, modulus, p)
            diff = list(xq)
            while len(diff) < 2:
                diff.append(0)
            diff[1] = (diff[1] - 1) % p
            g = _poly_gcd(modulus, diff, p)
            if len(g) != 1:
                raise FieldError("modulus is not irreducible (gcd with x^(p^%d) - x)" % d)

    # -- element constructors -------------------------------------------------
    def zero(self) -> FieldElement:
        return self._zero

    def one(self) -> FieldElement:
        return self._one

    def element(self, coeffs) -> FieldElement:
        if isinstance(coeffs, FieldElement):
            return self.coerce(coeffs)
        if isinstance(coeffs, (int, np.integer)):
            return self.from_index(int(coeffs) % self.p if self.m == 1 else int(coeffs))
        c = [int(v) % self.p for v in coeffs]
        if len(c) > self.m:
            c = _poly_mod(c, list(self.modulus), self.p)
        c = c + [0] * (self.m - len(c))
        return FieldElement(self, tuple(c))

    def coerce(self, x) -> FieldElement:
        if isinstance(x, FieldElement):
            if x.field is not self and x.field.key != self.key:
                raise FieldError("element from a different field")
            return x
        if isinstance(x, (int, np.integer)):
            return FieldElement(self, (int(x) % self.p,) + (0,) * (self.m - 1))
        raise FieldError("cannot coerce %r" % (x,))

    def from_index(self, v: int) -> FieldElement:
        coeffs = []
        for _ in range(self.m):
            coeffs.append(v % self.p)
            v //= self.p
        return FieldElement(self, tuple(coeffs))

    def from_row(self, row: np.ndarray) -> FieldElement:
        return FieldElement(self, tuple(int(c) % self.p for c in row))

    def _mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        if self.m == 1:
            return FieldElement(self, ((a.coeffs[0] * b.coeffs[0]) % self.p,))
        prod = _poly_mul(a.coeffs, b.coeffs, self.p)
        prod = _poly_mod(prod, list(self.modulus), self.p)
        return FieldElement(self, tuple(prod + [0] * (self.m - len(prod))))

    mul_rows = ResidueRing.mul_rows  # an attribute of Field itself, so a profiler can wrap it alone

    def row(self, c) -> np.ndarray:
        return self.coerce(c).row() if isinstance(c, FieldElement) else super().row(c)

    def unit_inv_scalar(self, row: np.ndarray) -> np.ndarray:
        return self.from_row(row).inv().row()

    # -- structure ------------------------------------------------------------
    def generator(self) -> FieldElement:
        """Smallest element (by index encoding) of multiplicative order q - 1."""
        if self._gen is not None:
            return self._gen
        n = self.q - 1
        factors = []
        t, d = n, 2
        while d * d <= t:
            if t % d == 0:
                factors.append(d)
                while t % d == 0:
                    t //= d
            d += 1
        if t > 1:
            factors.append(t)
        for idx in range(2, self.q):
            g = self.from_index(idx)
            if all(g ** (n // ell) != self._one for ell in factors):
                self._gen = g
                return g
        if self.q == 2:
            self._gen = self._one
            return self._gen
        raise FieldError("no generator found")  # pragma: no cover

    def frobenius(self, x: FieldElement, k: int = 1) -> FieldElement:
        """x^(p^k); k may be any non-negative integer, frobenius(x, m) = x."""
        return x ** (self.p ** (k % self.m))

    def elements(self) -> Iterable[FieldElement]:
        for idx in range(self.q):
            yield self.from_index(idx)

    def random_element(self, rng, nonzero=False) -> FieldElement:
        lo = 1 if nonzero else 0
        return self.from_index(rng.randrange(lo, self.q))

    def __repr__(self):
        return "Field(p=%d, f=%d, m=%d)" % (self.p, self.f, self.m)


def make_field(spec: FieldSpec) -> Field:
    """Build the coefficient field, validating primality and irreducibility."""
    return Field(spec)


def frobenius(x: FieldElement, k: int) -> FieldElement:
    """Apply the p-power Frobenius k times."""
    return x.field.frobenius(x, k % x.field.m)


def default_modulus(p: int, m: int) -> tuple:
    """Deterministic irreducible degree-m polynomial over F_p (smallest by encoding)."""
    if m == 1:
        return (0, 1)
    for idx in range(p**m):
        coeffs = []
        v = idx
        for _ in range(m):
            coeffs.append(v % p)
            v //= p
        cand = tuple(coeffs) + (1,)
        try:
            Field(FieldSpec(p, 1, m, cand))
            return cand
        except FieldError:
            continue
    raise FieldError("no irreducible polynomial found")  # pragma: no cover
