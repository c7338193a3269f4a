"""Integral p-adic Wach modules at finite (p^N, pi^M) precision.

Coefficients live in W(F_{p^m})/p^N, represented as polynomials over Z/p^N
modulo a fixed lift of the field modulus.  On this side phi(pi) = (1+pi)^p - 1
for real (no freshman's dream); q = phi(pi)/pi reduces to pi^(p-1) mod p, and
the Gamma-unit Lambda_gamma is the convergent product prod_j phi^(jf)(w/phi(w))
with w = gamma(pi)/pi, cut when a factor reaches 1 at working precision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import Field
from .series import INF, LaurentSeries, PrecisionError
from .tate import Context, GammaElement
from .rankone import RankOneModule, sigma_twisted


class PadicRing:
    """W(F_{p^m})/p^N with polynomial representatives modulo a lifted modulus."""

    def __init__(self, field: Field, depth: int):
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

    def mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
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

    def mul_scalar(self, a_row, b_row) -> np.ndarray:
        return self.mul_rows(np.asarray(a_row).reshape(1, -1), np.asarray(b_row).reshape(1, -1))[0]

    def pow_scalar(self, row, e: int) -> np.ndarray:
        out = np.zeros(self.m, dtype=np.int64)
        out[0] = 1
        base = np.array(row, dtype=np.int64) % self.pN
        while e:
            if e & 1:
                out = self.mul_scalar(out, base)
            base = self.mul_scalar(base, base)
            e >>= 1
        return out

    def unit_inv_scalar(self, row: np.ndarray) -> np.ndarray:
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

    def teichmuller(self, c) -> np.ndarray:
        """The Teichmuller lift of a field element: the limit of x^(q^k)."""
        cur = c.row() % self.pN
        for _ in range(self.depth + 2):
            cur = self.pow_scalar(cur, self.field.q)
        return cur


class PadicSeries:
    """Truncated series over W/p^N on exponents [floor, order)."""

    __slots__ = ("ring", "floor", "order", "rows")

    def __init__(self, ring: PadicRing, floor: int, order, rows, _normalized=False):
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

    @classmethod
    def const_int(cls, ring, v, order=INF):
        row = np.zeros(ring.m, dtype=np.int64)
        row[0] = v % ring.pN
        return cls.monomial(ring, 0, row, order)

    @property
    def low(self):
        return self.floor if len(self.rows) else self.order

    def val(self):
        return self.floor if len(self.rows) else None

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

    def coeff(self, n):
        return self.coeff_rows(n, n + 1)[0]

    def __add__(self, other):
        order = min(self.order, other.order)
        sups = [s.floor + len(s.rows) for s in (self, other) if len(s.rows)]
        if not sups:
            return PadicSeries.zero(self.ring, order)
        lo = int(min(s.low for s in (self, other) if len(s.rows)))
        hi = int(max(min(order, max(sups)), lo))
        return PadicSeries(self.ring, lo, order, self.coeff_rows(lo, hi) + other.coeff_rows(lo, hi))

    def __neg__(self):
        return PadicSeries(self.ring, self.floor, self.order, (-self.rows) % self.ring.pN, True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        order = min(self.order + other.low, other.order + self.low)
        if self.is_zero() or other.is_zero():
            return PadicSeries.zero(self.ring, order)
        rows = self.ring.mul_rows(self.rows, other.rows)
        return PadicSeries(self.ring, self.floor + other.floor, order, rows)

    def shift(self, k):
        return PadicSeries(self.ring, self.floor + k, self.order if self.order == INF else self.order + k, self.rows, True)

    def truncate(self, order):
        if order >= self.order:
            return self
        return PadicSeries(self.ring, self.floor, order, self.rows)

    def substitute_power(self, k):
        order = self.order if self.order == INF else k * self.order
        if self.is_zero():
            return PadicSeries.zero(self.ring, order)
        rows = np.zeros((k * (len(self.rows) - 1) + 1, self.ring.m), dtype=np.int64)
        rows[::k] = self.rows
        return PadicSeries(self.ring, k * self.floor, order, rows)

    def scale_row(self, row):
        if self.is_zero():
            return self
        rows = self.ring.mul_rows(self.rows, np.asarray(row, dtype=np.int64).reshape(1, -1))
        return PadicSeries(self.ring, self.floor, self.order, rows)

    def inv_unit(self, order=None):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero padic series")
        v = self.floor
        if order is None:
            if self.order == INF and len(self.rows) == 1:
                return PadicSeries.monomial(self.ring, -v, self.ring.unit_inv_scalar(self.rows[0]))
            if self.order == INF:
                raise PrecisionError("need explicit order")
            rel = self.order - v
        else:
            rel = int(order) + v
            if self.order != INF:
                rel = min(rel, self.order - v)
        u = PadicSeries(self.ring, 0, rel, self.rows, True)
        x = PadicSeries.monomial(self.ring, 0, self.ring.unit_inv_scalar(self.rows[0]), 1)
        prec = 1
        while prec < rel:
            prec = min(2 * prec, rel)
            xe = PadicSeries(self.ring, x.floor, prec, x.rows, True)
            e = PadicSeries.one(self.ring, prec) - u.truncate(prec) * xe
            x = (xe + xe * e).truncate(prec)
        return x.shift(-v)

    def pow(self, e, order=None):
        result = PadicSeries.one(self.ring, INF if order is None else order)
        base = self
        if e < 0:
            base = base.inv_unit(order)
            e = -e
        if order is not None:
            base = base.truncate(order + max(0, -e * min(0, self.low)))
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result if order is None else result.truncate(order)

    def reduce_mod_p(self, field: Field) -> LaurentSeries:
        if self.is_zero():
            return LaurentSeries.zero(field, self.order)
        return LaurentSeries(field, self.floor, self.order, self.rows % self.ring.p)

    def agrees_with(self, other, lo=None, hi=None):
        lo = min(self.low, other.low) if lo is None else lo
        hi = min(self.order, other.order) if hi is None else hi
        if hi == INF:
            hi = max(self.floor + len(self.rows), other.floor + len(other.rows), lo)
        if lo >= hi:
            return True
        return bool(np.array_equal(self.coeff_rows(lo, hi), other.coeff_rows(lo, hi)))

    def __repr__(self):
        o = "inf" if self.order == INF else str(self.order)
        return "<padic floor=%s order=%s terms=%d>" % (self.floor, o, len(self.rows))


_SUBST_CACHE = {}


class PadicContext:
    """Substitution caches for the integral side over one (field, depth, window)."""

    def __init__(self, ctx: Context, depth=None, pi_order=None):
        self.ctx = ctx
        self.ring = PadicRing(ctx.field, depth or ctx.padic_depth)
        self.M = int(pi_order or ctx.M)
        self.p, self.f, self.m = ctx.p, ctx.f, ctx.m

    def pi(self, n=1, order=INF):
        return PadicSeries.monomial(self.ring, n, [1] + [0] * (self.m - 1), order)

    def one_plus_pi_pow_int(self, a: int, order: int) -> PadicSeries:
        """(1+pi)^a mod (p^N, pi^order) from exact integer binomials."""
        pN = self.ring.pN
        coeffs = np.zeros((order, self.m), dtype=np.int64)
        c = 1
        for j in range(order):
            coeffs[j, 0] = c % pN
            c = c * (a - j) // (j + 1)
        return PadicSeries(self.ring, 0, order, coeffs)

    def _subst_matrix(self, a: int) -> np.ndarray:
        """mat[n, e] = coefficient of pi^e in ((1+pi)^a - 1)^n, n, e in [0, M)."""
        key = (self.ctx.field.key, self.ring.depth, self.M, a)
        if key not in _SUBST_CACHE:
            S = self.M
            pN = self.ring.pN
            wrow = self.one_plus_pi_pow_int(a, S).coeff_rows(0, S)[:, 0]
            wrow[0] = (wrow[0] - 1) % pN
            mat = np.zeros((S, S), dtype=np.int64)
            mat[0, 0] = 1
            cur = np.zeros(S, dtype=np.int64)
            cur[0] = 1
            for n in range(1, S):
                cur = np.convolve(cur, wrow)[:S] % pN
                mat[n] = cur
            _SUBST_CACHE[key] = mat
        return _SUBST_CACHE[key]

    def substitute(self, s: PadicSeries, a: int) -> PadicSeries:
        """s(pi) -> s((1+pi)^a - 1); requires floor >= 0."""
        if s.is_zero():
            return PadicSeries.zero(self.ring, min(s.order, self.M))
        if s.low < 0:
            raise ValueError("integral substitution needs floor >= 0")
        order = int(min(s.order, self.M))
        mat = self._subst_matrix(a)
        head = s.coeff_rows(0, min(order, s.floor + len(s.rows)))
        out = mat[: head.shape[0], :order].T @ head % self.ring.pN
        return PadicSeries(self.ring, 0, order, out)

    def phi(self, s: PadicSeries, k: int = 1) -> PadicSeries:
        """phi^k: substitution by (1+pi)^(p^k) - 1."""
        return self.substitute(s, self.p**k)

    def gamma(self, s: PadicSeries, gamma: GammaElement) -> PadicSeries:
        return self.substitute(s, gamma.chi_int)

    def q_series(self, order=None) -> PadicSeries:
        order = int(order or self.M)
        num = self.one_plus_pi_pow_int(self.p, order + 1) - PadicSeries.one(self.ring, order + 1)
        return num.shift(-1)


def big_lambda_gamma(pctx: PadicContext, gamma: GammaElement, order=None):
    """Lambda_gamma as the truncated product prod_j phi^(jf)(w/phi(w)); returns
    (series, cut_index)."""
    order = int(order or pctx.M)
    if gamma.chi_int == 1:
        return PadicSeries.one(pctx.ring, order), 0
    w = (pctx.one_plus_pi_pow_int(gamma.chi_int, order + 1) - PadicSeries.one(pctx.ring, order + 1)).shift(-1)
    w = w.truncate(order)
    ratio = (w * pctx.phi(w).inv_unit(order)).truncate(order)
    one = PadicSeries.one(pctx.ring, order)
    acc = one
    factor = ratio
    cut = 0
    while not (factor - one).is_zero():
        acc = (acc * factor).truncate(order)
        factor = pctx.phi(factor, pctx.f)
        cut += 1
        if cut > 64:
            raise PrecisionError("Lambda_gamma product failed to converge")
    if acc.val() != 0:
        raise PrecisionError("Lambda_gamma is not a unit at this precision")
    return acc, cut


@dataclass
class WachRankOne:
    """N_{Ctilde, c}: phi(e) = (Ctilde q^{c_0}, q^{c_1}, ...) e, gamma(e) = (g_i) e."""

    pctx: PadicContext
    Ctilde: np.ndarray  # row in W/p^N
    c: tuple
    g_table: dict  # generator name -> list of f PadicSeries
    cut_index: int

    @property
    def f(self):
        return len(self.c)


def build_wach_rank1(pctx: PadicContext, Ctilde, c) -> WachRankOne:
    """Rank-one Wach module with the product formula for g_0 and the phi-chain
    for the remaining g_i; the commutation identities are verified to precision."""
    ctx = pctx.ctx
    f, p = pctx.f, pctx.p
    c = tuple(int(x) for x in c)
    if isinstance(Ctilde, (int, np.integer)):
        row = np.zeros(pctx.m, dtype=np.int64)
        row[0] = int(Ctilde) % pctx.ring.pN
        Ctilde = row
    else:
        Ctilde = np.asarray(Ctilde, dtype=np.int64) % pctx.ring.pN
    if not pctx.ctx.field.from_row(Ctilde % p):
        raise ValueError("Ctilde must be a unit")
    g_table = {}
    cut_max = 0
    order = pctx.M
    q = pctx.q_series(order)
    for name, gamma in ctx.generators():
        lam, cut = big_lambda_gamma(pctx, gamma, order)
        cut_max = max(cut_max, cut)
        g0 = PadicSeries.one(pctx.ring, order)
        lam_phi = lam
        for k in range(f):
            if c[k]:
                g0 = (g0 * lam_phi.pow(c[k], order)).truncate(order)
            if k + 1 < f:
                lam_phi = pctx.phi(lam_phi)
        # chain: g_k = (q/gamma(q))^{c_k} phi(g_{k+1}), walking k = f-1 ... 1
        w = (pctx.one_plus_pi_pow_int(gamma.chi_int, order + 1) - PadicSeries.one(pctx.ring, order + 1)).shift(-1)
        ratio = (w * pctx.phi(w.truncate(order)).inv_unit(order)).truncate(order)  # = q / gamma(q)
        gs = [None] * f
        gs[0] = g0
        prev = g0
        for k in range(f - 1, 0, -1):
            gs[k] = (ratio.pow(c[k], order) * pctx.phi(prev)).truncate(order)
            prev = gs[k]
        g_table[name] = gs
        # commutation check: gamma(q)^{c_k} g_k = q^{c_k} phi(g_{k+1})
        gq = pctx.gamma(q, gamma)
        for k in range(f):
            lhs = (gq.pow(c[k], order) * gs[k]).truncate(order - p)
            rhs = (q.pow(c[k], order) * pctx.phi(gs[(k + 1) % f])).truncate(order - p)
            if not lhs.agrees_with(rhs):
                raise ArithmeticError("Wach commutation failed at component %d for %s" % (k, name))
        if not (gs[0] - PadicSeries.one(pctx.ring, order)).is_zero():
            if (gs[0] - PadicSeries.one(pctx.ring, order)).val() < 1:
                raise ArithmeticError("g_0 is not 1 mod pi")
    return WachRankOne(pctx, Ctilde, c, g_table, cut_max)


@dataclass
class ReductionReport:
    match: bool
    module: RankOneModule
    details: list


def reduce_mod_p(N: WachRankOne) -> ReductionReport:
    """Reduce mod p and compare against (kappa_phi, kappa_gamma) of M_{C,c}.

    Since both Gamma-matrices reduce to units = 1 mod pi and the phi-matrices
    agree on the nose (q = pi^(p-1) mod p), the unit witness is 1 and the
    comparison is exact equality on the window."""
    pctx = N.pctx
    ctx = pctx.ctx
    field = ctx.field
    p, f = pctx.p, pctx.f
    Cbar = field.from_row(N.Ctilde % p)
    module = RankOneModule(ctx, Cbar, N.c)
    details = []
    ok = True
    # q mod p = pi^(p-1)
    qbar = pctx.q_series(pctx.M).reduce_mod_p(field)
    qok = qbar.agrees_with(LaurentSeries.monomial(field, p - 1), p - 1, pctx.M - 1)
    details.append(("q = pi^(p-1) mod p", qok))
    ok = ok and qok
    for name, gamma in ctx.generators():
        for i in range(f):
            gbar = N.g_table[name][i].reduce_mod_p(field)
            lam = ctx.lambda_pow(gamma, module.sigma(i))
            hi = min(gbar.order, lam.order, pctx.M - p)
            good = gbar.agrees_with(lam, 0, hi)
            details.append(("g_%d mod p = lambda^Sigma_%d at %s" % (i, i, name), good))
            ok = ok and good
    return ReductionReport(ok, module, details)


# ---------------------------------------------------------------------------
# Rank two: saturation / exactness diagnostics
# ---------------------------------------------------------------------------


@dataclass
class WachRankTwo:
    """A rank-two lattice with per-embedding series entries (2x2 matrices)."""

    pctx: PadicContext
    P: list  # P[r][c] = list of f PadicSeries
    G: dict  # name -> same shape
    a: tuple  # weights of the quotient line (a_i)
    b: tuple  # weights of the sub line (b_i)
    labels: tuple = ("e1", "e2")


@dataclass
class SaturationReport:
    exact: bool
    t_raw: tuple
    t: tuple
    a_prime: tuple
    b_prime: tuple
    identities: list

    def ok(self) -> bool:
        return all(v for _, v in self.identities)


def _mat_reduce(pctx: PadicContext, mat):
    field = pctx.ctx.field
    return [[[s.reduce_mod_p(field) for s in entry] for entry in row] for row in mat]


def saturation_check(N: WachRankTwo, subline) -> SaturationReport:
    """Saturation of the sub-line inside the mod-p reduction of N.

    subline: pair (v1, v2) of per-embedding LaurentSeries lists (coordinates in
    the given basis).  Computes the gap exponents t, the induced weights
    (a', b'), and checks the exactness identities."""
    pctx = N.pctx
    ctx = pctx.ctx
    field = ctx.field
    p, f = pctx.p, pctx.f
    Pbar = _mat_reduce(pctx, N.P)
    v = [list(comp) for comp in subline]  # v[j][i]: coordinate j, embedding i
    # per-embedding valuation of the line generator
    t_raw = []
    for i in range(f):
        vals = [v[j][i].val() for j in range(2) if not v[j][i].is_zero()]
        if not vals:
            raise ValueError("sub-line generator vanishes at embedding %d" % i)
        t_raw.append(min(vals))
    # saturated generator w = pi^(-t) v  (componentwise per embedding)
    w = [[v[j][i].shift(-t_raw[i]) for i in range(f)] for j in range(2)]
    # phi action on coordinates: phi(sum x_j b_j) = sum phi(x_j) P[.][j]
    # with phi on E_{K,F}: component i of phi(x) is x_{i+1}(pi^p)
    def phi_vec(x):
        out = []
        for r in range(2):
            comps = []
            for i in range(f):
                acc = LaurentSeries.zero(field, ctx.M)
                for j in range(2):
                    xf = x[j][(i + 1) % f].substitute_power(p)
                    acc = acc + Pbar[r][j][i] * xf
                comps.append(acc)
            out.append(comps)
        return out

    fw = phi_vec(w)
    # fw must be parallel to w: ratio d_i per embedding
    d = []
    for i in range(f):
        j0 = 0 if not w[0][i].is_zero() else 1
        num, den = fw[j0][i], w[j0][i]
        ratio_val = (num.val() if not num.is_zero() else None)
        if ratio_val is None:
            raise ArithmeticError("phi(w) vanished; input not finite height")
        d_i = num.val() - den.val()
        # parallelism check on the other coordinate
        j1 = 1 - j0
        lhs = fw[j1][i] * den
        rhs = fw[j0][i] * w[j1][i]
        hi = min(lhs.order, rhs.order, ctx.M // 2)
        if not lhs.agrees_with(rhs, None, hi):
            raise ArithmeticError("phi does not preserve the saturated line")
        d.append(d_i)
    if any(di % (p - 1) for di in d) and p > 2:
        raise ArithmeticError("phi-exponents of the saturated line are not multiples of p-1")
    b_prime = tuple(di // (p - 1) for di in d)
    if any(ti % (p - 1) for ti in t_raw) and p > 2:
        raise ArithmeticError("gap exponents are not multiples of p-1")
    t_norm = tuple(ti // (p - 1) for ti in t_raw)
    a_prime = tuple(N.a[i] + N.b[i] - b_prime[i] for i in range(f))
    identities = []
    for i in range(f):
        lo, hi = min(N.a[i], N.b[i]), max(N.a[i], N.b[i])
        identities.append(("a'_%d + b'_%d = a_%d + b_%d" % (i, i, i, i), a_prime[i] + b_prime[i] == N.a[i] + N.b[i]))
        identities.append(("min <= a'_%d <= max" % i, lo <= a_prime[i] <= hi))
        identities.append(("min <= b'_%d <= max" % i, lo <= b_prime[i] <= hi))
        identities.append(
            ("b_%d + t_%d = b'_%d + p t_%d" % (i, i, i, (i + 1) % f), N.b[i] + t_norm[i] == b_prime[i] + p * t_norm[(i + 1) % f])
        )
    q1 = p**f - 1
    for j in range(f):
        sb = sigma_twisted(N.b, j, p)
        sbp = sigma_twisted(b_prime, j, p)
        identities.append(("Sigma_%d(b) = t_%d (p^f - 1) + Sigma_%d(b')" % (j, j, j), sb == t_norm[j] * q1 + sbp))
        identities.append(("Sigma_%d(b') <= Sigma_%d(b)" % (j, j), sbp <= sb))
        identities.append(("Sigma congruence at %d" % j, (sbp - sb) % q1 == 0))
    exact = all(ti == 0 for ti in t_raw)
    return SaturationReport(exact, tuple(t_raw), t_norm, a_prime, b_prime, identities)


def example71(pctx: PadicContext) -> tuple:
    """The non-exact lattice N = A+ f1 + A+ e2, f1 = p^{-1}(e1 - pi^(p-1) e2),
    inside N(Q_p(1-p) + Q_p); returns (WachRankTwo, subline for N(T_1))."""
    if pctx.f != 1:
        raise ValueError("the example lattice lives over f = 1")
    p = pctx.p
    ring = pctx.ring
    order = pctx.M
    q = pctx.q_series(order)
    zero = PadicSeries.zero(ring, order)
    one = PadicSeries.one(ring, order)
    P = [[[q.pow(p - 1, order)], [zero]], [[zero], [one]]]
    G = {}
    ctx = pctx.ctx
    for name, gamma in ctx.generators():
        w = (pctx.one_plus_pi_pow_int(gamma.chi_int, order + 1) - PadicSeries.one(ring, order + 1)).shift(-1)
        u = (w.truncate(order).scale_row(ring.unit_inv_scalar(np.array([gamma.chi_int % ring.pN] + [0] * (ring.m - 1))))).pow(
            p - 1, order
        )
        low = PadicSeries.const_int(ring, (1 - gamma.chi_int ** (p - 1)) // p, order)
        entry = (u * low).shift(p - 1).truncate(order)
        G[name] = [[[u], [zero]], [[entry], [one]]]
    N = WachRankTwo(pctx, P, G, a=(0,), b=(p - 1,))
    field = pctx.ctx.field
    subline = (
        [LaurentSeries.zero(field, pctx.M)],
        [LaurentSeries.monomial(field, p - 1, 1, pctx.M)],
    )
    return N, subline


def split_lattice(pctx: PadicContext, b_weights, a_weights) -> tuple:
    """The split lattice N(T_1) + N(T_2) with q-power phi entries; exact."""
    ring = pctx.ring
    order = pctx.M
    q = pctx.q_series(order)
    f = pctx.f
    zero = PadicSeries.zero(ring, order)
    P = [
        [[q.pow(int(b_weights[i]), order) for i in range(f)], [zero] * f],
        [[zero] * f, [q.pow(int(a_weights[i]), order) for i in range(f)]],
    ]
    # Gamma entries: diagonal with the rank-one g's
    N1 = build_wach_rank1(pctx, 1, b_weights)
    N2 = build_wach_rank1(pctx, 1, a_weights)
    G = {}
    for name in N1.g_table:
        G[name] = [[list(N1.g_table[name]), [zero] * f], [[zero] * f, list(N2.g_table[name])]]
    N = WachRankTwo(pctx, P, G, a=tuple(int(x) for x in a_weights), b=tuple(int(x) for x in b_weights))
    field = pctx.ctx.field
    subline = (
        [LaurentSeries.one(field, pctx.M) for _ in range(f)],
        [LaurentSeries.zero(field, pctx.M) for _ in range(f)],
    )
    return N, subline


def twist_rank_two(N: WachRankTwo, R: WachRankOne) -> WachRankTwo:
    """Tensor a rank-two lattice by a rank-one Wach module (shifts all weights)."""
    pctx = N.pctx
    f = pctx.f
    order = pctx.M
    q = pctx.q_series(order)
    qc = [q.pow(int(R.c[i]), order) for i in range(f)]
    qc[0] = qc[0].scale_row(R.Ctilde)
    P = [[[(N.P[r][cc][i] * qc[i]).truncate(order) for i in range(f)] for cc in range(2)] for r in range(2)]
    G = {}
    for name in N.G:
        gtab = R.g_table[name]
        G[name] = [[[(N.G[name][r][cc][i] * gtab[i]).truncate(order) for i in range(f)] for cc in range(2)] for r in range(2)]
    return WachRankTwo(pctx, P, G, a=tuple(N.a[i] + R.c[i] for i in range(f)), b=tuple(N.b[i] + R.c[i] for i in range(f)))
