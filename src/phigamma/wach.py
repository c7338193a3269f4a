"""Integral p-adic Wach modules at finite (p^N, pi^M) precision.

Coefficients live in W(F_{p^m})/p^N, represented as polynomials over Z/p^N
modulo a fixed lift of the field modulus.  On this side phi(pi) = (1+pi)^p - 1
for real (no freshman's dream), substituted by a p-adic Taylor expansion around
the mod-p Frobenius pi -> pi^p; q = phi(pi)/pi reduces to pi^(p-1) mod p, and
the Gamma-unit Lambda_gamma is the convergent product prod_j phi^(jf)(w/phi(w))
with w = gamma(pi)/pi, cut when a factor reaches 1 at working precision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import Field, ResidueRing
from .series import INF, LaurentSeries, PrecisionError
from .tate import Context, GammaElement
from .rankone import RankOneModule, sigma_twisted


class PadicRing(ResidueRing):
    """W(F_{p^m})/p^depth as Z/p^depth[x] modulo the integer lift of the field modulus."""

    def __init__(self, field: Field, depth: int):
        super().__init__(field.modulus, field.p**depth)
        self.field, self.p, self.depth = field, field.p, depth

    @property
    def key(self):
        return (self.field.key, self.depth)

    def mul_scalar(self, a_row, b_row) -> np.ndarray:
        return self.mul_matrix(a_row) @ self.row(b_row) % self.N

    def pow_scalar(self, row, e: int) -> np.ndarray:
        out = self.row(1)
        base = self.row(row)
        while e:
            if e & 1:
                out = self.mul_scalar(out, base)
            base = self.mul_scalar(base, base)
            e >>= 1
        return out

    def unit_inv_scalar(self, row: np.ndarray) -> np.ndarray:
        x = self.field.from_row(row)
        if not x:
            raise ZeroDivisionError("not a unit in W/p^N")
        cur = x.inv().row()
        r = self.row(row)
        for _ in range(self.depth.bit_length() + 2):
            corr = (-self.mul_scalar(r, cur)) % self.N
            corr[0] = (corr[0] + 2) % self.N
            cur = self.mul_scalar(cur, corr)
        return cur

    def teichmuller(self, c) -> np.ndarray:
        """The Teichmuller lift of a field element: the limit of x^(q^k)."""
        cur = c.row()
        for _ in range(self.depth + 2):
            cur = self.pow_scalar(cur, self.field.q)
        return cur


class PadicContext:
    """The integral side over one (field, depth, window), with the cache its Wach
    modules share: per generator, the Gamma-units of every g-table."""

    def __init__(self, ctx: Context, depth=None, pi_order=None):
        self.ctx = ctx
        self.M = int(ctx.M if pi_order is None else pi_order)
        self.p, self.f, self.m = ctx.p, ctx.f, ctx.m
        depth = ctx.padic_depth if depth is None else depth
        # the int64 kernels sum at most 2m - 1 products of two residues < p^N: the
        # reduction of ``mul_rows`` and ``mul_matrix`` over the rows of the reduction table.
        # At p = 2 a sum that wraps is exact mod 2^64, so mod 2^depth: a residue need only fit.
        terms = 2 * self.m - 1
        if self.p == 2 and 2**depth > np.iinfo(np.int64).max:
            raise ValueError("p-adic depth %d overflows int64 at p = 2: need 2^depth < 2^63" % depth)
        if self.p > 2 and terms * (self.p**depth - 1) ** 2 > np.iinfo(np.int64).max:
            raise ValueError(
                "p-adic depth %d overflows int64 at p = %d, m = %d: need %d (p^depth - 1)^2 < 2^63" % (depth, self.p, self.m, terms)
            )
        self.ring = PadicRing(ctx.field, depth)
        self._units = {}  # chi(gamma) -> GammaUnits

    def pi(self, n=1, order=INF):
        return LaurentSeries.monomial(self.ring, n, 1, order)

    def one_plus_pi_pow_int(self, a: int, order: int) -> LaurentSeries:
        """(1+pi)^a mod (p^N, pi^order) from exact integer binomials."""
        coeffs = np.zeros((order, self.m), dtype=np.int64)
        c = 1
        for j in range(order):
            coeffs[j, 0] = c % self.ring.N
            c = c * (a - j) // (j + 1)
        return LaurentSeries(self.ring, 0, order, coeffs)

    def substitute(self, s: LaurentSeries, a: int) -> LaurentSeries:
        """s(pi) -> s((1+pi)^a - 1) for a = p^k, k >= 1; requires floor >= 0.

        With (1+pi)^a - 1 = pi^a + h, p | h, this is sum_j (D^j s)(pi^a) h^j over j < N,
        D^j s = sum_n C(n, j) s_n pi^(n-j) the Hasse derivative, summed by Horner.  h^j
        has valuation >= j, so the terms j >= order vanish below the window (and D^j s
        is not known there)."""
        order = int(min(s.order, self.M))
        if s.low >= order:
            return LaurentSeries.zero(self.ring, order)
        if s.low < 0:
            raise ValueError("integral substitution needs floor >= 0")
        pN, terms = self.ring.N, min(self.ring.depth, order)
        top = min(order, -(-order // a) + terms)  # row n - j of D^j s lands at a(n - j) < order
        head = s.coeff_rows(0, top)
        n = min(a, order)
        h = LaurentSeries(self.ring, 1, order, self.one_plus_pi_pow_int(a, n).coeff_rows(1, n))
        binom = np.ones(top, dtype=np.int64)  # C(n, j) = sum_{k < n} C(k, j - 1) mod p^N
        hasse = []
        for j in range(terms):
            if j:
                binom[1:] = np.cumsum(binom[:-1]) % pN
                binom[0] = 0
            hasse.append(LaurentSeries(self.ring, 0, top - j, head[j:] * binom[j:, None]).substitute_power(a, order))
        out = hasse.pop()
        while hasse:
            out = out * h + hasse.pop()
        return out.truncate(order)

    def phi(self, s: LaurentSeries, k: int = 1) -> LaurentSeries:
        """phi^k: substitution by (1+pi)^(p^k) - 1."""
        return self.substitute(s, self.p**k)

    def q_series(self, order=None) -> LaurentSeries:
        order = self.M if order is None else int(order)
        return self.shifted_pow(self.p, order)

    def shifted_pow(self, a: int, order: int) -> LaurentSeries:
        """((1+pi)^a - 1)/pi mod pi^order."""
        return (self.one_plus_pi_pow_int(a, order + 1) - LaurentSeries.one(self.ring, order + 1)).shift(-1)

    def q_over_gamma_q(self, gamma: GammaElement, order: int) -> LaurentSeries:
        """q/gamma(q) = w/phi(w) with w = gamma(pi)/pi."""
        w = self.shifted_pow(gamma.chi_int, order)
        return (w * self.phi(w).inv_unit(order)).truncate(order)

    def gamma_q(self, gamma: GammaElement, order: int) -> LaurentSeries:
        """gamma(q) = ((1+pi)^(p chi) - 1)/((1+pi)^chi - 1), a quotient by a unit once both
        are divided by pi."""
        num = self.shifted_pow(self.p * gamma.chi_int, order)
        return (num * self.shifted_pow(gamma.chi_int, order).inv_unit(order)).truncate(order)

    def units(self, gamma: GammaElement) -> "GammaUnits":
        if gamma.chi_int not in self._units:
            self._units[gamma.chi_int] = GammaUnits(self, gamma)
        return self._units[gamma.chi_int]


def big_lambda_gamma(pctx: PadicContext, gamma: GammaElement, order=None):
    """Lambda_gamma as the truncated product prod_j phi^(jf)(w/phi(w)); returns
    (series, cut_index).  A factor is 1 mod p^depth after about depth / f steps (depth + 3
    at (2, 1)), so more than 64 + depth of them means the product does not converge."""
    order = pctx.M if order is None else int(order)
    if gamma.chi_int == 1:
        return LaurentSeries.one(pctx.ring, order), 0
    ratio = pctx.q_over_gamma_q(gamma, order)
    one = LaurentSeries.one(pctx.ring, order)
    acc = one
    factor = ratio
    cut = 0
    while not (factor - one).is_zero():
        acc = (acc * factor).truncate(order)
        factor = pctx.phi(factor, pctx.f)
        cut += 1
        if cut > 64 + pctx.ring.depth:
            raise PrecisionError("Lambda_gamma product failed to converge")
    if acc.val() != 0:
        raise PrecisionError("Lambda_gamma is not a unit at this precision")
    return acc, cut


class GammaUnits:
    """The series that every g-table of one generator raises to digit powers, mod
    pi^M: phi^k(Lambda_gamma) under key k < f, q, "gq" = gamma(q) and "ratio" =
    q/gamma(q).  They depend on neither c nor Ctilde; powers are kept by exponent.
    ``q_reduces`` is the check q = pi^(p-1) mod p that every reduction report carries."""

    def __init__(self, pctx: PadicContext, gamma: GammaElement):
        self.order = pctx.M
        lam, self.cut = big_lambda_gamma(pctx, gamma, self.order)
        q = pctx.q_series(self.order)
        pi_p1 = LaurentSeries.monomial(pctx.ctx.field, pctx.p - 1)
        self.q_reduces = q.reduce_mod_p(pctx.ctx.field).agrees_with(pi_p1, pctx.p - 1, self.order - 1)
        self.bases = {0: lam, "q": q, "gq": pctx.gamma_q(gamma, self.order), "ratio": pctx.q_over_gamma_q(gamma, self.order)}
        for k in range(1, pctx.f):
            self.bases[k] = pctx.phi(self.bases[k - 1])
        self.powers = {}

    def pow(self, base, e: int) -> LaurentSeries:
        if (base, e) not in self.powers:
            self.powers[base, e] = self.bases[base].pow(e, self.order)
        return self.powers[base, e]


@dataclass
class WachRankOne:
    """N_{Ctilde, c}: phi(e) = (Ctilde q^{c_0}, q^{c_1}, ...) e, gamma(e) = (g_i) e."""

    pctx: PadicContext
    Ctilde: np.ndarray  # row in W/p^N
    c: tuple
    g_table: dict  # generator name -> list of f series over pctx.ring
    cut_index: int
    g_bar: dict  # the g_table mod p, shared like it by every Ctilde of c

    @property
    def f(self):
        return len(self.c)


def wach_gamma_table(pctx: PadicContext, c) -> tuple:
    """(g_table, cut_index, g_bar) of N_{Ctilde,c}, which do not depend on Ctilde:
    per generator, g_0 from the product formula and the other g_i from the
    phi-chain, and their reductions mod p; the commutation identities are
    verified to precision."""
    f, p, order = pctx.f, pctx.p, pctx.M
    c = tuple(int(x) for x in c)
    one = LaurentSeries.one(pctx.ring, order)
    g_table, g_bar = {}, {}
    cut_max = 0
    for name, gamma in pctx.ctx.generators():
        units = pctx.units(gamma)
        cut_max = max(cut_max, units.cut)
        gs = [one] * f
        for k in range(f):
            if c[k]:
                gs[0] = (gs[0] * units.pow(k, c[k])).truncate(order)
        # chain: g_k = (q/gamma(q))^{c_k} phi(g_{k+1}), walking k = f-1 ... 1;
        # phis[k] = phi(g_{k+1}) with indices mod f, so the check adds phi(g_1) alone
        phis = [None] * f
        for k in range(f - 1, 0, -1):
            phis[k] = pctx.phi(gs[(k + 1) % f])
            gs[k] = (units.pow("ratio", c[k]) * phis[k]).truncate(order)
        phis[0] = pctx.phi(gs[1 % f])
        # commutation check: gamma(q)^{c_k} g_k = q^{c_k} phi(g_{k+1})
        for k in range(f):
            lhs = (units.pow("gq", c[k]) * gs[k]).truncate(order - p)
            rhs = (units.pow("q", c[k]) * phis[k]).truncate(order - p)
            if not lhs.agrees_with(rhs):
                raise ArithmeticError("Wach commutation failed at component %d for %s" % (k, name))
        if not (gs[0] - one).is_zero() and (gs[0] - one).val() < 1:
            raise ArithmeticError("g_0 is not 1 mod pi")
        g_table[name] = gs
        g_bar[name] = [g.reduce_mod_p(pctx.ctx.field) for g in gs]
    return g_table, cut_max, g_bar


def build_wach_rank1(pctx: PadicContext, Ctilde, c, table=None) -> WachRankOne:
    """Rank-one Wach module N_{Ctilde,c}: the g-table of c (built here unless
    passed in as the result of wach_gamma_table(pctx, c)) with the unit Ctilde."""
    c = tuple(int(x) for x in c)
    if isinstance(Ctilde, (int, np.integer)):
        Ctilde = pctx.ring.row(int(Ctilde))
    else:
        Ctilde = pctx.ring.row(Ctilde)
    if not pctx.ctx.field.from_row(Ctilde % pctx.p):
        raise ValueError("Ctilde must be a unit")
    return WachRankOne(pctx, Ctilde, c, *(table or wach_gamma_table(pctx, c)))


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
    ok = pctx.units(ctx.eta).q_reduces
    details = [("q = pi^(p-1) mod p", ok)]
    for name, gamma in ctx.generators():
        for i in range(f):
            gbar = N.g_bar[name][i]
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
    P: list  # P[r][c] = list of f series over pctx.ring
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
                    xf = x[j][(i + 1) % f].substitute_power(p, ctx.M)  # acc keeps order <= M; P is integral
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
    zero = LaurentSeries.zero(ring, order)
    one = LaurentSeries.one(ring, order)
    P = [[[q.pow(p - 1, order)], [zero]], [[zero], [one]]]
    G = {}
    ctx = pctx.ctx
    for name, gamma in ctx.generators():
        u = pctx.shifted_pow(gamma.chi_int, order).scale(ring.unit_inv_scalar(ring.row(gamma.chi_int)))
        u = u.pow(p - 1, order)
        low = LaurentSeries.const(ring, (1 - gamma.chi_int ** (p - 1)) // p, order)
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
    zero = LaurentSeries.zero(ring, order)
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
    qc[0] = qc[0].scale(R.Ctilde)
    P = [[[(N.P[r][cc][i] * qc[i]).truncate(order) for i in range(f)] for cc in range(2)] for r in range(2)]
    G = {}
    for name in N.G:
        gtab = R.g_table[name]
        G[name] = [[[(N.G[name][r][cc][i] * gtab[i]).truncate(order) for i in range(f)] for cc in range(2)] for r in range(2)]
    return WachRankTwo(pctx, P, G, a=tuple(N.a[i] + R.c[i] for i in range(f)), b=tuple(N.b[i] + R.c[i] for i in range(f)))
