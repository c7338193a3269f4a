"""The ring E_{K,F} = F((pi))^S with its phi and Gamma actions.

phi rotates the S-indexed components and substitutes pi -> pi^p (freshman's
dream in characteristic p); gamma in Gamma substitutes pi -> (1+pi)^chi(gamma) - 1
componentwise.  Substitution is one path: a pole is cleared by a power K = p^k
of Frobenius, gamma(s) = gamma(pi)^(-K) gamma(pi^K s), where gamma(pi)^(-K)
has the F_p coefficients of 1/gamma(pi) spread K apart; the power series
pi^K s goes to the basis y = 1 + pi by a digit-wise Pascal (Lucas) transform,
gamma permutes y^k -> y^(chi k mod p^N), and the inverse transform comes back.
The caches (the head of 1/gamma(pi), lambda_gamma and its powers) are at most
O(M) series keyed globally, so contexts with equal parameters share them.
"""
from __future__ import annotations

import numpy as np

from .field import Field, FieldElement
from .series import INF, LaurentSeries, PadicInteger, PrecisionError, nth_root_unit, one_plus_pi_pow, pascal_size, pascal_transform


class NonBijectiveError(ArithmeticError):
    """The operator C pi^((p-1)Sigma) Phi - 1 is not bijective for (C, Sigma) = (1, 0)."""


def smallest_primitive_root(p: int) -> int:
    factors = []
    t, d = p - 1, 2
    while d * d <= t:
        if t % d == 0:
            factors.append(d)
            while t % d == 0:
                t //= d
        d += 1
    if t > 1:
        factors.append(t)
    for g in range(2, p):
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in factors):
            return g
    raise ValueError("no primitive root mod %d" % p)


def canonical_chi_eta(p: int) -> int:
    """Deterministic generator choice for chi(eta); -1 for p = 2."""
    if p == 2:
        return -1
    g = smallest_primitive_root(p)
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


class GammaElement:
    """An element of Gamma carried by the exact integer value of chi(gamma)."""

    __slots__ = ("p", "chi_int", "ndigits", "name")

    def __init__(self, p: int, chi_int: int, ndigits: int, name: str = ""):
        if chi_int % p == 0:
            raise ValueError("chi(gamma) must be a p-adic unit")
        self.p = p
        self.chi_int = chi_int
        self.ndigits = ndigits
        self.name = name

    @property
    def chi(self) -> PadicInteger:
        return PadicInteger(self.p, self.chi_int, self.ndigits)

    @property
    def level(self) -> int:
        """n >= 1 with chi = 1 mod p^n but not mod p^(n+1); 0 for a non-1-unit."""
        p, v = self.p, self.chi_int - 1
        if v == 0:
            return self.ndigits  # identity; level is "infinite" at working precision
        n = 0
        while v % p == 0 and n < self.ndigits + 64:
            v //= p
            n += 1
        return n

    def __mul__(self, other: "GammaElement") -> "GammaElement":
        return GammaElement(self.p, self.chi_int * other.chi_int, min(self.ndigits, other.ndigits))

    def __pow__(self, e: int) -> "GammaElement":
        if e >= 0:
            return GammaElement(self.p, self.chi_int**e, self.ndigits)
        mod = self.p ** (self.ndigits + 8)
        return GammaElement(self.p, pow(self.chi_int % mod, e, mod), self.ndigits)

    def __repr__(self):
        return "Gamma(%schi=%d)" % (self.name + ", " if self.name else "", self.chi_int)


class TateElement:
    """An element of E_{K,F}: a length-f tuple of Laurent series (index = embedding)."""

    __slots__ = ("ctx", "comps")

    def __init__(self, ctx: "Context", comps):
        comps = tuple(comps)
        if len(comps) != ctx.f:
            raise ValueError("need %d components" % ctx.f)
        self.ctx = ctx
        self.comps = comps

    def __getitem__(self, i: int) -> LaurentSeries:
        return self.comps[i % self.ctx.f]

    def __add__(self, other):
        return TateElement(self.ctx, [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        return TateElement(self.ctx, [a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return TateElement(self.ctx, [-a for a in self.comps])

    def __mul__(self, other):
        if isinstance(other, TateElement):
            return TateElement(self.ctx, [a * b for a, b in zip(self.comps, other.comps)])
        return TateElement(self.ctx, [a * other for a in self.comps])

    __rmul__ = __mul__

    def scale(self, c):
        return TateElement(self.ctx, [a.scale(c) for a in self.comps])

    def truncate(self, order):
        return TateElement(self.ctx, [a.truncate(order) for a in self.comps])

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.comps)

    def agrees_with(self, other, lo=None, hi=None) -> bool:
        return all(a.agrees_with(b, lo, hi) for a, b in zip(self.comps, other.comps))

    def min_order(self):
        return min(a.order for a in self.comps)

    def min_low(self):
        return min(a.low for a in self.comps)

    def __repr__(self):
        return "TateElement(%s)" % (", ".join(repr(c) for c in self.comps))


_REGISTRY = {}

# A pole is cleared by a power K = p^k >= order / _POLE_STEPS of Frobenius.
_POLE_STEPS = 8


def _cache(key, build):
    if key not in _REGISTRY:
        _REGISTRY[key] = build()
    return _REGISTRY[key]


class Context:
    """Working environment: field, embedding count f, window sizes, Gamma caches."""

    def __init__(self, field: Field, pi_order=None, tail_floor=None, chi_eta=None, padic_depth=3):
        self.field = field
        self.p, self.f, self.m = field.p, field.f, field.m
        p, f = self.p, self.f
        self.M = int(pi_order) if pi_order else 4 * p ** (f + 1)
        self.L = int(tail_floor) if tail_floor else -4 * p**f
        if self.L >= 0 or self.M <= 0:
            raise ValueError("need tail_floor < 0 < pi_order")
        self.padic_depth = padic_depth
        self.chi_eta = int(chi_eta) if chi_eta is not None else canonical_chi_eta(p)
        ndig = 2
        while p**ndig < 4 * (self.M - self.L):
            ndig += 1
        self.ndigits = ndig + 2
        self.eta = GammaElement(p, self.chi_eta, self.ndigits, "eta")
        if p == 2:
            self.xi = GammaElement(p, 5, self.ndigits, "xi")
        else:
            self.xi = GammaElement(p, self.chi_eta ** (p - 1), self.ndigits, "xi")
        self.d_root = (p**f - 1) // (p - 1)

    # -- constructors -----------------------------------------------------------
    def pi(self, n: int = 1, coeff=1, order=INF) -> LaurentSeries:
        return LaurentSeries.monomial(self.field, n, coeff, order)

    def zero_series(self, order=INF) -> LaurentSeries:
        return LaurentSeries.zero(self.field, order)

    def one_series(self, order=INF) -> LaurentSeries:
        return LaurentSeries.one(self.field, order)

    def tate(self, comps) -> TateElement:
        return TateElement(self, comps)

    def tate_zero(self, order=INF) -> TateElement:
        return TateElement(self, [self.zero_series(order)] * self.f)

    def tate_unit_vector(self, i: int, series: LaurentSeries) -> TateElement:
        comps = [self.zero_series(series.order)] * self.f
        comps[i % self.f] = series
        return TateElement(self, comps)

    def tate_const(self, values) -> TateElement:
        return TateElement(self, [LaurentSeries.const(self.field, v) for v in values])

    @property
    def key(self):
        return (self.field.key, self.M, self.L, self.chi_eta)

    def scaled(self, k: int) -> "Context":
        """A context with all windows scaled by k (stability re-runs)."""
        return Context(self.field, k * self.M, k * self.L, self.chi_eta, self.padic_depth)

    def z_of_xi(self) -> FieldElement:
        """z with chi(xi) = 1 + z p mod p^2."""
        return self.field.coerce(((self.xi.chi_int - 1) // self.p) % self.p)

    def gamma_from_chi(self, chi_int: int, name="") -> GammaElement:
        return GammaElement(self.p, chi_int, self.ndigits, name)

    def generators(self):
        """The stored generators of Gamma by name: eta, and xi when p = 2."""
        return [("eta", self.eta)] + ([("xi", self.xi)] if self.p == 2 else [])

    # -- gamma action -------------------------------------------------------------
    def _winv(self, gamma: GammaElement) -> np.ndarray:
        """The F_p coefficients of 1/gamma(pi) on exponents [-1, _POLE_STEPS)."""

        def build():
            w = one_plus_pi_pow(self.field, gamma.chi_int, _POLE_STEPS + 2) - 1
            return w.inv_unit().coeff_rows(-1, _POLE_STEPS)[:, 0]

        return _cache((self.field.key, gamma.chi_int, "winv"), build)

    def gamma_act_series(self, gamma: GammaElement, s: LaurentSeries, out_order=None) -> LaurentSeries:
        """Substitute pi -> gamma(pi) in one Laurent series.

        A pole of order up to K = p^k is cleared first: by Frobenius
        gamma(s) = gamma(pi)^(-K) gamma(pi^K s) with gamma(pi)^(-K) =
        sum_t winv_t pi^(tK).  The power series pi^K s goes to the basis
        y^k, y = 1 + pi, where gamma is the permutation y^k -> y^(chi k mod
        p^N) (exact below pi^(p^N), as y^(p^N) = 1 + pi^(p^N)), and back.
        K >= order / _POLE_STEPS keeps the final product to a few shifts."""
        order = min(s.order, self.M)
        if out_order is not None:
            order = min(order, out_order)
        if s.is_zero():
            return LaurentSeries.zero(self.field, order)
        if gamma.chi_int == 1:
            return s.truncate(order)
        p = self.p
        K = 0
        if s.floor < 0:
            if s.order < 0:
                raise PrecisionError("a pole series needs its coefficients up to pi^0")
            # a pole of depth d is claimed to M - L + 1 - d; coboundary windows downstream are sized by it
            order = min(order, self.M - self.L + 1 + s.floor)
            K = 1
            while K < -s.floor or _POLE_STEPS * K < order:
                K *= p
        order = int(order)
        if order <= s.floor:
            return LaurentSeries.zero(self.field, order)
        R = order + K
        P = pascal_size(p, R)
        x = np.zeros((P, self.m), dtype=np.int64)
        x[:R] = s.coeff_rows(-K, order)
        y = pascal_transform(x, p)
        z = np.empty_like(y)
        z[np.arange(P) * (gamma.chi_int % P) % P] = y
        g = pascal_transform(z, p, inverse=True)[:R]
        if K:
            acc = np.zeros_like(g)
            for t, c in enumerate(self._winv(gamma)):
                if c and t * K < R:
                    acc[t * K :] += c * g[: R - t * K]
            g = acc % p
        return LaurentSeries(self.field, -K, order, g)

    def gamma_act(self, gamma: GammaElement, x: TateElement, out_order=None) -> TateElement:
        return TateElement(self, [self.gamma_act_series(gamma, c, out_order) for c in x.comps])

    def phi_act(self, x: TateElement) -> TateElement:
        """Component i of the result is x[i+1](pi^p)."""
        return TateElement(self, [x.comps[(i + 1) % self.f].substitute_power(self.p) for i in range(self.f)])

    # -- lambda units ----------------------------------------------------------------
    def lambda_gamma(self, gamma: GammaElement) -> LaurentSeries:
        """The unique (p^f-1)/(p-1)-th root of gamma(pi)/(chibar(gamma) pi) in 1 + pi F_p[[pi]]."""

        def build():
            if gamma.chi_int == 1:
                return self.one_series(self.M)
            chibar = self.field.coerce(gamma.chi_int)
            w = one_plus_pi_pow(self.field, gamma.chi_int, self.M + 1) - 1  # gamma(pi)
            u = w.shift(-1).scale(chibar.inv())
            return nth_root_unit(u, self.d_root, self.M)

        return _cache((self.field.key, self.M, self.f, gamma.chi_int, "lambda"), build)

    def lambda_pow(self, gamma: GammaElement, e: int) -> LaurentSeries:
        def build():
            lam = self.lambda_gamma(gamma)
            base = lam if e >= 0 else lam.inv_unit()
            return base.pow(abs(e), self.M)

        return _cache((self.field.key, self.M, self.f, gamma.chi_int, e, "lampow"), build)

    def chibar(self, gamma: GammaElement) -> FieldElement:
        return self.field.coerce(gamma.chi_int)

    def op_lambda_gamma(self, gamma: GammaElement, sigma: int, s: LaurentSeries, out_order=None) -> LaurentSeries:
        """(lambda_gamma^sigma * gamma - 1)(s)."""
        img = self.gamma_act_series(gamma, s, out_order)
        lam = self.lambda_pow(gamma, sigma)
        if out_order is not None:
            lam = lam.truncate(out_order - min(img.low, 0) + 1)
        out = lam * img - s
        return out if out_order is None else out.truncate(out_order)

    def op_lambda_gamma_monomial(self, gamma: GammaElement, sigma: int, e: int, out_order=None) -> LaurentSeries:
        return self.op_lambda_gamma(gamma, sigma, self.pi(e), out_order)


def solve_phi_minus_one(ctx: Context, C: FieldElement, sigma: int, h: LaurentSeries) -> LaurentSeries:
    """Solve (C pi^((p-1)Sigma) Phi - 1)(g) = h on F[[pi]], with Phi(g)(pi) = g(pi^(p^f)).

    Neumann iteration when Sigma > 0; coefficient recursion from degree 0
    upward when Sigma = 0 (requires C != 1).
    """
    field = ctx.field
    C = field.coerce(C)
    if not C:
        raise ValueError("C must be nonzero")
    if sigma < 0:
        raise ValueError("Sigma must be >= 0")
    if not h.is_zero() and h.val() < 0:
        raise ValueError("h must lie in F[[pi]]")
    if sigma == 0 and C == field.one():
        raise NonBijectiveError("C Phi - 1 is not bijective for (C, Sigma) = (1, 0)")
    order = h.order if h.order != INF else ctx.M
    order = int(min(order, ctx.M))
    if sigma > 0:
        shift = (ctx.p - 1) * sigma
        acc = h.truncate(order)
        term = acc
        while not term.is_zero():
            term = term.substitute_power(ctx.p**ctx.f).shift(shift).scale(C).truncate(order)
            acc = acc + term
        return -acc
    return _solve_c_phi_minus_one(ctx, C, h, order)


def _solve_c_phi_minus_one(ctx: Context, C: FieldElement, h: LaurentSeries, order: int, q: int = None) -> LaurentSeries:
    """Recursion for C g(pi^q) - g = h on F[[pi]] (q = p^f by default); for C = 1
    solves in pi F[[pi]]."""
    field = ctx.field
    q = q or ctx.p**ctx.f
    rows = h.coeff_rows(0, order)
    out = np.zeros_like(rows)
    one = field.one()
    for n in range(order):
        hn = field.from_row(rows[n])
        if n == 0:
            if C == one:
                if hn:
                    raise NonBijectiveError("constant-term obstruction for C = 1")
                continue
            out[0] = (hn / (C - one)).row()
        else:
            gn = -hn
            if n % q == 0:
                gn = gn + C * field.from_row(out[n // q])
            out[n] = gn.row()
    return LaurentSeries(field, 0, order, out)


def solve_phi_unit_tail(ctx: Context, h: LaurentSeries, q: int = None) -> LaurentSeries:
    """Unique g in pi F[[pi]] with g(pi^q) - g = h (q = p^f by default), for h in
    pi F[[pi]] (used in the trivial-character constructions where the full
    operator is not bijective)."""
    if not h.is_zero() and h.val() < 1:
        raise ValueError("h must lie in pi F[[pi]]")
    return _solve_c_phi_minus_one(ctx, ctx.field.one(), h, int(min(h.order, ctx.M)), q)
