"""The ring E_{K,F} = F((pi))^S with its phi and Gamma actions.

phi rotates the S-indexed components and substitutes pi -> pi^p (freshman's
dream in characteristic p); gamma in Gamma substitutes pi -> (1+pi)^chi(gamma) - 1
componentwise.  Substitution is one path: a pole is cleared by K = a p^k, 1 <= a < p,
gamma(s) = gamma(pi)^(-K) gamma(pi^K s), where gamma(pi)^(-K) has the F_p coefficients
of gamma(pi)^(-a) spread p^k apart; the power series pi^K s goes to the basis y = 1 + pi
by a digit-wise Pascal (Lucas) transform, gamma permutes y^k -> y^(chi k mod p^N), and
the inverse transform comes back, both on the rows below order + K only.
lambda_gamma, the (p^f-1)/(p-1)-th root of u = gamma(pi)/(chibar pi), and its powers
are Frobenius products, as x(pi)^(p^j) = x(pi^(p^j)) for F_p coefficients: lambda is
prod_k w(pi^(p^(fk))) with w = u / u(pi^p), and lambda^sigma is prod_j (lambda^(d_j))(pi^(p^j))
over the base-p digits d_j of |sigma|; no root is taken.  The caches (the heads of
gamma(pi)^(-a), lambda_gamma and its powers) are at most O(M) series keyed globally,
so contexts with equal parameters share them.
The phi-transport C_i b_{i+1}[(e - s_i)/q] - b_i[e] = h_i[e] has one solver,
``phi_transport``, for a batch of right-hand sides at once: a ``TransportSchedule``
of the window (chain levels and the fixed cycle, independent of the right-hand
sides), which a caller may keep for further right-hand sides, and its fill.
"""
from __future__ import annotations

import functools

import numpy as np

from .field import Field, FieldElement, convolve_rows
from .series import INF, LaurentSeries, PadicInteger, PrecisionError, one_plus_pi_pow, pascal_size, pascal_transform


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


def generates_gamma(p: int, chi: int) -> bool:
    """Whether chi(eta) = chi generates Z_p^* topologically (for p = 2 with chi(xi) = 5)."""
    if p == 2:
        return chi % 4 == 3
    return len({pow(chi, k, p) for k in range(p - 1)}) == p - 1 and pow(chi, p - 1, p * p) != 1


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

    def __repr__(self):
        return "TateElement(%s)" % (", ".join(repr(c) for c in self.comps))


_REGISTRY = {}

# A pole is cleared by K = a p^k with p^k >= order / _POLE_STEPS and 1 <= a < p.
_POLE_STEPS = 8
# int64 entries in one work array of a batched transform; wider batches go in column groups
_WORK = 1 << 14


def _cache(key, build):
    if key not in _REGISTRY:
        _REGISTRY[key] = build()
    return _REGISTRY[key]


def _cache_below(key, order, build):
    """The series kept under ``key`` when it reaches ``order``, else build(order), kept in
    its place: the longest one built stays and serves every shorter reader uncut."""
    have = _REGISTRY.get(key)
    if have is None or have.order < order:
        have = _REGISTRY[key] = build(order)
    return have


def _frobenius_product(base: LaurentSeries, q: int, digits, order: int) -> LaurentSeries:
    """prod_j base(pi^(q^j))^(digits[j]) below ``order``, by Horner from the top digit
    down: x -> x(pi^q) base^(digits[j]), so digit j reads base below ceil(order / q^j)."""
    x = LaurentSeries.one(base.field)
    for j in reversed(range(len(digits))):
        n = -(-order // q**j)
        x = x.substitute_power(q, n)
        b = base.truncate(n)
        for _ in range(digits[j]):
            x = x * b
    return x


class Context:
    """Working environment: field, embedding count f, window sizes, Gamma caches."""

    def __init__(self, field: Field, pi_order=None, tail_floor=None, chi_eta=None, padic_depth=3):
        self.field = field
        self.p, self.f, self.m = field.p, field.f, field.m
        p, f = self.p, self.f
        self.M = int(pi_order) if pi_order is not None else 4 * p ** (f + 1)
        self.L = int(tail_floor) if tail_floor is not None else -4 * p**f
        if self.L >= 0 or self.M <= 0:
            raise ValueError("need tail_floor < 0 < pi_order")
        if padic_depth < 1:
            raise ValueError("need padic_depth >= 1")
        self.padic_depth = padic_depth
        self.chi_eta = int(chi_eta) if chi_eta is not None else canonical_chi_eta(p)
        if not generates_gamma(p, self.chi_eta):
            raise ValueError("chi_eta = %d does not generate Gamma at p = %d" % (self.chi_eta, p))
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
    def _winv(self, gamma: GammaElement, a: int) -> np.ndarray:
        """The F_p coefficients of gamma(pi)^(-a) on exponents [-a, _POLE_STEPS)."""

        def build():
            u = (one_plus_pi_pow(self.field, gamma.chi_int, a + _POLE_STEPS + 1) - 1).shift(-1)
            return u.pow(-a, a + _POLE_STEPS).shift(-a).coeff_rows(-a, _POLE_STEPS)[:, 0]

        return _cache((self.field.key, gamma.chi_int, a, "winv"), build)

    def _width_one(self, rows_op, s: LaurentSeries, out_order, pole_window: int) -> LaurentSeries:
        """A rows operator (``gamma_act_rows`` or ``op_lambda_gamma_rows``) on one series, a
        batch of width 1.  The image is claimed to the order of s, M and ``out_order``, and
        a series with a pole to pole_window + floor."""
        order = min(s.order, self.M)
        if out_order is not None:
            order = min(order, out_order)
        if s.is_zero():
            return LaurentSeries.zero(self.field, order)
        if s.floor < 0:
            if s.order < 0:
                raise PrecisionError("a pole series needs its coefficients up to pi^0")
            order = min(order, pole_window + s.floor)
        order = int(order)
        if order <= s.floor:
            return LaurentSeries.zero(self.field, order)
        return LaurentSeries(self.field, s.floor, order, rows_op(s.coeff_rows(s.floor, order), s.floor, order))

    def gamma_act_series(self, gamma: GammaElement, s: LaurentSeries, out_order=None) -> LaurentSeries:
        """Substitute pi -> gamma(pi) in one Laurent series.  A series with a pole is
        claimed to M - L + 1 + floor; coboundary windows downstream are sized by it."""
        return self._width_one(functools.partial(self.gamma_act_rows, gamma), s, out_order, self.M - self.L + 1)

    def gamma_act_rows(self, gamma: GammaElement, x: np.ndarray, floor: int, order: int) -> np.ndarray:
        """gamma on a batch of series that vanish below ``floor``, given by their
        coefficient rows x on [floor, order) (axis 0 the exponent, the other axes
        the batch); the images are exact on the same window.

        A pole is cleared first by K = a S >= -floor, S = p^k >= order / _POLE_STEPS,
        1 <= a < p: by Frobenius gamma(s) = gamma(pi)^(-K) gamma(pi^K s) with
        gamma(pi)^(-K) = sum_t u_t pi^((t - a) S), u the head of gamma(pi)^(-a).
        The power series pi^K s goes to the basis y^k, y = 1 + pi, where gamma is
        the permutation y^k -> y^(chi k mod P) (exact below pi^P, as y^P = 1 + pi^P),
        and back, both transforms pruned to the rows below R = order + K.  The
        batch goes through in column groups whose P rows hold at most _WORK entries."""
        p = self.p
        K = 0
        if floor < 0:
            S = pascal_size(p, -(-order // _POLE_STEPS))
            while -(floor // S) >= p:
                S *= p
            a = -(floor // S)
            K = a * S
        R = order + K
        P = pascal_size(p, R)
        perm = np.arange(P) * (gamma.chi_int % P) % P
        out = np.zeros((order - floor, x[0].size), dtype=np.int64)
        cols = np.flatnonzero(x.any(axis=0))  # zero columns stay zero; a strided batch is gathered, not copied
        width = max(1, _WORK // P)
        for j in range(0, len(cols), width):
            group = cols[j : j + width]
            z = np.zeros((P, len(group)), dtype=np.int64)
            z[K + floor : R] = x[(slice(None), *np.unravel_index(group, x.shape[1:]))]
            y = pascal_transform(z, p, live=R)
            z = np.zeros_like(z)
            z[perm[: len(y)]] = y
            g = pascal_transform(z, p, inverse=True, live=R)[:R]
            if K:
                acc = np.zeros_like(g)
                for t, c in enumerate(self._winv(gamma, a)):
                    if c and t * S < R:
                        acc[t * S :] += c * g[: R - t * S]
                g = acc % p
            out[:, group] = g[K + floor :]
        return out.reshape(x.shape)

    def gamma_act(self, gamma: GammaElement, x: TateElement, out_order=None) -> TateElement:
        return TateElement(self, [self.gamma_act_series(gamma, c, out_order) for c in x.comps])

    def phi_act(self, x: TateElement, order=INF) -> TateElement:
        """Component i of the result is x[i+1](pi^p), below ``order``."""
        return TateElement(self, [x.comps[(i + 1) % self.f].substitute_power(self.p, order) for i in range(self.f)])

    # -- lambda units ----------------------------------------------------------------
    def lambda_gamma(self, gamma: GammaElement, order=INF) -> LaurentSeries:
        """The unique (p^f-1)/(p-1)-th root lambda of u = gamma(pi)/(chibar(gamma) pi) in
        1 + pi F_p[[pi]], in closed form, below min(order, M) (kept as in ``_cache_below``,
        so it may reach further).  u has F_p coefficients, so u(pi^p) = u^p and
        w = u / u(pi^p) = u^(1-p); with q = p^f, lambda = prod_(k >= 0) w(pi^(q^k)) =
        u^((1-p) / (1-q)), and w(pi^(q^k)) = 1 below pi^n once q^k >= n."""

        def build(n):
            p = self.p
            u = (one_plus_pi_pow(self.field, gamma.chi_int, n + 1) - 1).shift(-1).scale(self.chibar(gamma).inv())
            w = u * u.truncate(-(-n // p)).inv_unit().substitute_power(p, n)  # u^-1 read below pi^(n/p)
            q, terms = p**self.f, 1
            while q**terms < n:
                terms += 1
            return _frobenius_product(w, q, [1] * terms, n)

        return _cache_below((self.field.key, self.M, self.f, gamma.chi_int, "lambda"), min(order, self.M), build)

    def lambda_pow(self, gamma: GammaElement, e: int) -> LaurentSeries:
        """lambda_gamma^e on the whole window, below pi^M."""
        return self.lambda_pow_below(gamma, e, self.M)

    def lambda_pow_below(self, gamma: GammaElement, e: int, order) -> LaurentSeries:
        """lambda_gamma^e below min(order, M) = prod_j (lambda^(d_j))(pi^(p^j)) over the
        base-p digits d_j of |e| (lambda has F_p coefficients), with lambda^-1 for e < 0,
        itself kept as the power -1.  Each factor reads its base only below the order, as
        row n of a product depends on the rows of its factors at or below n; the longest
        power built is kept and serves shorter readers (``_cache_below``)."""

        def build(n):
            if e == -1:
                return self.lambda_gamma(gamma, n).truncate(n).inv_unit()
            lam = self.lambda_pow_below(gamma, -1, n) if e < 0 else self.lambda_gamma(gamma, n)
            digits, k = [], abs(e)
            while k or not digits:
                digits.append(k % self.p)
                k //= self.p
            return _frobenius_product(lam, self.p, digits, n)

        return _cache_below((self.field.key, self.M, self.f, gamma.chi_int, e, "lampow"), min(order, self.M), build)

    def chibar(self, gamma: GammaElement) -> FieldElement:
        return self.field.coerce(gamma.chi_int)

    def op_lambda_gamma(self, gamma: GammaElement, sigma: int, s: LaurentSeries, out_order=None) -> LaurentSeries:
        """(lambda_gamma^sigma * gamma - 1)(s).  A series with a pole is claimed to
        M + floor, where lambda's window ends (inside the pole window of ``gamma_act_series``)."""
        return self._width_one(functools.partial(self.op_lambda_gamma_rows, gamma, sigma), s, out_order, self.M)

    def op_lambda_gamma_rows(self, gamma: GammaElement, sigma, x: np.ndarray, floor: int, order: int) -> np.ndarray:
        """(lambda_gamma^sigma * gamma - 1) on a batch of series given as in
        ``gamma_act_rows``, exact on [floor, order); sigma may be one exponent per index
        of axis 1 (the components).  lambda has F_p coefficients, so one ``convolve_rows``
        product with it per sigma takes every nonzero F_p column as its own x-slot."""
        n = order - floor
        img = self.gamma_act_rows(gamma, x, floor, order).reshape(n, np.size(sigma), -1)
        for i, s in enumerate(np.atleast_1d(sigma).tolist()):
            lam = self.lambda_pow_below(gamma, s, n).coeff_rows(0, n)[:, :1]
            cols = np.flatnonzero(img[:, i].any(axis=0))  # the other columns stay zero
            img[:, i, cols] = convolve_rows(lam, img[:, i, cols], self.p)[:n]
        img = img.reshape(x.shape)
        img -= x
        return np.remainder(img, self.p, out=img)


def solve_phi_minus_one(ctx: Context, C: FieldElement, sigma: int, h: LaurentSeries) -> LaurentSeries:
    """Solve (C pi^((p-1)Sigma) Phi - 1)(g) = h on F[[pi]], with Phi(g)(pi) = g(pi^(p^f)),
    by the phi-transport (requires C != 1 when Sigma = 0)."""
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
    return _solve_c_phi_minus_one(ctx, C, h, int(min(order, ctx.M)), shift=(ctx.p - 1) * sigma)


def _solve_c_phi_minus_one(
    ctx: Context, C: FieldElement, h: LaurentSeries, order: int, q: int = None, shift: int = 0
) -> LaurentSeries:
    """C pi^shift g(pi^q) - g = h on F[[pi]] (q = p^f by default), one component of
    ``phi_transport``; for C = 1 and shift 0 solves in pi F[[pi]]."""
    rows = h.coeff_rows(0, order)[None, :, :, None]
    g, obstruction = phi_transport(ctx.field, q or ctx.p**ctx.f, [shift], [C], 0, order, rows)
    if obstruction.any():
        raise NonBijectiveError("constant-term obstruction for C = 1")
    return LaurentSeries(ctx.field, 0, order, g[0, :, :, 0])


def solve_phi_unit_tail(ctx: Context, h: LaurentSeries, q: int = None) -> LaurentSeries:
    """Unique g in pi F[[pi]] with g(pi^q) - g = h (q = p^f by default), for h in
    pi F[[pi]] (used in the trivial-character constructions where the full
    operator is not bijective)."""
    if not h.is_zero() and h.val() < 1:
        raise ValueError("h must lie in pi F[[pi]]")
    return _solve_c_phi_minus_one(ctx, ctx.field.one(), h, int(min(h.order, ctx.M)), q)


class TransportSchedule:
    """The fill order of the phi-transport C_i b_{i+1}[(e - shifts_i)/q] - b_i[e] = h_i[e],
    i in Z/f, e in [lo, hi): everything that depends on the field, q, the shifts, C, the
    window and ``free`` but not on h, so that one schedule serves every h of its window.

    A node (i, e) whose source (i+1, (e - shifts_i)/q) is not an exponent in [lo, hi),
    or with e >= free_i, is a root: b_i[e] = -h_i[e].  Every other node has one source,
    so the nodes are filled in order of chain depth, one gather and one batch of m x m
    products C_i per level (``levels``).  Chains that reach no root end in the fixed
    cycle, where (prod C - 1) u_0 = sum_k C_0 ... C_{k-1} h_k.  u_0 sits on the cycle node
    of the lowest component, and the cycle is filled forward from it, u_{k+1} =
    C_k^-1 (u_k + h_k), before the levels that hang off it (``after``)."""

    def __init__(self, field: Field, q: int, shifts, C, lo: int, hi: int, free=None):
        p, m = field.p, field.m
        f, W = len(shifts), hi - lo
        self.p = p
        e = np.arange(lo, hi)
        num = e - np.asarray(shifts)[:, None]
        src = num // q
        free = np.full((f, 1), hi) if free is None else np.asarray(free)[:, None]
        root = (num % q != 0) | (src < lo) | (src >= hi) | (e >= free)
        nodes = np.arange(f * W).reshape(f, W)
        succ = np.where(root, nodes, ((np.arange(f) + 1) % f * W)[:, None] + src - lo).ravel()
        comp = np.repeat(np.arange(f), W)
        self.Cm = np.stack([field.mul_matrix(c) for c in C])
        done = root.ravel()

        def levels():
            out = []
            while (idx := np.flatnonzero(~done & done[succ])).size:
                out.append((idx, succ[idx], comp[idx]))
                done[idx] = True
            return out

        self.levels, self.cycle, self.after = levels(), None, []
        if done.all():
            return
        x, path = int(np.flatnonzero(~done)[0]), []
        while x not in path:
            path.append(x)
            x = int(succ[x])
        cycle = path[path.index(x) :]
        x = min(cycle)  # u_0 sits on the cycle node of the lowest component
        cycle = cycle[cycle.index(x) :] + cycle[: cycle.index(x)]
        pref, prod = [np.eye(m, dtype=np.int64)], field.one()
        for n in cycle:
            pref.append(pref[-1] @ self.Cm[comp[n]] % p)
            prod = prod * C[comp[n]]
        self.cycle = np.array(cycle)
        self.pref = np.stack(pref[:-1])  # C_0 ... C_{k-1} for the k-th cycle node
        self.Cinv = np.stack([field.mul_matrix(C[comp[n]].inv()) for n in cycle])
        self.cycle_inv = None if prod == field.one() else field.mul_matrix((prod - 1).inv())
        done[self.cycle] = True
        self.after = levels()

    def nbytes(self) -> int:
        arrays = [self.Cm] + [a for level in self.levels + self.after for a in level]
        if self.cycle is not None:
            arrays += [self.cycle, self.pref, self.Cinv]
        return sum(a.nbytes for a in arrays)

    def fill(self, h: np.ndarray, t: np.ndarray = None):
        """b for the right-hand sides h, of shape (f, hi - lo, m, B), and the cycle
        obstruction, of shape (m, B).  When prod C = 1 that obstruction is
        sum_k C_0 ... C_{k-1} h_k, and u_0 = t (an (m, B) array, one value per
        right-hand side; default 0) where it vanishes, 0 elsewhere, so a nonzero
        obstruction shows as the one failed equation at the cycle's last node."""
        p = self.p
        f, W, m, B = h.shape
        h = h.reshape(f * W, m, B)
        b = np.negative(h)
        b %= p

        def fill(levels):
            for idx, src, comp in levels:
                b[idx] = (np.einsum("nij,njb->nib", self.Cm[comp], b[src]) - h[idx]) % p

        fill(self.levels)
        obstruction = np.zeros((m, B), dtype=np.int64)
        if self.cycle is not None:
            acc = np.einsum("kij,kjb->ib", self.pref, h[self.cycle]) % p
            if self.cycle_inv is None:
                obstruction = acc
                u = np.where(acc.any(axis=0), 0, 0 if t is None else t)
            else:
                u = self.cycle_inv @ acc % p
            for n, Cinv in zip(self.cycle, self.Cinv):  # forward round the cycle
                b[n] = u
                u = Cinv @ (u + h[n]) % p
            fill(self.after)
        return b.reshape(f, W, m, B), obstruction


def phi_transport(field: Field, q: int, shifts, C, lo: int, hi: int, h: np.ndarray, free=None, t: np.ndarray = None):
    """Solve C_i b_{i+1}[(e - shifts_i)/q] - b_i[e] = h_i[e] for b_i[e], i in Z/f, e in [lo, hi),
    for B right-hand sides at once: h has shape (f, hi - lo, m, B).  The window's
    ``TransportSchedule`` (roots at the sources outside [lo, hi) and at e >= free_i,
    chain levels, the fixed cycle) and its fill; t is the kernel value on a cycle with
    prod C = 1.  Returns b, of the shape of h, and the cycle obstruction, of shape (m, B)."""
    return TransportSchedule(field, q, shifts, C, lo, hi, free).fill(h, t)
