"""Cocycles for Ext^1(M_0, M_{C,c}) and the explicit basis constructions.

A cocycle is a pair (mu_phi, mu_gamma at the stored Gamma generators) subject
to the compatibility (dagger): (kappa_phi phi - 1)(mu_gamma) =
(kappa_gamma gamma - 1)(mu_phi), and the chain rule (ddagger) extending mu to
words.  Basis elements B_i are built by greedy valuation elimination against
(lambda_eta^Sigma eta - 1), with deeper rescue blocks when the elimination
sticks at an exponent divisible by p - 1; the exceptional bases (trivial and
cyclotomic modules) get their own constructions.

One linear problem underlies the certificates: a cocycle plus a correcting
coboundary must vanish below given thresholds.  ``residual_system`` builds its
matrix for a batch of columns in one pass (one transport fill) on the
``ResidualPlan`` of its window: the window's transport schedule and the crossing
band, the phi rows that the coboundary's cut at the floor can leave nonzero; every
other phi row is solved exactly by the transport, so the matrix holds only the band,
the rows below the floor where a cocycle's mu_phi is nonzero, the fixed-cycle slot
and the generator rows.  The coboundary test and the span
decomposition in the basis solve it with every threshold at the window top; the V_J
systems of ``bounded`` use the twisted thresholds.  b is nonzero on a few rows only,
so the generator rows are products with columns of the operator (lambda^sigma gamma
- 1), each the image of one pi^e, which a byte-bounded cache keeps per digits and
floor for every module and window top that share them.  A basis keeps one
``SpanPlan`` per window, the residual plan with the basis columns factored, so that a
later span decomposition builds and solves only its target column.  ``PhiTransport``
is a view of one transport solve and gives the coboundary test its witness.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .field import FieldElement
from .series import INF, LaurentSeries, PrecisionError
from .tate import _WORK, Context, GammaElement, NonBijectiveError, TateElement, TransportSchedule, phi_transport, solve_phi_minus_one, solve_phi_unit_tail
from .rankone import RankOneModule
from .gflinalg import Factored, gf


class PivotError(AssertionError):
    """A pivot the paper proves nonzero vanished; indicates a genuine bug."""


class Cocycle:
    """(mu_phi, mu at stored generators) for Ext^1(M_0, M_{C,c})."""

    __slots__ = ("module", "mu_phi", "mu_gen", "label", "_mu_xi_cache", "_mu_xi_order")

    def __init__(self, module: RankOneModule, mu_phi: TateElement, mu_gen: dict, label: str = ""):
        self.module = module
        self.mu_phi = mu_phi
        self.mu_gen = dict(mu_gen)
        self.label = label
        self._mu_xi_cache = self._mu_xi_order = None

    @property
    def ctx(self) -> Context:
        return self.module.ctx

    def mu_eta(self) -> TateElement:
        return self.mu_gen["eta"]

    def mu_xi(self, order=INF) -> TateElement:
        """mu at xi = eta^(p-1) (stored for p = 2, derived by the chain rule else), exact
        below ``order``.  The derived value is kept with the order it was built to and
        rebuilt only for a longer reader; a shorter one gets it uncut."""
        if "xi" in self.mu_gen:
            return self.mu_gen["xi"]
        if self._mu_xi_cache is None or self._mu_xi_order < order:
            self._mu_xi_cache, self._mu_xi_order = self.mu_at_eta_power(self.ctx.p - 1, order), order
        return self._mu_xi_cache

    def mu_at_eta_power(self, k: int, order=INF) -> TateElement:
        """mu_{eta^k} below ``order``, by binary powering of the chain rule mu_{gamma gamma'} =
        kappa_gamma gamma(mu_{gamma'}) + mu_gamma, low bit first: gamma runs through
        eta^(2^j), squared with gamma = gamma' and added into the result with gamma' the
        sum so far.  kappa_(gamma^2) is built only when a later step reads it.  Every step
        is lower-triangular, so mu_eta cut at ``order`` gives the rows of the full result
        below it; kappa is read to order - (the lowest floor of mu_eta, at most 0), so that
        a product with a pole keeps them."""
        ctx, module = self.ctx, self.module
        if k < 1:
            raise ValueError("need k >= 1")
        gamma, mu, out = ctx.eta, self.mu_eta().truncate(order), None
        reach = order - min(0, *(x.low for x in mu.comps))
        kappa = module.kappa_gamma(gamma, reach)
        while True:
            if k & 1:
                out = mu if out is None else kappa * ctx.gamma_act(gamma, out, order) + mu
            k >>= 1
            if not k:
                return out
            mu = kappa * ctx.gamma_act(gamma, mu, order) + mu
            gamma = gamma * gamma
            if k > 1 or out is not None:
                kappa = module.kappa_gamma(gamma, reach)

    def generators(self):
        ctx = self.ctx
        out = [("eta", ctx.eta)]
        if "xi" in self.mu_gen:
            out.append(("xi", ctx.xi))
        return out

    def __add__(self, other: "Cocycle") -> "Cocycle":
        mg = {k: self.mu_gen[k] + other.mu_gen[k] for k in self.mu_gen}
        return Cocycle(self.module, self.mu_phi + other.mu_phi, mg, "%s+%s" % (self.label, other.label))

    def __sub__(self, other: "Cocycle") -> "Cocycle":
        mg = {k: self.mu_gen[k] - other.mu_gen[k] for k in self.mu_gen}
        return Cocycle(self.module, self.mu_phi - other.mu_phi, mg, "%s-%s" % (self.label, other.label))

    def scale(self, c) -> "Cocycle":
        mg = {k: v.scale(c) for k, v in self.mu_gen.items()}
        return Cocycle(self.module, self.mu_phi.scale(c), mg, self.label)

    def __repr__(self):
        return "Cocycle(%s, module=%r)" % (self.label or "?", self.module)


@dataclass
class ExtClass:
    """Coordinates in the constructed basis order [B_0..B_{f-1}] (+ B_nr, B_tr)."""

    coords: tuple
    labels: tuple

    def __repr__(self):
        return "ExtClass(%s)" % (", ".join("%s*%r" % (l, c) for l, c in zip(self.labels, self.coords)))


def _phi_minus_one(module: RankOneModule, x: TateElement) -> TateElement:
    """(kappa_phi phi - 1)(x).  Component i keeps order min(p ord x_{i+1} + e_i, ord x_i)
    with kappa_phi_i = C_i pi^(e_i), so phi stops at max_i (ord x_i - e_i)."""
    kphi = module.kappa_phi()
    cap = max(y.order - k.low for y, k in zip(x.comps, kphi.comps))
    return kphi * module.ctx.phi_act(x, cap) - x


def coboundary(module: RankOneModule, b: TateElement, label: str = "cob") -> Cocycle:
    """The coboundary (kappa_phi phi(b) - b, (kappa_gamma gamma(b) - b))."""
    ctx = module.ctx
    mu_phi = _phi_minus_one(module, b)
    mu_gen = {}
    for name, gamma in ctx.generators():
        mu_gen[name] = module.kappa_gamma(gamma) * ctx.gamma_act(gamma, b) - b
    return Cocycle(module, mu_phi, mu_gen, label)


@dataclass
class VerifyReport:
    ok: bool
    checks: list
    max_exponent: int

    def __bool__(self):
        return self.ok


def verify_cocycle(c: Cocycle, words: int = 0, rng=None) -> VerifyReport:
    """Check (dagger) at the stored generators (and derived xi for p > 2), plus
    (ddagger) consistency: commutation of eta and xi words for p = 2, chain
    consistency on random eta-words otherwise."""
    ctx = c.ctx
    module = c.module
    checks = []
    ok = True
    max_exp = None

    def dagger(gamma: GammaElement, mu_g: TateElement, tag: str):
        nonlocal ok, max_exp
        lhs = _phi_minus_one(module, mu_g)
        kg = module.kappa_gamma(gamma)
        rhs = kg * ctx.gamma_act(gamma, c.mu_phi) - c.mu_phi
        hi = min(lhs.min_order(), rhs.min_order())
        good = lhs.agrees_with(rhs, None, hi)
        if not good:
            for i in range(ctx.f):
                if not lhs.comps[i].agrees_with(rhs.comps[i], None, hi):
                    checks.append(("dagger[%s] component %d" % (tag, i), False))
                    break
        else:
            checks.append(("dagger[%s]" % tag, True))
        ok = ok and good
        max_exp = int(hi) if max_exp is None else min(max_exp, int(hi))

    for name, gamma in c.generators():
        dagger(gamma, c.mu_gen[name], name)
    if ctx.p > 2:
        dagger(ctx.xi, c.mu_xi(), "xi (derived)")
        if words and rng is not None:
            for _ in range(words):
                a = rng.randrange(1, 2 * ctx.p)
                b = rng.randrange(1, 2 * ctx.p)
                lhs = c.mu_at_eta_power(a + b)
                kg = module.kappa_gamma(ctx.eta ** a)
                rhs = kg * ctx.gamma_act(ctx.eta ** a, c.mu_at_eta_power(b)) + c.mu_at_eta_power(a)
                hi = min(lhs.min_order(), rhs.min_order(), ctx.M // 2)
                good = lhs.agrees_with(rhs, None, hi)
                checks.append(("ddagger eta^%d . eta^%d" % (a, b), good))
                ok = ok and good
    else:
        eta, xi = ctx.eta, ctx.xi
        lhs = module.kappa_gamma(eta) * ctx.gamma_act(eta, c.mu_gen["xi"]) + c.mu_gen["eta"]
        rhs = module.kappa_gamma(xi) * ctx.gamma_act(xi, c.mu_gen["eta"]) + c.mu_gen["xi"]
        hi = min(lhs.min_order(), rhs.min_order())
        good = lhs.agrees_with(rhs, None, hi)
        checks.append(("ddagger eta.xi = xi.eta", good))
        ok = ok and good
    return VerifyReport(ok, checks, max_exp if max_exp is not None else 0)


# ---------------------------------------------------------------------------
# Greedy valuation elimination for the basis elements
# ---------------------------------------------------------------------------


def _chain_length(module: RankOneModule, i: int) -> int:
    """r >= 0 with c_{i+1} = ... = c_{i+r} = p-2, c_{i+r+1} != p-2 (for c_i = p-1);
    r = -1 when c_i < p-1."""
    p, f, c = module.p, module.f, module.c
    if c[i] != p - 1:
        return -1
    r = 0
    while c[(i + r + 1) % f] == p - 2:
        r += 1
        if r > f:  # cannot happen for normal-form c
            raise AssertionError("no end to the p-2 chain")
    return r


def _image(op, e: int, lo: int, stop: int):
    """pi^e and its image op(pi^e) on [lo, stop), as F_p coefficient arrays: exact on
    the pole window alone, because an image row depends only on source rows at or below it."""
    x = np.zeros((stop - lo, 1), dtype=np.int64)
    x[e - lo] = 1
    return x[:, 0], op(x, lo, stop)[:, 0]


def eliminate(op, p: int, x: np.ndarray, res: np.ndarray, lo: int, stop: int, skip=()):
    """Greedy valuation elimination, in place on F_p coefficient arrays on [lo, stop): x a
    source and res = op(x).  While res has a nonzero exponent v outside ``skip``, the
    lowest one is cancelled by subtracting a multiple of pi^v from x and the same multiple
    of its image from res.  op(rows, floor, order) is an F_p-linear operator, exact on
    [floor, order).  Returns the first stuck exponent, where the image of pi^v has no
    leading term, or None."""
    live = np.ones(stop - lo, dtype=bool)
    live[[e - lo for e in skip]] = False
    while True:
        nz = np.flatnonzero(res.astype(bool) & live)
        if nz.size == 0:
            return None
        v = lo + int(nz[0])
        _, q = _image(op, v, v, stop)
        if not q[0]:
            return v
        c = res[v - lo] * pow(int(q[0]), -1, p) % p
        x[v - lo] = (x[v - lo] - c) % p
        res[v - lo :] = (res[v - lo :] - c * q) % p


def _series(field, lo: int, x: np.ndarray) -> LaurentSeries:
    """The Laurent polynomial with F_p coefficients x on exponents from lo."""
    rows = np.zeros((len(x), field.m), dtype=np.int64)
    rows[:, 0] = x
    return LaurentSeries(field, lo, INF, rows)


def build_H(module: RankOneModule, i: int, collect_pivots=None) -> LaurentSeries:
    """The principal part H_i with (lambda_eta^Sigma_i eta - 1)(H_i) in F[[pi]].

    Greedy elimination from pi^(1 - p^(r+2)) up to pi^0.  It sticks at the exponents
    1 - p^(j+1), j <= r, which are cancelled against the rescue block h'^(j): pi^(1 + p^j
    - 2 p^(j+1)) eliminated until it sticks at the same exponent, where its residual is
    the pivot nu' (Props on the modified construction)."""
    ctx = module.ctx
    p = ctx.p
    r = _chain_length(module, i)
    if p == 2:
        return _build_H_p2(module, i, r)
    ctx.lambda_pow_below(ctx.eta, module.sigma(i), ctx.M)  # to M, where _mu_gamma_from_H reads it next
    op = functools.partial(ctx.op_lambda_gamma_rows, ctx.eta, module.sigma(i))
    lo = 1 - p ** (r + 2)
    x, res = _image(op, lo, lo, 0)
    while (v := eliminate(op, p, x, res, lo, 0)) is not None:
        j = next((j for j in range(r + 1) if v == 1 - p ** (j + 1)), None)
        if j is None:
            raise PivotError("stuck at exponent %d outside the rescue schedule" % v)
        block, block_res = _image(op, 1 + p**j - 2 * p ** (j + 1), lo, 0)
        if eliminate(op, p, block, block_res, lo, 0) != v:
            raise PivotError("rescue block %d missed its pivot exponent %d" % (j, v))
        if collect_pivots is not None:
            collect_pivots.append((j, ctx.field.coerce(res[v - lo]), ctx.field.coerce(block_res[v - lo])))
        c = res[v - lo] * pow(int(block_res[v - lo]), -1, p)
        x = (x - c * block) % p
        res = (res - c * block_res) % p
    return _series(ctx.field, lo, x)


def _build_H_p2(module: RankOneModule, i: int, r: int) -> LaurentSeries:
    """p = 2 principal parts: pi^(-1) for c_i = 0, else the two-term closed form."""
    ctx = module.ctx
    if r == -1:
        H = ctx.pi(-1)
    else:
        H = ctx.pi(1 - 2 ** (r + 2)) + ctx.pi(1 + 2**r - 2 ** (r + 2))
    sigma = module.sigma(i)
    for gamma in (ctx.eta, ctx.xi):
        img = ctx.op_lambda_gamma(gamma, sigma, H)
        v = img.val()
        if v is not None and v < 0:
            raise PivotError("p=2 principal part is not integral under gamma")
    return H


def _mu_gamma_from_H(module: RankOneModule, i: int, H: LaurentSeries, gamma: GammaElement) -> TateElement:
    """Solve (dagger) for mu_gamma given mu_phi = e_i H, via the cyclic chain."""
    ctx = module.ctx
    p, f = ctx.p, ctx.f
    sigma = module.sigma(i)
    L = ctx.op_lambda_gamma(gamma, sigma, H)
    if not L.is_zero() and L.val() < 0:
        raise PivotError("(lambda^Sigma gamma - 1)(H) has a pole; H is wrong")
    G = [None] * f
    G[i] = solve_phi_minus_one(ctx, module.C, sigma, L)
    k = (i - 1) % f
    while G[k] is None:
        # exact to p * order(G[k+1]); nothing reads a cocycle beyond the window M
        nxt = G[(k + 1) % f].substitute_power(p, ctx.M - (p - 1) * module.c[k]).shift((p - 1) * module.c[k])
        G[k] = nxt.scale(module.C) if k == 0 else nxt
        k = (k - 1) % f
    return ctx.tate(G)


def build_Bi(module: RankOneModule, i: int) -> Cocycle:
    """The basis cocycle B_i: mu_phi supported in component i with principal part H_i."""
    ctx = module.ctx
    if module.is_trivial_shape():
        raise NonBijectiveError("use build_trivial_basis for the trivial module")
    i = i % ctx.f
    H = build_H(module, i)
    mu_phi = ctx.tate_unit_vector(i, H)
    mu_gen = {"eta": _mu_gamma_from_H(module, i, H, ctx.eta)}
    if ctx.p == 2:
        mu_gen["xi"] = _mu_gamma_from_H(module, i, H, ctx.xi)
    return Cocycle(module, mu_phi, mu_gen, "B_%d" % i)


def build_Bi_prime(module: RankOneModule, i: int) -> Cocycle:
    """Normalized representative B_i' (f = 2, c_i = p-1) used by the boundedness proofs."""
    ctx = module.ctx
    p, f = ctx.p, ctx.f
    if f != 2 or module.c[i % 2] != p - 1 or p == 2:
        raise ValueError("build_Bi_prime needs p > 2, f = 2 and c_i = p - 1")
    i = i % 2
    j = 1 - i
    Bi = build_Bi(module, i)
    H = Bi.mu_phi[i]
    scale = module.C.inv() if i == 0 else ctx.field.one()
    kj_coeff = module.C if j == 0 else ctx.field.one()
    zero = ctx.zero_series(H.order)
    if module.c[j] < p - 2:
        # two-block case: b_j carries pi^(2-2p) + coefficients of h^(1)
        pairs = {2 - 2 * p: ctx.field.one()}
        for s in range(1, p - 1):
            pairs[2 - 2 * p + s] = H.coeff(1 - p * p + s * p)
        b = [None, None]
        b[i] = zero
        b[j] = LaurentSeries.from_pairs(ctx.field, pairs, H.order).scale(scale)
    else:
        # three-block case (c_j = p - 2)
        h2t = {2 - 2 * p: ctx.field.one()}
        for s in range(1, p - 1):
            h2t[2 - 2 * p + s] = H.coeff(1 - p**3 + s * p * p)
        eh1t = {}
        for s in range(0, p - 1):
            eh1t[3 - 3 * p + s] = H.coeff(1 + p - 2 * p * p + s * p)
        h1t = {}
        for s in range(1, p - 1):
            h1t[2 - 2 * p + s] = H.coeff(1 - p * p + s * p)
        b = [None, None]
        b[i] = LaurentSeries.from_pairs(ctx.field, h2t, H.order).scale(scale)
        bj = LaurentSeries.from_pairs(ctx.field, eh1t, H.order) + LaurentSeries.from_pairs(ctx.field, h1t, H.order)
        bj = bj.scale(scale)
        bj = bj + b[i].substitute_power(p, bj.order - (p - 1) * module.c[j]).shift((p - 1) * module.c[j]).scale(kj_coeff)
        b[j] = bj
    B = coboundary(module, ctx.tate(b))
    out = Bi - B
    out.label = "B_%d'" % i
    return out


# ---------------------------------------------------------------------------
# Exceptional constructions: cyclotomic B_tr and the trivial-module basis
# ---------------------------------------------------------------------------


def build_Btr(module: RankOneModule) -> Cocycle:
    """The tres-ramifiee class for the cyclotomic module (p > 2, C = 1, c = (p-2,...)).

    Built from the f = 1 cyclotomic presentation: h' with
    (chibar(eta) eta - 1)(h') in F(pi^-p - pi^-1) + pi F[[pi]] (normalization
    eps_{-p} = eps_{-1} = 0), then shifted into the M_{(p-2)} basis."""
    ctx = module.ctx
    p = ctx.p
    if p == 2 or not module.is_cyclotomic_shape():
        raise ValueError("build_Btr needs p > 2 and the cyclotomic module")
    chib = ctx.chi_eta % p

    def op(x, floor, order):
        return (chib * ctx.gamma_act_rows(ctx.eta, x, floor, order) - x) % p

    lo = 1 - 2 * p
    x, res = _image(op, lo, lo, 1)
    v = eliminate(op, p, x, res, lo, 1, skip=(-p, -1))
    if v is not None:
        raise PivotError("stuck outside the kept slots at exponent %d" % v)
    hprime = _series(ctx.field, lo, x)
    residual = ctx.gamma_act_series(ctx.eta, hprime).scale(chib) - hprime
    alpha = residual.coeff(-p)
    beta = residual.coeff(-1)
    if not alpha or beta != -alpha:
        raise PivotError("expected residual alpha(pi^-p - pi^-1); got alpha=%r beta=%r" % (alpha, beta))
    # (phi - 1) g' = residual with g' = alpha pi^-1 + tail
    tail = residual - (ctx.pi(-p, alpha) + ctx.pi(-1, beta))
    gprime = ctx.pi(-1, alpha) + solve_phi_unit_tail(ctx, tail, q=p)
    comp_phi = hprime.shift(2 - p)
    comp_eta = gprime.shift(2 - p)
    mu_phi = ctx.tate([comp_phi] * ctx.f)
    mu_gen = {"eta": ctx.tate([comp_eta] * ctx.f)}
    return Cocycle(module, mu_phi, mu_gen, "B_tr")


def _trivial_H(ctx: Context):
    """H = pi^(1-p) + eliminations with (eta - 1)(H) in nu + pi F[[pi]]; nu is the
    residual at pi^0, where the elimination sticks."""
    op = functools.partial(ctx.op_lambda_gamma_rows, ctx.eta, 0)
    lo = 1 - ctx.p
    x, res = _image(op, lo, lo, 1)
    v = eliminate(op, ctx.p, x, res, lo, 1)
    if v is not None and v < 0:
        raise PivotError("trivial-module elimination stuck at exponent %d" % v)
    return _series(ctx.field, lo, x), ctx.field.coerce(res[-lo])


def build_trivial_basis(module: RankOneModule):
    """[B_nr, B_0, ..., B_{f-1}] for the trivial module (plus B_tr when p = 2)."""
    ctx = module.ctx
    p, f = ctx.p, ctx.f
    if not module.is_trivial_shape():
        raise ValueError("build_trivial_basis needs C = 1, c = 0")
    H, _nu = _trivial_H(ctx)
    D = H - H.substitute_power(p)  # -H(pi^p) + H(pi)
    gens = ctx.generators()
    g_of = {}
    for name, gamma in gens:
        rhs = ctx.gamma_act_series(gamma, D) - D
        if not rhs.is_zero() and rhs.val() < 1:
            raise PivotError("(gamma - 1)(-H(pi^p) + H(pi)) is not in pi F[[pi]]")
        g_of[name] = solve_phi_unit_tail(ctx, rhs)
    basis = []
    mu_nr = ctx.tate_unit_vector(0, ctx.one_series(ctx.M))
    zero_gen = {name: ctx.tate_zero(ctx.M) for name, _ in gens}
    basis.append(Cocycle(module, mu_nr, zero_gen, "B_nr"))
    for i in range(f):
        mu_phi = ctx.tate_unit_vector(i, D)
        mu_gen = {}
        for name, gamma in gens:
            comps = [g_of[name].substitute_power(p ** ((i - k) % f), ctx.M) for k in range(f)]
            mu_gen[name] = ctx.tate(comps)
        basis.append(Cocycle(module, mu_phi, mu_gen, "B_%d" % i))
    if p == 2:
        mu_phi = ctx.tate_zero(ctx.M)
        ones = ctx.tate_const([1] * f)
        mu_gen = {"eta": ctx.tate_zero(ctx.M), "xi": ones}
        basis.append(Cocycle(module, mu_phi, mu_gen, "B_tr"))
    return basis


def build_Bcyc(module: RankOneModule) -> Cocycle:
    """B_cyc for the trivial module: mu_phi = 0, mu_gamma = nu n_gamma (1,...,1)."""
    ctx = module.ctx
    if not module.is_trivial_shape() or ctx.p == 2:
        raise ValueError("build_Bcyc needs p > 2 and the trivial module")
    _H, nu = _trivial_H(ctx)
    if not nu:
        raise PivotError("trivial-module nu vanished")
    mu_phi = ctx.tate_zero(ctx.M)
    mu_gen = {"eta": ctx.tate_const([nu] * ctx.f)}
    return Cocycle(module, mu_phi, mu_gen, "B_cyc")


class ModuleBasis:
    """The constructed basis of Ext^1(M_0, M), in coordinate order
    [B_0..B_{f-1}] then B_nr, then B_tr (when present)."""

    def __init__(self, module: RankOneModule):
        self.module = module
        self._residual_cache = {}
        ctx = module.ctx
        elements = []
        if module.is_trivial_shape():
            raw = build_trivial_basis(module)
            bn = {c.label: c for c in raw}
            elements = [bn["B_%d" % i] for i in range(ctx.f)] + [bn["B_nr"]]
            if ctx.p == 2:
                elements.append(bn["B_tr"])
        elif module.is_cyclotomic_shape() and ctx.p > 2:
            elements = [build_Bi(module, i) for i in range(ctx.f)] + [build_Btr(module)]
        else:
            elements = [build_Bi(module, i) for i in range(ctx.f)]
        self.elements = elements
        self.labels = tuple(c.label for c in elements)
        self.extent = _extent(module, elements)  # walked once, not on every span

    def __len__(self):
        return len(self.elements)

    def nbytes(self) -> int:
        """Bytes of the arrays the basis holds: its cocycles' series (with a derived
        mu_xi) and the span plans of its windows."""
        tates = [x for B in self.elements for x in (B.mu_phi, *B.mu_gen.values(), B._mu_xi_cache) if x is not None]
        series = {id(s.rows): s.rows.nbytes for x in tates for s in x.comps}
        return sum(series.values()) + sum(span.nbytes() for span in self._residual_cache.values())

    def ext_class(self, coords) -> ExtClass:
        return ExtClass(tuple(coords), self.labels)

    def combination(self, coords) -> Cocycle:
        out = None
        for c, B in zip(coords, self.elements):
            term = B.scale(c)
            out = term if out is None else out + term
        return out


_BASIS_CACHE = {}  # most recently used last
_BASIS_CACHE_BYTES = 3 << 20  # array bytes kept over all cached bases; the newest always stays
_COLUMN_CACHE = {}  # (ctx.key, chi(gamma), sigma, floor) -> {e: column on [floor, its top)}, most recently used last
_COLUMN_CACHE_BYTES = 1 << 20  # operator column bytes kept over all windows; the newest always stays


def _fit(cache: dict, size, budget: int):
    """Drop the least recently used entries of ``cache`` until the sizes of the rest
    total at most ``budget``; the newest entry (the last) always stays."""
    sizes = [size(v) for v in cache.values()]
    total = sum(sizes)
    for old, n in zip(list(cache)[:-1], sizes):
        if total <= budget:
            break
        del cache[old]
        total -= n


def basis_for(module: RankOneModule) -> ModuleBasis:
    """The cached basis of the module.  The cache is counted when a basis is built,
    never on a hit, and the least recently used bases go until it fits its bytes."""
    key = (module.ctx.key, module.C.index(), module.c)
    basis = _BASIS_CACHE.pop(key, None)
    _BASIS_CACHE[key] = ModuleBasis(module) if basis is None else basis
    if basis is None:
        _fit(_BASIS_CACHE, ModuleBasis.nbytes, _BASIS_CACHE_BYTES)
    return _BASIS_CACHE[key]


# ---------------------------------------------------------------------------
# Exact transport solve of (kappa_phi phi - 1)(b) = h and coboundary tests
# ---------------------------------------------------------------------------


class PhiTransport:
    """The exact solution b on a window of the componentwise rows
    C_i b_{i+1}[(e - (p-1)c_i)/p] - b_i[e] = h_i[e], a view of one
    ``tate.phi_transport`` solve; with a kernel (C = 1 and a fixed cycle e*) the
    cycle carries the value t."""

    def __init__(self, module: RankOneModule, h_comps, t=None, lo=0, hi=1):
        ctx = module.ctx
        self.module = module
        self.ctx = ctx
        self.h = list(h_comps)
        self.t = t
        self.estar = module.fixed_cycle()
        self.cyclic = self.estar is not None
        self.has_kernel = self.cyclic and module.C == ctx.field.one()
        self._solve(lo, hi)

    def _solve(self, lo: int, hi: int):
        """Solve on [lo, hi) widened to [1-p, 1), which makes it closed under sources."""
        ctx, module = self.ctx, self.module
        p, f = ctx.p, ctx.f
        self.lo, self.hi = min(lo, 1 - p), max(hi, 1)
        h = np.stack([c.coeff_rows(self.lo, self.hi) for c in self.h])[..., None]
        C = [module.kappa_phi_coeff(i) for i in range(f)]
        t = None if self.t is None else self.t.row()[:, None]
        b, obstruction = phi_transport(ctx.field, p, [(p - 1) * c for c in module.c], C, self.lo, self.hi, h, t=t)
        self.b = b[..., 0]
        self.cycle_violation = ctx.field.from_row(obstruction[:, 0]) if self.has_kernel else None

    def coeff(self, i: int, e: int) -> FieldElement:
        """The transported solution coefficient b_i[e], looked up in the solved window."""
        if not self.lo <= e < self.hi:
            self._solve(min(e, self.lo), max(e + 1, self.hi))
        return self.ctx.field.from_row(self.b[i % self.ctx.f, e - self.lo])

    def series(self, lo: int, hi: int):
        """The solution as a tuple of windowed series on [lo, hi)."""
        if lo < self.lo or hi > self.hi:
            self._solve(min(lo, self.lo), max(hi, self.hi))
        rows = self.b[:, lo - self.lo : hi - self.lo]
        return self.ctx.tate([LaurentSeries(self.ctx.field, lo, hi, r) for r in rows])

    def kernel_vector(self) -> TateElement:
        if not self.has_kernel:
            raise ValueError("no kernel in this configuration")
        return self.ctx.tate([self.ctx.pi(e) for e in self.estar])


class ResidualPlan:
    """What ``residual_system`` needs that depends only on the module and the window:
    b on [floor, Ub_i) (Ub defaults to theta_phi), transported below theta_phi_i.

    The transport window [lo, hi) holds every parameter and every source of a node in
    it; ``schedule`` is its ``tate.TransportSchedule``.  A phi row e lies in [phi_lo,
    theta_phi_i), phi_lo = p floor - max_i (p-1)c_i - 1, and the transport solves it
    exactly unless the coboundary's cut at the floor splits it from its source, so
    ``phi_rows[i]`` holds the crossing band, the only phi rows a system keeps besides
    those of its cocycles: e < floor with a source at or above the floor, e >= floor
    with a source in [lo, floor), and the fixed-cycle exponent e*_i, whose row carries
    the cycle obstruction.  A system adds the rows e < floor where a cocycle's mu_phi is
    nonzero; a coboundary window's floor is at or below its cocycles
    (``_coboundary_window``), so there the plan alone fixes the rows."""

    def __init__(self, module: RankOneModule, floor: int, theta_phi, Ub=None):
        ctx = module.ctx
        p, f = ctx.p, ctx.f
        Ub = theta_phi if Ub is None else Ub
        if max(Ub) > ctx.M:
            raise PrecisionError("window order %d is below the system thresholds" % ctx.M)
        self.shifts = [(p - 1) * ci for ci in module.c]
        estar = module.fixed_cycle()
        self.cycle_slot = estar is not None and all(e < t for e, t in zip(estar, theta_phi)) and module.C == ctx.field.one()
        self.lo, self.hi = lo, hi = min(floor, 1 - p, *theta_phi), max(Ub)
        Ci = [module.kappa_phi_coeff(i) for i in range(f)]
        self.schedule = TransportSchedule(ctx.field, p, self.shifts, Ci, lo, hi, free=theta_phi)
        self.phi_lo = p * floor - max(self.shifts) - 1
        self.phi_rows = []
        for i in range(f):
            e = np.arange(self.phi_lo, theta_phi[i])
            num = e - self.shifts[i]
            src = num // p
            cross = (num % p == 0) & (src >= lo) & (src < hi) & ((e < floor) == (src >= floor))
            if estar is not None:
                cross |= e == estar[i]
            self.phi_rows.append(e[cross])

    def nbytes(self) -> int:
        return self.schedule.nbytes() + sum(e.nbytes for e in self.phi_rows)


def _operator_columns(ctx: Context, gamma: GammaElement, sigmas, floor: int, top: int, supports) -> list:
    """Columns of (lambda_gamma^sigma gamma - 1) on [floor, top): for each sigma in
    ``sigmas``, the image of pi^e for each exponent e in its entry of ``supports``, one row
    each, in ``field.dtype``.  An image row depends only on the rows at or below it, so the
    column on [floor, top) is the first top - floor rows of any longer one: the columns of a
    floor are kept in ``_COLUMN_CACHE``, one entry per sigma, shared by every module with the
    same digits, and one shorter than a reader is rebuilt at its top and replaces it.  The
    missing ones of every sigma are built together: ``op_lambda_gamma_rows`` with one sigma
    per index of axis 1, on unit vectors, in groups of at most ``tate._WORK`` entries per sigma."""
    n = top - floor
    cache, missing = {}, {}
    for sigma, support in zip(sigmas, supports):
        if sigma not in cache:
            key = (ctx.key, gamma.chi_int, sigma, floor)
            cache[sigma] = _COLUMN_CACHE[key] = _COLUMN_CACHE.pop(key, {})
        missing.setdefault(sigma, {}).update((e, None) for e in support if len(cache[sigma].get(e, ())) < n)
    todo = {sigma: list(es) for sigma, es in missing.items() if es}
    if todo:
        width = max(1, _WORK // n)
        for j in range(0, max(map(len, todo.values())), width):
            groups = [es[j : j + width] for es in todo.values()]
            x = np.zeros((n, len(todo), max(map(len, groups))), dtype=np.int64)
            for k, group in enumerate(groups):
                x[np.array(group, dtype=np.int64) - floor, k, np.arange(len(group))] = 1
            img = ctx.op_lambda_gamma_rows(gamma, list(todo), x, floor, top)
            for k, (sigma, group) in enumerate(zip(todo, groups)):
                cache[sigma].update(zip(group, img[:, k, : len(group)].T.astype(ctx.field.dtype)))
        _fit(_COLUMN_CACHE, lambda c: sum(v.nbytes for v in c.values()), _COLUMN_CACHE_BYTES)
    return [np.array([cache[sigma][e][:n] for e in support]) for sigma, support in zip(sigmas, supports)]


def _gamma_rows_from_columns(ctx: Context, gamma: GammaElement, sigmas, x: np.ndarray, floor: int, top: int) -> np.ndarray:
    """``ctx.op_lambda_gamma_rows(gamma, sigmas, x, floor, top)`` for x of shape
    (top - floor, f, m, B), from cached operator columns (``_operator_columns``, one call
    for every component).  The operator is F_p-linear and acts on each digit column
    alone, so component i's image is its columns on S_i, the rows where x_i is nonzero,
    times those rows."""
    S = [np.flatnonzero(x[:, i].any(axis=(1, 2))) for i in range(len(sigmas))]
    live = [i for i in range(len(sigmas)) if S[i].size]
    cols = _operator_columns(ctx, gamma, [sigmas[i] for i in live], floor, top, [(S[i] + floor).tolist() for i in live])
    out = np.zeros(x.shape, dtype=np.int64)
    for i, c in zip(live, cols):
        out[:, i] = (c.T @ x[S[i], i].reshape(S[i].size, -1) % ctx.p).reshape(x.shape[0], *x.shape[2:])
    return out


def residual_system(module: RankOneModule, floor: int, theta_phi, theta_gen: dict, cocycles=(), Ub=None, params=(), kernel=False, plan: ResidualPlan = None) -> np.ndarray:
    """The residual matrix of 'E plus the coboundary of b vanishes below the
    thresholds', as F_p digit planes (rows, columns, m) in ``field.dtype``, built in one
    batched pass: one transport, the phi rows of the crossing band gathered by index
    arrays, the generator rows as products with cached operator columns on the rows
    where b is nonzero (``_gamma_rows_from_columns``).  ``plan`` is the
    ``ResidualPlan`` of (module, floor, theta_phi, Ub), built here when not given.

    b lives on [floor, Ub_i).  Below theta_phi_i it is transported from -mu_phi(E); a
    parameter (i, n), n >= theta_phi_i, is free.  Rows, only those the system fills,
    in increasing exponent within each block: for each component i the phi rows of
    the crossing band (``plan.phi_rows[i]``) and those below the floor where a
    cocycle's mu_phi is nonzero; the fixed-cycle obstruction slot (C = 1 and the cycle
    below theta_phi); then for each generator name and component i the rows on
    [floor, theta_gen[name][i]).  Columns: one per
    cocycle E, one per parameter (a unit coefficient), and with ``kernel`` one for
    the kernel line of the phi-transport (b = pi^e* on the fixed cycle)."""
    ctx = module.ctx
    field = ctx.field
    f, p, m = ctx.f, ctx.p, field.m
    plan = plan or ResidualPlan(module, floor, theta_phi, Ub)
    lo, hi, phi_lo = plan.lo, plan.hi, plan.phi_lo
    sigmas = module.sigmas()
    E = list(cocycles)
    nE, B = len(E), len(E) + len(params) + kernel
    h = np.zeros((f, hi - lo, m, B), dtype=np.int64)
    for k, c in enumerate(E):
        for i in range(f):
            h[i, : max(theta_phi[i] - lo, 0), :, k] = -c.mu_phi[i].coeff_rows(lo, theta_phi[i]) % p
    if params:
        comp, e = np.array(params).T
        h[comp, e - lo, 0, nE + np.arange(len(params))] = p - 1
    cycle_value = np.zeros((m, B), dtype=np.int64)
    cycle_value[0, nE + len(params) :] = 1  # the kernel column
    b, obstruction = plan.schedule.fill(h, cycle_value)
    del h
    b[:, : floor - lo] = 0  # the coboundary is b on [floor, Ub)
    blocks = []
    for i in range(f):
        n = max(theta_phi[i] - phi_lo, 0)
        mu = np.array([c.mu_phi[i].coeff_rows(phi_lo, theta_phi[i]) for c in E], dtype=np.int64).reshape(nE, n, m)
        pos = plan.phi_rows[i] - phi_lo
        below = mu[:, : floor - phi_lo].any(axis=(0, 2))
        if below.any():
            pos = np.union1d(pos, np.flatnonzero(below))
        e = phi_lo + pos
        src = (e - plan.shifts[i]) // p
        ok = ((e - plan.shifts[i]) % p == 0) & (src >= lo) & (src < hi)
        own = e >= floor  # b vanishes below the floor
        rows = np.zeros((len(e), m, B), dtype=np.int64)
        rows[ok] = plan.schedule.Cm[i] @ b[(i + 1) % f, src[ok] - lo]
        rows[own] -= b[i, e[own] - lo]
        rows[:, :, :nE] += mu[:, pos].transpose(1, 2, 0)
        blocks.append(rows)
    if plan.cycle_slot:
        blocks.append(obstruction[None])
    blocks = [(x % p).transpose(0, 2, 1).astype(field.dtype) for x in blocks]
    for name, theta in theta_gen.items():
        top = max(floor + 1, *theta)  # one batch on [floor, top): an image row depends only on rows at or below it
        gamma = ctx.eta if name == "eta" else ctx.xi
        x = b[:, floor - lo : top - lo].transpose(1, 0, 2, 3)  # components on axis 1
        img = _gamma_rows_from_columns(ctx, gamma, sigmas, x, floor, top)
        mus = [c.mu_xi(max(top, 1)) if name == "xi" else c.mu_gen[name] for c in E]  # a pole series needs its rows up to pi^0
        for i in range(f):
            for j, mu in enumerate(mus):
                img[: max(theta[i] - floor, 0), i, :, j] += mu.comps[i].coeff_rows(floor, theta[i])
        img %= p
        blocks += [img[: max(t - floor, 0), i].transpose(0, 2, 1).astype(field.dtype) for i, t in enumerate(theta)]
    return np.concatenate(blocks)


def _extent(module: RankOneModule, cocycles, extent=None):
    """(low, order) for the coboundary window of some cocycles: low at most 0, every
    component's lowest exponent and ``extent[0]``, order at most every component's order
    and ``extent[1]``.  ``extent`` stands for further cocycles already walked (a basis
    keeps its own, ``ModuleBasis.extent``); by default it is one below the fixed cycle."""
    if extent is None:
        extent = (min([0] + [e - 1 for e in module.fixed_cycle() or ()]), INF)
    comps = [x for c in cocycles for y in (c.mu_phi, *c.mu_gen.values()) for x in y.comps]
    return min([extent[0]] + [x.low for x in comps]), min([extent[1]] + [x.order for x in comps])


def _coboundary_window(module: RankOneModule, cocycles, floor=None, extent=None):
    """(floor, hi) of the coboundary residuals of some cocycles.  The floor is at most
    0, every component's lowest exponent, one below the fixed cycle, and ``floor``;
    hi is at most every component's order, M, max(4p^2, -4 floor) and M + floor (so
    lambda's rows stay in its window).  ``extent`` is as in ``_extent``."""
    ctx = module.ctx
    low, order = _extent(module, cocycles, extent)
    fl = int(low if floor is None else min(low, floor))
    hi = int(min(ctx.M, max(4 * ctx.p**2, -4 * fl), ctx.M + fl, order))
    if hi < 2:  # the fixed cycle lies at or below 0
        raise PrecisionError("residual window [%d, %d) too small to be conclusive" % (fl, hi))
    return fl, hi


def _coboundary_system(module: RankOneModule, fl: int, hi: int, cocycles, kernel=True, plan: ResidualPlan = None) -> np.ndarray:
    """``residual_system`` with every threshold at hi, for the generators of the
    context; with ``kernel``, plus the kernel column when the module has a kernel line
    (C = 1 and a fixed cycle)."""
    ctx = module.ctx
    theta = [hi] * ctx.f
    kernel = kernel and module.C == ctx.field.one() and module.fixed_cycle() is not None
    return residual_system(module, fl, theta, {name: theta for name, _ in ctx.generators()}, cocycles, kernel=kernel, plan=plan)


@dataclass
class SpanPlan:
    """The entry of ``ModuleBasis._residual_cache`` for one coboundary window: the
    window's ``ResidualPlan``, the rows that the basis columns (and the kernel
    column) reach, and those columns on them, factored.  A later span decomposition
    in the window builds only its target column and solves it with two mat-vecs mod p."""

    plan: ResidualPlan
    rows: np.ndarray
    columns: Factored

    def nbytes(self) -> int:
        return self.plan.nbytes() + self.rows.nbytes + self.columns.nbytes()


@dataclass
class CoboundaryResult:
    status: str  # 'yes' | 'no' | 'inconclusive'
    witness: TateElement = None
    reason: str = ""
    checked_to: int = 0

    def __bool__(self):
        return self.status == "yes"


def is_coboundary(c: Cocycle, floor: int = None) -> CoboundaryResult:
    """Decide whether c is a coboundary; on success the witness b is returned.

    The residual of c plus the coboundary of its transported b vanishes exactly
    when c is a coboundary with a witness in the window; on a kernel line the
    parameter t of the witness is fitted first.  Failure is certified by a nonzero
    phi row (an infinite descending tail), the fixed-cycle obstruction, or a
    nonzero gamma residual."""
    module = c.module
    ctx = module.ctx
    try:
        fl, hi = _coboundary_window(module, [c], floor)
        A = _coboundary_system(module, fl, hi, [c])
        t = None
        if A.shape[1] > 1:  # a kernel line: fit its parameter t on the rows that either column reaches
            A = A[A.any(axis=(1, 2))]
            sol = gf(ctx.field).solve(A[:, 1:], A[:, 0])
            if sol is None:
                return CoboundaryResult("no", reason="residual outside the kernel line", checked_to=hi)
            t = ctx.field.from_row(sol[0])
        elif A.any():
            return CoboundaryResult("no", reason="nonzero residual functional", checked_to=hi)
        tr = PhiTransport(module, list(c.mu_phi.comps), t=t, lo=fl, hi=hi)
        return CoboundaryResult("yes", witness=tr.series(fl, hi), checked_to=hi)
    except PrecisionError as exc:
        return CoboundaryResult("inconclusive", reason=str(exc))


def span_decompose(c: Cocycle, basis: ModuleBasis = None):
    """Coordinates beta with c - sum beta_k B_k a coboundary, or None (NotInSpan).
    The first target of a window is built in one pass with the residual columns of the
    basis (and of the kernel line), which are factored and kept with the window's
    residual plan (``SpanPlan``); a later target is one more column on that plan."""
    module = c.module
    basis = basis or basis_for(module)
    ctx = module.ctx
    key = _coboundary_window(module, [c], extent=basis.extent)
    span = basis._residual_cache.get(key)
    if span is None:
        plan = ResidualPlan(module, key[0], [key[1]] * ctx.f)
        target, A = np.split(_coboundary_system(module, *key, [c, *basis.elements], plan=plan), [1], axis=1)
        rows = A.any(axis=(1, 2))  # most rows vanish on every column
        span = basis._residual_cache[key] = SpanPlan(plan, rows, Factored(gf(ctx.field), A[rows]))
    else:
        target = _coboundary_system(module, *key, [c], kernel=False, plan=span.plan)
    target = target[:, 0]
    if target[~span.rows].any():  # a residual that no column reaches
        return None
    sol = span.columns.solve(target[span.rows])
    if sol is None:
        return None
    return basis.ext_class(tuple(ctx.field.from_row(v) for v in sol[: len(basis)]))


def random_cocycle(module: RankOneModule, rng, depth=None) -> Cocycle:
    """A random cocycle: a random basis combination plus a random coboundary.

    (A generic random mu_phi does not extend to a cocycle: the transport
    equation has genuine Laurent obstructions, which is why the constructions
    engineer principal parts whose gamma-image stays in F[[pi]].)"""
    ctx = module.ctx
    f = ctx.f
    depth = depth or 2 * ctx.p
    basis = basis_for(module)
    coords = [ctx.field.random_element(rng) for _ in basis.elements]
    comb = basis.combination(coords)
    b = ctx.tate(
        [
            LaurentSeries.from_pairs(
                ctx.field,
                {e: ctx.field.random_element(rng) for e in range(-depth, ctx.p)},
                ctx.M,
            )
            for _ in range(f)
        ]
    )
    return comb + coboundary(module, b, "rand")
