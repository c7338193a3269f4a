"""Cocycles for Ext^1(M_0, M_{C,c}) and the explicit basis constructions.

A cocycle is a pair (mu_phi, mu_gamma at the stored Gamma generators) subject
to the compatibility (dagger): (kappa_phi phi - 1)(mu_gamma) =
(kappa_gamma gamma - 1)(mu_phi), and the chain rule (ddagger) extending mu to
words.  Basis elements B_i are built by greedy valuation elimination against
(lambda_eta^Sigma eta - 1), with deeper rescue blocks when the elimination
sticks at an exponent divisible by p - 1; the exceptional bases (trivial and
cyclotomic modules) get their own constructions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldElement
from .series import LaurentSeries, PrecisionError
from .tate import Context, GammaElement, NonBijectiveError, TateElement, solve_phi_minus_one, solve_phi_unit_tail
from .rankone import RankOneModule
from .gflinalg import gf


class PivotError(AssertionError):
    """A pivot the paper proves nonzero vanished; indicates a genuine bug."""


class Cocycle:
    """(mu_phi, mu at stored generators) for Ext^1(M_0, M_{C,c})."""

    __slots__ = ("module", "mu_phi", "mu_gen", "label", "_mu_xi_cache")

    def __init__(self, module: RankOneModule, mu_phi: TateElement, mu_gen: dict, label: str = ""):
        self.module = module
        self.mu_phi = mu_phi
        self.mu_gen = dict(mu_gen)
        self.label = label
        self._mu_xi_cache = None

    @property
    def ctx(self) -> Context:
        return self.module.ctx

    def mu_eta(self) -> TateElement:
        return self.mu_gen["eta"]

    def mu_xi(self) -> TateElement:
        """mu at xi = eta^(p-1) (stored for p = 2, derived by the chain rule else)."""
        if "xi" in self.mu_gen:
            return self.mu_gen["xi"]
        if self._mu_xi_cache is None:
            self._mu_xi_cache = self.mu_at_eta_power(self.ctx.p - 1)
        return self._mu_xi_cache

    def mu_at_eta_power(self, k: int) -> TateElement:
        """mu_{eta^k} via mu_{gamma gamma'} = kappa_gamma gamma(mu_{gamma'}) + mu_gamma."""
        ctx = self.ctx
        if k < 1:
            raise ValueError("need k >= 1")
        mu = self.mu_eta()
        gamma = ctx.eta
        kappa = self.module.kappa_gamma(ctx.eta)
        for _ in range(k - 1):
            mu = kappa * ctx.gamma_act(ctx.eta, mu) + self.mu_eta()
            # accumulate gamma = eta^j on the left: kappa stays kappa_gamma(eta)
        return mu

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


def coboundary(module: RankOneModule, b: TateElement, label: str = "cob") -> Cocycle:
    """The coboundary (kappa_phi phi(b) - b, (kappa_gamma gamma(b) - b))."""
    ctx = module.ctx
    mu_phi = module.kappa_phi() * ctx.phi_act(b) - b
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
    kphi = module.kappa_phi()

    def dagger(gamma: GammaElement, mu_g: TateElement, tag: str):
        nonlocal ok, max_exp
        lhs = kphi * ctx.phi_act(mu_g) - mu_g
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


def _pivot_block(module: RankOneModule, sigma: int, j: int):
    """The rescue block h'^(j): principal pi^(1 + p^j - 2 p^(j+1)), eliminated on
    its p^j grid until the residual sits at the pivot exponent 1 - p^(j+1).

    Returns (block, residual); the pivot coefficient nu' is residual at the
    stuck exponent and is asserted nonzero (Props on the modified construction)."""
    ctx = module.ctx
    p = ctx.p
    stuck = 1 - p ** (j + 1)
    e0 = 1 + p**j - 2 * p ** (j + 1)
    block = ctx.pi(e0)
    residual = ctx.op_lambda_gamma_monomial(ctx.eta, sigma, e0)
    while True:
        v = residual.val()
        if v is None or v >= 0:
            raise PivotError("rescue block residual skipped the pivot exponent %d" % stuck)
        if v == stuck:
            break
        if v % (p - 1) == 0:
            raise PivotError("rescue block stuck at unexpected exponent %d" % v)
        q = ctx.op_lambda_gamma_monomial(ctx.eta, sigma, v)
        if q.val() != v:
            raise PivotError("elimination image lost its leading term at %d" % v)
        coef = residual.coeff(v) / q.coeff(v)
        block = block - ctx.pi(v, coef)
        residual = residual - q.scale(coef)
    if not residual.coeff(stuck):
        raise PivotError("pivot nu' vanishes at exponent %d" % stuck)
    return block, residual


def build_H(module: RankOneModule, i: int, collect_pivots=None) -> LaurentSeries:
    """The principal part H_i with (lambda_eta^Sigma_i eta - 1)(H_i) in F[[pi]].

    Greedy elimination from the deepest exponent up; exponents divisible by
    p - 1 cannot self-eliminate and are cancelled against a rescue block."""
    ctx = module.ctx
    p = ctx.p
    sigma = module.sigma(i)
    r = _chain_length(module, i)
    if p == 2:
        return _build_H_p2(module, i, r)
    e0 = 1 - p ** (r + 2)
    H = ctx.pi(e0)
    residual = ctx.op_lambda_gamma_monomial(ctx.eta, sigma, e0)
    guard = 0
    last_v = None
    while True:
        v = residual.val()
        if v is None or v >= 0:
            break
        if last_v is not None and v <= last_v:
            raise PivotError("elimination failed to increase the minimal exponent")
        last_v = v
        guard += 1
        if guard > 4 * p ** (r + 2):
            raise PivotError("elimination did not terminate")
        if v % (p - 1) == 0:
            # stuck exponent must be 1 - p^(j+1) for some rescue level j <= r
            j = 0
            while 1 - p ** (j + 1) != v and j <= r:
                j += 1
            if j > r:
                raise PivotError("stuck at exponent %d outside the rescue schedule" % v)
            block, block_res = _pivot_block(module, sigma, j)
            if collect_pivots is not None:
                collect_pivots.append((j, residual.coeff(v), block_res.coeff(v)))
            coef = residual.coeff(v) / block_res.coeff(v)
            H = H - block.scale(coef)
            residual = residual - block_res.scale(coef)
        else:
            q = ctx.op_lambda_gamma_monomial(ctx.eta, sigma, v)
            if q.val() != v:
                raise PivotError("elimination image lost its leading term at %d" % v)
            coef = residual.coeff(v) / q.coeff(v)
            H = H - ctx.pi(v, coef)
            residual = residual - q.scale(coef)
    return H


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
        nxt = G[(k + 1) % f].substitute_power(p).shift((p - 1) * module.c[k])
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
        bj = bj + b[i].substitute_power(p).shift((p - 1) * module.c[j]).scale(kj_coeff)
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
    chib = ctx.chibar(ctx.eta)

    def op(s):
        return ctx.gamma_act_series(ctx.eta, s).scale(chib) - s

    e0 = 1 - 2 * p
    hprime = ctx.pi(e0)
    residual = op(hprime)
    kept = {-p, -1}
    while True:
        v = residual.val()
        if v is None or v >= 1:
            break
        cand = [e for e in range(v, 1) if e not in kept and residual.coeff(e)]
        if not cand:
            break
        e = cand[0]
        if (e + 1) % (p - 1) == 0:
            raise PivotError("stuck outside the kept slots at exponent %d" % e)
        q = op(ctx.pi(e))
        if q.val() != e:
            raise PivotError("cyclotomic elimination lost its pivot at %d" % e)
        coef = residual.coeff(e) / q.coeff(e)
        hprime = hprime - ctx.pi(e, coef)
        residual = residual - q.scale(coef)
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
    """H = pi^(1-p) + eliminations with (eta - 1)(H) in nu + pi F[[pi]], nu != 0."""
    p = ctx.p

    def op(s):
        return ctx.gamma_act_series(ctx.eta, s) - s

    if p == 2:
        H = ctx.pi(-1)
        residual = op(H)
        v = residual.val()
        if v is not None and v < 0:
            raise PivotError("p=2 trivial H not integral")
        return H, residual.coeff(0) if residual.known(0) else ctx.field.zero()
    H = ctx.pi(1 - p)
    residual = op(H)
    while True:
        v = residual.val()
        if v is None or v >= 0:
            break
        q = op(ctx.pi(v))
        if q.val() != v:
            raise PivotError("trivial-module elimination lost its pivot at %d" % v)
        coef = residual.coeff(v) / q.coeff(v)
        H = H - ctx.pi(v, coef)
        residual = residual - q.scale(coef)
    nu = residual.coeff(0)
    if not nu:
        raise PivotError("trivial-module nu vanished")
    return H, nu


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
            comps = [g_of[name].substitute_power(p ** ((i - k) % f)) for k in range(f)]
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

    def __len__(self):
        return len(self.elements)

    def ext_class(self, coords) -> ExtClass:
        return ExtClass(tuple(coords), self.labels)

    def combination(self, coords) -> Cocycle:
        out = None
        for c, B in zip(coords, self.elements):
            term = B.scale(c)
            out = term if out is None else out + term
        return out


_BASIS_CACHE = {}


def basis_for(module: RankOneModule) -> ModuleBasis:
    key = (module.ctx.key, module.C.index(), module.c)
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = ModuleBasis(module)
    return _BASIS_CACHE[key]


# ---------------------------------------------------------------------------
# Exact transport solve of (kappa_phi phi - 1)(b) = h and coboundary tests
# ---------------------------------------------------------------------------


class PhiTransport:
    """Memoized exact solve of the componentwise rows
    C_i b_{i+1}[(e - (p-1)c_i)/p] - b_i[e] = h_i[e]."""

    def __init__(self, module: RankOneModule, h_comps, t=None):
        ctx = module.ctx
        self.module = module
        self.ctx = ctx
        self.h = list(h_comps)
        self.p, self.f = ctx.p, ctx.f
        self.shift = [(ctx.p - 1) * module.c[i] for i in range(ctx.f)]
        one = ctx.field.one()
        self.Ci = [module.C if i == 0 else one for i in range(ctx.f)]
        q1 = ctx.p**ctx.f - 1
        sig = module.sigmas()
        self.cyclic = all((ctx.p - 1) * s % q1 == 0 for s in sig)
        self.estar = tuple(-(ctx.p - 1) * s // q1 for s in sig) if self.cyclic else None
        self.has_kernel = self.cyclic and module.C == one
        self.cycle_violation = None
        self.t = t if t is not None else ctx.field.zero()
        self.memo = {}
        if self.cyclic:
            self._solve_cycle()

    def _solve_cycle(self):
        field = self.ctx.field
        one = field.one()
        # u_i = C_i u_{i+1} - h_i[e*_i]; going around: (C - 1) u_0 = sum of prefix-weighted h values
        hvals = [self._h(i, self.estar[i]) for i in range(self.f)]
        acc = field.zero()
        pref = one
        for i in range(self.f):
            acc = acc + pref * hvals[i]
            pref = pref * self.Ci[i]
        if self.has_kernel:
            self.cycle_violation = acc
            u0 = self.t if not acc else field.zero()
        else:
            u0 = acc / (self.module.C - one)
        u = [None] * self.f
        u[0] = u0
        # forward: u_{i+1} = (u_i + h_i) / C_i
        for i in range(self.f - 1):
            u[i + 1] = (u[i] + hvals[i]) / self.Ci[i]
        for i in range(self.f):
            self.memo[(i, self.estar[i])] = u[i]

    def _h(self, i: int, e: int) -> FieldElement:
        return self.h[i].coeff(e)

    def coeff(self, i: int, e: int) -> FieldElement:
        """The unique transported solution coefficient b_i[e] (with the cycle value
        fixed as above)."""
        key = (i, e)
        if key in self.memo:
            return self.memo[key]
        stack = [key]
        while stack:
            i2, e2 = stack[-1]
            if (i2, e2) in self.memo:
                stack.pop()
                continue
            src_num = e2 - self.shift[i2]
            nxt = (i2 + 1) % self.f
            if src_num % self.p != 0:
                self.memo[(i2, e2)] = -self._h(i2, e2)
                stack.pop()
                continue
            src = src_num // self.p
            if (nxt, src) in self.memo:
                val = self.Ci[i2] * self.memo[(nxt, src)] - self._h(i2, e2)
                self.memo[(i2, e2)] = val
                stack.pop()
            else:
                stack.append((nxt, src))
        return self.memo[key]

    def min_head_order(self) -> int:
        return int(min(min(h.order for h in self.h), self.ctx.M))

    def series(self, lo: int, hi: int):
        """The solution as a tuple of windowed series on [lo, hi)."""
        out = []
        for i in range(self.f):
            rows = np.zeros((hi - lo, self.ctx.field.m), dtype=np.int64)
            for e in range(lo, hi):
                v = self.coeff(i, e)
                if v:
                    rows[e - lo] = v.row()
            out.append(LaurentSeries(self.ctx.field, lo, hi, rows))
        return self.ctx.tate(out)

    def kernel_vector(self) -> TateElement:
        if not self.has_kernel:
            raise ValueError("no kernel in this configuration")
        return self.ctx.tate([self.ctx.pi(self.estar[i]) for i in range(self.f)])


@dataclass
class TailLayout:
    """Fixed functional layout for coboundary residual vectors over one module."""

    module: RankOneModule
    floor_ref: int
    band_lo: int
    res_hi: int

    @classmethod
    def for_cocycles(cls, module: RankOneModule, cocycles, extra_floor=None):
        ctx = module.ctx
        floors = [0]
        orders = [ctx.M]
        for c in cocycles:
            for comp in list(c.mu_phi.comps) + [x for mg in c.mu_gen.values() for x in mg.comps]:
                floors.append(min(comp.low, 0))
                orders.append(comp.order)
        fl = min(floors)
        if extra_floor is not None:
            fl = min(fl, extra_floor)
        probe = PhiTransport(module, [ctx.zero_series(ctx.M)] * ctx.f)
        if probe.cyclic:
            fl = min([fl] + [e - 1 for e in probe.estar])
        fl = int(fl)
        band_lo = ctx.p * fl - max((ctx.p - 1) * ci for ci in module.c) - 1 if fl < 0 else 0
        res_hi = int(min(min(orders), ctx.M, max(4 * ctx.p * ctx.p, -4 * fl)))
        return cls(module, fl, band_lo, res_hi)

    def slots(self):
        f = self.module.f
        crossing = [(i, e) for i in range(f) for e in range(self.band_lo, self.floor_ref)]
        return crossing


class _ResidualData:
    """Residual functionals of the coboundary equation for one cocycle: the
    crossing-band values, the cycle obstruction, and the gamma residual series
    (kept as series so that a common reliable window can be chosen later)."""

    __slots__ = ("cross", "cycle", "rhos", "min_order")

    def __init__(self, cross, cycle, rhos):
        self.cross = cross
        self.cycle = cycle
        self.rhos = rhos
        self.min_order = int(min(min(comp.order for comp in rho.comps) for rho in rhos)) if rhos else None

    def vector(self, G, lo, hi):
        pieces = [self.cross]
        if self.cycle is not None:
            pieces.append(np.array([self.cycle], dtype=np.int64))
        for rho in self.rhos:
            for comp in rho.comps:
                pieces.append(G.encode_rows(comp.coeff_rows(lo, hi)))
        return np.concatenate(pieces)


def _residual_data(layout: TailLayout, c: Cocycle, t_probe=False) -> _ResidualData:
    """Linear in c (and in the kernel parameter t); identically zero iff c is a
    coboundary whose witness lies in the probed window."""
    module = layout.module
    ctx = module.ctx
    f = ctx.f
    if t_probe:
        tr = PhiTransport(module, [ctx.zero_series(ctx.M)] * f, t=ctx.field.one())
        if not tr.has_kernel:
            raise ValueError("no kernel to probe")
    else:
        tr = PhiTransport(module, list(c.mu_phi.comps))
    # crossing band: nonzero values here certify an infinite descending tail
    cross = []
    est = tr.estar if tr.cyclic else None
    for i, e in layout.slots():
        if est is not None and e == est[i]:
            cross.append(0)
            continue
        cross.append(tr.coeff(i, e).index())
    cross = np.array(cross, dtype=np.int64)
    cycle = None
    if tr.has_kernel:
        cycle = tr.cycle_violation.index() if tr.cycle_violation is not None else 0
    b = tr.series(layout.floor_ref, layout.res_hi)
    rhos = []
    for name, gamma in ctx.generators():
        kg = module.kappa_gamma(gamma)
        rho = kg * ctx.gamma_act(gamma, b) - b
        if not t_probe:
            rho = rho - c.mu_gen[name]
        rhos.append(rho)
    return _ResidualData(cross, cycle, rhos)


def _residual_matrix(layout: TailLayout, datas):
    """Stack residual vectors on the common reliable window; returns (A, hi)."""
    ctx = layout.module.ctx
    G = gf(ctx.field)
    hi = min([layout.res_hi] + [d.min_order for d in datas if d.min_order is not None])
    est = PhiTransport(layout.module, [ctx.zero_series(ctx.M)] * ctx.f).estar
    needed = 1 + max([1] + ([e for e in est] if est else []))
    if hi < needed:
        raise PrecisionError("residual window [%d, %d) too small to be conclusive" % (layout.floor_ref, hi))
    return np.stack([d.vector(G, layout.floor_ref, hi) for d in datas], axis=1), hi


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

    The phi-equation is solved exactly by exponent transport; failure is
    certified either by an infinite descending tail, by the fixed-cycle
    obstruction, or by a nonzero gamma residual."""
    module = c.module
    ctx = module.ctx
    Gf = gf(ctx.field)
    try:
        layout = TailLayout.for_cocycles(module, [c], extra_floor=floor)
        data = _residual_data(layout, c)
        tr = PhiTransport(module, list(c.mu_phi.comps))
        if tr.has_kernel:
            kdata = _residual_data(layout, c, t_probe=True)
            A, hi = _residual_matrix(layout, [data, kdata])
            target, kcol = A[:, 0], A[:, 1]
            sol, _ = Gf.solve(kcol.reshape(-1, 1), Gf.NEG[target].astype(np.int64))
            if sol is None:
                return CoboundaryResult("no", reason="residual outside the kernel line", checked_to=hi)
            t = ctx.field.from_index(int(sol[0]))
            tr2 = PhiTransport(module, list(c.mu_phi.comps), t=t)
            if tr2.cycle_violation is not None and tr2.cycle_violation:
                return CoboundaryResult("no", reason="cycle obstruction", checked_to=hi)
            b = tr2.series(layout.floor_ref, hi)
            return CoboundaryResult("yes", witness=b, checked_to=hi)
        A, hi = _residual_matrix(layout, [data])
        if A.any():
            return CoboundaryResult("no", reason="nonzero residual functional", checked_to=hi)
        b = tr.series(layout.floor_ref, hi)
        return CoboundaryResult("yes", witness=b, checked_to=hi)
    except PrecisionError as exc:
        return CoboundaryResult("inconclusive", reason=str(exc))


def span_decompose(c: Cocycle, basis: ModuleBasis = None):
    """Coordinates beta with c - sum beta_k B_k a coboundary, or None (NotInSpan)."""
    module = c.module
    basis = basis or basis_for(module)
    ctx = module.ctx
    Gf = gf(ctx.field)
    layout = TailLayout.for_cocycles(module, [c] + list(basis.elements))
    target_data = _residual_data(layout, c)
    key = (layout.floor_ref, layout.band_lo, layout.res_hi)
    if key not in basis._residual_cache:
        datas = [_residual_data(layout, B) for B in basis.elements]
        if PhiTransport(module, [ctx.zero_series(ctx.M)] * ctx.f).has_kernel:
            datas.append(_residual_data(layout, basis.elements[0], t_probe=True))
        basis._residual_cache[key] = datas
    datas = basis._residual_cache[key]
    A, hi = _residual_matrix(layout, datas + [target_data])
    target = A[:, -1]
    A = A[:, :-1]
    sol, _null = Gf.solve(A, target)
    if sol is None:
        return None
    coords = tuple(ctx.field.from_index(int(v)) for v in sol[: len(basis)])
    return basis.ext_class(coords)


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
