"""Rank-one modules M_{C,c}, their kappa data, and weight-profile combinatorics.

A rank-one module is determined by a nonzero constant C and a digit vector c
in normal form (0 <= c_i <= p-1, some c_i < p-1).  The phi matrix is
(C pi^((p-1)c_0), pi^((p-1)c_1), ...) and the Gamma matrix the corresponding
lambda powers; two modules are isomorphic iff C and Sigma_0(c) mod p^f - 1 agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .field import FieldElement
from .series import INF
from .tate import Context, GammaElement, TateElement


class RankOneModule:
    """M_{C,c} over a fixed context."""

    __slots__ = ("ctx", "C", "c")

    def __init__(self, ctx: Context, C, c):
        self.ctx = ctx
        self.C = ctx.field.coerce(C)
        if not self.C:
            raise ValueError("C must be nonzero")
        c = tuple(int(x) for x in c)
        if len(c) != ctx.f:
            raise ValueError("digit vector must have length f = %d" % ctx.f)
        p = ctx.p
        if not all(0 <= ci <= p - 1 for ci in c):
            raise ValueError("digits must lie in [0, p-1]")
        if all(ci == p - 1 for ci in c):
            raise ValueError("not in normal form: all digits equal p-1")
        self.c = c

    @property
    def f(self):
        return self.ctx.f

    @property
    def p(self):
        return self.ctx.p

    def sigma(self, l: int) -> int:
        """Sigma_l(c) = sum_j c_{l+j} p^j (indices mod f)."""
        return sigma_twisted(self.c, l, self.p)

    def sigmas(self):
        return tuple(self.sigma(l) for l in range(self.f))

    def fixed_cycle(self):
        """The exponents e*_i = -(p-1) Sigma_i / (p^f - 1) of the phi-transport's
        fixed cycle, or None when they are not integers."""
        p, q1 = self.p, self.p**self.f - 1
        if any((p - 1) * s % q1 for s in self.sigmas()):
            return None
        return tuple(-(p - 1) * s // q1 for s in self.sigmas())

    def is_trivial_shape(self) -> bool:
        """C = 1 and c = 0 (the module of the trivial character)."""
        return self.C == self.ctx.field.one() and all(ci == 0 for ci in self.c)

    def is_cyclotomic_shape(self) -> bool:
        """C = 1 and c = (p-2, ..., p-2) (the mod p cyclotomic character)."""
        return self.C == self.ctx.field.one() and all(ci == self.p - 2 for ci in self.c)

    def is_exceptional(self) -> bool:
        return self.is_trivial_shape() or self.is_cyclotomic_shape()

    def ext_dim(self) -> int:
        """dim Ext^1(M_0, M_{C,c}): f generically, f+1 in the exceptional cases
        (f+2 for the trivial module when p = 2, where the two coincide)."""
        if self.p == 2:
            return self.f + 2 if self.is_trivial_shape() else self.f
        return self.f + 1 if self.is_exceptional() else self.f

    def kappa_phi(self) -> TateElement:
        ctx = self.ctx
        comps = []
        for i in range(self.f):
            coeff = self.C if i == 0 else 1
            comps.append(ctx.pi((self.p - 1) * self.c[i], coeff))
        return ctx.tate(comps)

    def kappa_phi_coeff(self, i: int) -> FieldElement:
        return self.C if i % self.f == 0 else self.ctx.field.one()

    def kappa_gamma(self, gamma: GammaElement, order=INF) -> TateElement:
        """(lambda_gamma^Sigma_l)_l below min(order, M); a component may reach further
        (``Context.lambda_pow_below``)."""
        ctx = self.ctx
        return ctx.tate([ctx.lambda_pow_below(gamma, self.sigma(l), order) for l in range(self.f)])

    def __eq__(self, other):
        return isinstance(other, RankOneModule) and self.C == other.C and self.c == other.c

    def __hash__(self):
        return hash((self.C, self.c))

    def __repr__(self):
        return "M(C=%r, c=%s)" % (self.C, list(self.c))


def sigma_twisted(c, l: int, p: int) -> int:
    f = len(c)
    return sum(c[(l + j) % f] * p**j for j in range(f))


def normal_form(ctx: Context, C, n: int) -> RankOneModule:
    """The unique normal-form module with constant C and Sigma_0 = n mod p^f - 1."""
    p, f = ctx.p, ctx.f
    n = n % (p**f - 1)
    digits = []
    v = n
    for _ in range(f):
        digits.append(v % p)
        v //= p
    return RankOneModule(ctx, C, digits)


def is_isomorphic(a: RankOneModule, b: RankOneModule) -> bool:
    q1 = a.p ** a.f - 1
    return a.C == b.C and (a.sigma(0) - b.sigma(0)) % q1 == 0


def kappa(module: RankOneModule, gamma: GammaElement):
    """The pair (kappa_phi, kappa_gamma) of the module at gamma."""
    return module.kappa_phi(), module.kappa_gamma(gamma)


def fundamental_character_exponents(module: RankOneModule):
    """Exponent of omega_{tau_i} on inertia: -c_{i-1 mod f}, in (-p^f + 1, 0]."""
    f = module.f
    return tuple(-module.c[(i - 1) % f] for i in range(f))


@dataclass(frozen=True)
class WeightProfile:
    """A solution (a, b) of the weight congruence for a subset J of S.

    a_i in [1, p] for i in J (else 0); b_i in [1, p] for i not in J (else 0);
    sign is 'unique', 'plus' (all a_i = p, b_j = 1) or 'minus' (all a_i = 1, b_j = p).
    """

    J: tuple
    a: tuple
    b: tuple
    sign: str

    @property
    def d(self) -> tuple:
        """d_i = -a_i on J, b_i off J: the twisted module's digit vector."""
        return tuple(-self.a[i] if i in self.J else self.b[i] for i in range(len(self.a)))


def weight_profiles(module: RankOneModule, J) -> list:
    """All (a, b) with Sigma_0(c) = sum_{j not in J} b_j p^j - sum_{i in J} a_i p^i
    mod p^f - 1, by direct enumeration.  One or two solutions; the two-solution
    case is exactly the (plus, minus) pair."""
    ctx = module.ctx
    p, f = ctx.p, ctx.f
    J = tuple(sorted(set(int(j) % f for j in J)))
    n = module.sigma(0) % (p**f - 1)
    inside = list(J)
    outside = [i for i in range(f) if i not in J]
    sols = []
    for vals in product(range(1, p + 1), repeat=f):
        a = [0] * f
        b = [0] * f
        for k, i in enumerate(inside):
            a[i] = vals[k]
        for k, i in enumerate(outside):
            b[i] = vals[len(inside) + k]
        total = sum(b[i] * p**i for i in outside) - sum(a[i] * p**i for i in inside)
        if (total - n) % (p**f - 1) == 0:
            sols.append((tuple(a), tuple(b)))
    if len(sols) == 1:
        a, b = sols[0]
        return [WeightProfile(J, a, b, "unique")]
    if len(sols) == 2:
        plus = minus = None
        for a, b in sols:
            if all(a[i] == p for i in inside) and all(b[i] == 1 for i in outside):
                plus = WeightProfile(J, a, b, "plus")
            if all(a[i] == 1 for i in inside) and all(b[i] == p for i in outside):
                minus = WeightProfile(J, a, b, "minus")
        if plus is None or minus is None:
            raise AssertionError("two solutions that are not the plus/minus pair: %r" % (sols,))
        return [plus, minus]
    raise AssertionError("expected 1 or 2 weight profiles, found %d" % len(sols))


def twist_factor(module: RankOneModule, prof: WeightProfile) -> TateElement:
    """<c>_J = (pi^((p-1)eps_0), ...), with (p^f - 1) eps_i = Sigma_i(c - d)."""
    ctx = module.ctx
    p, f = ctx.p, ctx.f
    d = prof.d
    diff = [module.c[i] - d[i] for i in range(f)]
    comps = []
    for i in range(f):
        num = sigma_twisted(diff, i, p)
        if num % (p**f - 1) != 0:
            raise ArithmeticError("non-integral twist exponent: profile does not match module")
        eps = num // (p**f - 1)
        comps.append(ctx.pi((p - 1) * eps))
    return ctx.tate(comps)


def twist_exponents(module: RankOneModule, prof: WeightProfile) -> tuple:
    """The integers eps_i with <c>_J = (pi^((p-1)eps_i))_i."""
    p, f = module.p, module.f
    d = prof.d
    diff = [module.c[i] - d[i] for i in range(f)]
    out = []
    for i in range(f):
        num = sigma_twisted(diff, i, p)
        if num % (p**f - 1) != 0:
            raise ArithmeticError("non-integral twist exponent")
        out.append(num // (p**f - 1))
    return tuple(out)
