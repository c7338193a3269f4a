"""Boundedness of extension classes and the subspaces V_J, V_J^+-.

An extension class is bounded for a weight profile (a, b) when, after the
twist iota by kappa_phi(1,a) <c>_J, some cohomologous representative has
mu'_phi in F[[pi]]^S and mu'_xi in pi F[[pi]]^S (both generators for p = 2).
Feasibility is a finite linear problem: coefficients of the correcting
coboundary below the thresholds transport deterministically, and the few free
block coefficients become unknowns of a small system over F.  The matrix of
the system, one column per cocycle and per unknown, is
``cocycle.residual_system`` at the twisted thresholds of the profile; its
generator rows are products with the operator columns that the coboundary
systems cache too, read on the rows where the correcting coboundary is nonzero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import PrecisionError
from .tate import TateElement
from .rankone import RankOneModule, WeightProfile, twist_exponents, weight_profiles
from .cocycle import Cocycle, basis_for, residual_system
from .gflinalg import gf


@dataclass
class TwistedCocycle:
    """A cocycle pushed through iota for a given weight profile."""

    base: Cocycle
    profile: WeightProfile
    mu_phi: TateElement
    mu_gen: dict


def iota_twist(c: Cocycle, prof: WeightProfile) -> TwistedCocycle:
    """mu' = kappa(1, a) <c>_J mu, the explicit form of the twist isomorphism."""
    module = c.module
    ctx = module.ctx
    p, f = ctx.p, ctx.f
    eps = twist_exponents(module, prof)
    tw_phi = ctx.tate([ctx.pi((p - 1) * (prof.a[i] + eps[i])) for i in range(f)])
    mu_phi = tw_phi * c.mu_phi
    mu_gen = {}
    for name, gamma in c.generators():
        sig_a = [sum(prof.a[(l + j) % f] * p**j for j in range(f)) for l in range(f)]
        tw = ctx.tate([ctx.lambda_pow(gamma, sig_a[l]).shift((p - 1) * eps[l]) for l in range(f)])
        mu_gen[name] = tw * c.mu_gen[name]
    return TwistedCocycle(c, prof, mu_phi, mu_gen)


class BoundedSystem:
    """The linear feasibility problem 'iota(E + coboundary) satisfies the
    boundedness window conditions' over a fixed module and profile."""

    def __init__(self, module: RankOneModule, prof: WeightProfile, strict_p2: bool = False):
        ctx = module.ctx
        self.module = module
        self.prof = prof
        self.ctx = ctx
        self.G = gf(ctx.field)
        p, f = ctx.p, ctx.f
        eps = twist_exponents(module, prof)
        self.theta_phi = [-(p - 1) * (prof.a[i] + eps[i]) for i in range(f)]
        self.theta_gen = {}
        # condition (3'): mu'_xi in pi F[[pi]]; for p = 2 both eta and xi (Gamma_1 = Gamma)
        self.gen_names = ["xi"] if p > 2 else ["eta", "xi"]
        for name in self.gen_names:
            base = [1 - (p - 1) * eps[i] for i in range(f)]
            if strict_p2 and p == 2 and name == "xi":
                base = [b + 1 for b in base]
            self.theta_gen[name] = base
        self.Lb = ctx.L
        shifts = [(p - 1) * module.c[i] for i in range(f)]
        ub = []
        for i in range(f):
            cands = [self.theta_phi[i], 1]
            prev = (i - 1) % f
            cands.append(-((-(self.theta_phi[prev] - shifts[prev])) // p))  # ceil division
            for name in self.gen_names:
                cands.append(self.theta_gen[name][i])
            ub.append(max(cands))
        self.Ub = ub
        self.params = [(i, n) for i in range(f) for n in range(self.theta_phi[i], ub[i])]

    def run(self, cocycles=()) -> np.ndarray:
        """The residual matrix at the profile's thresholds (``cocycle.residual_system``):
        one column per cocycle E, then one per parameter (a unit coefficient)."""
        return residual_system(self.module, self.Lb, self.theta_phi, self.theta_gen, cocycles, self.Ub, self.params)


def is_bounded_class(twisted: TwistedCocycle, strict_p2: bool = False) -> str:
    """'yes' / 'no' for a single twisted class, within the context window."""
    module = twisted.base.module
    try:
        sys_ = BoundedSystem(module, twisted.profile, strict_p2)
        A = sys_.run([twisted.base])
        target, A = A[:, 0], A[:, 1:]
        if not A.shape[1]:
            return "yes" if not target.any() else "no"
        mask = A.any(axis=(1, 2)) | target.any(axis=1)
        sol = sys_.G.solve(A[mask], target[mask])
        return "yes" if sol is not None else "no"
    except PrecisionError:
        return "inconclusive"


@dataclass
class SubspaceReport:
    module: RankOneModule
    J: tuple
    sign: str
    dim: int
    basis: list
    window: tuple
    stable: bool


def _vj_span(module: RankOneModule, prof: WeightProfile, strict_p2=False):
    """Row space of V_J in basis coordinates: its reduced echelon basis as F_p digit
    planes (dim, len(basis), m)."""
    basis = basis_for(module)
    sys_ = BoundedSystem(module, prof, strict_p2)
    A = sys_.run(basis.elements)
    null = sys_.G.nullspace(A[A.any(axis=(1, 2))])
    R, _ = sys_.G.rref(null[:, : len(basis)])
    return R, basis


def compute_VJ(module: RankOneModule, J, sign: str = None, strict_p2=False, stability=True) -> SubspaceReport:
    """V_J (or V_J^sign) with a basis certificate and doubled-window stability flag."""
    ctx = module.ctx
    profs = weight_profiles(module, J)
    prof = _pick_profile(profs, sign)
    span, basis = _vj_span(module, prof, strict_p2)
    ext_basis = [basis.ext_class(tuple(ctx.field.from_row(v) for v in row)) for row in span]
    stable = True
    if stability:
        ctx2 = ctx.scaled(2)
        module2 = RankOneModule(ctx2, ctx2.field.element(list(module.C.coeffs)), module.c)
        profs2 = weight_profiles(module2, J)
        prof2 = _pick_profile(profs2, sign)
        span2, _ = _vj_span(module2, prof2, strict_p2)
        stable = span.shape == span2.shape and bool(np.array_equal(span, span2))
    return SubspaceReport(
        module=module,
        J=tuple(sorted(set(j % ctx.f for j in J))),
        sign=prof.sign,
        dim=span.shape[0],
        basis=ext_basis,
        window=(ctx.L, ctx.M),
        stable=stable,
    )


def _pick_profile(profs, sign):
    if sign in (None, "unique"):
        if len(profs) == 1:
            return profs[0]
        if sign == "unique":
            raise ValueError("profile is not unique; specify 'plus' or 'minus'")
        raise ValueError("two profiles exist; specify sign 'plus' or 'minus'")
    for pr in profs:
        if pr.sign == sign:
            return pr
    if len(profs) == 1 and profs[0].sign == "unique":
        raise ValueError("profile is unique; do not pass a sign")
    raise ValueError("no profile with sign %r" % sign)


def all_reports(module: RankOneModule, strict_p2=False, stability=True):
    """Reports for every subset J and every available sign."""
    ctx = module.ctx
    f = ctx.f
    out = {}
    for mask in range(2**f):
        J = tuple(i for i in range(f) if mask >> i & 1)
        profs = weight_profiles(module, J)
        for pr in profs:
            sign = None if pr.sign == "unique" else pr.sign
            rep = compute_VJ(module, J, sign, strict_p2, stability)
            out[(J, pr.sign)] = rep
    return out


def vj_table(module: RankOneModule, strict_p2=False, stability=True):
    """All (J, sign) reports plus the pairwise-coincidence matrix of singleton spaces."""
    reports = all_reports(module, strict_p2, stability)
    G = gf(module.ctx.field)
    shape = (-1, len(basis_for(module)), G.m)
    singles = {}  # the coordinate rows of each singleton space, as digit planes
    for (J, sign), rep in reports.items():
        if len(J) == 1:
            singles.setdefault(J[0], {})[sign] = np.array([[c.row() for c in e.coords] for e in rep.basis], dtype=np.int64).reshape(shape)
    coincidence = {}
    for i in sorted(singles):
        for j in sorted(singles):
            if i >= j:
                continue
            for sign in singles[i]:
                if sign in singles[j]:
                    coincidence[(i, j, sign)] = G.span_equal(singles[i][sign], singles[j][sign])
    return reports, coincidence
