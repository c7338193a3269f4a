"""Boundedness of extension classes and the subspaces V_J, V_J^+-.

An extension class is bounded for a weight profile (a, b) when, after the
twist iota by kappa_phi(1,a) <c>_J, some cohomologous representative has
mu'_phi in F[[pi]]^S and mu'_xi in pi F[[pi]]^S (both generators for p = 2).
Feasibility is a finite linear problem: coefficients of the correcting
coboundary below the thresholds transport deterministically, and the few free
block coefficients become unknowns of a small system over F.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import LaurentSeries, PrecisionError
from .tate import TateElement
from .rankone import RankOneModule, WeightProfile, twist_exponents, weight_profiles
from .cocycle import Cocycle, basis_for
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
        self.shifts = shifts
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
        one = ctx.field.one()
        self.Ci = [module.C if i == 0 else one for i in range(f)]
        q1 = p**f - 1
        sig = module.sigmas()
        self.cyclic = all((p - 1) * s % q1 == 0 for s in sig)
        self.estar = tuple(-(p - 1) * s // q1 for s in sig) if self.cyclic else None
        self.cycle_transported = self.cyclic and all(self.estar[i] < self.theta_phi[i] for i in range(f))
        self.has_cycle_slot = self.cycle_transported and module.C == one
        self.phi_lo = p * self.Lb - max(shifts) - 1
        self.gen_lo = self.Lb

    # -- one evaluation of all residual functionals -----------------------------
    def _transport(self, ephi_coeff, param_vec):
        """Values b_i[e] on [Lb, Ub_i) of the transported coboundary coefficients."""
        ctx = self.ctx
        field = ctx.field
        f, p = ctx.f, ctx.p
        memo = {}
        cycle_violation = field.zero()
        if self.cycle_transported:
            one = field.one()
            hvals = [-ephi_coeff(i, self.estar[i]) for i in range(f)]
            acc = field.zero()
            pref = one
            for i in range(f):
                acc = acc + pref * hvals[i]
                pref = pref * self.Ci[i]
            if self.module.C == one:
                cycle_violation = acc
                u0 = field.zero()
            else:
                u0 = acc / (self.module.C - one)
            u = [None] * f
            u[0] = u0
            for i in range(f - 1):
                u[i + 1] = (u[i] + hvals[i]) / self.Ci[i]
            for i in range(f):
                memo[(i, self.estar[i])] = u[i]

        def bval(i, e):
            if e >= self.Ub[i]:
                return field.zero()
            if e >= self.theta_phi[i]:
                return param_vec.get((i, e), field.zero())
            key = (i, e)
            if key in memo:
                return memo[key]
            stack = [key]
            while stack:
                i2, e2 = stack[-1]
                if (i2, e2) in memo:
                    stack.pop()
                    continue
                if e2 >= self.theta_phi[i2]:
                    memo[(i2, e2)] = param_vec.get((i2, e2), field.zero()) if e2 < self.Ub[i2] else field.zero()
                    stack.pop()
                    continue
                src_num = e2 - self.shifts[i2]
                nxt = (i2 + 1) % f
                if src_num % p != 0:
                    memo[(i2, e2)] = ephi_coeff(i2, e2)
                    stack.pop()
                    continue
                src = src_num // p
                if src >= self.Ub[nxt]:
                    memo[(i2, e2)] = ephi_coeff(i2, e2)
                    stack.pop()
                    continue
                if src >= self.theta_phi[nxt]:
                    memo[(i2, e2)] = ephi_coeff(i2, e2) + self.Ci[i2] * param_vec.get((nxt, src), field.zero())
                    stack.pop()
                    continue
                if (nxt, src) in memo:
                    memo[(i2, e2)] = ephi_coeff(i2, e2) + self.Ci[i2] * memo[(nxt, src)]
                    stack.pop()
                else:
                    stack.append((nxt, src))
            return memo[key]

        return bval, cycle_violation

    def run(self, E: Cocycle = None, param_index: int = None) -> np.ndarray:
        """Residual vector for E plus the parametrized coboundary; linear in both."""
        ctx = self.ctx
        field = ctx.field
        f, p = ctx.f, ctx.p
        zero = field.zero()
        if E is not None:
            ephi = [E.mu_phi[i] for i in range(f)]
            mu_of = {"eta": (E.mu_gen.get("eta") if "eta" in E.mu_gen else None), "xi": None}
            mu_of["xi"] = E.mu_gen["xi"] if "xi" in E.mu_gen else E.mu_xi()

            def ephi_coeff(i, e):
                return ephi[i].coeff(e)

        else:

            def ephi_coeff(i, e):
                return zero

            mu_of = {"eta": None, "xi": None}
        pv = {}
        if param_index is not None:
            pv[self.params[param_index]] = field.one()
        bval, violation = self._transport(ephi_coeff, pv)
        # materialize b as series
        lo = self.Lb
        bseries = []
        for i in range(f):
            hi = max(self.Ub[i], lo)
            rows = np.zeros((hi - lo, field.m), dtype=np.int64)
            for e in range(lo, hi):
                v = bval(i, e)
                if v:
                    rows[e - lo] = v.row()
            bseries.append(LaurentSeries(field, lo, ctx.M, rows))
        pieces = []
        # phi rows on [phi_lo, theta_phi_i)
        for i in range(f):
            term = bseries[(i + 1) % f].substitute_power(p).shift(self.shifts[i]).scale(self.Ci[i]) - bseries[i]
            if E is not None:
                term = term + ephi[i]
            hi_i = self.theta_phi[i]
            rows = term.coeff_rows(self.phi_lo, hi_i)
            pieces.append(self.G.encode_rows(rows))
        # cycle obstruction slot
        if self.has_cycle_slot:
            pieces.append(np.array([violation.index()], dtype=np.int64))
        # generator rows on [gen_lo, theta_gen_i)
        for name in self.gen_names:
            gamma = ctx.eta if name == "eta" else ctx.xi
            for i in range(f):
                sig = self.module.sigma(i)
                theta = self.theta_gen[name][i]
                img = ctx.op_lambda_gamma(gamma, sig, bseries[i], out_order=theta)
                if E is not None:
                    img = img + mu_of[name].comps[i]
                rows = img.coeff_rows(self.gen_lo, theta)
                pieces.append(self.G.encode_rows(rows))
        return np.concatenate(pieces)

    def n_params(self) -> int:
        return len(self.params)


def is_bounded_class(twisted: TwistedCocycle, strict_p2: bool = False) -> str:
    """'yes' / 'no' for a single twisted class, within the context window."""
    module = twisted.base.module
    try:
        sys_ = BoundedSystem(module, twisted.profile, strict_p2)
        target = sys_.run(E=twisted.base)
        cols = [sys_.run(param_index=j) for j in range(sys_.n_params())]
        if not cols:
            return "yes" if not target.any() else "no"
        A = np.stack(cols, axis=1)
        mask = A.any(axis=1) | (target != 0)
        sol, _ = sys_.G.solve(A[mask], target[mask])
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

    def coord_matrix(self) -> np.ndarray:
        if not self.basis:
            return np.zeros((0, len(basis_for(self.module))), dtype=np.int64)
        return np.array([[c.index() for c in e.coords] for e in self.basis], dtype=np.int64)


def _vj_span(module: RankOneModule, prof: WeightProfile, strict_p2=False):
    """Row space (over F, encoded) of V_J in basis coordinates."""
    basis = basis_for(module)
    sys_ = BoundedSystem(module, prof, strict_p2)
    G = sys_.G
    cols = [sys_.run(E=B) for B in basis.elements]
    cols += [sys_.run(param_index=j) for j in range(sys_.n_params())]
    A = np.stack(cols, axis=1)
    A = A[A.any(axis=1)]
    if A.shape[0] == 0:
        null = np.eye(len(cols), dtype=np.int64)
    else:
        null = G.nullspace(A)
    d = len(basis)
    beta = null[:, :d]
    beta = beta[beta.any(axis=1)]
    if beta.shape[0] == 0:
        return np.zeros((0, d), dtype=np.int64), basis
    R, _ = G.rref(beta)
    return R, basis


def compute_VJ(module: RankOneModule, J, sign: str = None, strict_p2=False, stability=True) -> SubspaceReport:
    """V_J (or V_J^sign) with a basis certificate and doubled-window stability flag."""
    ctx = module.ctx
    profs = weight_profiles(module, J)
    prof = _pick_profile(profs, sign)
    span, basis = _vj_span(module, prof, strict_p2)
    ext_basis = [basis.ext_class(tuple(ctx.field.from_index(int(v)) for v in row)) for row in span]
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
    ctx = module.ctx
    G = gf(ctx.field)
    f = ctx.f
    coincidence = {}
    singles = {}
    for (J, sign), rep in reports.items():
        if len(J) == 1:
            singles.setdefault(J[0], {})[sign] = rep
    for i in sorted(singles):
        for j in sorted(singles):
            if i >= j:
                continue
            for sign in singles[i]:
                if sign not in singles[j]:
                    continue
                a = singles[i][sign]
                b = singles[j][sign]
                d = len(basis_for(module))
                ma = np.array([[c.index() for c in e.coords] for e in a.basis], dtype=np.int64).reshape(-1, d)
                mb = np.array([[c.index() for c in e.coords] for e in b.basis], dtype=np.int64).reshape(-1, d)
                coincidence[(i, j, sign)] = a.dim == b.dim and (a.dim == 0 or G.span_equal(ma, mb))
    return reports, coincidence
