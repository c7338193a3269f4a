"""Brute-force verifiers for the series lemmas, run as executable evidence.

Each verifier computes its left side purely from (1+pi)^u expansions, unit
roots and ring operations, and checks that the difference from the closed form
lies in the asserted residual class, encoded as a (valuation floor, support
congruence) pair - both exactly checkable on a window.
"""
from __future__ import annotations

from dataclasses import dataclass

from .series import LaurentSeries
from .tate import Context
from .rankone import RankOneModule
from .cocycle import build_H, _build_H_p2, _chain_length, PivotError


@dataclass
class LemmaReport:
    name: str
    params: dict
    passed: bool
    detail: str = ""

    def __bool__(self):
        return self.passed


LEMMAS = ("delta", "gamma_n", "gamma", "cyc", "p2lambda", "p2H", "trick", "trick_plus")
# stated for p > 2 (delta and cyc divide chibar(eta) - 1 by 2; at p = 2 build_H is the p2H construction)
ODD_P_LEMMAS = ("delta", "cyc", "trick", "trick_plus")


def _vp(n: int, p: int) -> int:
    if n == 0:
        return -1  # signals infinity to callers
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _digit(n: int, p: int, v: int, ndig: int = 64) -> int:
    return (n % p ** (ndig)) // p**v % p


def _residual_class_ok(res: LaurentSeries, val_floor: int, support_mod=None, support_res=0) -> bool:
    if res.is_zero():
        return True
    if res.val() < val_floor:
        return False
    if support_mod is not None and support_mod > 1:
        for e in res.support():
            if (e - support_res) % support_mod != 0:
                return False
    return True


def verify_lemma(ctx: Context, name: str, **params) -> LemmaReport:
    """Check one lemma instance; see LEMMAS for the available names."""
    p, f = ctx.p, ctx.f
    field = ctx.field
    if name in ODD_P_LEMMAS and p == 2:
        return LemmaReport(name, params, False, "precondition: p > 2")
    if name == "delta":
        sigma, s = int(params["sigma"]), int(params["s"])
        t = sigma + s * (p**f - 1) // (p - 1)
        v = _vp(t, p)
        if v < 0:
            return LemmaReport(name, params, False, "precondition: v_p is infinite")
        eta = ctx.eta
        lhs = ctx.op_lambda_gamma(eta, sigma, ctx.pi(s))
        chib = ctx.chibar(eta)
        sv = _digit(t, p, v)
        main = LaurentSeries.monomial(field, s, chib**s - 1) + LaurentSeries.monomial(
            field, s + p**v, field.coerce(sv) * chib**s * (chib - 1) / 2
        )
        res = lhs - main
        ok = _residual_class_ok(res.truncate(ctx.M - abs(s)), s + 2 * p**v, p**v, s)
        return LemmaReport(name, params, ok)
    if name == "gamma_n":
        chi = int(params["chi"])
        gamma = ctx.gamma_from_chi(chi)
        n = gamma.level
        if n < 1:
            return LemmaReport(name, params, False, "precondition: need level >= 1")
        z = field.coerce(((chi - 1) // p**n) % p)
        lam = ctx.lambda_gamma(gamma)
        main = LaurentSeries.from_pairs(field, {0: 1, p**n - 1: z, p**n: z})
        ok = _residual_class_ok(lam - main, 2 * p**n - 2)
        return LemmaReport(name, params, ok)
    if name == "gamma":
        sigma, s = int(params["sigma"]), int(params["s"])
        t = sigma + s * (p**f - 1) // (p - 1)
        v = _vp(t, p)
        if v < 0:
            return LemmaReport(name, params, False, "precondition: v_p is infinite")
        xi = ctx.xi
        z = ctx.z_of_xi()
        sv = field.coerce(_digit(t, p, v))
        lhs = ctx.op_lambda_gamma(xi, sigma, ctx.pi(s))
        main = LaurentSeries.monomial(field, s + (p - 1) * p**v, sv * z) + LaurentSeries.monomial(
            field, s + p ** (v + 1), sv * z
        )
        res = lhs - main
        ok = _residual_class_ok(res.truncate(ctx.M - abs(s)), s + 2 * p**v * (p - 1), p**v, s)
        return LemmaReport(name, params, ok)
    if name == "cyc":
        s = int(params["s"])
        if s == 0:
            return LemmaReport(name, params, False, "precondition: s != 0")
        v = _vp(s, p)
        sv = _digit(s, p, v)
        eta, xi = ctx.eta, ctx.xi
        chib = ctx.chibar(eta)
        lhs_eta = ctx.gamma_act_series(eta, ctx.pi(s)).scale(chib) - ctx.pi(s)
        main_eta = LaurentSeries.monomial(field, s, chib ** (s + 1) - 1) + LaurentSeries.monomial(
            field, s + p**v, field.coerce(sv) * chib ** (s + 1) * (chib - 1) / 2
        )
        ok1 = _residual_class_ok((lhs_eta - main_eta).truncate(ctx.M - abs(s)), s + 2 * p**v, p**v, s)
        z = ctx.z_of_xi()
        lhs_xi = ctx.gamma_act_series(xi, ctx.pi(s)) - ctx.pi(s)
        main_xi = LaurentSeries.monomial(field, s + (p - 1) * p**v, field.coerce(sv) * z) + LaurentSeries.monomial(
            field, s + p ** (v + 1), field.coerce(sv) * z
        )
        # the xi-side tail floor is s + 2 p^v (p-1): the square cross-term
        # C(s_v, 2) z^2 pi^(s + 2(p-1)p^v) survives whenever s_v = p - 1
        ok2 = _residual_class_ok((lhs_xi - main_xi).truncate(ctx.M - abs(s)), s + 2 * p**v * (p - 1), p**v, s)
        return LemmaReport(name, params, ok1 and ok2, "eta %s / xi %s" % (ok1, ok2))
    if name == "p2lambda":
        if p != 2:
            return LemmaReport(name, params, False, "precondition: p = 2")
        lam = ctx.lambda_gamma(ctx.eta)
        main = LaurentSeries.from_pairs(field, {0: 1, 1: 1})
        ok1 = _residual_class_ok(lam - main, 2**f)
        ok2 = True
        for gamma in (ctx.xi, ctx.xi**2, ctx.xi * ctx.eta**2):
            if gamma.chi_int % 4 != 1:
                continue
            lam2 = ctx.lambda_gamma(ctx.gamma_from_chi(gamma.chi_int))
            ok2 = ok2 and _residual_class_ok(lam2 - LaurentSeries.one(field), 3)
        return LemmaReport(name, params, ok1 and ok2)
    if name == "p2H":
        if p != 2:
            return LemmaReport(name, params, False, "precondition: p = 2")
        c = tuple(int(x) for x in params["c"])
        i = int(params.get("i", 0))
        module = RankOneModule(ctx, params.get("C", 1), c)
        r = _chain_length(module, i)
        H = _build_H_p2(module, i, r)
        ok = True
        for gamma in (ctx.eta, ctx.xi, ctx.eta * ctx.xi):
            img = ctx.op_lambda_gamma(ctx.gamma_from_chi(gamma.chi_int), module.sigma(i), H)
            v = img.val()
            ok = ok and (v is None or v >= 0)
        return LemmaReport(name, params, ok)
    if name in ("trick", "trick_plus"):
        c = tuple(int(x) for x in params["c"])
        i = int(params.get("i", 0))
        module = RankOneModule(ctx, params.get("C", 2), c)
        r = _chain_length(module, i)
        if name == "trick" and r != 0:
            return LemmaReport(name, params, False, "precondition: c_i = p-1, c_{i+1} != p-2")
        if name == "trick_plus" and r < 0:
            return LemmaReport(name, params, False, "precondition: c_i = p-1")
        pivots = []
        try:
            H = build_H(module, i, collect_pivots=pivots)
        except PivotError as exc:
            return LemmaReport(name, params, False, str(exc))
        img = ctx.op_lambda_gamma(ctx.eta, module.sigma(i), H)
        integral = img.val() is None or img.val() >= 0
        nonzero = all(bool(rescoef) for (_, _, rescoef) in pivots) and all(bool(num) for (_, num, _) in pivots)
        return LemmaReport(name, params, integral and nonzero, "pivots: %d" % len(pivots))
    raise ValueError("unknown lemma %r" % name)


def default_grid(ctx: Context, name: str):
    p, f = ctx.p, ctx.f
    if name in ODD_P_LEMMAS and p == 2:  # left out, as the p2 lemmas are at p > 2
        return []
    if name == "delta":
        return [
            {"sigma": sig, "s": s}
            for sig in range(0, p**f - 1)
            for s in range(-2 * p, 0)
            if _vp(sig + s * (p**f - 1) // (p - 1), p) >= 0
        ]
    if name == "gamma":
        return [
            {"sigma": sig, "s": s}
            for sig in range(0, p**f - 1)
            for s in range(-2 * p, 0)
            if _vp(sig + s * (p**f - 1) // (p - 1), p) >= 0
        ]
    if name == "gamma_n":
        out = []
        for n in (1, 2):
            for z in range(1, p):
                out.append({"chi": 1 + z * p**n})
        return out
    if name == "cyc":
        return [{"s": s} for s in range(-2 * p * p, 0) if s != 0]
    if name == "p2lambda":
        return [{}] if p == 2 else []
    if name == "p2H":
        if p != 2:
            return []
        out = []
        from itertools import product

        for c in product(range(2), repeat=f):
            if all(x == 1 for x in c):
                continue
            for i in range(f):
                out.append({"c": c, "i": i})
        return out
    if name == "trick":
        out = []
        from itertools import product

        for c in product(range(p), repeat=f):
            if all(x == p - 1 for x in c):
                continue
            for i in range(f):
                if c[i] == p - 1 and c[(i + 1) % f] != p - 2:
                    out.append({"c": c, "i": i})
        return out
    if name == "trick_plus":
        out = []
        from itertools import product

        for c in product(range(p), repeat=f):
            if all(x == p - 1 for x in c):
                continue
            for i in range(f):
                if c[i] == p - 1:
                    out.append({"c": c, "i": i})
        return out
    raise ValueError("unknown lemma %r" % name)


@dataclass
class SweepReport:
    name: str
    total: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def sweep(ctx: Context, name: str, grid=None) -> SweepReport:
    """Run verify_lemma over a grid (the default grid when none is given)."""
    grid = default_grid(ctx, name) if grid is None else grid
    failures = []
    for params in grid:
        rep = verify_lemma(ctx, name, **params)
        if not rep.passed:
            failures.append(rep)
    return SweepReport(name, len(grid), failures)
