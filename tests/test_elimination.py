"""The greedy valuation elimination against per-monomial series loops.

The references eliminate on whole series: each pivot's image is a full-window
``op_lambda_gamma`` (as series arithmetic) or gamma action, and the residual is
accumulated term by term.  The constructions must agree with them exactly: H and the
pivot trail, the trivial module's (H, nu), and B_tr in floor, order and rows.
"""
import itertools

import pytest

from phigamma import RankOneModule, build_Btr
from phigamma.cocycle import Cocycle, PivotError, _chain_length, _trivial_H, build_H
from phigamma.tate import solve_phi_unit_tail

from conftest import ctx_for, ref_op_lambda_gamma


def _ref_monomial_image(ctx, sigma, e):
    return ref_op_lambda_gamma(ctx, ctx.eta, sigma, ctx.pi(e))


def ref_pivot_block(module, sigma, j):
    ctx = module.ctx
    p = ctx.p
    stuck = 1 - p ** (j + 1)
    e0 = 1 + p**j - 2 * p ** (j + 1)
    block = ctx.pi(e0)
    residual = _ref_monomial_image(ctx, sigma, e0)
    while True:
        v = residual.val()
        assert v is not None and v < 0
        if v == stuck:
            break
        assert v % (p - 1) != 0
        q = _ref_monomial_image(ctx, sigma, v)
        assert q.val() == v
        coef = residual.coeff(v) / q.coeff(v)
        block = block - ctx.pi(v, coef)
        residual = residual - q.scale(coef)
    assert residual.coeff(stuck)
    return block, residual


def ref_build_H(module, i, collect_pivots):
    ctx = module.ctx
    p = ctx.p
    sigma = module.sigma(i)
    r = _chain_length(module, i)
    e0 = 1 - p ** (r + 2)
    H = ctx.pi(e0)
    residual = _ref_monomial_image(ctx, sigma, e0)
    while True:
        v = residual.val()
        if v is None or v >= 0:
            break
        if v % (p - 1) == 0:
            j = next(j for j in range(r + 1) if 1 - p ** (j + 1) == v)
            block, block_res = ref_pivot_block(module, sigma, j)
            collect_pivots.append((j, residual.coeff(v), block_res.coeff(v)))
            coef = residual.coeff(v) / block_res.coeff(v)
            H = H - block.scale(coef)
            residual = residual - block_res.scale(coef)
        else:
            q = _ref_monomial_image(ctx, sigma, v)
            assert q.val() == v
            coef = residual.coeff(v) / q.coeff(v)
            H = H - ctx.pi(v, coef)
            residual = residual - q.scale(coef)
    return H


def ref_build_Btr(module):
    ctx = module.ctx
    p = ctx.p
    chib = ctx.chibar(ctx.eta)

    def op(s):
        return ctx.gamma_act_series(ctx.eta, s).scale(chib) - s

    hprime = ctx.pi(1 - 2 * p)
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
        q = op(ctx.pi(e))
        assert q.val() == e
        coef = residual.coeff(e) / q.coeff(e)
        hprime = hprime - ctx.pi(e, coef)
        residual = residual - q.scale(coef)
    alpha, beta = residual.coeff(-p), residual.coeff(-1)
    tail = residual - (ctx.pi(-p, alpha) + ctx.pi(-1, beta))
    gprime = ctx.pi(-1, alpha) + solve_phi_unit_tail(ctx, tail, q=p)
    mu_phi = ctx.tate([hprime.shift(2 - p)] * ctx.f)
    mu_gen = {"eta": ctx.tate([gprime.shift(2 - p)] * ctx.f)}
    return Cocycle(module, mu_phi, mu_gen, "B_tr"), residual


def ref_trivial_H(ctx):
    p = ctx.p

    def op(s):
        return ctx.gamma_act_series(ctx.eta, s) - s

    H = ctx.pi(1 - p)
    residual = op(H)
    if p == 2:
        assert residual.val() is None or residual.val() >= 0
        return H, residual.coeff(0) if residual.known(0) else ctx.field.zero()
    while True:
        v = residual.val()
        if v is None or v >= 0:
            break
        q = op(ctx.pi(v))
        assert q.val() == v
        coef = residual.coeff(v) / q.coeff(v)
        H = H - ctx.pi(v, coef)
        residual = residual - q.scale(coef)
    return H, residual.coeff(0)


def _with_top_digit(p, f):
    return [c for c in itertools.product(range(p), repeat=f) if p - 1 in c and any(x != p - 1 for x in c)]


CASES = [(p, f, c) for p, f in [(3, 2), (3, 3), (5, 2)] for c in _with_top_digit(p, f)]
CASES += [(5, 3, c) for c in [(4, 3, 1), (4, 3, 3), (4, 4, 3)]]


@pytest.mark.parametrize("p,f,c", CASES, ids=["p%d-f%d-c%s" % (p, f, "".join(map(str, c))) for p, f, c in CASES])
def test_build_H_matches_per_monomial_loop(p, f, c):
    """H and the rescue pivot trail, for every i, from the pole-window elimination and
    from the full-window per-monomial loop; the rescue blocks run at every chain length."""
    ctx = ctx_for(p, f)
    module = RankOneModule(ctx, ctx.field.generator(), c)
    for i in range(f):
        got_trail, want_trail = [], []
        H = build_H(module, i, collect_pivots=got_trail)
        assert H == ref_build_H(module, i, want_trail), (c, i)
        assert got_trail == want_trail, (c, i)
        assert len(got_trail) == _chain_length(module, i) + 1


GRID = [(p, f) for p in (2, 3, 5) for f in (1, 2, 3)]


@pytest.mark.parametrize("p,f", GRID)
def test_trivial_H_matches_per_monomial_loop(p, f):
    ctx = ctx_for(p, f)
    H, nu = _trivial_H(ctx)
    want_H, want_nu = ref_trivial_H(ctx)
    assert H == want_H and nu == want_nu


@pytest.mark.parametrize("p,f", [pf for pf in GRID if pf[0] > 2])
def test_Btr_matches_per_monomial_loop(p, f):
    """B_tr's h' and its tail, read off one full-window image of h', against the
    residual accumulated term by term."""
    ctx = ctx_for(p, f)
    module = RankOneModule(ctx, 1, (p - 2,) * f)
    got = build_Btr(module)
    want, residual = ref_build_Btr(module)
    hprime = got.mu_phi[0].shift(p - 2)
    assert residual == ctx.gamma_act_series(ctx.eta, hprime).scale(ctx.chibar(ctx.eta)) - hprime
    for x, y in zip((got.mu_phi, got.mu_gen["eta"]), (want.mu_phi, want.mu_gen["eta"])):
        assert all(a == b for a, b in zip(x.comps, y.comps))


def test_build_H_refuses_a_window_below_its_pole():
    """A window too short for lambda to reach pi^0 from the deepest pole is refused
    instead of ending the elimination early."""
    from phigamma.series import PrecisionError

    ctx = ctx_for(5, 2, pi_order=60, tail_floor=-5)
    with pytest.raises(PrecisionError):
        build_H(RankOneModule(ctx, 2, (4, 3)), 0)
