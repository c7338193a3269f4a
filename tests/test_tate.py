import math
import random

import pytest

from phigamma import LaurentSeries, NonBijectiveError, PrecisionError, solve_phi_minus_one
from phigamma.series import INF, one_plus_pi_pow

from conftest import ctx_for


def rand_series(field, rng, lo, hi, order):
    return LaurentSeries.from_pairs(field, {e: field.random_element(rng) for e in range(lo, hi)}, order)


def test_phi_act_f1(ctx31):
    # f=1, p=3: phi(pi) = (1+pi)^3 - 1 = pi^3 in characteristic 3
    x = ctx31.tate([ctx31.pi(1)])
    assert ctx31.phi_act(x).comps[0].agrees_with(ctx31.pi(3))


def test_phi_act_rotation(ctx32):
    x = ctx32.tate([ctx32.pi(1), ctx32.zero_series()])
    px = ctx32.phi_act(x)
    assert px.comps[0].is_zero()
    assert px.comps[1].agrees_with(ctx32.pi(3))
    c = ctx32.tate_const([2, 2])
    assert ctx32.phi_act(c).agrees_with(c)


def test_gamma_act_defn(ctx31):
    g = ctx31.gamma_from_chi(4)
    w = ctx31.gamma_act_series(g, ctx31.pi(1))
    assert w.agrees_with(one_plus_pi_pow(ctx31.field, 4, ctx31.M) - 1, 0, ctx31.M)
    ident = ctx31.gamma_from_chi(1)
    s = ctx31.pi(-2) + ctx31.pi(5)
    assert ctx31.gamma_act_series(ident, s).agrees_with(s, -2, ctx31.M)


def test_gamma_composition(ctx32, rng):
    for _ in range(20):
        a = rng.choice([2, 4, 5, 8])
        b = rng.choice([2, 4, 7])
        x = rand_series(ctx32.field, rng, -4, 6, 20)
        lhs = ctx32.gamma_act_series(ctx32.gamma_from_chi(a), ctx32.gamma_act_series(ctx32.gamma_from_chi(b), x))
        rhs = ctx32.gamma_act_series(ctx32.gamma_from_chi(a * b), x)
        assert lhs.agrees_with(rhs, -4, 15)


def test_phi_gamma_commute(ctx32, rng):
    g = ctx32.gamma_from_chi(5)
    for _ in range(20):
        comps = [rand_series(ctx32.field, rng, -3, 6, 15) for _ in range(2)]
        x = ctx32.tate(comps)
        lhs = ctx32.phi_act(ctx32.gamma_act(g, x))
        rhs = ctx32.gamma_act(g, ctx32.phi_act(x))
        assert lhs.agrees_with(rhs, -9, 30)


def test_lambda_example(ctx31):
    # p=3, f=1, chi(gamma)=4: lambda = 1 + pi^2 + pi^3 + O(pi^4)
    lam = ctx31.lambda_gamma(ctx31.gamma_from_chi(4))
    assert lam.coeff(0) == 1 and lam.coeff(1) == 0 and lam.coeff(2) == 1 and lam.coeff(3) == 1
    assert ctx31.lambda_gamma(ctx31.gamma_from_chi(1)).agrees_with(ctx31.one_series())


def test_lambda_defining_property(ctx52):
    lam = ctx52.lambda_gamma(ctx52.eta)
    d = ctx52.d_root
    lhs = lam.pow(d, ctx52.M)
    w = ctx52.gamma_act_series(ctx52.eta, ctx52.pi(1))
    rhs = w.shift(-1).scale(ctx52.chibar(ctx52.eta).inv())
    assert lhs.agrees_with(rhs, 0, ctx52.M - 2)


def test_lambda_cocycle_rule(ctx32, rng):
    for _ in range(10):
        a = rng.choice([2, 4, 5, 8, 10])
        b = rng.choice([2, 4, 7, 13])
        ga, gb = ctx32.gamma_from_chi(a), ctx32.gamma_from_chi(b)
        lhs = ctx32.lambda_gamma(ctx32.gamma_from_chi(a * b))
        rhs = ctx32.lambda_gamma(ga) * ctx32.gamma_act_series(ga, ctx32.lambda_gamma(gb))
        assert lhs.agrees_with(rhs, 0, ctx32.M - 5)


def test_lambda_level_congruence(ctx31):
    # level n, chi = 1 + z p^n mod p^(n+1): lambda = 1 + z pi^(p^n - 1) + z pi^(p^n) mod pi^(2p^n - 2)
    for chi, n, z in [(4, 1, 1), (7, 1, 2), (10, 2, 1)]:
        g = ctx31.gamma_from_chi(chi)
        assert g.level == n
        lam = ctx31.lambda_gamma(g)
        main = LaurentSeries.from_pairs(ctx31.field, {0: 1, 3**n - 1: z, 3**n: z})
        d = lam - main
        assert d.is_zero() or d.val() >= 2 * 3**n - 2


def test_p2_lambda(ctx21, ctx22):
    lam = ctx22.lambda_gamma(ctx22.eta)
    d = lam - (ctx22.one_series() + ctx22.pi(1))
    assert d.is_zero() or d.val() >= 2**2
    lam1 = ctx21.lambda_gamma(ctx21.eta)
    d1 = lam1 - (ctx21.one_series() + ctx21.pi(1))
    assert d1.is_zero() or d1.val() >= 2


def test_solver_examples(ctx31):
    F3 = ctx31.field
    g = solve_phi_minus_one(ctx31, F3.element(2), 0, ctx31.one_series(20))
    assert g.agrees_with(ctx31.one_series(), 0, 20)
    g = solve_phi_minus_one(ctx31, F3.one(), 1, ctx31.pi(1).truncate(20))
    assert g.agrees_with(LaurentSeries.from_pairs(F3, {1: 2, 5: 2, 17: 2}, 20), 0, 20)
    with pytest.raises(NonBijectiveError):
        solve_phi_minus_one(ctx31, F3.one(), 0, ctx31.one_series(10))


def test_solver_round_trip(ctx32, rng):
    F9 = ctx32.field
    for _ in range(200):
        h = rand_series(F9, rng, 0, 25, 25)
        sigma = rng.randrange(0, 4)
        C = F9.random_element(rng, nonzero=True)
        if sigma == 0 and C == F9.one():
            continue
        g = solve_phi_minus_one(ctx32, C, sigma, h)
        fwd = g.substitute_power(9).shift(2 * sigma).scale(C) - g
        assert fwd.agrees_with(h, 0, 25)


def test_solver_linear(ctx31, rng):
    F3 = ctx31.field
    for _ in range(50):
        h1 = rand_series(F3, rng, 0, 15, 15)
        h2 = rand_series(F3, rng, 0, 15, 15)
        c = F3.random_element(rng)
        lhs = solve_phi_minus_one(ctx31, F3.element(2), 1, h1 + h2.scale(c))
        rhs = solve_phi_minus_one(ctx31, F3.element(2), 1, h1) + solve_phi_minus_one(ctx31, F3.element(2), 1, h2).scale(c)
        assert lhs.agrees_with(rhs, 0, 15)


def test_gamma_element_level():
    g = ctx_for(3, 1).gamma_from_chi(4)
    assert g.level == 1
    assert ctx_for(3, 1).gamma_from_chi(2).level == 0
    assert ctx_for(2, 1).eta.level == 1
    assert ctx_for(2, 1).xi.level == 2


def gamma_pi_by_comb(ctx, chi, order):
    """gamma(pi) = sum_j C(chi, j) pi^j below pi^order, with exact integer binomials
    (chi reduced mod p^D >= order, as (1 + pi)^(p^D) = 1 + pi^(p^D))."""
    p, D = ctx.p, 1
    while p**D < order:
        D += 1
    u = chi % p**D
    return LaurentSeries.from_pairs(ctx.field, {j: math.comb(u, j) % p for j in range(1, order)}, order)


@pytest.mark.parametrize("p,f,m", [(2, 1, 1), (2, 1, 2), (2, 2, 2), (2, 3, 3), (3, 2, 2), (3, 3, 3), (5, 2, 2)])
def test_gamma_act_matches_direct_composition(p, f, m):
    """gamma_act_series against sum_n a_n gamma(pi)^n, negative powers through inv_unit."""
    ctx = ctx_for(p, f, m)
    rng = random.Random(1000 * p + 10 * f + m)
    M, L = ctx.M, ctx.L
    gammas = [ctx.eta, ctx.xi, ctx.eta**-1, ctx.eta**3] + ([ctx.gamma_from_chi(-1)] if p == 2 else [])
    work = M - L + 10
    for gamma in gammas:
        w = gamma_pi_by_comb(ctx, gamma.chi_int, work)
        winv = w.inv_unit()
        for _ in range(8):
            floor = rng.choice([rng.randrange(L, 0), rng.randrange(0, M), rng.randrange(2 * L - 5, L - 1)])
            exps = {floor} | {rng.randrange(floor, M + 5) for _ in range(6)}
            s_order = rng.choice([INF, M + 7, rng.randrange(max(floor, 0) + 1, M + 1)])
            s = LaurentSeries.from_pairs(ctx.field, {e: ctx.field.random_element(rng, nonzero=True) for e in exps}, s_order)
            out_order = rng.choice([None, rng.randrange(floor + 1, M + 3), floor])
            got = ctx.gamma_act_series(gamma, s, out_order)
            claimed = min(s.order, M)
            if out_order is not None:
                claimed = min(claimed, out_order)
            if floor < 0:
                claimed = min(claimed, M - L + 1 + floor)
            assert got.order == claimed
            expect = ctx.zero_series(work)
            for e, a in s.items():
                if e < claimed:
                    power = w.pow(e, work) if e >= 0 else winv.pow(-e, work)
                    expect = expect + power.scale(a)
            assert expect.order >= claimed
            want = expect.truncate(claimed)
            assert (got.low, got.order) == (want.low, want.order)
            assert got.agrees_with(want)
    with pytest.raises(PrecisionError):  # a pole series known only below pi^0
        ctx.gamma_act_series(ctx.eta, LaurentSeries.from_pairs(ctx.field, {L - 1: 1, -1: 1}, -1))
