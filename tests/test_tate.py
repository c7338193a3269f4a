import math
import random

import numpy as np
import pytest

from phigamma import Context, LaurentSeries, NonBijectiveError, PrecisionError, solve_phi_minus_one
from phigamma.series import INF, nth_root_unit, one_plus_pi_pow
from phigamma import tate as tate_mod
from phigamma.tate import _POLE_STEPS

from conftest import ctx_for, ref_op_lambda_gamma


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


def _root_lambda(ctx, gamma):
    """lambda_gamma by the Newton root of u = gamma(pi)/(chibar pi): the oracle of the closed form."""
    u = (one_plus_pi_pow(ctx.field, gamma.chi_int, ctx.M + 1) - 1).shift(-1).scale(ctx.chibar(gamma).inv())
    return nth_root_unit(u, ctx.d_root, ctx.M)


LAMBDA_GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]


@pytest.mark.parametrize(
    "p,f,m,kw",
    [(p, f, f, {}) for p, f in LAMBDA_GRID]
    + [(2, 2, 2, {"chi_eta": 3}), (3, 2, 2, {"chi_eta": 5}), (5, 2, 2, {"chi_eta": 3}), (7, 1, 1, {"chi_eta": 5})]
    + [(2, 1, 2, {}), (2, 2, 4, {}), (3, 1, 2, {}), (3, 2, 4, {}), (5, 1, 2, {})]
    + [(p, f, f, {"pi_order": M}) for p, f in [(2, 2), (3, 2), (5, 2)] for M in (1, 2, p**f - 1, p**f, p**f + 1)],
)
def test_lambda_closed_form_matches_root(p, f, m, kw):
    """The Frobenius product equals the Newton root on the full window [0, M), in floor,
    order and rows: for eta, xi, their squares and a few other units, chi = 1 included."""
    ctx = ctx_for(p, f, m, **kw)
    gammas = [ctx.eta, ctx.xi, ctx.eta * ctx.eta, ctx.xi * ctx.xi] + [ctx.gamma_from_chi(a) for a in (1, 1 + p, 2 * p - 1)]
    for gamma in gammas:
        lam = ctx.lambda_gamma(gamma)
        assert lam.order == ctx.M
        assert lam == _root_lambda(ctx, gamma), gamma


@pytest.mark.parametrize("p,f,m", [(2, 1, 1), (2, 2, 2), (2, 3, 3), (3, 1, 1), (3, 2, 2), (3, 2, 4), (5, 1, 1), (5, 2, 2), (7, 1, 1)])
def test_lambda_pow_digits_match_binary_power(p, f, m):
    """lambda^sigma by base-p digits equals LaurentSeries.pow for sigma in [-q, 2q], q = p^f."""
    ctx = ctx_for(p, f, m)
    q = p**f
    for gamma in (ctx.eta, ctx.xi):
        lam = ctx.lambda_gamma(gamma)
        for s in range(-q, 2 * q + 1):
            assert ctx.lambda_pow(gamma, s) == lam.pow(s, ctx.M), (gamma, s)


@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_lambda_pow_below_an_order_is_the_power_cut(p, f, monkeypatch, fresh_caches):
    """lambda^sigma built below n on an empty cache equals the whole-window power cut at n,
    in floor, order and rows, for sigma in [-q, 2q], eta and xi and n in 1, 7, M (n rising,
    so each longer read rebuilds); a shorter read after that returns the kept build."""
    ctx = ctx_for(p, f)
    q = p**f
    for gamma in (ctx.eta, ctx.xi):
        full = {s: ctx.lambda_pow(gamma, s) for s in range(-q, 2 * q + 1)}
        monkeypatch.setattr(tate_mod, "_REGISTRY", {})
        for n in (1, 7, ctx.M):
            for s in full:
                lam = ctx.lambda_pow_below(gamma, s, n)
                assert lam.order == n and lam == full[s].truncate(n), (gamma, s, n)
        for s in full:
            assert ctx.lambda_pow_below(gamma, s, 1) is ctx.lambda_pow(gamma, s) and ctx.lambda_pow(gamma, s) == full[s]


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
def test_gamma_act_matches_direct_composition(p, f, m, monkeypatch):
    """gamma_act_series against sum_n a_n gamma(pi)^n, negative powers through inv_unit:
    random windows, and poles cleared by K = a p^k with a in {2, p - 1} (a is always 1
    at p = 2) at window orders just below and above _POLE_STEPS p^k."""
    ctx = ctx_for(p, f, m)
    rng = random.Random(1000 * p + 10 * f + m)
    M, L = ctx.M, ctx.L
    gammas = [ctx.eta, ctx.xi, ctx.eta**-1, ctx.eta**3] + ([ctx.gamma_from_chi(-1)] if p == 2 else [])
    work = M - L + 10
    poles = []
    for k in range(4):
        for a in sorted({2, p - 1}):
            for floor in (-a * p**k, 1 - a * p**k):
                for order in (_POLE_STEPS * p**k - 1, _POLE_STEPS * p**k + 1):
                    if floor < 0 and order <= min(M, M - L + 1 + floor):
                        poles.append((floor, order))
    assert len(poles) >= 8
    heads = set()  # the a of every head gamma(pi)^(-a) the action asks for
    head = ctx._winv
    monkeypatch.setattr(ctx, "_winv", lambda gamma, a: heads.add(a) or head(gamma, a))

    def check(gamma, w, winv, s, out_order):
        got = ctx.gamma_act_series(gamma, s, out_order)
        claimed = min(s.order, M)
        if out_order is not None:
            claimed = min(claimed, out_order)
        if s.floor < 0:
            claimed = min(claimed, M - L + 1 + s.floor)
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

    for gamma in gammas:
        w = gamma_pi_by_comb(ctx, gamma.chi_int, work)
        winv = w.inv_unit()
        for _ in range(8):
            floor = rng.choice([rng.randrange(L, 0), rng.randrange(0, M), rng.randrange(2 * L - 5, L - 1)])
            exps = {floor} | {rng.randrange(floor, M + 5) for _ in range(6)}
            s_order = rng.choice([INF, M + 7, rng.randrange(max(floor, 0) + 1, M + 1)])
            s = LaurentSeries.from_pairs(ctx.field, {e: ctx.field.random_element(rng, nonzero=True) for e in exps}, s_order)
            check(gamma, w, winv, s, rng.choice([None, rng.randrange(floor + 1, M + 3), floor]))
        for floor, order in poles:
            exps = {floor} | {rng.randrange(floor, order + 5) for _ in range(6)}
            s = LaurentSeries.from_pairs(ctx.field, {e: ctx.field.random_element(rng, nonzero=True) for e in exps})
            check(gamma, w, winv, s, order)
    assert 1 in heads and (p == 2 or {2, p - 1} <= heads), heads
    with pytest.raises(PrecisionError):  # a pole series known only below pi^0
        ctx.gamma_act_series(ctx.eta, LaurentSeries.from_pairs(ctx.field, {L - 1: 1, -1: 1}, -1))


@pytest.mark.parametrize("p,f,m", [(2, 2, 2), (3, 2, 2), (5, 2, 2), (5, 1, 3)])
def test_op_lambda_gamma_rows_matches_per_column(p, f, m):
    """The batched (lambda^sigma gamma - 1), one convolve_rows product for the whole
    batch, against the series reference on each column: wide batches of series with
    poles, some columns zero and some with F_p coefficients only."""
    ctx = ctx_for(p, f, m)
    F = ctx.field
    rng = random.Random(7000 * p + 10 * f + m)
    gen = np.random.default_rng(7000 * p + 10 * f + m)
    windows = [(ctx.L, ctx.M + ctx.L), (-3 * p, 2 * p * p), (0, ctx.M), (-1, 5), (-2 * p * p, 1)]  # last: a V_J system's deep pole
    for gamma in [ctx.eta, ctx.xi]:
        for floor, order in windows:
            sigma = rng.randrange(p**f)
            B = 40
            x = gen.integers(0, p, (order - floor, m, B))
            x[:, :, 1::5] = 0  # zero columns
            x[:, 1:, 2::5] = 0  # F_p coefficients only
            x[max(-floor, 0) :, :, 3::5] = 0  # poles only
            x[:, :, 4::5] *= gen.random((order - floor, 1, 1)) < 0.05  # sparse
            got = ctx.op_lambda_gamma_rows(gamma, sigma, x, floor, order)
            assert got.shape == x.shape
            for k in range(B):
                s = LaurentSeries(F, floor, order, x[:, :, k])
                want = ref_op_lambda_gamma(ctx, gamma, sigma, s, out_order=order)
                assert want.order >= order
                assert np.array_equal(got[:, :, k], want.coeff_rows(floor, order)), (gamma, floor, order, k)


@pytest.mark.parametrize("p,f", [(2, 2), (3, 3), (5, 2)])
def test_op_lambda_gamma_matches_series_reference(p, f):
    """op_lambda_gamma, a batch of width 1, against the series reference in floor, order
    and rows: random series with poles down to the tail floor, power series, polynomials
    of infinite order, zero series, out_order cuts, sigma of either sign, and chi = 1."""
    ctx = ctx_for(p, f)
    rng = random.Random(11000 * p + f)
    M, L = ctx.M, ctx.L
    gammas = [ctx.eta, ctx.xi, ctx.eta**-1, ctx.gamma_from_chi(1)]
    cases = [(L, 3, M), (-2 * p, p, INF), (-1, 0, 0), (0, 5, M), (3, 2 * p, INF), (M - 3, M + 2, INF), (-p, p, M // 2)]  # (lo, hi, order)
    for gamma in gammas:
        for lo, hi, order in cases:
            for out_order in (None, M // 3, 1, -p // 2):
                sigma = rng.randrange(-p, p**f)
                for s in (rand_series(ctx.field, rng, lo, hi, order), ctx.zero_series(order), ctx.pi(lo)):
                    got = ctx.op_lambda_gamma(gamma, sigma, s, out_order)
                    want = ref_op_lambda_gamma(ctx, gamma, sigma, s, out_order)
                    assert got == want, (gamma, lo, hi, order, out_order, sigma)
    for gamma in gammas:  # a pole series known only below pi^0
        with pytest.raises(PrecisionError):
            ctx.op_lambda_gamma(gamma, 1, LaurentSeries.from_pairs(ctx.field, {L - 1: 1, -2: 1}, -1))


@pytest.mark.parametrize("p,f,m", [(2, 2, 2), (2, 3, 3), (3, 3, 3), (5, 2, 2)])
def test_op_lambda_gamma_rows_sigma_per_component(p, f, m):
    """One call with a sigma per component (axis 1 of x, a strided view as in the
    residual systems) against f single-sigma calls, on random windows with poles."""
    ctx = ctx_for(p, f, m)
    rng = random.Random(9000 * p + 10 * f + m)
    gen = np.random.default_rng(9000 * p + 10 * f + m)
    for gamma in [ctx.eta, ctx.xi]:
        for k in range(4):
            floor = rng.randrange(ctx.L, 0) if k < 2 else rng.randrange(0, ctx.M // 2)  # two with poles
            order = rng.randrange(floor + 1, min(ctx.M, floor + ctx.M) + 1)
            sigmas = [rng.randrange(p**f) for _ in range(f)]
            x = gen.integers(0, p, (f, order - floor, m, 5)).transpose(1, 0, 2, 3)
            x[:, :, :, 1] = 0  # a zero column
            x[:, 0, :, 2] = 0  # zero in one component only
            got = ctx.op_lambda_gamma_rows(gamma, sigmas, x, floor, order)
            assert got.shape == x.shape
            for i, sigma in enumerate(sigmas):
                want = ctx.op_lambda_gamma_rows(gamma, sigma, np.ascontiguousarray(x[:, i]), floor, order)
                assert np.array_equal(got[:, i], want), (gamma, floor, order, i)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_chi_eta_must_generate_gamma(p):
    """A chi_eta is accepted exactly when it generates Gamma: for p > 2 when it
    generates (Z/p^2)^*, for p = 2 when it and chi(xi) = 5 generate (Z/8)^*."""
    field = ctx_for(p, 1).field
    mod = 8 if p == 2 else p * p
    for chi in range(-mod, 2 * mod):
        if chi % p == 0:
            continue
        group, frontier = {1}, [1]
        while frontier:
            x = frontier.pop()
            for g in (chi, 5) if p == 2 else (chi,):
                if x * g % mod not in group:
                    group.add(x * g % mod)
                    frontier.append(x * g % mod)
        if len(group) == (4 if p == 2 else p * (p - 1)):
            assert Context(field, chi_eta=chi).eta.chi_int == chi
        else:
            with pytest.raises(ValueError, match="does not generate"):
                Context(field, chi_eta=chi)
