import itertools

import numpy as np
import pytest

from phigamma import (
    INF,
    LaurentSeries,
    PadicContext,
    PrecisionError,
    big_lambda_gamma,
    build_wach_rank1,
    example71,
    reduce_mod_p,
    saturation_check,
    split_lattice,
    twist_rank_two,
)
from phigamma.wach import wach_gamma_table

from conftest import ctx_for


def pctx_for(p, f, **kw):
    return PadicContext(ctx_for(p, f), **kw)


def test_q_reduces_to_pi_power():
    for p, f in [(2, 1), (3, 1), (5, 2)]:
        pctx = pctx_for(p, f)
        qbar = pctx.q_series(30).reduce_mod_p(pctx.ctx.field)
        assert qbar.agrees_with(LaurentSeries.monomial(pctx.ctx.field, p - 1), 0, 29)


def test_padic_ring_inverse(rng):
    pctx = pctx_for(3, 2)
    ring = pctx.ring
    for _ in range(50):
        row = np.array([rng.randrange(ring.N), rng.randrange(ring.N)])
        if row[0] % 3 == 0 and row[1] % 3 == 0:
            continue
        inv = ring.unit_inv_scalar(row)
        prod = ring.mul_scalar(row, inv)
        assert prod[0] == 1 and prod[1] == 0


def test_lambda_gamma_unit():
    pctx = pctx_for(3, 1)
    g4 = pctx.ctx.gamma_from_chi(4)
    lam, cut = big_lambda_gamma(pctx, g4, 36)
    assert lam.coeff_rows(0, 1)[0, 0] == 1
    assert (lam - LaurentSeries.one(pctx.ring, 36)).val() >= 1
    assert cut >= 1
    lam1, cut1 = big_lambda_gamma(pctx, pctx.ctx.gamma_from_chi(1), 36)
    assert (lam1 - LaurentSeries.one(pctx.ring, 36)).is_zero() and cut1 == 0


def test_explicit_order_zero_is_not_the_default():
    """order 0 means O(pi^0), not the context's pi^M."""
    pctx = pctx_for(3, 1)
    q0 = pctx.q_series(0)
    assert q0.is_zero() and q0.order == 0
    assert pctx.q_series(1).order == 1 and pctx.q_series().order == pctx.M
    lam1, cut1 = big_lambda_gamma(pctx, pctx.ctx.gamma_from_chi(1), 0)
    assert lam1.is_zero() and lam1.order == 0 and cut1 == 0
    with pytest.raises(ArithmeticError):  # w = gamma(pi)/pi is O(pi^0): nothing to invert
        big_lambda_gamma(pctx, pctx.ctx.eta, 0)
    assert big_lambda_gamma(pctx, pctx.ctx.eta)[0].order == pctx.M


def test_wach_rank1_f1():
    pctx = pctx_for(3, 1)
    N = build_wach_rank1(pctx, 1, (1,))
    # g_0 = Lambda_gamma for f = 1, c = (1)
    lam, _ = big_lambda_gamma(pctx, pctx.ctx.eta, pctx.M)
    assert N.g_table["eta"][0].agrees_with(lam, 0, pctx.M - 4)
    rep = reduce_mod_p(N)
    assert rep.match


def test_wach_chain_identity():
    # g_{f-1} = (q/gamma(q))^{c_{f-1}} phi(g_0)
    pctx = pctx_for(3, 2)
    N = build_wach_rank1(pctx, 1, (1, 2))
    q = pctx.q_series(pctx.M)
    gq = pctx.gamma_q(pctx.ctx.eta, pctx.M)
    lhs = gq.pow(2, pctx.M) * N.g_table["eta"][1]
    rhs = q.pow(2, pctx.M) * pctx.phi(N.g_table["eta"][0])
    assert lhs.agrees_with(rhs, None, pctx.M - 9)


def test_reduction_grid_small():
    for p, f in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        pctx = pctx_for(p, f)
        gelt = pctx.ctx.field.generator()
        tei = pctx.ring.teichmuller(gelt)
        for c in itertools.product(range(p), repeat=f):
            if all(x == p - 1 for x in c):
                continue
            for Ctil in (1, 1 + p, tei):
                N = build_wach_rank1(pctx, Ctil, c)
                rep = reduce_mod_p(N)
                assert rep.match, (p, f, c, rep.details)
                # the q check, computed once per context, heads every report
                assert rep.details[0] == ("q = pi^(p-1) mod p", True)
                assert len(rep.details) == 1 + f * len(pctx.ctx.generators())


def test_reduction_identifies_module():
    pctx = pctx_for(3, 1)
    rep = reduce_mod_p(build_wach_rank1(pctx, 1 + 3, (1,)))
    assert rep.match and rep.module.C == pctx.ctx.field.one()
    gelt = pctx.ctx.field.generator()
    rep2 = reduce_mod_p(build_wach_rank1(pctx, pctx.ring.teichmuller(gelt), (1,)))
    assert rep2.match and rep2.module.C == gelt


def test_example71():
    for p in (3, 5):
        pctx = pctx_for(p, 1)
        N, sub = example71(pctx)
        sat = saturation_check(N, sub)
        assert not sat.exact
        assert sat.t_raw == (p - 1,) and sat.t == (1,)
        assert sat.b_prime == (0,) and sat.a_prime == (p - 1,)
        for name, ok in sat.identities:
            assert ok, name


def test_split_lattice_exact():
    for p, f in [(3, 1), (3, 2)]:
        pctx = pctx_for(p, f)
        b = tuple([p - 1] * f)
        a = tuple([0] * f)
        N, sub = split_lattice(pctx, b, a)
        sat = saturation_check(N, sub)
        assert sat.exact and sat.t_raw == tuple([0] * f)
        for name, ok in sat.identities:
            assert ok, name


def test_twist_preserves_verdict():
    pctx = pctx_for(3, 1)
    N, sub = example71(pctx)
    base = saturation_check(N, sub)
    R = build_wach_rank1(pctx, 1, (1,))
    Nt = twist_rank_two(N, R)
    sat = saturation_check(Nt, sub)
    assert sat.exact == base.exact and sat.t_raw == base.t_raw
    assert Nt.a == (1,) and Nt.b == (3,)
    for name, ok in sat.identities:
        assert ok, name


def test_sigma_congruence_on_nonexact():
    pctx = pctx_for(5, 1)
    N, sub = example71(pctx)
    sat = saturation_check(N, sub)
    q1 = 5 - 1
    assert (sat.b_prime[0] - N.b[0]) % q1 == 0
    assert sat.b_prime[0] <= N.b[0]


# -- references: the dense substitution matrix and the per-lift Gamma-table -------------


class DenseSubst:
    """Reference substitution s(pi) -> s((1+pi)^a - 1), for any integer a: the dense M x M
    matrix mat[n, e] = coefficient of pi^e in w^n, built with M full-length np.convolve
    calls.  Its sums run over M products of residues, so past the int64 range they run
    in Python ints."""

    def __init__(self, pctx):
        self.pctx = pctx
        self.mats = {}
        self.dtype = np.int64 if pctx.M * (pctx.ring.N - 1) ** 2 < 2**63 else object

    def matrix(self, a):
        if a not in self.mats:
            pctx = self.pctx
            S, pN = pctx.M, pctx.ring.N
            wrow = pctx.one_plus_pi_pow_int(a, S).coeff_rows(0, S)[:, 0].astype(self.dtype)
            wrow[0] = (wrow[0] - 1) % pN
            mat = np.zeros((S, S), dtype=self.dtype)
            mat[0, 0] = 1
            cur = np.zeros(S, dtype=self.dtype)
            cur[0] = 1
            for n in range(1, S):
                cur = np.convolve(cur, wrow)[:S] % pN
                mat[n] = cur
            self.mats[a] = mat
        return self.mats[a]

    def substitute(self, s, a):
        pctx = self.pctx
        if s.is_zero():
            return LaurentSeries.zero(pctx.ring, min(s.order, pctx.M))
        order = int(min(s.order, pctx.M))
        head = s.coeff_rows(0, min(order, s.floor + len(s.rows))).astype(self.dtype)
        out = self.matrix(a)[: head.shape[0], :order].T @ head % pctx.ring.N
        return LaurentSeries(pctx.ring, 0, order, out.astype(np.int64))

    def phi(self, s, k=1):
        return self.substitute(s, self.pctx.p**k)


def reference_lambda(ref, gamma, order):
    pctx = ref.pctx
    if gamma.chi_int == 1:
        return LaurentSeries.one(pctx.ring, order), 0
    w = (pctx.one_plus_pi_pow_int(gamma.chi_int, order + 1) - LaurentSeries.one(pctx.ring, order + 1)).shift(-1)
    w = w.truncate(order)
    ratio = (w * ref.phi(w).inv_unit(order)).truncate(order)
    one = LaurentSeries.one(pctx.ring, order)
    acc, factor, cut = one, ratio, 0
    while not (factor - one).is_zero():
        acc = (acc * factor).truncate(order)
        factor = ref.phi(factor, pctx.f)
        cut += 1
        if cut > 64:
            raise PrecisionError("Lambda_gamma product failed to converge")
    if acc.val() != 0:
        raise PrecisionError("Lambda_gamma is not a unit at this precision")
    return acc, cut


def reference_lift(ref, c):
    """(g_table, cut_index) the per-lift way: Lambda_gamma, its phi-powers, q/gamma(q)
    and gamma(q) rebuilt from scratch, and every phi(g_{k+1}) recomputed for the check."""
    pctx = ref.pctx
    ctx, f, p, order = pctx.ctx, pctx.f, pctx.p, pctx.M
    g_table, cut_max = {}, 0
    q = pctx.q_series(order)
    for name, gamma in ctx.generators():
        lam, cut = reference_lambda(ref, gamma, order)
        cut_max = max(cut_max, cut)
        g0 = LaurentSeries.one(pctx.ring, order)
        lam_phi = lam
        for k in range(f):
            if c[k]:
                g0 = (g0 * lam_phi.pow(c[k], order)).truncate(order)
            if k + 1 < f:
                lam_phi = ref.phi(lam_phi)
        w = (pctx.one_plus_pi_pow_int(gamma.chi_int, order + 1) - LaurentSeries.one(pctx.ring, order + 1)).shift(-1)
        ratio = (w * ref.phi(w.truncate(order)).inv_unit(order)).truncate(order)
        gs = [None] * f
        gs[0] = prev = g0
        for k in range(f - 1, 0, -1):
            gs[k] = (ratio.pow(c[k], order) * ref.phi(prev)).truncate(order)
            prev = gs[k]
        g_table[name] = gs
        gq = ref.substitute(q, gamma.chi_int)
        for k in range(f):
            lhs = (gq.pow(c[k], order) * gs[k]).truncate(order - p)
            rhs = (q.pow(c[k], order) * ref.phi(gs[(k + 1) % f])).truncate(order - p)
            assert lhs.agrees_with(rhs), (c, k, name)
    return g_table, cut_max


def assert_same_series(a, b):
    assert (a.floor, a.order) == (b.floor, b.order)
    assert np.array_equal(a.rows, b.rows)


GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]


@pytest.mark.parametrize("p,f", GRID)
def test_gamma_table_matches_per_lift_reference(p, f):
    """Every (c, Ctilde) lift equals the per-lift reference series by series; the
    reference body never reads Ctilde, so it runs once per c."""
    pctx = pctx_for(p, f)
    ref = DenseSubst(pctx)
    tei = pctx.ring.teichmuller(pctx.ctx.field.generator())
    for c in itertools.product(range(p), repeat=f):
        if all(x == p - 1 for x in c):
            continue
        ref_table, ref_cut = reference_lift(ref, c)
        assert set(ref_table) == ({"eta", "xi"} if p == 2 else {"eta"})
        for Ctil in (1, 1 + p, tei):
            N = build_wach_rank1(pctx, Ctil, c)
            assert N.cut_index == ref_cut
            assert set(N.g_table) == set(ref_table)
            for name, gs in ref_table.items():
                for mine, theirs in zip(N.g_table[name], gs, strict=True):
                    assert_same_series(mine, theirs)


# the deepest p-adic depth that (2m - 1)(p^depth - 1)^2 < 2^63 admits, at m = f
DEEPEST = {
    (2, 1): 31,
    (2, 2): 30,
    (2, 3): 30,
    (3, 1): 19,
    (3, 2): 19,
    (3, 3): 19,
    (5, 1): 13,
    (5, 2): 13,
    (5, 3): 13,
    (7, 1): 11,
    (7, 2): 10,
}


@pytest.mark.parametrize("p,f", list(DEEPEST))
def test_depth_bound_admits_the_deepest_int64_depth(p, f):
    PadicContext(ctx_for(p, f), depth=DEEPEST[p, f])
    with pytest.raises(ValueError, match="overflows int64"):
        PadicContext(ctx_for(p, f), depth=DEEPEST[p, f] + 1)


@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_taylor_substitution_matches_dense(p, f, rng):
    """phi^k by the Taylor expansion around pi -> pi^(p^k) equals the dense substitution
    for every k <= f, at depths 1, 3 and the deepest, on series with floors at and above
    0 and orders from below the depth (where D^j s is unknown for j >= order) up to INF."""
    for depth in (1, 3, DEEPEST[p, f]):
        pctx = pctx_for(p, f, depth=depth)
        ref = DenseSubst(pctx)
        pN, M = pctx.ring.N, pctx.M
        for k in range(1, f + 1):
            for _ in range(6):
                floor = rng.choice([0, 1, rng.randrange(M + 5)])
                order = rng.choice([INF, M, rng.randrange(1, 2 * M), rng.randrange(1, depth + 2), floor, max(floor - 2, 1)])
                rows = np.array([[rng.randrange(pN) for _ in range(pctx.m)] for _ in range(rng.randrange(1, M))])
                s = LaurentSeries(pctx.ring, floor, order, rows)
                assert_same_series(pctx.phi(s, k), ref.substitute(s, p**k))


@pytest.mark.parametrize("p,f,chi_eta", [(2, 2, None), (3, 1, 5), (3, 2, None), (5, 2, None), (5, 1, 3), (7, 1, None)])
def test_closed_form_gamma_q_matches_dense(p, f, chi_eta):
    """gamma(q) = ((1+pi)^(p chi) - 1)/((1+pi)^chi - 1) equals the dense substitution of
    q by gamma(pi) = (1+pi)^chi - 1, for each generator and a non-default chi_eta."""
    ctx = ctx_for(p, f) if chi_eta is None else ctx_for(p, f, chi_eta=chi_eta)
    assert chi_eta is None or ctx.eta.chi_int == chi_eta
    pctx = PadicContext(ctx)
    ref = DenseSubst(pctx)
    q = pctx.q_series(pctx.M)
    for _, gamma in ctx.generators():
        assert_same_series(pctx.gamma_q(gamma, pctx.M), ref.substitute(q, gamma.chi_int))


def test_corrupted_cached_ratio_fails_commutation(monkeypatch):
    pctx = pctx_for(3, 2)
    units = pctx.units(pctx.ctx.eta)
    monkeypatch.setitem(units.bases, "ratio", units.bases["ratio"] + pctx.pi(5, pctx.M))
    with pytest.raises(ArithmeticError, match="Wach commutation failed"):
        wach_gamma_table(pctx, (1, 2))
