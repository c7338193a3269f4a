import itertools
import random

import numpy as np
import pytest

from phigamma import (
    Context,
    LaurentSeries,
    NonBijectiveError,
    RankOneModule,
    basis_for,
    build_Bcyc,
    build_Bi,
    build_Bi_prime,
    build_Btr,
    build_trivial_basis,
    coboundary,
    is_coboundary,
    random_cocycle,
    span_decompose,
    verify_cocycle,
)
from phigamma import bounded as bounded_mod
from phigamma import cocycle as cocycle_mod
from phigamma import tate as tate_mod
from phigamma.cocycle import Cocycle, ModuleBasis, _coboundary_system, _coboundary_window
from phigamma.gflinalg import gf
from phigamma.series import INF
from phigamma.tate import solve_phi_minus_one

from conftest import ctx_for, ref_op_lambda_gamma, sub_basis


def rand_tate(ctx, rng, lo=-6, hi=4):
    return ctx.tate(
        [
            LaurentSeries.from_pairs(ctx.field, {e: ctx.field.random_element(rng) for e in range(lo, hi)}, ctx.M)
            for _ in range(ctx.f)
        ]
    )


def test_coboundary_zero(ctx31):
    M = RankOneModule(ctx31, 2, (1,))
    cb = coboundary(M, ctx31.tate_zero(ctx31.M))
    assert cb.mu_phi.is_zero() and cb.mu_gen["eta"].is_zero()
    assert is_coboundary(cb).status == "yes"


def test_coboundary_satisfies_conditions(ctx32, rng):
    M = RankOneModule(ctx32, 2, (1, 0))
    for _ in range(100):
        cb = coboundary(M, rand_tate(ctx32, rng))
        assert verify_cocycle(cb).ok


def test_verify_flags_corruption(ctx31):
    M = RankOneModule(ctx31, 2, (1,))
    B = build_Bi(M, 0)
    assert verify_cocycle(B).ok
    bad = Cocycle(M, B.mu_phi + ctx31.tate([ctx31.pi(-1)]), B.mu_gen, "bad")
    assert not verify_cocycle(bad).ok


def test_build_Bi_valuations():
    # generic c_i < p-1: val = 1-p; c_i = p-1, c_{i+1} != p-2: 1-p^2; chain: 1-p^3
    ctx = ctx_for(5, 2)
    for c, vals in [((1, 2), (-4, -4)), ((4, 1), (1 - 25, -4)), ((4, 3), (1 - 125, -4)), ((3, 4), (-4, 1 - 125))]:
        M = RankOneModule(ctx, 2, c)
        for i in range(2):
            B = build_Bi(M, i)
            assert B.mu_phi[i].val() == vals[i], (c, i)
            assert verify_cocycle(B).ok


def test_build_Bi_p2():
    ctx = ctx_for(2, 2)
    M = RankOneModule(ctx, 1, (1, 0))
    B0 = build_Bi(M, 0)
    assert B0.mu_phi[0].support() == [-7, -5]  # r = 1
    assert verify_cocycle(B0).ok
    B1 = build_Bi(M, 1)
    assert B1.mu_phi[1].support() == [-1]
    assert verify_cocycle(B1).ok


def test_trivial_module_rejects_build_Bi(ctx31):
    M0 = RankOneModule(ctx31, 1, (0,))
    with pytest.raises(NonBijectiveError):
        build_Bi(M0, 0)


def test_mu_xi_constant_term_alpha(ctx52):
    # Lemma-style: val(e_i mu_xi(B_i)) = 0 when c_i < p-1, with the two-case
    # constant alpha_i = (C-1)^{-1} s0 z (c = 0) or -s0 z (otherwise)
    ctx = ctx52
    F = ctx.field
    z = ctx.z_of_xi()
    p, f = ctx.p, ctx.f

    def s0_digit(sigma):
        t = sigma + (1 - p) * (p**f - 1) // (p - 1)
        return F.coerce(t % p)

    g = F.generator()
    for C, c in [(g, (0, 0)), (g, (1, 2)), (F.one(), (2, 1)), (g, (3, 1))]:
        M = RankOneModule(ctx, C, c)
        for i in range(2):
            if c[i] == p - 1:
                continue
            B = build_Bi(M, i)
            mu_xi = B.mu_xi()
            assert mu_xi.comps[i].val() == 0, (C, c, i)
            alpha = mu_xi.comps[i].coeff(0)
            s0z = s0_digit(M.sigma(i)) * z
            expect = s0z / (C - F.one()) if all(x == 0 for x in c) else -s0z
            assert alpha == expect, (C, c, i)


def test_Bi_prime_profiles(ctx52):
    ctx = ctx52
    p = ctx.p
    M = RankOneModule(ctx, 2, (4, 1))
    Bp = build_Bi_prime(M, 0)
    assert verify_cocycle(Bp).ok
    assert Bp.mu_phi[0].val() == 2 - 2 * p and Bp.mu_phi[1].val() == 2 - 2 * p
    assert Bp.mu_xi().comps[0].low >= 0 and Bp.mu_xi().comps[1].val() == 1 - p
    M2 = RankOneModule(ctx, 2, (4, 3))
    Bp3 = build_Bi_prime(M2, 0)
    assert verify_cocycle(Bp3).ok
    assert Bp3.mu_phi[0].low >= 2 - 2 * p and Bp3.mu_phi[1].val() == 3 - 3 * p
    assert Bp3.mu_xi().comps[0].val() == 1 - p and Bp3.mu_xi().comps[1].low >= 2 - 2 * p
    # mirrored index
    M3 = RankOneModule(ctx, 2, (1, 4))
    Bq = build_Bi_prime(M3, 1)
    assert verify_cocycle(Bq).ok
    assert Bq.mu_phi[1].val() == 2 - 2 * p and Bq.mu_phi[0].val() == 2 - 2 * p
    # cohomologous to B_i
    B = basis_for(M).elements[0]
    assert is_coboundary(Bp - B).status == "yes"


def test_Btr_shape(ctx31):
    M = RankOneModule(ctx31, 1, (1,))
    Btr = build_Btr(M)
    p = ctx31.p
    assert Btr.mu_phi[0].val() == 3 * (1 - p)
    assert Btr.mu_gen["eta"].comps[0].val() == 1 - p
    assert verify_cocycle(Btr).ok
    assert is_coboundary(Btr).status == "no"
    dec = span_decompose(Btr)
    assert dec is not None and dec.coords == (ctx31.field.zero(), ctx31.field.one())


def test_trivial_basis_structure(ctx32):
    M0 = RankOneModule(ctx32, 1, (0, 0))
    raw = build_trivial_basis(M0)
    labels = [c.label for c in raw]
    assert labels == ["B_nr", "B_0", "B_1"]
    for c in raw:
        assert verify_cocycle(c).ok
    bnr = raw[0]
    assert bnr.mu_gen["eta"].is_zero()
    bcyc = build_Bcyc(M0)
    assert verify_cocycle(bcyc).ok
    assert bcyc.mu_phi.is_zero()
    # mu_gamma(B_cyc) = nu * nbar_gamma * (1,...,1): constant, equal components
    comp = bcyc.mu_gen["eta"].comps
    assert comp[0].agrees_with(comp[1], 0, ctx32.M) and comp[0].val() == 0
    assert is_coboundary(bcyc).status == "no"


def test_p2_trivial_count(ctx22, ctx21):
    M0 = RankOneModule(ctx22, 1, (0, 0))
    raw = build_trivial_basis(M0)
    assert [c.label for c in raw] == ["B_nr", "B_0", "B_1", "B_tr"]
    for c in raw:
        assert verify_cocycle(c).ok
    assert M0.ext_dim() == 4
    M01 = RankOneModule(ctx21, 1, (0,))
    assert M01.ext_dim() == 3
    assert len(build_trivial_basis(M01)) == 3


def test_independence_exhaustive_p2(ctx22):
    M0 = RankOneModule(ctx22, 1, (0, 0))
    basis = basis_for(M0)
    for coords in itertools.product(range(2), repeat=4):
        if not any(coords):
            continue
        comb = basis.combination([ctx22.field.coerce(x) for x in coords])
        assert is_coboundary(comb).status == "no", coords


def test_is_coboundary_round_trip(ctx32, rng):
    M = RankOneModule(ctx32, 2, (2, 1))
    for _ in range(20):
        b = rand_tate(ctx32, rng)
        cb = coboundary(M, b)
        res = is_coboundary(cb)
        assert res.status == "yes"
        # witness reproduces the coboundary
        cb2 = coboundary(M, res.witness)
        hi = min(cb.mu_phi.min_order(), cb2.mu_phi.min_order())
        assert cb.mu_phi.agrees_with(cb2.mu_phi, None, hi)


def test_is_coboundary_rejects_basis(ctx32):
    for c in [(1, 1), (2, 0), (1, 0)]:
        M = RankOneModule(ctx32, 2, c)
        for B in basis_for(M).elements:
            assert is_coboundary(B).status == "no"


def test_span_decompose_unit_vectors(ctx32, rng):
    M = RankOneModule(ctx32, 2, (1, 1))
    basis = basis_for(M)
    b = rand_tate(ctx32, rng)
    dec = span_decompose(basis.elements[1] + coboundary(M, b))
    assert dec is not None
    assert dec.coords == (ctx32.field.zero(), ctx32.field.one())
    z = basis.elements[0] - basis.elements[0]
    dec0 = span_decompose(z)
    assert dec0 is not None and not any(dec0.coords)


def test_random_cocycles_decompose(ctx32, rng):
    for C, c in [(2, (1, 1)), (1, (2, 1)), (1, (0, 0)), (1, (1, 1))]:
        M = RankOneModule(ctx32, C, c)
        for _ in range(10):
            x = random_cocycle(M, rng)
            assert verify_cocycle(x).ok
            assert span_decompose(x) is not None


def test_not_in_span(ctx31):
    # B_tr of the cyclotomic module is not in the span of the B_i
    M = RankOneModule(ctx31, 1, (1,))
    Btr = build_Btr(M)
    bi_only = sub_basis(ModuleBasis(M), [0])  # the basis without B_tr
    assert bi_only.labels == ("B_0",)
    assert span_decompose(Btr, bi_only) is None


def test_ddagger_random_words(ctx32, rng):
    # the chain rule on random generator words for constructed basis elements
    for C, c in [(2, (1, 1)), (2, (2, 1))]:
        M = RankOneModule(ctx32, C, c)
        for B in basis_for(M).elements:
            rep = verify_cocycle(B, words=20, rng=rng)
            assert rep.ok, (C, c, B.label, [x for x in rep.checks if not x[1]])


def test_is_coboundary_inconclusive_on_tiny_window(ctx31):
    # a cocycle carried at a hopeless window cannot be decided
    from phigamma import LaurentSeries as LS

    M = RankOneModule(ctx31, 2, (1,))
    B = build_Bi(M, 0)
    tiny = Cocycle(
        M,
        ctx31.tate([B.mu_phi[0].truncate(-1)]),
        {"eta": ctx31.tate([B.mu_gen["eta"].comps[0].truncate(-2)])},
        "tiny",
    )
    assert is_coboundary(tiny).status == "inconclusive"


# -- Frobenius substitutions cut to their callers' windows ---------------------------
# The references build every row of a substitution, and the callers that keep a
# window cut the result afterwards.  Series compare by floor, order and rows (==).


def _uncapped(s, k, order=INF):
    """g(pi) -> g(pi^k) on the whole series; ``order`` is ignored."""
    if k == 1:
        return s
    out_order = s.order if s.order == INF else k * s.order
    if s.is_zero():
        return LaurentSeries.zero(s.field, out_order)
    rows = np.zeros((k * (len(s.rows) - 1) + 1, s.field.m), dtype=np.int64)
    rows[::k] = s.rows
    return LaurentSeries(s.field, k * s.floor, out_order, rows)


def _ref_solve_phi_minus_one(ctx, C, sigma, h):
    if sigma == 0:
        return solve_phi_minus_one(ctx, C, sigma, h)
    order = int(min(h.order if h.order != INF else ctx.M, ctx.M))
    shift = (ctx.p - 1) * sigma
    acc = term = h.truncate(order)
    while not term.is_zero():
        term = _uncapped(term, ctx.p**ctx.f).shift(shift).scale(ctx.field.coerce(C)).truncate(order)
        acc = acc + term
    return -acc


@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_solve_phi_minus_one_matches_neumann_reference(p, f, rng):
    """Sigma > 0: the phi-transport solve equals the Neumann series in floor, order and rows."""
    ctx = ctx_for(p, f)
    F = ctx.field
    for _ in range(10):
        C = F.random_element(rng, nonzero=True)
        sigma = rng.randrange(1, p**f)
        floor = rng.randrange(0, 2 * p**f)
        order = rng.choice([INF, ctx.M, rng.randrange(1, ctx.M)])
        h = LaurentSeries.from_pairs(F, {e: F.random_element(rng) for e in range(floor, floor + rng.randrange(1, 40))}, order)
        got, want = solve_phi_minus_one(ctx, C, sigma, h), _ref_solve_phi_minus_one(ctx, C, sigma, h)
        assert (got.floor, got.order) == (want.floor, want.order) and np.array_equal(got.rows, want.rows)


def _ref_mu_gamma_from_H(module, i, H, gamma):
    ctx = module.ctx
    p, f = ctx.p, ctx.f
    sigma = module.sigma(i)
    G = [None] * f
    G[i] = _ref_solve_phi_minus_one(ctx, module.C, sigma, ref_op_lambda_gamma(ctx, gamma, sigma, H))
    k = (i - 1) % f
    while G[k] is None:
        nxt = _uncapped(G[(k + 1) % f], p).shift((p - 1) * module.c[k]).truncate(ctx.M)
        G[k] = nxt.scale(module.C) if k == 0 else nxt
        k = (k - 1) % f
    return ctx.tate(G)


def _same_tate(x, y):
    return all(a == b for a, b in zip(x.comps, y.comps))


def _same_cocycle(x, y):
    return _same_tate(x.mu_phi, y.mu_phi) and x.mu_gen.keys() == y.mu_gen.keys() and all(
        _same_tate(x.mu_gen[k], y.mu_gen[k]) for k in x.mu_gen
    )


def _modules(ctx):
    p, f = ctx.p, ctx.f
    for C in (ctx.field.one(), ctx.field.generator()):
        for c in itertools.product(range(p), repeat=f):
            if any(ci != p - 1 for ci in c):
                yield RankOneModule(ctx, C, c)


@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (3, 2), (5, 2)])
def test_substitutions_keep_every_window(monkeypatch, p, f):
    """Bases, coboundaries, phi_act and verify_cocycle agree in floor, order and rows
    with the uncapped substitution bodies, for every digit vector and C in {1, g};
    the trivial and cyclotomic modules are among them."""
    ctx = ctx_for(p, f)
    rng = random.Random(100 * p + f)
    for M in _modules(ctx):
        basis = ModuleBasis(M)
        b = rand_tate(ctx, rng)
        b = ctx.tate([x.truncate(rng.choice([ctx.M, ctx.M - 3, ctx.M // 2])) for x in b.comps])  # unequal orders
        got = [coboundary(M, b)] + [verify_cocycle(B) for B in basis.elements]
        for cap in (INF, ctx.M, 2):
            assert _same_tate(ctx.phi_act(b, cap), ctx.tate([_uncapped(x, p).truncate(cap) for x in b.comps[1:] + b.comps[:1]]))
        if M.is_trivial_shape():  # B_i's components are g(pi^(p^(i-k))) cut at M, g = component i
            for i, B in enumerate(basis.elements[:f]):
                for mu in B.mu_gen.values():
                    assert mu.comps[i].order <= ctx.M
                    for k in range(f):
                        assert mu.comps[k] == _uncapped(mu.comps[i], p ** ((i - k) % f)).truncate(ctx.M)
        i_prime = [i for i in range(f) if f == 2 and p > 2 and M.c[i] == p - 1]
        with monkeypatch.context() as mp:
            mp.setattr(LaurentSeries, "substitute_power", _uncapped)
            mp.setattr(cocycle_mod, "_mu_gamma_from_H", _ref_mu_gamma_from_H)
            ref = ModuleBasis(M) if not M.is_trivial_shape() else basis
            want = [coboundary(M, b)] + [verify_cocycle(B) for B in ref.elements]
            bprime = [build_Bi_prime(M, i) for i in i_prime]
        assert all(_same_cocycle(x, y) for x, y in zip(basis.elements, ref.elements)), M
        assert _same_cocycle(got[0], want[0]), M
        for x, y in zip(got[1:], want[1:]):
            assert x.ok and (x.max_exponent, x.checks) == (y.max_exponent, y.checks), M
        assert all(_same_cocycle(build_Bi_prime(M, i), y) for i, y in zip(i_prime, bprime)), M


def _two_call_span(c, basis):
    """span_decompose as two residual builds: the basis columns, then the target."""
    M = c.module
    key = _coboundary_window(M, [c, *basis.elements])
    A = _coboundary_system(M, *key, basis.elements)
    rows = A.any(axis=(1, 2))
    target = _coboundary_system(M, *key, [c], kernel=False)[:, 0]
    sol = None if target[~rows].any() else gf(M.ctx.field).solve(A[rows], target[rows])
    coords = None if sol is None else tuple(M.ctx.field.from_row(v) for v in sol[: len(basis)])
    return key, (rows, A[rows]), coords


@pytest.mark.parametrize("p,f,C,c", [(2, 1, 1, (0,)), (2, 2, 1, (0, 0)), (2, 2, "g", (1, 0)), (3, 2, 1, (1, 1)), (3, 2, "g", (2, 1))])
def test_cold_first_span_matches_two_call_reference(p, f, C, c):
    """The first span of a window builds the target with the basis columns; the
    cold and the warm decomposition, and the cached residual columns, equal the
    two-call build.  Kernel-line modules (C = 1, fixed cycle) and p = 2 (xi rows) included."""
    ctx = ctx_for(p, f)
    M = RankOneModule(ctx, ctx.field.generator() if C == "g" else C, c)
    rng = random.Random(7 * p + f)
    basis = ModuleBasis(M)
    partial = sub_basis(basis, range(len(basis) - 1))  # without its last element, which leaves that one outside the span
    cases = [(random_cocycle(M, rng), basis) for _ in range(3)]
    cases += [(basis.elements[-1], basis), (basis.elements[0] - basis.elements[0], basis), (basis.elements[-1], partial)]
    for x, B in cases:
        key, (rows, A), want = _two_call_span(x, B)
        B._residual_cache = {}
        cold = span_decompose(x, B)
        cached_rows, cached_A = B._residual_cache[key].rows, B._residual_cache[key].columns.A
        warm = span_decompose(x, B)
        assert np.array_equal(cached_rows, rows) and np.array_equal(cached_A, A)
        assert (want is None) == (B is partial)
        assert (cold and cold.coords) == (warm and warm.coords) == want


# -- mu at powers of eta by binary powering of the chain rule --------------------------


def ref_mu_at_eta_power(c, k, order=INF):
    """mu_{eta^k} by k - 1 steps of the chain rule mu_{eta eta^j} = kappa_eta eta(mu_{eta^j}) + mu_eta,
    on the whole window, cut at ``order`` afterwards."""
    ctx = c.ctx
    mu = c.mu_eta()
    kappa = c.module.kappa_gamma(ctx.eta)
    for _ in range(k - 1):
        mu = kappa * ctx.gamma_act(ctx.eta, mu) + c.mu_eta()
    return mu.truncate(order)


def _power_cases(p, f):
    """Fresh copies (mu_xi not yet derived) of the basis elements of the trivial module
    (B_nr has mu_eta = 0), the cyclotomic module (B_tr has poles) and a generic module,
    plus one random cocycle of each."""
    ctx = ctx_for(p, f)
    rng = random.Random(10 * p + f)
    one = ctx.field.one()
    generic = tuple(rng.randrange(p - 1) for _ in range(f))
    for C, c in [(one, (0,) * f), (one, (p - 2,) * f), (ctx.field.generator(), generic)]:
        M = RankOneModule(ctx, C, c)
        for x in [*basis_for(M).elements, random_cocycle(M, rng)]:
            yield Cocycle(M, x.mu_phi, x.mu_gen, x.label)


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_mu_at_eta_power_matches_step_loop(p, f):
    """Floor, order and rows for k = 1 .. 2p: at p = 7 the combine step runs (k = 6 = 4 + 2);
    k = p - 1 at p = 3, 5 only squares."""
    labels = set()
    for c in _power_cases(p, f):
        labels.add(c.label)
        for k in range(1, 2 * p + 1):
            assert _same_tate(c.mu_at_eta_power(k), ref_mu_at_eta_power(c, k)), (c.label, k)
    assert {"B_nr", "B_tr"} <= labels


@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_mu_at_eta_power_below_an_order_is_the_full_result_cut(p, f):
    """mu at eta^k built below an order equals the whole-window result cut at that order
    afterwards, in floor, order and rows, for k = 1 .. 2p: orders from 1 (the lowest a
    V_J system asks for) up past M, on cocycles with poles (B_tr) and without."""
    ctx = ctx_for(p, f)
    for c in _power_cases(p, f):
        for k in range(1, 2 * p + 1):
            full = c.mu_at_eta_power(k)
            for order in (1, 2, 7, ctx.M // 3, ctx.M + 1):
                assert _same_tate(c.mu_at_eta_power(k, order), full.truncate(order)), (c.label, k, order)


@pytest.mark.parametrize("p,f", [(3, 2), (5, 1), (7, 1)])
def test_mu_xi_keeps_the_longest_build(monkeypatch, p, f):
    """A shorter read of mu_xi after a longer one returns the kept value uncut and builds
    nothing; a longer read after a shorter one rebuilds to its order; each is exact."""
    builds = []
    power = Cocycle.mu_at_eta_power
    monkeypatch.setattr(Cocycle, "mu_at_eta_power", lambda c, k, order=INF: builds.append(order) or power(c, k, order))
    for x in _power_cases(p, f):
        full = Cocycle(x.module, x.mu_phi, x.mu_gen, x.label).mu_xi()
        c = Cocycle(x.module, x.mu_phi, x.mu_gen, x.label)
        del builds[:]
        short = c.mu_xi(5)
        assert _same_tate(short, full.truncate(5)) and c.mu_xi(2) is short
        long = c.mu_xi(40)
        assert _same_tate(long, full.truncate(40)) and c.mu_xi(5) is long
        assert _same_tate(c.mu_xi(), full) and c.mu_xi(ctx_for(p, f).M) is c.mu_xi()
        assert builds == [5, 40, INF], (x.label, builds)


@pytest.mark.parametrize("p,f", [(3, 2), (5, 2)])
def test_verify_cocycle_after_a_vj_cut_reads_the_whole_window(monkeypatch, p, f):
    """A V_J table derives the mu_xi of the basis elements only below its thresholds;
    verify_cocycle on those elements still reports the whole window, as on fresh copies."""
    monkeypatch.setattr(cocycle_mod, "_BASIS_CACHE", {})  # a basis whose mu_xi is not derived yet
    ctx = ctx_for(p, f)
    rng = random.Random(7 * p + f)
    for C, c in [(ctx.field.one(), (p - 2,) * f), (ctx.field.generator(), tuple(rng.randrange(p - 1) for _ in range(f)))]:
        M = RankOneModule(ctx, C, c)
        bounded_mod.vj_table(M, stability=False)
        basis = basis_for(M)
        assert all(B._mu_xi_order < ctx.M for B in basis.elements)
        for B in basis.elements:
            assert verify_cocycle(B) == verify_cocycle(Cocycle(M, B.mu_phi, B.mu_gen, B.label)), B.label
            assert B._mu_xi_order == INF


@pytest.mark.parametrize("p,f", [(3, 2), (5, 1), (7, 1)])
def test_verify_cocycle_reports_match_step_loop(monkeypatch, p, f):
    cases = list(_power_cases(p, f))
    got = [verify_cocycle(Cocycle(c.module, c.mu_phi, c.mu_gen, c.label), words=20, rng=random.Random(n)) for n, c in enumerate(cases)]
    monkeypatch.setattr(Cocycle, "mu_at_eta_power", ref_mu_at_eta_power)
    want = [verify_cocycle(c, words=20, rng=random.Random(n)) for n, c in enumerate(cases)]
    assert got == want
    assert all(rep.ok for rep in got)


@pytest.mark.parametrize("p,f", [(3, 2), (5, 2)])
def test_lambda_pow_obeys_cocycle_rule_at_eta_powers(p, f):
    """The closed-form lambda at gamma^2, gamma = eta^(2^j), is lambda_gamma gamma(lambda_gamma),
    and so is each power: lambda_(gamma^2)^sigma = lambda_gamma^sigma gamma(lambda_gamma^sigma)
    for every sigma in [0, p^f - 1); mu_at_eta_power reads its kappa at these gamma^2."""
    ctx = ctx_for(p, f, pi_order=3 * p ** (f + 1))
    gamma = ctx.eta
    for _ in range(3):  # eta -> eta^2 -> eta^4 -> eta^8
        for s in range(p**f - 1):
            lam = ctx.lambda_pow(gamma, s)
            assert ctx.lambda_pow(gamma * gamma, s) == lam * ctx.gamma_act_series(gamma, lam), s
        gamma = gamma * gamma


def test_a_fresh_basis_builds_each_lambda_power_once(monkeypatch):
    """build_H reads lambda_eta^sigma on its pole window and _mu_gamma_from_H below M, so
    build_H asks for it to M first: a fresh basis at (5,3) builds each kept series
    (lambda_eta and each power) once, counted by wrapping the builds of ``_cache_below``."""
    monkeypatch.setattr(tate_mod, "_REGISTRY", {})
    monkeypatch.setattr(cocycle_mod, "_BASIS_CACHE", {})
    builds = []
    below = tate_mod._cache_below
    monkeypatch.setattr(tate_mod, "_cache_below", lambda key, order, build: below(key, order, lambda n: builds.append(key) or build(n)))
    ctx = ctx_for(5, 3)
    assert len(basis_for(RankOneModule(ctx, 2, (1, 2, 3)))) > 0
    assert len(builds) == len(set(builds)) and sum(key[-1] == "lampow" for key in builds) == 3, builds


def test_column_cache_is_bounded_by_bytes(monkeypatch):
    """Building operator columns drops the least recently used windows until the cache
    fits its byte bound, counted over every stored column; the newest window stays even
    when it alone is larger, and a hit moves a window to the back."""
    ctx = ctx_for(5, 1)
    monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE", {})

    def columns(floor, support):
        return cocycle_mod._operator_columns(ctx, ctx.eta, [2], floor, 20, [support])[0]

    def windows():
        return [key[3] for key in cocycle_mod._COLUMN_CACHE]

    monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE_BYTES", 0)
    columns(-5, [-5, 0])
    assert columns(-4, [0]).shape == (1, 24) and windows() == [-4]
    monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE_BYTES", 1 << 30)
    columns(-5, [-5, 0, 3])  # 3 columns of 25 bytes
    columns(-4, [1])  # 2 columns of 24 bytes
    columns(-5, [0])  # a hit: the order is now -4, -5
    assert windows() == [-4, -5]
    monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE_BYTES", 75 + 3 * 23)
    columns(-3, [-3, 2, 7])  # 3 columns of 23 bytes: -4 goes, -5 fits beside them
    assert windows() == [-5, -3]
    assert sum(c.nbytes for cols in cocycle_mod._COLUMN_CACHE.values() for c in cols.values()) == 75 + 3 * 23
    assert all(c.dtype == ctx.field.dtype for cols in cocycle_mod._COLUMN_CACHE.values() for c in cols.values())


def test_column_cache_serves_shorter_tops_from_a_prefix(monkeypatch):
    """An image row depends only on the rows at or below it, so the columns of a floor are
    kept without their top: columns built for a long top serve a shorter reader, sliced,
    with no ``op_lambda_gamma_rows`` call, and equal a fresh short build; short columns
    are rebuilt at a longer reader's top, in one call, and replace the short ones, so the
    byte bound counts each once."""
    ctx = ctx_for(5, 1)
    calls = []
    op = Context.op_lambda_gamma_rows
    monkeypatch.setattr(Context, "op_lambda_gamma_rows", lambda *args: calls.append(args[-1]) or op(*args))

    def columns(floor, top, support):
        return cocycle_mod._operator_columns(ctx, ctx.eta, [2], floor, top, [support])[0]

    def stored():
        return {(key[3], e): len(c) for key, cols in cocycle_mod._COLUMN_CACHE.items() for e, c in cols.items()}

    monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE", {})
    short = columns(-5, 10, [-5, 0, 3])
    monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE", {})
    long = columns(-5, 20, [-5, 0, 3])
    del calls[:]
    assert np.array_equal(columns(-5, 10, [0, 3, -5]), short[[1, 2, 0]]) and not calls
    assert np.array_equal(long[:, :15], short)
    monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE", {})
    monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE_BYTES", 24 + 3 * 25)
    columns(-4, 20, [1])  # another floor: 1 column of 24 bytes
    columns(-5, 10, [-5, 0])  # 2 columns of 15 bytes
    del calls[:]
    assert np.array_equal(columns(-5, 20, [-5, 0, 3]), long) and calls == [20]
    assert stored() == {(-4, 1): 24, (-5, -5): 25, (-5, 0): 25, (-5, 3): 25}  # nothing went
    assert sum(c.nbytes for cols in cocycle_mod._COLUMN_CACHE.values() for c in cols.values()) == 24 + 3 * 25


def test_modules_with_the_same_digits_share_operator_columns(monkeypatch):
    """A second module with the same digits and a new C meets the columns of the first:
    its coboundary tests and span decompositions build none, counted by the calls of
    ``op_lambda_gamma_rows``."""
    ctx = ctx_for(5, 2)
    monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE", {})
    rng = random.Random(31)
    modules = [RankOneModule(ctx, C, (1, 3)) for C in (2, 3)]
    inputs = []
    for M in modules:
        basis = ModuleBasis(M)  # built before counting: the elimination calls the operator too
        inputs.append((basis, [random_cocycle(M, rng) for _ in range(2)]))
    calls = []
    op = Context.op_lambda_gamma_rows
    monkeypatch.setattr(Context, "op_lambda_gamma_rows", lambda *args: calls.append(args) or op(*args))
    for basis, cocycles in inputs:
        before = len(calls)
        assert [is_coboundary(B).status for B in basis.elements] == ["no"] * len(basis)
        assert all(span_decompose(x, basis) is not None for x in cocycles)
        assert (len(calls) > before) == (basis is inputs[0][0]), len(calls)


def test_vj_tables_with_the_same_digits_share_operator_columns(monkeypatch):
    """A second V_J table on the same digits with a new C meets the operator columns of
    the first: its systems (``BoundedSystem.run``, at the window and the doubled one)
    make no ``op_lambda_gamma_rows`` call, counted inside the runs."""
    ctx = ctx_for(5, 2)
    monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE", {})
    calls, inside = [], []
    op, run = Context.op_lambda_gamma_rows, bounded_mod.BoundedSystem.run

    def counted_op(*args):
        if inside:
            calls.append(args)
        return op(*args)

    def counted_run(*args):
        inside.append(True)
        try:
            return run(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Context, "op_lambda_gamma_rows", counted_op)
    monkeypatch.setattr(bounded_mod.BoundedSystem, "run", counted_run)
    counts = []
    for C in (2, 3):
        del calls[:]
        reports, _ = bounded_mod.vj_table(RankOneModule(ctx, C, (1, 2)))
        assert all(rep.stable for rep in reports.values())
        counts.append(len(calls))
    assert counts[0] > 0 and counts[1] == 0, counts


def test_basis_cache_is_bounded_by_bytes(monkeypatch):
    """Building a basis drops the least recently used ones until the cache fits its
    byte bound; the newest stays even when it alone is larger; a hit moves a basis
    to the back."""
    ctx = ctx_for(5, 1)
    a, b, c = [RankOneModule(ctx, 2, (n,)) for n in range(3)]
    size = {M.c: ModuleBasis(M).nbytes() for M in (a, b, c)}
    monkeypatch.setattr(cocycle_mod, "_BASIS_CACHE", {})
    monkeypatch.setattr(cocycle_mod, "_BASIS_CACHE_BYTES", 0)
    basis_for(a)
    Bb = basis_for(b)
    assert list(cocycle_mod._BASIS_CACHE.values()) == [Bb]
    monkeypatch.setattr(cocycle_mod, "_BASIS_CACHE_BYTES", 1 << 30)
    Ba = basis_for(a)
    assert basis_for(b) is Bb  # a hit: the order is now a, b
    monkeypatch.setattr(cocycle_mod, "_BASIS_CACHE_BYTES", size[b.c] + size[c.c])
    Bc = basis_for(c)
    assert list(cocycle_mod._BASIS_CACHE.values()) == [Bb, Bc]
    assert sum(B.nbytes() for B in (Ba, Bb, Bc)) > cocycle_mod._BASIS_CACHE_BYTES
