from phigamma import (
    RankOneModule,
    basis_for,
    compute_VJ,
    coboundary,
    iota_twist,
    is_bounded_class,
    vj_table,
    weight_profiles,
)

from conftest import ctx_for


def test_iota_identity_case(ctx52):
    # J = empty, A = 1, all c_i > 0, unique profile with d = c: iota is the identity
    M = RankOneModule(ctx52, 2, (2, 1))
    B = basis_for(M).elements[0]
    pr = weight_profiles(M, ())[0]
    tw = iota_twist(B, pr)
    assert pr.d == (2, 1)
    assert tw.mu_phi.agrees_with(B.mu_phi)
    assert tw.mu_gen["eta"].agrees_with(B.mu_gen["eta"], None, ctx52.M - 20)


def test_iota_twist_zero(ctx52):
    M = RankOneModule(ctx52, 2, (2, 1))
    z = basis_for(M).elements[0]
    zz = z - z
    pr = weight_profiles(M, (0,))[0]
    tw = iota_twist(zz, pr)
    assert tw.mu_phi.is_zero()


def test_iota_generic_in_J(ctx52):
    # i in J: e_{i+1} mu'_phi(iota B_{i+1}) = pi^((p-1)(a_{i+1}+1)) (pi^(1-p) + h) in F[[pi]]
    ctx = ctx52
    M = RankOneModule(ctx, 2, (2, 1))
    i = 0
    pr = weight_profiles(M, (i,))[0]
    B = basis_for(M).elements[(i + 1) % 2]
    tw = iota_twist(B, pr)
    comp = tw.mu_phi[i + 1]
    assert comp.val() == (ctx.p - 1) * (pr.a[i + 1] + 1) + (1 - ctx.p)
    assert comp.val() >= 0


def test_is_bounded_class_generic(ctx52):
    M = RankOneModule(ctx52, 2, (2, 1))
    basis = basis_for(M)
    pr = weight_profiles(M, (0,))[0]
    assert is_bounded_class(iota_twist(basis.elements[1], pr)) == "yes"
    assert is_bounded_class(iota_twist(basis.elements[0], pr)) == "no"


def test_is_bounded_cyclotomic_Btr(ctx31):
    M = RankOneModule(ctx31, 1, (1,))
    basis = basis_for(M)
    Btr = basis.elements[-1]
    plus = [pr for pr in weight_profiles(M, (0,)) if pr.sign == "plus"][0]
    minus = [pr for pr in weight_profiles(M, (0,)) if pr.sign == "minus"][0]
    assert is_bounded_class(iota_twist(Btr, plus)) == "yes"
    assert is_bounded_class(iota_twist(Btr, minus)) == "no"


def test_bounded_invariant_under_coboundary(ctx32, rng):
    from test_cocycle import rand_tate

    M = RankOneModule(ctx32, 2, (1, 1))
    basis = basis_for(M)
    pr = weight_profiles(M, (1,))[0]
    B = basis.elements[0]
    for _ in range(5):
        pert = B + coboundary(M, rand_tate(ctx32, rng))
        assert is_bounded_class(iota_twist(pert, pr)) == is_bounded_class(iota_twist(B, pr))


def test_vj_generic_f2(ctx32):
    # Props on the f = 2 tables, spot checks (the acceptance suite sweeps all c)
    F = ctx32.field
    M = RankOneModule(ctx32, 2, (1, 1))
    assert compute_VJ(M, (0, 1), "plus", stability=False).dim == 2
    assert compute_VJ(M, (0, 1), "minus", stability=False).dim == 2
    r0 = compute_VJ(M, (0,), stability=False)
    r1 = compute_VJ(M, (1,), stability=False)
    assert r0.dim == 1 and r0.basis[0].coords == (F.zero(), F.one())
    assert r1.dim == 1 and r1.basis[0].coords == (F.one(), F.zero())
    assert compute_VJ(M, (), "plus", stability=False).dim == 0
    assert compute_VJ(M, (), "minus", stability=False).dim == 0


def test_vj_subspace_membership(ctx32, rng):
    # every nonzero combination of V_J basis vectors is bounded; combinations
    # with a vector outside fail
    M = RankOneModule(ctx32, 2, (2, 0))
    basis = basis_for(M)
    rep = compute_VJ(M, (1,), stability=False)
    assert rep.dim == 1
    pr = weight_profiles(M, (1,))[0]
    v = rep.basis[0].coords
    comb = basis.combination(v)
    assert is_bounded_class(iota_twist(comb, pr)) == "yes"
    scaled = basis.combination([ctx32.field.element(2) * x for x in v])
    assert is_bounded_class(iota_twist(scaled, pr)) == "yes"
    outside = basis.combination([v[0] + ctx32.field.one(), v[1]])
    assert is_bounded_class(iota_twist(outside, pr)) == "no"


def test_vj_table_coincidence(ctx32):
    M = RankOneModule(ctx32, 2, (2, 1))
    reports, coincidence = vj_table(M, stability=False)
    assert coincidence[(0, 1, "unique")] is True  # c_0 = p-1: V_{0} = V_{1}
    M2 = RankOneModule(ctx32, 2, (1, 1))
    _, co2 = vj_table(M2, stability=False)
    assert co2[(0, 1, "unique")] is False


def test_stability_flag(ctx51):
    M = RankOneModule(ctx51, 2, (1,))
    rep = compute_VJ(M, (0,), stability=True)
    assert rep.stable and rep.dim == 1


def test_strict_p2_mode(ctx22):
    # the experimental strict mode may only shrink the minus space
    M = RankOneModule(ctx22, 1, (0, 0))
    rep = compute_VJ(M, (0, 1), "minus", strict_p2=True, stability=False)
    base = compute_VJ(M, (0, 1), "minus", strict_p2=False, stability=False)
    assert rep.dim <= base.dim


def test_generator_independence():
    # dims and coincidences must not depend on the choice of chi(eta)
    from conftest import ctx_for
    from phigamma import Context

    base = ctx_for(3, 2)
    alt = Context(base.field, chi_eta=5)  # 5 = 2 + 3: alternative generator choice
    for C, c in [(2, (1, 1)), (2, (2, 0)), (1, (2, 1)), (1, (0, 0)), (1, (1, 1))]:
        for J, sign in [((0, 1), None), ((0,), None), ((1,), None), ((), None)]:
            reps = {}
            for ctx in (base, alt):
                M = RankOneModule(ctx, C, c)
                profs = weight_profiles(M, J)
                if len(profs) == 1:
                    reps[ctx.chi_eta] = compute_VJ(M, J, stability=False).dim
                else:
                    reps[ctx.chi_eta] = tuple(
                        compute_VJ(M, J, s, stability=False).dim for s in ("plus", "minus")
                    )
            vals = list(reps.values())
            assert vals[0] == vals[1], (C, c, J, reps)


def test_vj_closure_under_combinations(rng):
    # V_J is a linear subspace: random field combinations of its basis stay bounded
    from conftest import ctx_for

    ctx = ctx_for(3, 2)
    M = RankOneModule(ctx, 1, (0, 0))  # trivial: V_{0}^+ has dim 2
    basis = basis_for(M)
    rep = compute_VJ(M, (0,), "plus", stability=False)
    assert rep.dim == 2
    pr = [q for q in weight_profiles(M, (0,)) if q.sign == "plus"][0]
    for _ in range(10):
        coeffs = [ctx.field.random_element(rng) for _ in rep.basis]
        if not any(coeffs):
            continue
        total = None
        for co, e in zip(coeffs, rep.basis):
            vec = [co * x for x in e.coords]
            comb = basis.combination(vec)
            total = comb if total is None else total + comb
        assert is_bounded_class(iota_twist(total, pr)) == "yes"
