import pytest

from phigamma import sweep, verify_lemma

from conftest import ctx_for


def test_gamma_n_example():
    ctx = ctx_for(3, 1)
    rep = verify_lemma(ctx, "gamma_n", chi=4)
    assert rep.passed


def test_delta_leading_coefficient():
    # v = 0 case: leading coefficient is chibar(eta)^s - 1
    ctx = ctx_for(3, 1)
    assert verify_lemma(ctx, "delta", sigma=1, s=-2).passed
    assert verify_lemma(ctx, "delta", sigma=2, s=-3).passed


def test_gamma_example():
    ctx = ctx_for(3, 1)
    assert verify_lemma(ctx, "gamma", sigma=1, s=-2).passed


def test_precondition_errors():
    ctx = ctx_for(3, 1)
    rep = verify_lemma(ctx, "delta", sigma=1, s=-1)  # Sigma + s(p^f-1)/(p-1) = 0
    assert not rep.passed and "precondition" in rep.detail
    rep2 = verify_lemma(ctx, "cyc", s=0)
    assert not rep2.passed
    with pytest.raises(ValueError):
        verify_lemma(ctx, "nonsense")
    ctx2 = ctx_for(2, 1)  # the lemmas stated for p > 2 (at p = 2 delta and cyc would divide by 2)
    for name, params in [("delta", {"sigma": 0, "s": -1}), ("cyc", {"s": -1}), ("trick_plus", {"c": (1,), "i": 0})]:
        rep = verify_lemma(ctx2, name, **params)
        assert not rep.passed and rep.detail == "precondition: p > 2"


def test_default_sweeps_pass_p3():
    for f in (1, 2):
        ctx = ctx_for(3, f)
        for name in ("delta", "gamma", "gamma_n", "cyc", "trick", "trick_plus"):
            rep = sweep(ctx, name)
            assert rep.passed, (f, name, rep.failures[:2])
            if name not in ("trick", "trick_plus") or f > 1:
                assert rep.total > 0


def test_p2_sweeps():
    for f in (1, 2, 3):
        ctx = ctx_for(2, f)
        rep = sweep(ctx, "p2lambda")
        assert rep.passed
        rep2 = sweep(ctx, "p2H")
        assert rep2.passed, rep2.failures[:3]
        if f > 1:
            assert rep2.total > 0


def test_trick_plus_pivots_f2():
    ctx = ctx_for(3, 2)
    rep = sweep(ctx, "trick_plus")
    assert rep.passed and rep.total > 0
