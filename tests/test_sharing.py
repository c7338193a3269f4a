"""What a module's basis depends on only through its digits is shared by every C on them:
the principal parts H_i with their gamma-images (``cocycle._PRINCIPAL_PARTS``) and the
transport fill orders (``tate._FILL_ORDERS``).  Each shared path is checked against a
build on emptied caches, over the transport grid with p = 2, at the window and the
doubled one."""
import random

import numpy as np
import pytest

from phigamma import RankOneModule
from phigamma import cocycle as cocycle_mod
from phigamma import tate as tate_mod
from phigamma.cocycle import ModuleBasis
from phigamma.tate import Context, TransportSchedule

from conftest import ctx_for, empty_caches


GRID = [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 1), (5, 2)]


def grid_ctx(p, f):
    """The context of (p, f); F_4 at (2, 1), where F_2 has no C but 1."""
    return ctx_for(p, f, 2) if (p, f) == (2, 1) else ctx_for(p, f)


def digits(p, f):
    """One digit vector per size, with a chain digit c_0 = p - 1 where f > 1 allows it."""
    if f == 1:
        return (max(p - 2, 0),)
    return (p - 1, max(p - 2, 0), 0)[:f]


def two_modules(ctx):
    """Two modules on the same digits: C = g and C = g^2 (1 when q = 3)."""
    F = ctx.field
    g = F.generator()
    c = digits(ctx.p, ctx.f)
    return [RankOneModule(ctx, C, c) for C in (g, g * g)]


def same_series(a, b) -> bool:
    return a.floor == b.floor and a.order == b.order and a.rows.dtype == b.rows.dtype and np.array_equal(a.rows, b.rows)


def same_basis(x: ModuleBasis, y: ModuleBasis) -> bool:
    """Same labels and generators, and every series of every element the same."""
    if x.labels != y.labels or any(B.mu_gen.keys() != D.mu_gen.keys() for B, D in zip(x.elements, y.elements)):
        return False
    pairs = [(u, v) for B, D in zip(x.elements, y.elements) for u, v in [(B.mu_phi, D.mu_phi)] + [(B.mu_gen[k], D.mu_gen[k]) for k in B.mu_gen]]
    return all(same_series(a, b) for u, v in pairs for a, b in zip(u.comps, v.comps))


@pytest.mark.parametrize("p,f", GRID)
def test_a_basis_on_shared_entries_equals_a_cold_build(p, f, fresh_caches, monkeypatch):
    """The second C on a digit vector builds its basis on the principal parts, images and
    fill orders of the first; that basis equals one built on emptied caches, series by
    series (floor, order, rows), at the window M and at 2M."""
    for ctx in (grid_ctx(p, f), grid_ctx(p, f).scaled(2)):
        first, second = two_modules(ctx)
        ModuleBasis(first)
        assert cocycle_mod._PRINCIPAL_PARTS and tate_mod._FILL_ORDERS
        warm = ModuleBasis(second)
        empty_caches(monkeypatch)
        cold = ModuleBasis(second)
        assert same_basis(warm, cold), (ctx.M, second)


@pytest.mark.parametrize("p,f", GRID)
def test_a_second_C_on_the_same_digits_rebuilds_nothing_shared(p, f, fresh_caches, monkeypatch):
    """A second C on the same digits makes no elimination call (``_image``), no image of
    H_i (``op_lambda_gamma``) and no fill order, counted with wrappers; the first C made
    them (at p = 2 the closed-form H_i needs no elimination)."""
    counts = {"image": 0, "op": 0, "order": 0}
    image, op, order = cocycle_mod._image, Context.op_lambda_gamma, tate_mod.FillOrder

    def count(name, fn):
        def wrapped(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)

        return wrapped

    class CountedOrder(order):
        __init__ = count("order", order.__init__)

    monkeypatch.setattr(cocycle_mod, "_image", count("image", image))
    monkeypatch.setattr(Context, "op_lambda_gamma", count("op", op))
    monkeypatch.setattr(tate_mod, "FillOrder", CountedOrder)
    for ctx in (grid_ctx(p, f), grid_ctx(p, f).scaled(2)):
        first, second = two_modules(ctx)
        ModuleBasis(first)
        assert counts["op"] and counts["order"] and (counts["image"] or p == 2), counts
        counts.update(image=0, op=0, order=0)
        ModuleBasis(second)
        assert counts == {"image": 0, "op": 0, "order": 0}, (ctx.M, second)


def schedule_cases(ctx):
    """(q, shifts, lo, hi, free) of the residual transports of the module's digits and of
    constant digits (a fixed cycle), with and without free nodes, and of the one-component
    basis transport at q = p^f."""
    p, f = ctx.p, ctx.f
    out = []
    for c in (digits(p, f), ((p - 1) // 2,) * f):
        shifts = [(p - 1) * x for x in c]
        for lo, hi in ((-3 * p, 4 * p), (1 - p, 2 * p * p)):
            out += [(p, shifts, lo, hi, None), (p, shifts, lo, hi, [hi - 1 - k for k in range(f)])]
        sigma = RankOneModule(ctx, ctx.field.generator(), c).sigma(0)
        out.append((p**f, [(p - 1) * sigma], 0, 3 * p**f, None))
    return out


@pytest.mark.parametrize("p,f", GRID)
def test_a_schedule_on_a_shared_fill_order_fills_as_a_fresh_one(p, f, fresh_caches, monkeypatch):
    """A schedule for prod C = 1 and one for prod C != 1 on the same window share one fill
    order, and each fills random h (b and the cycle obstruction, with a kernel value t)
    as a schedule built on emptied caches."""
    ctx = grid_ctx(p, f)
    F = ctx.field
    rng = np.random.default_rng(100 * p + f)
    g = F.generator()
    for q, shifts, lo, hi, free in schedule_cases(ctx):
        n = len(shifts)
        h = rng.integers(0, p, (n, hi - lo, F.m, 3))
        t = rng.integers(0, p, (F.m, 3))
        Cs = [[F.one()] * n, [g] + [F.one()] * (n - 1)]  # prod C = 1, prod C = g != 1
        shared = [TransportSchedule(F, q, shifts, C, lo, hi, free) for C in Cs]
        assert shared[0].order is shared[1].order
        for C, sched in zip(Cs, shared):
            monkeypatch.setattr(tate_mod, "_FILL_ORDERS", {})
            fresh = TransportSchedule(F, q, shifts, C, lo, hi, free)
            assert fresh.order is not sched.order
            got, want = sched.fill(h, t), fresh.fill(h, t)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (q, shifts, lo, hi, free, C)


def test_shared_fill_orders_are_compact_and_bounded(fresh_caches, monkeypatch):
    """A fill order holds its node indices in int32 and a component index only for each
    cycle node; building fill orders drops the least recently used ones past the byte
    budget, and a schedule's byte count leaves its shared order out."""
    ctx = ctx_for(3, 2)
    F = ctx.field
    shifts = [2, 2]  # constant digits 1: a fixed cycle
    sched = TransportSchedule(F, 3, shifts, [F.one(), F.one()], -9, 12)
    order = sched.order
    assert order.cycle is not None and len(order.cycle_comp) == len(order.cycle)
    assert all(a.dtype == np.int32 for level in order.levels + order.after for a in level)
    arrays = [a for level in order.levels + order.after for a in level] + [order.cycle, order.cycle_comp]
    assert order.cycle.dtype == np.int32 and order.nbytes() == sum(a.nbytes for a in arrays) > 0
    assert sched.nbytes() == sched.Cm.nbytes + sched.pref.nbytes + sched.Cinv.nbytes
    monkeypatch.setattr(tate_mod, "_FILL_ORDER_BYTES", order.nbytes())
    tate_mod.fill_order(3, shifts, -9, 13)
    assert list(tate_mod._FILL_ORDERS) == [(3, (2, 2), -9, 13, None)]  # the newest stays
    tate_mod.fill_order(3, shifts, -9, 12)
    assert list(tate_mod._FILL_ORDERS) == [(3, (2, 2), -9, 12, None)]


def test_principal_parts_are_bounded_by_bytes(fresh_caches, monkeypatch):
    """The shared principal parts drop the least recently used digits past their byte
    budget; the newest entry stays whole (H_i and its image)."""
    ctx = ctx_for(5, 2)
    monkeypatch.setattr(cocycle_mod, "_PRINCIPAL_PART_BYTES", 0)
    ModuleBasis(RankOneModule(ctx, 2, (1, 3)))
    ((key, entry),) = cocycle_mod._PRINCIPAL_PARTS.items()
    assert key == (ctx.key, RankOneModule(ctx, 2, (1, 3)).sigma(1)) and set(entry) == {None, ctx.eta.chi_int}
    monkeypatch.setattr(cocycle_mod, "_PRINCIPAL_PART_BYTES", 1 << 30)
    ModuleBasis(RankOneModule(ctx, 3, (2, 3)))
    assert len(cocycle_mod._PRINCIPAL_PARTS) == 3  # (1, 3) at i = 1, then both of (2, 3)


def test_basis_byte_count_is_kept_current(fresh_caches):
    """A basis counts its bytes when built, and again as a span plan or a derived mu_xi is
    added, equal to a walk over every array it holds (the shared fill orders left out)."""
    ctx = ctx_for(5, 2)
    M = RankOneModule(ctx, 2, (1, 3))
    basis = ModuleBasis(M)
    rng = random.Random(5)

    def walk():
        tates = [x for B in basis.elements for x in (B.mu_phi, *B.mu_gen.values(), B._mu_xi_cache) if x is not None]
        series = {id(s.rows): s.rows.nbytes for x in tates for s in x.comps}
        return sum(series.values()) + sum(span.nbytes() for span in basis._residual_cache.values())

    assert basis.nbytes() == walk()
    x = basis.combination([ctx.field.random_element(rng) for _ in basis.elements])
    assert cocycle_mod.span_decompose(x, basis) is not None and basis._residual_cache
    assert basis.nbytes() == walk()
    basis.elements[0].mu_xi(40)
    assert basis.nbytes() == walk()
