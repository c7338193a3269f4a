"""The batched phi-transport against the per-coefficient recursion it replaced.

The reference code below is the former memoized chain walk, one FieldElement
at a time: ``RefPhiTransport`` (the old ``cocycle.PhiTransport``),
``ref_unit_step`` (the old ``tate._solve_c_phi_minus_one``), ``ref_bounded_values``
(the old ``BoundedSystem._transport``), ``ref_bounded_column`` (the old
column-at-a-time ``BoundedSystem.run``), and ``ref_is_coboundary`` and
``ref_span_decompose``, the old coboundary tests: a tail layout and the residual
functionals of one cocycle at a time, the gamma residuals as whole series; and
``ref_residual_system``, the batched build with every phi row filled, which the
crossing band of ``residual_system`` replaced.  Each full-height reference is zero off
the compact layout of ``residual_system`` (``compact_rows``), and equals it on its rows.
"""
import functools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from phigamma import LaurentSeries, NonBijectiveError, PrecisionError, RankOneModule, basis_for, coboundary, is_coboundary, span_decompose, weight_profiles
from phigamma import cocycle as cocycle_mod
from phigamma.bounded import BoundedSystem
from phigamma.cocycle import ModuleBasis, PhiTransport, ResidualPlan, _coboundary_window, residual_system
from phigamma.gflinalg import Factored, gf
from phigamma.tate import _solve_c_phi_minus_one, phi_transport, solve_phi_unit_tail

from conftest import ctx_for, ref_op_lambda_gamma, sub_basis
from gf_oracle import encode, oracle_gf

# (5, 1) has profiles with theta_phi below the tail floor (the cyclotomic J = S, plus)
GRID = [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 1), (5, 2)]


# -- the slow reference -------------------------------------------------------------------


def planes(rows, p):
    """Coefficient rows (n, m, ...) -> the digit planes (n, ..., m) of a residual system."""
    return np.moveaxis(np.asarray(rows) % p, 1, -1)


class RefPhiTransport:
    """C_i b_{i+1}[(e - (p-1)c_i)/p] - b_i[e] = h_i[e] by memoized chain walks."""

    def __init__(self, module, h_comps, t=None):
        ctx = module.ctx
        self.module, self.ctx, self.h = module, ctx, list(h_comps)
        self.p, self.f = ctx.p, ctx.f
        self.shift = [(ctx.p - 1) * module.c[i] for i in range(ctx.f)]
        one = ctx.field.one()
        self.Ci = [module.C if i == 0 else one for i in range(ctx.f)]
        q1 = ctx.p**ctx.f - 1
        sig = module.sigmas()
        self.cyclic = all((ctx.p - 1) * s % q1 == 0 for s in sig)
        self.estar = tuple(-(ctx.p - 1) * s // q1 for s in sig) if self.cyclic else None
        self.has_kernel = self.cyclic and module.C == one
        self.cycle_violation = None
        self.t = t if t is not None else ctx.field.zero()
        self.memo = {}
        if self.cyclic:
            self._solve_cycle()

    def _solve_cycle(self):
        field = self.ctx.field
        one = field.one()
        hvals = [self.h[i].coeff(self.estar[i]) for i in range(self.f)]
        acc, pref = field.zero(), one
        for i in range(self.f):
            acc = acc + pref * hvals[i]
            pref = pref * self.Ci[i]
        if self.has_kernel:
            self.cycle_violation = acc
            u0 = self.t if not acc else field.zero()
        else:
            u0 = acc / (self.module.C - one)
        u = [u0]
        for i in range(self.f - 1):
            u.append((u[i] + hvals[i]) / self.Ci[i])
        for i in range(self.f):
            self.memo[(i, self.estar[i])] = u[i]

    def coeff(self, i, e):
        key = (i, e)
        stack = [key]
        while stack:
            i2, e2 = stack[-1]
            if (i2, e2) in self.memo:
                stack.pop()
                continue
            src_num = e2 - self.shift[i2]
            nxt = (i2 + 1) % self.f
            if src_num % self.p != 0:
                self.memo[(i2, e2)] = -self.h[i2].coeff(e2)
                stack.pop()
                continue
            src = src_num // self.p
            if (nxt, src) in self.memo:
                self.memo[(i2, e2)] = self.Ci[i2] * self.memo[(nxt, src)] - self.h[i2].coeff(e2)
                stack.pop()
            else:
                stack.append((nxt, src))
        return self.memo[key]


def ref_unit_step(ctx, C, h, order, q):
    """C g(pi^q) - g = h on F[[pi]], coefficient by coefficient."""
    field = ctx.field
    rows = h.coeff_rows(0, order)
    out = np.zeros_like(rows)
    one = field.one()
    for n in range(order):
        hn = field.from_row(rows[n])
        if n == 0:
            if C == one:
                if hn:
                    raise NonBijectiveError("constant-term obstruction for C = 1")
                continue
            out[0] = (hn / (C - one)).row()
        else:
            gn = -hn
            if n % q == 0:
                gn = gn + C * field.from_row(out[n // q])
            out[n] = gn.row()
    return LaurentSeries(field, 0, order, out)


def ref_system_data(sys_):
    """What the reference reads of a bounded system besides its thresholds, derived from
    its module: the factors C_i, the shifts (p-1)c_i, the lowest phi and generator rows,
    and whether the fixed cycle is transported with prod C = 1 (a cycle slot)."""
    module, ctx = sys_.module, sys_.ctx
    one = ctx.field.one()
    shifts = [(ctx.p - 1) * ci for ci in module.c]
    estar = module.fixed_cycle()
    transported = estar is not None and all(e < t for e, t in zip(estar, sys_.theta_phi))
    return SimpleNamespace(
        Ci=[module.C if i == 0 else one for i in range(ctx.f)],
        shifts=shifts,
        phi_lo=ctx.p * sys_.Lb - max(shifts) - 1,
        gen_lo=sys_.Lb,
        has_cycle_slot=transported and module.C == one,
    )


def ref_bounded_values(sys_, ephi_coeff, param_vec):
    """b_i[e] of a bounded system by chain walks: parameters at e >= theta_phi_i,
    zero at e >= Ub_i; returns (bval, cycle violation)."""
    ctx = sys_.ctx
    field = ctx.field
    f, p = ctx.f, ctx.p
    d = ref_system_data(sys_)
    memo = {}
    violation = field.zero()
    estar = sys_.module.fixed_cycle()
    if estar is not None and all(estar[i] < sys_.theta_phi[i] for i in range(f)):
        one = field.one()
        hvals = [-ephi_coeff(i, estar[i]) for i in range(f)]
        acc, pref = field.zero(), one
        for i in range(f):
            acc = acc + pref * hvals[i]
            pref = pref * d.Ci[i]
        if sys_.module.C == one:
            violation, u0 = acc, field.zero()
        else:
            u0 = acc / (sys_.module.C - one)
        u = [u0]
        for i in range(f - 1):
            u.append((u[i] + hvals[i]) / d.Ci[i])
        for i in range(f):
            memo[(i, estar[i])] = u[i]

    def bval(i, e):
        if e >= sys_.Ub[i]:
            return field.zero()
        if e >= sys_.theta_phi[i]:
            return param_vec.get((i, e), field.zero())
        stack = [(i, e)]
        while stack:
            i2, e2 = stack[-1]
            if (i2, e2) in memo:
                stack.pop()
                continue
            if e2 >= sys_.theta_phi[i2]:
                memo[(i2, e2)] = param_vec.get((i2, e2), field.zero()) if e2 < sys_.Ub[i2] else field.zero()
                stack.pop()
                continue
            src_num = e2 - d.shifts[i2]
            nxt = (i2 + 1) % f
            if src_num % p != 0:
                memo[(i2, e2)] = ephi_coeff(i2, e2)
                stack.pop()
                continue
            src = src_num // p
            if src >= sys_.Ub[nxt]:
                memo[(i2, e2)] = ephi_coeff(i2, e2)
                stack.pop()
            elif src >= sys_.theta_phi[nxt]:
                memo[(i2, e2)] = ephi_coeff(i2, e2) + d.Ci[i2] * param_vec.get((nxt, src), field.zero())
                stack.pop()
            elif (nxt, src) in memo:
                memo[(i2, e2)] = ephi_coeff(i2, e2) + d.Ci[i2] * memo[(nxt, src)]
                stack.pop()
            else:
                stack.append((nxt, src))
        return memo[(i, e)]

    return bval, violation


def ref_bounded_column(sys_, E=None, param_index=None):
    """One column of the residual matrix, built series by series."""
    ctx = sys_.ctx
    field = ctx.field
    f, p = ctx.f, ctx.p
    if E is not None:
        ephi = [E.mu_phi[i] for i in range(f)]

        def ephi_coeff(i, e):
            return ephi[i].coeff(e)

    else:

        def ephi_coeff(i, e):
            return field.zero()

    d = ref_system_data(sys_)
    pv = {} if param_index is None else {sys_.params[param_index]: field.one()}
    bval, violation = ref_bounded_values(sys_, ephi_coeff, pv)
    lo = sys_.Lb
    bseries = []
    for i in range(f):
        hi = max(sys_.Ub[i], lo)
        rows = np.zeros((hi - lo, field.m), dtype=np.int64)
        for e in range(lo, hi):
            v = bval(i, e)
            if v:
                rows[e - lo] = v.row()
        bseries.append(LaurentSeries(field, lo, ctx.M, rows))
    pieces = []
    for i in range(f):
        term = bseries[(i + 1) % f].substitute_power(p).shift(d.shifts[i]).scale(d.Ci[i]) - bseries[i]
        if E is not None:
            term = term + ephi[i]
        pieces.append(term.coeff_rows(d.phi_lo, sys_.theta_phi[i]) % p)
    if d.has_cycle_slot:
        pieces.append(violation.row()[None])
    for name in sys_.gen_names:
        gamma = ctx.eta if name == "eta" else ctx.xi
        for i in range(f):
            theta = sys_.theta_gen[name][i]
            img = ref_op_lambda_gamma(ctx, gamma, sys_.module.sigma(i), bseries[i], out_order=theta)
            if E is not None:
                img = img + (E.mu_xi() if name == "xi" else E.mu_gen[name]).comps[i]
            pieces.append(img.coeff_rows(d.gen_lo, theta) % p)
    return np.concatenate(pieces)


def ref_layout(module, cocycles, extra_floor=None):
    """(floor, band_lo, res_hi) of the old tail layout."""
    ctx = module.ctx
    floors, orders = [0], [ctx.M]
    for c in cocycles:
        for comp in list(c.mu_phi.comps) + [x for mg in c.mu_gen.values() for x in mg.comps]:
            floors.append(min(comp.low, 0))
            orders.append(comp.order)
    fl = min(floors) if extra_floor is None else min(min(floors), extra_floor)
    estar = module.fixed_cycle()
    if estar is not None:
        fl = min([fl] + [e - 1 for e in estar])
    fl = int(fl)
    band_lo = ctx.p * fl - max((ctx.p - 1) * ci for ci in module.c) - 1 if fl < 0 else 0
    return fl, band_lo, int(min(min(orders), ctx.M, max(4 * ctx.p * ctx.p, -4 * fl)))


def ref_residual_data(module, layout, c, t_probe=False):
    """(crossing band, cycle obstruction, gamma residual series) of one cocycle, or of
    the kernel line (t = 1) with ``t_probe``: linear in c, identically zero iff c is
    a coboundary whose witness lies in the window."""
    ctx = module.ctx
    F, f = ctx.field, ctx.f
    fl, band_lo, res_hi = layout
    if t_probe:
        tr = RefPhiTransport(module, [ctx.zero_series(ctx.M)] * f, t=F.one())
    else:
        tr = RefPhiTransport(module, list(c.mu_phi.comps))
    rows = [[tr.coeff(i, e).row() for e in range(band_lo, fl)] for i in range(f)]
    cross = np.array(rows, dtype=np.int64).reshape(-1, F.m)
    cycle = tr.cycle_violation.row() if tr.has_kernel else None
    b = ctx.tate([LaurentSeries(F, fl, res_hi, np.array([tr.coeff(i, e).row() for e in range(fl, res_hi)])) for i in range(f)])
    rhos = []
    for name, gamma in ctx.generators():
        rho = module.kappa_gamma(gamma) * ctx.gamma_act(gamma, b) - b
        rhos.append(rho if t_probe else rho - c.mu_gen[name])
    return cross, cycle, rhos


def ref_residual_matrix(module, layout, datas):
    """The residual vectors on their common reliable window, stacked as columns,
    encoded for the table-backed oracle."""
    p = module.ctx.p
    fl, _, res_hi = layout
    hi = min([res_hi] + [int(comp.order) for _, _, rhos in datas for rho in rhos for comp in rho.comps])
    if hi < 1 + max([1] + list(module.fixed_cycle() or ())):
        raise PrecisionError("residual window [%d, %d) too small to be conclusive" % (fl, hi))
    cols = []
    for cross, cycle, rhos in datas:
        pieces = [cross] + ([cycle[None]] if cycle is not None else [])
        pieces += [comp.coeff_rows(fl, hi) for rho in rhos for comp in rho.comps]
        cols.append(encode(np.concatenate(pieces), p))
    return np.stack(cols, axis=1)


def ref_is_coboundary(c, floor=None):
    module = c.module
    G = oracle_gf(module.ctx.field)
    try:
        layout = ref_layout(module, [c], floor)
        data = ref_residual_data(module, layout, c)
        if data[1] is None:
            return "no" if ref_residual_matrix(module, layout, [data]).any() else "yes"
        A = ref_residual_matrix(module, layout, [data, ref_residual_data(module, layout, c, t_probe=True)])
        sol = G.solve(A[:, 1:], G.NEG[A[:, 0]])
        return "no" if sol is None else "yes"
    except PrecisionError:
        return "inconclusive"


def ref_span_decompose(c, elements):
    module = c.module
    F = module.ctx.field
    layout = ref_layout(module, [c] + list(elements))
    datas = [ref_residual_data(module, layout, B) for B in elements]
    if datas[0][1] is not None:  # the module has a kernel line
        datas.append(ref_residual_data(module, layout, elements[0], t_probe=True))
    A = ref_residual_matrix(module, layout, datas + [ref_residual_data(module, layout, c)])
    sol = oracle_gf(F).solve(A[:, :-1], A[:, -1])
    return None if sol is None else tuple(F.from_index(int(v)) for v in sol[: len(elements)])


# -- inputs --------------------------------------------------------------------------------


def modules(ctx, rng):
    """A generic module, a cyclic one without a kernel (C != 1, constant digits),
    and cyclic ones with a kernel (C = 1: trivial, cyclotomic for p > 2)."""
    p, f, F = ctx.p, ctx.f, ctx.field
    c = [rng.randrange(p) for _ in range(f)]
    if all(x == p - 1 for x in c):
        c[0] = 0
    C = F.random_element(rng, nonzero=True)
    out = [RankOneModule(ctx, C, c), RankOneModule(ctx, 1, [0] * f)]
    if F.q > 2:
        out.append(RankOneModule(ctx, F.generator(), [(p - 1) // 2] * f))
    if p > 2:
        out.append(RankOneModule(ctx, 1, [p - 2] * f))
    return out


def random_series(ctx, rng, lo, hi, order):
    F = ctx.field
    return LaurentSeries.from_pairs(F, {e: F.random_element(rng) for e in range(lo, hi)}, order)


# -- the tests -----------------------------------------------------------------------------


@pytest.mark.parametrize("p,f", GRID)
def test_phi_transport_matches_recursion(p, f):
    ctx = ctx_for(p, f)
    F = ctx.field
    rng = random.Random(1000 * p + f)
    lo, hi = -3 * p**f, 4 * p * p
    seen_violation = seen_t = False
    for M in modules(ctx, rng):
        kernel = M.C == F.one() and M.fixed_cycle() is not None
        for t, clear in [(None, False), (F.random_element(rng, nonzero=True), False), (F.random_element(rng, nonzero=True), True)] if kernel else [(None, False)]:
            h = [random_series(ctx, rng, lo, hi, ctx.M) for _ in range(f)]
            estar = M.fixed_cycle()
            if clear:
                # a kernel value t is only used when the cycle obstruction vanishes
                h = [hc - LaurentSeries.monomial(F, e, hc.coeff(e)) for hc, e in zip(h, estar)]
            new = PhiTransport(M, h, t=t, lo=lo, hi=hi)
            ref = RefPhiTransport(M, h, t=t)
            assert new.estar == ref.estar and new.has_kernel == ref.has_kernel
            for i in range(f):
                for e in range(lo, hi):
                    assert new.coeff(i, e) == ref.coeff(i, e), (M, t, i, e)
            assert new.cycle_violation == ref.cycle_violation
            seen_violation |= bool(ref.cycle_violation)
            seen_t |= clear
            # a lookup outside the solved window widens it
            assert new.coeff(0, lo - 5) == ref.coeff(0, lo - 5)
    assert seen_violation and seen_t


@pytest.mark.parametrize("p,f", GRID)
def test_unit_step_transport_matches_recursion(p, f):
    """The f = 1 step-q solve of solve_phi_minus_one (q = p^f) and of the
    phi-unit tail (q = p or p^f)."""
    ctx = ctx_for(p, f)
    F = ctx.field
    rng = random.Random(2000 * p + f)
    order = min(ctx.M, 6 * p**f)
    for q in {p, p**f}:
        for C in [F.random_element(rng, nonzero=True), F.one()]:
            h = random_series(ctx, rng, 0 if C != F.one() else 1, order, order)
            assert _solve_c_phi_minus_one(ctx, C, h, order, q) == ref_unit_step(ctx, C, h, order, q)
        h = random_series(ctx, rng, 1, order, order)
        assert solve_phi_unit_tail(ctx, h, q) == ref_unit_step(ctx, F.one(), h, order, q)
    with pytest.raises(NonBijectiveError):
        _solve_c_phi_minus_one(ctx, F.one(), ctx.one_series(order), order)


def system_cases(ctx, rng):
    """(module, profile) pairs: every module of ``modules`` with every profile of
    J = {} (where the fixed cycle of a cyclic module is transported) and of
    J = S, and the generic module with one random J."""
    cases = []
    for M in modules(ctx, rng):
        for J in [(), tuple(range(ctx.f))]:
            cases += [(M, prof) for prof in weight_profiles(M, J)]
    J = tuple(j for j in range(ctx.f) if rng.random() < 0.5)
    cases.append((cases[0][0], rng.choice(weight_profiles(cases[0][0], J))))
    return cases


@pytest.mark.parametrize("p,f", GRID)
def test_bounded_transport_with_random_parameters(p, f):
    ctx = ctx_for(p, f)
    F = ctx.field
    rng = random.Random(3000 * p + f)
    for M, prof in system_cases(ctx, rng):
        sys_ = BoundedSystem(M, prof)
        E = basis_for(M).combination([F.random_element(rng) for _ in basis_for(M).elements])
        values = {node: F.random_element(rng) for node in sys_.params}
        lo, hi = min(sys_.Lb, 1 - p, *sys_.theta_phi), max(sys_.Ub)
        h = np.zeros((f, hi - lo, F.m, 1), dtype=np.int64)
        for i in range(f):
            h[i, : max(sys_.theta_phi[i] - lo, 0), :, 0] = -E.mu_phi[i].coeff_rows(lo, sys_.theta_phi[i])
        for (i, e), v in values.items():
            h[i, e - lo, :, 0] = -v.row()
        d = ref_system_data(sys_)
        b, obstruction = phi_transport(F, p, d.shifts, d.Ci, lo, hi, h % p, free=sys_.theta_phi)
        bval, violation = ref_bounded_values(sys_, lambda i, e: E.mu_phi[i].coeff(e), values)
        for i in range(f):
            for e in range(sys_.Lb, sys_.Ub[i]):
                assert F.from_row(b[i, e - lo, :, 0]) == bval(i, e), (M, prof, i, e)
        if d.has_cycle_slot:
            assert F.from_row(obstruction[:, 0]) == violation


def compact_rows(module, floor, theta_phi, theta_gen, cocycles=(), Ub=None):
    """The rows of the full-height layout of ``ref_residual_system`` that ``residual_system``
    keeps, in order: per component i, on [p floor - max_i (p-1)c_i - 1, theta_phi_i), the
    plan's crossing band and the rows below the floor where a cocycle's mu_phi is nonzero;
    the fixed-cycle slot (C = 1 and the cycle below theta_phi); then for each generator and
    component every row on [floor, theta_i)."""
    ctx = module.ctx
    p, f = ctx.p, ctx.f
    band = ResidualPlan(module, floor, theta_phi, Ub).phi_rows
    phi_lo = p * floor - max((p - 1) * ci for ci in module.c) - 1
    estar = module.fixed_cycle()
    cycle_slot = estar is not None and all(e < t for e, t in zip(estar, theta_phi)) and module.C == ctx.field.one()
    rows, start = [], 0
    for i in range(f):
        below = [e for e in range(phi_lo, min(floor, theta_phi[i])) if any(c.mu_phi[i].coeff(e) for c in cocycles)]
        rows.append(start + np.union1d(band[i], below).astype(np.int64) - phi_lo)
        start += max(theta_phi[i] - phi_lo, 0)
    if cycle_slot:
        rows.append(np.array([start]))
        start += 1
    for theta in theta_gen.values():
        for t in theta:
            rows.append(start + np.arange(max(t - floor, 0)))
            start += max(t - floor, 0)
    return np.concatenate(rows)


def assert_compact(got, want, rows, msg):
    """The full-height reference ``want`` is zero off ``rows``, and ``got`` is ``want`` on
    them, in order."""
    kept = np.zeros(len(want), dtype=bool)
    kept[rows] = True
    assert not want[~kept].any(), msg
    assert np.array_equal(got, want[rows]), msg


def assert_run_matches_reference(M, prof):
    sys_ = BoundedSystem(M, prof)
    basis = basis_for(M).elements
    cols = [ref_bounded_column(sys_, E=B) for B in basis]
    cols += [ref_bounded_column(sys_, param_index=j) for j in range(len(sys_.params))]
    rows = compact_rows(M, sys_.Lb, sys_.theta_phi, sys_.theta_gen, basis, sys_.Ub)
    assert_compact(sys_.run(basis), np.stack(cols, axis=1), rows, (M, prof))
    return sys_


@pytest.mark.parametrize("p,f", GRID)
def test_bounded_run_matches_columnwise_reference(p, f):
    rng = random.Random(4000 * p + f)
    slots = sum(ref_system_data(assert_run_matches_reference(M, prof)).has_cycle_slot for M, prof in system_cases(ctx_for(p, f), rng))
    assert slots  # a kernel module whose fixed cycle is transported


def test_bounded_run_with_a_shallow_tail_floor():
    """Tail floor -1 > 1 - p: the transport reaches nodes below the floor, which
    the coboundary leaves out and the phi rows must read as zero."""
    ctx = ctx_for(5, 2, tail_floor=-1)
    for c in [(4, 1), (3, 3), (1, 2)]:
        M = RankOneModule(ctx, 2, c)
        for J in [(), (0,), (1,), (0, 1)]:
            for prof in weight_profiles(M, J):
                assert_run_matches_reference(M, prof)


def random_tate(ctx, rng, lo, hi):
    return ctx.tate([random_series(ctx, rng, lo, hi, ctx.M) for _ in range(ctx.f)])


@pytest.mark.parametrize("p,f", GRID)
def test_coboundary_tests_match_series_reference(p, f):
    """is_coboundary statuses and span_decompose coordinates (or None) against the
    series-at-a-time reference: basis elements, random coboundaries and sums,
    planted combinations, a floor= argument, the kernel modules (trivial,
    cyclotomic) and B_tr against a basis without it.  A witness reproduces the
    coboundary, its gamma part included."""
    ctx = ctx_for(p, f)
    F = ctx.field
    rng = random.Random(5000 * p + f)
    seen_kernel = seen_none = False
    for M in modules(ctx, rng):
        basis = basis_for(M)
        seen_kernel |= M.C == F.one() and M.fixed_cycle() is not None
        cob = coboundary(M, random_tate(ctx, rng, -2 * p, p))
        for x, floor in [(B, None) for B in basis.elements] + [(cob, None), (cob, -3 * p), (basis.elements[-1] + cob, None)]:
            got = is_coboundary(x, floor)
            assert got.status == ref_is_coboundary(x, floor), (M, x.label, floor)
            if got.status == "yes":
                again = coboundary(M, got.witness)
                for name in x.mu_gen:
                    assert again.mu_gen[name].agrees_with(x.mu_gen[name], None, got.checked_to), (M, name)
                assert again.mu_phi.agrees_with(x.mu_phi, None, got.checked_to)
        for _ in range(3):
            x = basis.combination([F.random_element(rng) for _ in basis.elements]) + cob
            want = ref_span_decompose(x, basis.elements)
            assert want is not None and span_decompose(x).coords == want, M
        if "B_tr" in basis.labels:
            k = basis.labels.index("B_tr")
            sub = sub_basis(basis, [j for j in range(len(basis)) if j != k])
            rest = sub.elements
            x = basis.elements[k] + cob
            assert span_decompose(x, sub) is None and ref_span_decompose(x, rest) is None, M
            seen_none = True
    assert seen_kernel and seen_none


# -- the crossing band against the full phi-row build -------------------------------------


def ref_residual_system(module, floor, theta_phi, theta_gen, cocycles=(), Ub=None, params=(), kernel=False):
    """``residual_system`` with every phi row on [p floor - max_i (p-1)c_i - 1, theta_phi_i)
    filled, zero or not: the full build that the crossing band replaced."""
    ctx = module.ctx
    field = ctx.field
    f, p, m = ctx.f, ctx.p, field.m
    Ub = theta_phi if Ub is None else Ub
    shifts = [(p - 1) * ci for ci in module.c]
    Ci = [module.kappa_phi_coeff(i) for i in range(f)]
    estar = module.fixed_cycle()
    cycle_slot = estar is not None and all(e < t for e, t in zip(estar, theta_phi)) and module.C == field.one()
    E = list(cocycles)
    nE, B = len(E), len(E) + len(params) + kernel
    lo, hi = min(floor, 1 - p, *theta_phi), max(Ub)
    h = np.zeros((f, hi - lo, m, B), dtype=np.int64)
    for k, c in enumerate(E):
        for i in range(f):
            h[i, : max(theta_phi[i] - lo, 0), :, k] = -c.mu_phi[i].coeff_rows(lo, theta_phi[i]) % p
    if params:
        comp, e = np.array(params).T
        h[comp, e - lo, 0, nE + np.arange(len(params))] = p - 1
    cycle_value = np.zeros((m, B), dtype=np.int64)
    cycle_value[0, nE + len(params) :] = 1
    b, obstruction = phi_transport(field, p, shifts, Ci, lo, hi, h, free=theta_phi, t=cycle_value)
    b[:, : floor - lo] = 0
    phi_lo = p * floor - max(shifts) - 1
    pieces = []
    for i in range(f):
        e = np.arange(phi_lo, theta_phi[i])
        num = e - shifts[i]
        src = num // p
        ok = (num % p == 0) & (src >= lo) & (src < hi)
        own = e >= lo
        rows = np.zeros((len(e), m, B), dtype=np.int64)
        rows[ok] = field.mul_matrix(Ci[i]) @ b[(i + 1) % f, src[ok] - lo]
        rows[own] -= b[i, e[own] - lo]
        for k, c in enumerate(E):
            rows[:, :, k] += c.mu_phi[i].coeff_rows(phi_lo, theta_phi[i])
        pieces.append(planes(rows, p))
    if cycle_slot:
        pieces.append(planes(obstruction[None], p))
    for name, theta in theta_gen.items():
        top = max(floor + 1, *theta)
        gamma = ctx.eta if name == "eta" else ctx.xi
        x = b[:, floor - lo : top - lo].transpose(1, 0, 2, 3)
        img = ctx.op_lambda_gamma_rows(gamma, [module.sigma(i) for i in range(f)], x, floor, top)
        for i in range(f):
            rows = img[: max(theta[i] - floor, 0), i]
            for k, c in enumerate(E):
                rows[:, :, k] += (c.mu_xi() if name == "xi" else c.mu_gen[name]).comps[i].coeff_rows(floor, theta[i])
            pieces.append(planes(rows, p))
    return np.concatenate(pieces)


@pytest.mark.parametrize("p,f", GRID)
def test_crossing_band_matches_full_phi_rows(p, f):
    """Coboundary systems with and without the kernel column, the span systems of a
    first and a later target, and BoundedSystem.run with parameters, on generic and
    fixed-cycle modules (C = 1 with a kernel line, C != 1 without)."""
    ctx = ctx_for(p, f)
    F = ctx.field
    rng = random.Random(6000 * p + f)
    seen_kernel = False
    for M in modules(ctx, rng):
        basis = basis_for(M).elements
        x = basis_for(M).combination([F.random_element(rng) for _ in basis]) + coboundary(M, random_tate(ctx, rng, -2 * p, p))
        for cocycles in [[x], [x, *basis], list(basis)]:
            fl, hi = _coboundary_window(M, cocycles)
            theta = [hi] * f
            gens = {name: theta for name, _ in ctx.generators()}
            rows = compact_rows(M, fl, theta, gens, cocycles)
            for kernel in (False, True):
                want = ref_residual_system(M, fl, theta, gens, cocycles, kernel=kernel)
                assert_compact(residual_system(M, fl, theta, gens, cocycles, kernel=kernel), want, rows, (M, len(cocycles), kernel))
        seen_kernel |= M.C == F.one() and M.fixed_cycle() is not None
    assert seen_kernel
    seen_params = False
    for M, prof in system_cases(ctx, rng):
        sys_ = BoundedSystem(M, prof)
        basis = basis_for(M).elements
        want = ref_residual_system(M, sys_.Lb, sys_.theta_phi, sys_.theta_gen, basis, sys_.Ub, sys_.params)
        rows = compact_rows(M, sys_.Lb, sys_.theta_phi, sys_.theta_gen, basis, sys_.Ub)
        assert_compact(sys_.run(basis), want, rows, (M, prof))
        seen_params |= bool(sys_.params)
    assert seen_params


def test_crossing_band_with_mu_phi_below_the_floor():
    """Tail floor -1 > -c_i: the principal parts reach below the floor, where a phi
    row is nonzero only through mu_phi, and the system adds those rows to its band;
    a row e >= floor can have its source below the floor.  The basis columns and a
    random cocycle with poles."""
    ctx = ctx_for(5, 2, tail_floor=-1)
    rng = random.Random(9000)
    seen = seen_upper = False
    for c in [(4, 1), (3, 3), (1, 2)]:
        M = RankOneModule(ctx, 2, c)
        basis = basis_for(M).elements
        basis = basis + [basis_for(M).combination([ctx.field.random_element(rng) for _ in basis]) + coboundary(M, random_tate(ctx, rng, -2 * ctx.p, ctx.p))]
        for J in [(), (0,), (1,), (0, 1)]:
            for prof in weight_profiles(M, J):
                sys_ = BoundedSystem(M, prof)
                want = ref_residual_system(M, sys_.Lb, sys_.theta_phi, sys_.theta_gen, basis, sys_.Ub, sys_.params)
                rows = compact_rows(M, sys_.Lb, sys_.theta_phi, sys_.theta_gen, basis, sys_.Ub)
                assert_compact(sys_.run(basis), want, rows, (M, prof))
                seen |= any(B.mu_phi[i].low < min(sys_.Lb, sys_.theta_phi[i]) for B in basis for i in range(ctx.f))
        # a floor above -c_i: the rows e >= floor whose source lies below the floor
        for floor in (-1, -2):
            theta = [3 * ctx.p] * ctx.f
            want = ref_residual_system(M, floor, theta, {"eta": theta}, basis[-1:])
            rows = compact_rows(M, floor, theta, {"eta": theta}, basis[-1:])
            assert_compact(residual_system(M, floor, theta, {"eta": theta}, basis[-1:]), want, rows, (M, floor))
            plan = ResidualPlan(M, floor, theta)
            upper = [e for i in range(ctx.f) for e in plan.phi_rows[i] if e >= floor and (e - plan.shifts[i]) // ctx.p < floor]
            seen_upper |= bool(upper)
    assert seen and seen_upper


# -- generator rows from cached operator columns -------------------------------------------


@pytest.mark.parametrize("p,f", GRID)
def test_operator_columns_match_the_batched_gamma_action(p, f, monkeypatch):
    """The generator rows from cached operator columns equal the batched gamma action of
    ``ref_residual_system`` on the same b: the coboundary systems of a random cocycle
    with poles, alone and with the basis, with and without the kernel column, on generic
    and kernel modules; the V_J systems of ``BoundedSystem.run`` with parameters (strict
    too at p = 2); eta and xi at p = 2.  Each is built on an empty cache, then twice
    more in turn, forwards and backwards, on the columns of the others (same floors,
    other tops: prefixes and rebuilds).  Then a sparse random batch with a pole, for eta
    and xi, read at a short top, a longer one and the short one again."""
    ctx = ctx_for(p, f)
    F = ctx.field
    rng = random.Random(9500 * p + f)
    cases = []  # (build, reference, compact rows)
    for M in modules(ctx, rng):
        basis = basis_for(M).elements
        x = basis_for(M).combination([F.random_element(rng) for _ in basis]) + coboundary(M, random_tate(ctx, rng, -2 * p, p))
        for cocycles in [[x], [x, *basis]]:
            fl, hi = _coboundary_window(M, cocycles)
            theta = [hi] * f
            gens = {name: theta for name, _ in ctx.generators()}
            rows = compact_rows(M, fl, theta, gens, cocycles)
            for kernel in (False, True):
                want = ref_residual_system(M, fl, theta, gens, cocycles, kernel=kernel)
                cases.append((functools.partial(residual_system, M, fl, theta, gens, cocycles, kernel=kernel), want, rows))
    for M, prof in system_cases(ctx, rng):
        basis = basis_for(M).elements
        for strict in (False, True) if p == 2 else (False,):
            sys_ = BoundedSystem(M, prof, strict)
            try:
                want = ref_residual_system(M, sys_.Lb, sys_.theta_phi, sys_.theta_gen, basis, sys_.Ub, sys_.params)
            except PrecisionError:  # a strict threshold past the order of a basis element
                with pytest.raises(PrecisionError):
                    sys_.run(basis)
                continue
            rows = compact_rows(M, sys_.Lb, sys_.theta_phi, sys_.theta_gen, basis, sys_.Ub)
            cases.append((functools.partial(sys_.run, basis), want, rows))
    for n, (build, want, rows) in enumerate(cases + cases + cases[::-1]):
        if n < len(cases):
            monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE", {})
        assert_compact(build(), want, rows, (n, build))
    gen = np.random.default_rng(p * 10 + f)
    floor = -3 * p
    sigmas = [int(s) for s in gen.integers(0, p**f, f)]
    for t in (3 * p, 5 * p, 3 * p):
        x = np.zeros((t - floor, f, F.m, 2), dtype=np.int64)
        rows = gen.choice(t - floor, size=6, replace=False)
        x[rows] = gen.integers(0, p, (6, f, F.m, 2))
        for gamma in (ctx.eta, ctx.xi):
            want = ctx.op_lambda_gamma_rows(gamma, sigmas, x, floor, t)
            assert np.array_equal(cocycle_mod._gamma_rows_from_columns(ctx, gamma, sigmas, x, floor, t), want), (gamma, t)
    assert cocycle_mod._COLUMN_CACHE


@pytest.mark.parametrize("p,f", [(2, 3), (3, 2), (3, 3), (5, 2), (5, 3)])
def test_missing_operator_columns_come_from_one_call(p, f, monkeypatch):
    """The missing operator columns of every component are built by one
    ``op_lambda_gamma_rows`` call with one sigma per index of axis 1 (a repeated sigma
    once), counted with a wrapper, and equal the columns built one sigma at a time, the
    images of unit vectors; the first span decomposition of a module on new digits makes
    one call per generator."""
    ctx = ctx_for(p, f)
    rng = random.Random(2300 * p + f)
    floor, top = -3 * p, 5 * p
    sigmas = [rng.randrange(-p**f, 2 * p**f) for _ in range(f)] + [None]
    sigmas[-1] = sigmas[0]
    supports = [rng.sample(range(floor, top), rng.randrange(1, 6)) for _ in sigmas]
    calls = []
    op = type(ctx).op_lambda_gamma_rows
    monkeypatch.setattr(type(ctx), "op_lambda_gamma_rows", lambda *args: calls.append(args) or op(*args))
    for gamma in (ctx.eta, ctx.xi):
        monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE", {})
        del calls[:]
        got = cocycle_mod._operator_columns(ctx, gamma, sigmas, floor, top, supports)
        assert len(calls) == 1 and len(cocycle_mod._COLUMN_CACHE) == len(set(sigmas))
        for sigma, support, cols in zip(sigmas, supports, got):
            x = np.zeros((top - floor, len(support)), dtype=np.int64)
            x[np.array(support) - floor, np.arange(len(support))] = 1
            assert np.array_equal(cols, op(ctx, gamma, sigma, x, floor, top).T), (gamma, sigma)
            monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE", {})
            assert np.array_equal(cocycle_mod._operator_columns(ctx, gamma, [sigma], floor, top, [support])[0], cols)
    monkeypatch.setattr(cocycle_mod, "_COLUMN_CACHE", {})
    for M in modules(ctx, rng)[:2]:
        basis = ModuleBasis(M)  # built before counting: the elimination calls the operator too
        x = basis.combination([ctx.field.random_element(rng) for _ in basis.elements]) + coboundary(M, random_tate(ctx, rng, -2 * p, p))
        del calls[:]
        assert span_decompose(x, basis) is not None
        assert len(calls) == len(ctx.generators()), (M, len(calls))


# -- the stored span plan and the factored solve ------------------------------------------


def factored_cases(F, rng):
    """Random matrices as digit planes: full column rank, dependent columns, a zero
    column, more columns than rows, and no rows."""
    for rows, cols in [(7, 3), (12, 4), (3, 5), (1, 1)]:
        A = np.array([[F.from_index(rng.randrange(F.q)).row() for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
        yield A
        dep = A.copy()
        c = F.from_index(rng.randrange(1, F.q))
        dep[:, -1] = (A[:, 0] @ F.mul_matrix(c).T + A[:, -2 if cols > 1 else 0]) % F.p  # in the span of the others
        yield dep
        dep[:, 0] = 0
        yield dep
    yield np.zeros((0, 3, F.m), dtype=np.int64)


@pytest.mark.parametrize("p,f", GRID)
def test_factored_solve_matches_gf_solve(p, f):
    """Coordinates or None exactly as GF.solve, on consistent targets (A x for a random
    x) and random ones, for random matrices and for the kernel-line span columns."""
    ctx = ctx_for(p, f)
    F = ctx.field
    G = gf(F)
    rng = random.Random(7000 * p + f)
    mats = list(factored_cases(F, rng))
    for M in modules(ctx, rng)[1:]:  # the fixed-cycle modules; those with C = 1 add the kernel column
        basis = ModuleBasis(M)
        span_decompose(basis.elements[0], basis)
        (span,) = basis._residual_cache.values()
        mats.append(span.columns.A)
    outcomes = set()
    for A in mats:
        fac = Factored(G, A)
        for _ in range(6):
            x = [F.from_index(rng.randrange(F.q)) for _ in range(A.shape[1])]
            consistent = sum((A[:, j] @ F.mul_matrix(xj).T for j, xj in enumerate(x)), np.zeros((len(A), F.m), dtype=np.int64)) % p
            random_target = np.array([F.from_index(rng.randrange(F.q)).row() for _ in range(len(A))], dtype=np.int64).reshape(-1, F.m)
            for t in [consistent, random_target]:
                want, got = G.solve(A, t), fac.solve(t)
                assert (want is None) == (got is None) and (want is None or np.array_equal(want, got)), A
                outcomes.add(want is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p,f", [(2, 2), (3, 2), (5, 1)])
def test_stored_schedule_is_the_modules_own(p, f):
    """Modules with the same c but different C (1 and a generator): the transport
    schedule stored in each span plan fills as a fresh phi_transport with its own C,
    not with the other's; the fixed cycle with a kernel line (C = 1) and without it
    (C = g) included.  Storing the plan grows the basis' byte count by its size."""
    ctx = ctx_for(p, f)
    F = ctx.field
    rng = random.Random(8000 * p + f)
    for c in [((p - 1) // 2,) * f, tuple(rng.randrange(p - 1) for _ in range(f))]:
        for C, other in [(F.one(), F.generator()), (F.generator(), F.one())]:
            M = RankOneModule(ctx, C, c)
            basis = ModuleBasis(M)
            before = basis.nbytes()
            x = basis.combination([F.random_element(rng) for _ in basis.elements])
            assert span_decompose(x, basis) is not None
            (((fl, hi), span),) = basis._residual_cache.items()
            assert basis.nbytes() == before + span.nbytes() > before
            plan = span.plan
            h = np.array([[[[rng.randrange(p) for _ in range(2)] for _ in range(F.m)] for _ in range(plan.hi - plan.lo)] for _ in range(f)], dtype=np.int64)
            t = np.array([[rng.randrange(p) for _ in range(2)] for _ in range(F.m)], dtype=np.int64)

            def fresh(C0):
                Ci = [C0] + [F.one()] * (f - 1)
                return phi_transport(F, p, plan.shifts, Ci, plan.lo, plan.hi, h, free=[hi] * f, t=t)

            got = plan.schedule.fill(h, t)
            assert all(np.array_equal(a, b) for a, b in zip(got, fresh(C))), (M, c)
            assert not np.array_equal(got[0], fresh(other)[0]), (M, c)
            assert span_decompose(x, basis) is not None and len(basis._residual_cache) == 1


@pytest.mark.parametrize("p,f", GRID)
def test_a_span_plan_fixes_the_coboundary_layout(p, f):
    """A coboundary window's floor lies at or below every component of its cocycles, so no
    cocycle has a nonzero mu_phi row below the floor (the windows of a span and of
    ``is_coboundary``, with and without ``floor``), and the plan alone fixes the rows of a
    coboundary system: on random cocycles with poles, the first span system of a window
    and a later one have the same height, that of the span's ``rows``."""
    ctx = ctx_for(p, f)
    F = ctx.field
    rng = random.Random(9700 * p + f)
    for M in modules(ctx, rng):
        basis = ModuleBasis(M)
        x = basis.combination([F.random_element(rng) for _ in basis.elements]) + coboundary(M, random_tate(ctx, rng, -2 * p, p))
        # a later target in the same window: its poles are no deeper than those of x
        y = x.scale(F.random_element(rng, nonzero=True)) + basis.combination([F.random_element(rng) for _ in basis.elements]) + coboundary(M, random_tate(ctx, rng, -p, p))
        key = _coboundary_window(M, [x], extent=basis.extent)
        assert _coboundary_window(M, [y], extent=basis.extent) == key, M
        windows = [(key[0], [x, y, *basis.elements])] + [(_coboundary_window(M, [z], floor)[0], [z]) for z in (x, y) for floor in (None, -3 * p)]
        for fl, cocycles in windows:
            phi_lo = p * fl - max((p - 1) * ci for ci in M.c) - 1
            assert not any(c.mu_phi[i].coeff_rows(phi_lo, fl).any() for c in cocycles for i in range(f)), (M, fl)
        assert span_decompose(x, basis) is not None
        (span,) = basis._residual_cache.values()
        first = cocycle_mod._coboundary_system(M, *key, [x, *basis.elements], plan=span.plan)
        later = cocycle_mod._coboundary_system(M, *key, [y], kernel=False, plan=span.plan)
        assert len(first) == len(later) == len(span.rows), M
        assert span_decompose(y, basis) is not None and len(basis._residual_cache) == 1
