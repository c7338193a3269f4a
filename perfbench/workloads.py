"""The benchmark's workloads: seeded inputs, set-up, rounds of timed units and
output checks.

Every round of a workload has the same composition and, after set-up, the same
cache state, so the number of rounds a run fits in changes only the sample
size.  Inputs come from ``random.Random("<workload>:<seed>:<round>")``; the
program receives only the generated configs, modules and cocycles.  Module
digit shapes are fixed per size (generic, with a 0 digit, with a p-1 digit)
and the seed draws the constant C, the moduli, the cocycles and the job order,
because the cost of a table depends mostly on the shape: seeded shapes moved
throughput by 15-20% from seed to seed.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

from refclock import RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class UnitLog:
    """Timed steps, checks and output digests of one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.clock = RefClock()
        self.units = []  # Timing per timed unit
        self.steps = []  # Timing per timed step that is not a unit (ext_f3 certificates)
        self.timed_raw_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = []  # (round, id, sha256 of the canonical output)
        self.round = "setup"
        self.rounds = 0

    def start(self, uid, phase="timed"):
        if self.tracer is not None:
            self.tracer.begin_unit(uid, phase)

    def timed(self, tm):
        self.steps.append(tm)
        self.timed_raw_s += tm.raw

    def unit(self, uid, tm, problems, output):
        self.units.append(tm)
        self.timed_raw_s += tm.raw
        self.check(uid, problems, output)

    def check(self, uid, problems, output):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append("%s: %s" % (uid, "; ".join(problems)))
        self.digests.append((self.round, uid, sha256(output)))

    def reset_timed(self):
        self.units, self.steps, self.timed_raw_s = [], [], 0.0

    def unit_times(self) -> list:
        """Seconds per unit at reference speed (refclock.py)."""
        return [self.clock.scaled(tm) for tm in self.units]

    def timed_s(self) -> float:
        return sum(self.unit_times()) + sum(self.clock.scaled(tm) for tm in self.steps)


# -- module and config generation ---------------------------------------------------------


def random_digits(rng, p, f):
    """A digit vector that is not all p-1 (the normal-form condition)."""
    while True:
        c = tuple(rng.randrange(p) for _ in range(f))
        if not all(x == p - 1 for x in c):
            return c


def is_exceptional(p, C_is_one, c) -> bool:
    return C_is_one and (all(x == 0 for x in c) or all(x == p - 2 for x in c))


def expected_ext_dim(p, f, C_is_one, c) -> int:
    """dim Ext^1(M_0, M_{C,c}) from the paper (acceptance criterion 1)."""
    trivial = C_is_one and all(x == 0 for x in c)
    if p == 2:
        return f + 2 if trivial else f
    return f + 1 if is_exceptional(p, C_is_one, c) else f


def vj_cell_problems(p, C_is_one, c, J, sign, dim, nbasis, stable) -> list:
    """Checks on one V_J cell that the acceptance suite proves: dim V_empty = 0,
    and dim V_J = |J| for generic digits (all in [1, p-2], p > 2) with a unique
    profile.  ``stable`` comes from a real doubled-window rerun here."""
    out = []
    if stable is not True:
        out.append("doubled-window rerun disagrees")
    if nbasis != dim:
        out.append("basis has %d vectors for dim %d" % (nbasis, dim))
    if not J and dim != 0:
        out.append("dim V_empty = %d" % dim)
    generic = p > 2 and all(1 <= x <= p - 2 for x in c) and not is_exceptional(p, C_is_one, c)
    if generic and sign == "unique" and dim != len(J):
        out.append("dim V_%s = %d for generic c" % (list(J), dim))
    return out


def irreducible_quadratics(p) -> list:
    """Monic irreducible x^2 + a x + b over F_p, low-to-high coefficients."""
    return [[b, a, 1] for a in range(p) for b in range(p) if all((x * x + a * x + b) % p for x in range(p))]


def round_rng(name, seed, r) -> random.Random:
    return random.Random("%s:%d:%s" % (name, seed, r))


def round_C(name, seed, shape, r, q, avoid_one) -> int:
    """Index of the constant C of a fixed-shape module in round r: a seeded start,
    then a new value each round, so that no round finds another's basis cached."""
    lo = 2 if avoid_one else 1
    start = random.Random("%s:%d:C%s" % (name, seed, shape)).randrange(q - lo)
    return lo + (start + r) % (q - lo)


def make_context(p, f):
    from phigamma import Context, FieldSpec, make_field
    from phigamma.field import default_modulus

    return Context(make_field(FieldSpec(p, f, f, default_modulus(p, f))))


def module_id(M) -> str:
    return "p%d f%d C%d c%s" % (M.ctx.p, M.ctx.f, M.C.index(), "".join(map(str, M.c)))


# -- cli_cold --------------------------------------------------------------------------------


# vj-table digit shape per (p, f); the seed draws C
VJ_SHAPES_CLI = {(2, 2): (0, 1), (3, 2): (1, 0), (3, 3): (1, 0, 1), (5, 2): (3, 4)}
WACH_REDUCE = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)]
CLASSIFY_SIZES = [(2, 2), (3, 2), (3, 3), (5, 2), (5, 3)]


def cli_round_jobs(seed, r) -> list:
    """The 15 jobs of one cli_cold round as (argv, config), in seeded order."""
    rng = round_rng("cli_cold", seed, r)
    jobs = [(["vj-table"], {"p": p, "f": f, "C": rng.randrange(1, p**f), "c": list(c)}) for (p, f), c in VJ_SHAPES_CLI.items()]
    for p, f in WACH_REDUCE:
        cfg = {"p": p, "f": f}
        if f == 2:
            cfg["modulus"] = rng.choice(irreducible_quadratics(p))
        jobs.append((["wach", "reduce"], cfg))
    jobs += [(["wach", "example71"], {"p": p, "f": 1}) for p in (3, 5)]
    p, f = rng.choice(CLASSIFY_SIZES)
    jobs.append((["classify"], {"p": p, "f": f, "C": rng.randrange(1, p**f), "c": list(random_digits(rng, p, f))}))
    jobs.append((["verify"], {"p": 3, "f": 1}))
    jobs.append((["verify"], {"p": 3, "f": 2, "modulus": rng.choice(irreducible_quadratics(3))}))
    rng.shuffle(jobs)
    return jobs


def _parse_J(text, f) -> tuple:
    if text == "S":
        return tuple(range(f))
    inner = text.strip("{}")
    return tuple(int(x) for x in inner.split(",")) if inner else ()


def cli_output_problems(argv, cfg, rc, stdout) -> list:
    """Verdict checks on one CLI report; flags the program hard-codes are not trusted."""
    if rc != 0:
        return ["exit code %d" % rc]
    try:
        return _report_problems(" ".join(argv), cfg, json.loads(stdout))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return ["malformed report: %s: %s" % (type(exc).__name__, exc)]


def _report_problems(cmd, cfg, out) -> list:
    p, f = cfg["p"], cfg["f"]
    probs = []
    if cmd == "vj-table":
        c = tuple(cfg["c"])
        for key, cell in out["cells"].items():
            jtext, sign = key[2:].split(" sign=")
            J = _parse_J(jtext, f)
            probs += vj_cell_problems(p, cfg["C"] == 1, c, J, sign, cell["dim"], len(cell["basis"]), cell["stable"])
        if not out["cells"]:
            probs.append("no cells")
    elif cmd == "wach reduce":
        res = out["results"]
        if len(res) != 3 * (p**f - 1) or not all(v["match"] for v in res.values()) or out["all_match"] is not True:
            probs.append("reduction mismatch")
    elif cmd == "wach example71":
        if out["exact"] is not False or out["t_raw"] != [p - 1] or not all(ok for _, ok in out["identities"]):
            probs.append("example lattice verdict")
    elif cmd == "classify":
        c = cfg["c"]
        if out["dim_ext1"] != expected_ext_dim(p, f, cfg["C"] == 1, c):
            probs.append("dim_ext1 = %s" % out["dim_ext1"])
        if out["normal_form_c"] != c or out["omega_exponents"] != [-c[(i - 1) % f] for i in range(f)]:
            probs.append("normal form or inertia exponents")
    elif cmd == "verify":
        # verify exits 0 even with failures, so read the count
        reports = out["reports"].values()
        if out["failures"] != 0 or any(rep["failures"] for rep in reports) or sum(rep["cases"] for rep in reports) < 1:
            probs.append("lemma failures: %s" % out["failures"])
    return probs


class CliCold:
    """Closed loop, one client: each job is a fresh ``python -m phigamma.cli``."""

    name = "cli_cold"
    min_rounds = 2

    def __init__(self, seed):
        self.seed = seed
        self.env = child_env()

    def setup_samples(self, k, clock) -> list:
        """set-up = a fresh interpreter's ``import phigamma.cli``; the parent
        brackets each sample with the reference kernel."""
        code = "import time; t = time.perf_counter(); import phigamma.cli; print(time.perf_counter() - t)"
        out = []
        for _ in range(k):
            with clock.timing() as tm:
                res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=60)
            if res.returncode != 0:
                raise RuntimeError("import phigamma.cli failed: %s" % res.stderr.strip()[-500:])
            out.append((float(res.stdout), tm))
        return [inside * clock.scaled(tm) / tm.raw for inside, tm in out]

    def run_job(self, argv, cfg, clock, traced_out=None):
        """One job; returns (exit code, stdout, Timing)."""
        if traced_out is None:
            cmd = [sys.executable, "-m", "phigamma.cli"] + argv
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(traced_out)] + argv
        with clock.timing() as tm:
            res = subprocess.run(cmd, input=json.dumps(cfg), capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=170)
        return res.returncode, res.stdout, tm

    def run_round(self, r, log):
        for j, (argv, cfg) in enumerate(cli_round_jobs(self.seed, r)):
            uid = "r%d/j%d %s %s" % (r, j, " ".join(argv), json.dumps(cfg, sort_keys=True))
            rc, stdout, tm = self.run_job(argv, cfg, log.clock)
            log.unit(uid, tm, cli_output_problems(argv, cfg, rc, stdout), stdout)
        log.rounds += 1

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# -- vj_warm ---------------------------------------------------------------------------------


# seeded-C digit shapes per (p, f); (1, 1, 1) and (1, 2) have generic digits
VJ_SHAPES_WARM = {(2, 2): [(0, 1)], (2, 3): [(0, 1, 1)], (3, 3): [(1, 1, 1), (0, 1, 2)], (5, 2): [(1, 2), (4, 1)]}


def fixed_modules(ctx) -> list:
    """The trivial module and, for p > 2, the cyclotomic one."""
    p, f = ctx.p, ctx.f
    digits = [(0,) * f] + ([(p - 2,) * f] if p > 2 else [])
    return [(ctx.field.one(), c) for c in digits]


def vj_cells(module) -> list:
    """All (J, sign) cells of the module's table, as vj-table enumerates them."""
    from phigamma import weight_profiles

    f = module.ctx.f
    cells = []
    for mask in range(2**f):
        J = tuple(i for i in range(f) if mask >> i & 1)
        for pr in weight_profiles(module, J):
            cells.append((J, pr.sign))
    return cells


def vj_report_output(rep) -> str:
    return json.dumps([rep.dim, [[c.index() for c in e.coords] for e in rep.basis], rep.stable])


class InProcess:
    """A workload that runs inside the benchmark process."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class VJWarm(InProcess):
    """One process; warm contexts; every V_J cell of seeded modules, rerun on."""

    name = "vj_warm"
    min_rounds = 2

    def __init__(self, seed):
        self.seed = seed

    def setup(self, log):
        """Build the contexts and warm each at windows M and 2M with the tables of
        its fixed modules, so that every round meets the same cache state."""
        from phigamma import RankOneModule, vj_table

        self.ctxs = {pf: make_context(*pf) for pf in VJ_SHAPES_WARM}
        for pf, ctx in self.ctxs.items():
            for C, c in fixed_modules(ctx):
                M = RankOneModule(ctx, C, c)
                reports, _ = vj_table(M, stability=True)
                for (J, sign), rep in sorted(reports.items()):
                    probs = vj_cell_problems(ctx.p, True, c, J, sign, rep.dim, len(rep.basis), rep.stable)
                    log.check("setup %s J%s %s" % (module_id(M), list(J), sign), probs, vj_report_output(rep))

    def round_modules(self, r) -> list:
        from phigamma import RankOneModule

        mods = []
        for pf, shapes in VJ_SHAPES_WARM.items():
            ctx = self.ctxs[pf]
            for c in shapes:
                avoid_one = is_exceptional(ctx.p, True, c)
                C = ctx.field.from_index(round_C(self.name, self.seed, c, r, ctx.field.q, avoid_one))
                mods.append(RankOneModule(ctx, C, c))
            mods += [RankOneModule(ctx, C, c) for C, c in fixed_modules(ctx)]
        return mods

    def run_round(self, r, log):
        from phigamma import compute_VJ

        for M in self.round_modules(r):
            one = M.ctx.field.one()
            for J, sign in vj_cells(M):
                uid = "r%d %s J%s %s" % (r, module_id(M), list(J), sign)
                log.start(uid)
                try:
                    with log.clock.timing() as tm:
                        rep = compute_VJ(M, J, None if sign == "unique" else sign, stability=True)
                except Exception as exc:  # a failed unit is counted, not fatal
                    log.unit(uid, tm, ["%s: %s" % (type(exc).__name__, exc)], "")
                    continue
                probs = vj_cell_problems(M.ctx.p, M.C == one, M.c, J, sign, rep.dim, len(rep.basis), rep.stable)
                log.unit(uid, tm, probs, vj_report_output(rep))
        log.rounds += 1


# -- ext_f3 ----------------------------------------------------------------------------------


SPANS_PER_MODULE = 40  # criterion 1 decomposes 200 random cocycles per module


def random_tate(ctx, rng):
    """A Tate element with random coefficients on [-2p, p) in every component."""
    from phigamma import LaurentSeries

    F = ctx.field
    return ctx.tate(
        [LaurentSeries.from_pairs(F, {e: F.from_index(rng.randrange(F.q)) for e in range(-2 * ctx.p, ctx.p)}, ctx.M) for _ in range(ctx.f)]
    )


class ExtF3(InProcess):
    """One process at p=5, f=3: certified Ext^1 bases and span decompositions."""

    name = "ext_f3"
    min_rounds = 1
    p, f = 5, 3
    GENERIC = (1, 2, 3)  # the module of acceptance criterion 2
    CHAIN = (4, 3, 1)  # c_0 = p-1 then one p-2 digit: the rescue-block elimination

    def __init__(self, seed):
        self.seed = seed

    def _module(self, c, r):
        from phigamma import RankOneModule

        return RankOneModule(self.ctx, self.ctx.field.from_index(round_C(self.name, self.seed, c, r, self.ctx.field.q, False)), c)

    def setup(self, log):
        """The context plus one warm-up certificate, which pays the cold gamma
        action for eta and xi: a seeded generic module's basis, with its first
        element verified, tested and decomposed.  Also the bases of the two
        fixed modules, so that every round meets the same caches."""
        from phigamma import RankOneModule, basis_for, is_coboundary, span_decompose, verify_cocycle

        self.ctx = make_context(self.p, self.f)
        F = self.ctx.field
        M = self._module(self.GENERIC, -1)
        basis = basis_for(M)
        B = basis.elements[0]
        dec = span_decompose(B)
        got = None if dec is None else [c.index() for c in dec.coords]
        probs = []
        if len(basis) != expected_ext_dim(self.p, self.f, M.C == F.one(), M.c):
            probs.append("basis has %d elements" % len(basis))
        if not verify_cocycle(B).ok or is_coboundary(B).status != "no":
            probs.append("first basis element not certified")
        if got != [1] + [0] * (len(basis) - 1):
            probs.append("first basis element decomposes to %s" % got)
        log.check("setup %s" % module_id(M), probs, json.dumps([list(basis.labels), got]))
        one = F.one()
        self.fixed = [RankOneModule(self.ctx, one, (0,) * self.f), RankOneModule(self.ctx, one, (self.p - 2,) * self.f)]
        for M in self.fixed:
            basis_for(M)

    def certify(self, M, rng, log, tag):
        """basis_for, verify_cocycle and is_coboundary on every basis element, then
        span_decompose on planted cocycles built before timing."""
        from phigamma import Cocycle, basis_for, coboundary, is_coboundary, span_decompose, verify_cocycle

        ctx = self.ctx
        F = ctx.field
        uid = "%s %s" % (tag, module_id(M))
        log.start(uid + " cert")

        def timed(fn, *args):
            try:
                with log.clock.timing() as tm:
                    return fn(*args)
            finally:
                log.timed(tm)

        try:
            basis = timed(basis_for, M)
            # a fresh Cocycle per element: the basis element memoizes mu_xi, and
            # every round must pay the same verification cost
            verified = [timed(verify_cocycle, Cocycle(M, B.mu_phi, B.mu_gen, B.label)).ok for B in basis.elements]
            statuses = [timed(is_coboundary, B).status for B in basis.elements]
        except Exception as exc:
            log.check(uid + " cert", ["%s: %s" % (type(exc).__name__, exc)], "")
            return
        probs = []
        want = expected_ext_dim(self.p, self.f, M.C == F.one(), M.c)
        if len(basis) != want:
            probs.append("basis has %d elements, want %d" % (len(basis), want))
        if not all(verified):
            probs.append("cocycle check failed")
        if any(s != "no" for s in statuses):
            probs.append("basis element not certified independent: %s" % statuses)
        log.check(uid + " cert", probs, json.dumps([list(basis.labels), verified, statuses]))
        log.start(uid + " inputs", "inputs")
        cob = coboundary(M, random_tate(ctx, rng))
        planted = []
        for _ in range(SPANS_PER_MODULE):
            coords = tuple(F.from_index(rng.randrange(F.q)) for _ in basis.elements)
            planted.append((coords, basis.combination(coords) + cob))
        for k, (coords, x) in enumerate(planted):
            suid = "%s span%d" % (uid, k)
            log.start(suid)
            try:
                with log.clock.timing() as tm:
                    dec = span_decompose(x)
            except Exception as exc:
                log.unit(suid, tm, ["%s: %s" % (type(exc).__name__, exc)], "")
                continue
            got = None if dec is None else [c.index() for c in dec.coords]
            want_coords = [c.index() for c in coords]
            probs = [] if got == want_coords else ["decomposed to %s, planted %s" % (got, want_coords)]
            log.unit(suid, tm, probs, json.dumps(got))

    def run_round(self, r, log):
        rng = round_rng(self.name, self.seed, r)
        for M in [self._module(self.GENERIC, r), self._module(self.CHAIN, r)] + self.fixed:
            self.certify(M, rng, log, "r%d" % r)
        log.rounds += 1


WORKLOADS = {w.name: w for w in (CliCold, VJWarm, ExtF3)}
