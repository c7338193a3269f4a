"""Batch front end: classify modules, emit V_J tables and Wach diagnostics as JSON.

Configuration is a single JSON document (stdin or --config path); all defaults
are echoed into the output for reproducibility.  Exit codes: 0 success,
2 config error, 3 window-inconclusive, 4 precision exhaustion, 5 a lemma
failed in ``verify``.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .field import Field, FieldSpec, default_modulus, make_field
from .series import LaurentSeries, PrecisionError
from .tate import Context
from .rankone import RankOneModule, fundamental_character_exponents, normal_form
from .cocycle import basis_for
from .bounded import vj_table
from .wach import PadicContext, PadicSeries, WachRankTwo, build_wach_rank1, example71, reduce_mod_p, saturation_check
from .oracle import LEMMAS, sweep

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3
EXIT_PRECISION = 4
EXIT_LEMMA_FAILED = 5


class ConfigError(ValueError):
    pass


def load_config(args) -> dict:
    try:
        if args.config:
            with open(args.config) as fh:
                return json.load(fh)
        if not sys.stdin.isatty():
            data = sys.stdin.read().strip()
            if data:
                return json.loads(data)
        return {}
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read config: %s" % exc)


def build_context(cfg: dict, scale: int = 1):
    try:
        p = int(cfg["p"])
        f = int(cfg["f"])
    except (KeyError, ValueError, TypeError):
        raise ConfigError("config needs integer fields 'p' and 'f'")
    prec = cfg.get("precision", {})
    if not isinstance(prec, dict):
        raise ConfigError("'precision' must be an object")
    pi_order = prec.get("pi_order")
    tail_floor = prec.get("tail_floor")
    try:
        m = int(cfg.get("m", f))
        modulus = tuple(cfg["modulus"]) if "modulus" in cfg else default_modulus(p, m)
        field = make_field(FieldSpec(p, f, m, modulus))
        ctx = Context(
            field,
            pi_order=scale * pi_order if pi_order else None,
            tail_floor=scale * tail_floor if tail_floor else None,
            chi_eta=cfg.get("chi_eta"),
            padic_depth=int(prec.get("padic_depth", 3)),
        )
        if scale != 1 and not pi_order:
            ctx = ctx.scaled(scale)
    except (ValueError, TypeError) as exc:  # FieldError is a ValueError
        raise ConfigError(str(exc))
    return ctx


def parse_module(ctx: Context, cfg: dict) -> RankOneModule:
    try:
        Celt = ctx.field.element(cfg.get("C", 1))
        c = [int(x) for x in cfg["c"]] if "c" in cfg else None
    except (ValueError, TypeError) as exc:
        raise ConfigError("'C' must be a field element and 'c' a list of integers: %s" % exc)
    if not Celt:
        raise ConfigError("C must be nonzero")
    if c is None:
        raise ConfigError("config needs the digit vector 'c'")
    if len(c) != ctx.f:
        raise ConfigError("digit vector must have length f")
    try:
        if all(0 <= x <= ctx.p - 1 for x in c) and not all(x == ctx.p - 1 for x in c):
            return RankOneModule(ctx, Celt, c)
        n = sum(x * ctx.p**i for i, x in enumerate(c))
        return normal_form(ctx, Celt, n)
    except ValueError as exc:
        raise ConfigError(str(exc))


def echo(ctx: Context, cfg: dict) -> dict:
    return {
        "config_echo": cfg,
        "schema_version": SCHEMA_VERSION,
        "p": ctx.p,
        "f": ctx.f,
        "m": ctx.m,
        "modulus": list(ctx.field.modulus),
        "chi_eta": ctx.chi_eta,
        "chi_xi": ctx.xi.chi_int,
        "window": {"pi_order": ctx.M, "tail_floor": ctx.L, "padic_depth": ctx.padic_depth},
    }


def _elt(x) -> list:
    return [int(v) for v in x.coeffs]


def cmd_classify(args) -> int:
    cfg = load_config(args)
    ctx = build_context(cfg, args.precision_scale)
    module = parse_module(ctx, cfg)
    out = echo(ctx, cfg)
    out.update(
        {
            "C": _elt(module.C),
            "normal_form_c": list(module.c),
            "Sigma": list(module.sigmas()),
            "omega_exponents": list(fundamental_character_exponents(module)),
            "dim_ext1": module.ext_dim(),
            "exceptional": module.is_exceptional(),
            "stable": True,
        }
    )
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_OK


def _J_name(J, f) -> str:
    if len(J) == f:
        return "S"
    return "{%s}" % ",".join(str(j) for j in J)


def cmd_vj_table(args) -> int:
    cfg = load_config(args)
    ctx = build_context(cfg, args.precision_scale)
    module = parse_module(ctx, cfg)
    stability = bool(cfg.get("stability_rerun", True))
    reports, coincidence = vj_table(module, strict_p2=args.strict_p2, stability=stability)
    labels = basis_for(module).labels
    cells = {}
    all_stable = True
    for (J, sign), rep in sorted(reports.items()):
        key = "J=%s sign=%s" % (_J_name(J, ctx.f), sign)
        cells[key] = {
            "dim": rep.dim,
            "basis": [[_elt(c) for c in e.coords] for e in rep.basis],
            "stable": rep.stable,
        }
        all_stable = all_stable and rep.stable
    out = echo(ctx, cfg)
    out.update(
        {
            "basis_labels": list(labels),
            "cells": cells,
            "coincidence": {"V_{%d}=V_{%d} sign=%s" % (i, j, s): bool(v) for (i, j, s), v in sorted(coincidence.items())},
            "stable": all_stable,
        }
    )
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_OK if all_stable else EXIT_INCONCLUSIVE


def _series_from_json(field, entry, order) -> LaurentSeries:
    pairs = {}
    for k, vec in entry.items():
        pairs[int(k)] = field.element([int(x) % field.p for x in (vec if isinstance(vec, list) else [vec])])
    return LaurentSeries.from_pairs(field, pairs, order)


def _padic_series_from_json(ring, entry, order) -> PadicSeries:
    import numpy as _np

    if not entry:
        return PadicSeries.zero(ring, order)
    exps = sorted(int(k) for k in entry)
    lo = exps[0]
    rows = _np.zeros((exps[-1] - lo + 1, ring.m), dtype=_np.int64)
    for k, vec in entry.items():
        vec = vec if isinstance(vec, list) else [vec]
        rows[int(k) - lo, : len(vec)] = [int(x) % ring.pN for x in vec]
    return PadicSeries(ring, lo, order, rows)


def cmd_wach(args) -> int:
    cfg = load_config(args)
    ctx = build_context(cfg, args.precision_scale)
    pctx = PadicContext(ctx)
    out = echo(ctx, cfg)
    if args.wach_cmd == "reduce":
        grid = []
        Ctil_choices = {
            "1": 1,
            "1+p": 1 + ctx.p,
            "teichmuller": pctx.ring.teichmuller(ctx.field.generator()),
        }
        from itertools import product

        results = {}
        all_match = True
        for c in product(range(ctx.p), repeat=ctx.f):
            if all(x == ctx.p - 1 for x in c):
                continue
            for nameC, Ctil in Ctil_choices.items():
                N = build_wach_rank1(pctx, Ctil, c)
                rep = reduce_mod_p(N)
                key = "c=%s Ctilde=%s" % (list(c), nameC)
                results[key] = {"match": rep.match, "cut_index": N.cut_index}
                all_match = all_match and rep.match
        out.update({"results": results, "all_match": all_match, "stable": True})
        print(json.dumps(out, sort_keys=True, indent=2))
        return EXIT_OK if all_match else EXIT_INCONCLUSIVE
    if args.wach_cmd == "example71":
        if ctx.f != 1:
            raise ConfigError("example71 needs f = 1")
        N, sub = example71(pctx)
        sat = saturation_check(N, sub)
        out.update(
            {
                "exact": sat.exact,
                "t": list(sat.t),
                "t_raw": list(sat.t_raw),
                "N1prime_gap_exponent": ctx.p - 1,
                "a_prime": list(sat.a_prime),
                "b_prime": list(sat.b_prime),
                "identities": [[nm, bool(v)] for nm, v in sat.identities],
                "stable": True,
                "notes": "the lifting question for the unramified class at weights a=(1,0), b=(0,p) is open per the source",
            }
        )
        print(json.dumps(out, sort_keys=True, indent=2))
        return EXIT_OK
    if args.wach_cmd == "saturate":
        try:
            with open(args.file) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("cannot read lattice file: %s" % exc)
        f = ctx.f
        order = pctx.M
        try:
            P = [
                [[_padic_series_from_json(pctx.ring, data["P"][r][c][i], order) for i in range(f)] for c in range(2)]
                for r in range(2)
            ]
            G = {
                name: [
                    [[_padic_series_from_json(pctx.ring, tab[r][c][i], order) for i in range(f)] for c in range(2)]
                    for r in range(2)
                ]
                for name, tab in data.get("G", {}).items()
            }
            a = tuple(int(x) for x in data["a"])
            b = tuple(int(x) for x in data["b"])
            sub = tuple([_series_from_json(ctx.field, data["subline"][j][i], order) for i in range(f)] for j in range(2))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError("malformed lattice file: %s" % exc)
        N = WachRankTwo(pctx, P, G, a=a, b=b)
        try:
            sat = saturation_check(N, sub)
        except ArithmeticError as exc:
            raise ConfigError("input not finite height: %s" % exc)
        out.update(
            {
                "exact": sat.exact,
                "t": list(sat.t),
                "t_raw": list(sat.t_raw),
                "a_prime": list(sat.a_prime),
                "b_prime": list(sat.b_prime),
                "identities": [[nm, bool(v)] for nm, v in sat.identities],
                "stable": True,
            }
        )
        print(json.dumps(out, sort_keys=True, indent=2))
        return EXIT_OK
    raise ConfigError("unknown wach subcommand")


def cmd_verify(args) -> int:
    cfg = load_config(args)
    ctx = build_context(cfg, args.precision_scale)
    names = [args.lemma] if args.lemma else list(LEMMAS)
    for nm in names:
        if nm not in LEMMAS:
            raise ConfigError("unknown lemma %r (choose from %s)" % (nm, ", ".join(LEMMAS)))
    reports = {}
    failures = 0
    for nm in names:
        rep = sweep(ctx, nm)
        reports[nm] = {"cases": rep.total, "failures": [[fr.params, fr.detail] for fr in rep.failures]}
        failures += len(rep.failures)
    out = echo(ctx, cfg)
    out.update({"failures": failures, "reports": reports, "stable": True})
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_LEMMA_FAILED if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="phigamma", description="exact computations with mod-p (phi,Gamma)-modules")
    ap.add_argument("--config", help="path to a JSON config (default: stdin)")
    ap.add_argument("--precision-scale", type=int, default=1, metavar="K", help="multiply all windows by K")
    ap.add_argument("--strict-p2", action="store_true", help="experimental stricter p=2 boundedness at Gamma_2")
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("classify", help="normal form, Sigma values, inertia exponents, dim Ext^1")
    sub.add_parser("vj-table", help="dimensions and bases of the V_J subspaces")
    wp = sub.add_parser("wach", help="integral-side diagnostics")
    wsub = wp.add_subparsers(dest="wach_cmd", required=True)
    wsub.add_parser("reduce", help="rank-one reduction grid")
    wsub.add_parser("example71", help="the standard non-exact lattice")
    sat = wsub.add_parser("saturate", help="saturation report for a rank-two lattice file")
    sat.add_argument("file", help="JSON lattice description")
    vp = sub.add_parser("verify", help="run the series-lemma oracles")
    vp.add_argument("--lemma", help="one lemma name (default: all)")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.cmd == "classify":
            return cmd_classify(args)
        if args.cmd == "vj-table":
            return cmd_vj_table(args)
        if args.cmd == "wach":
            return cmd_wach(args)
        if args.cmd == "verify":
            return cmd_verify(args)
        raise ConfigError("unknown command")
    except ConfigError as exc:
        print(json.dumps({"error": str(exc), "schema_version": SCHEMA_VERSION}), file=sys.stderr)
        return EXIT_CONFIG
    except PrecisionError as exc:
        print(json.dumps({"error": "precision exhausted: %s" % exc, "schema_version": SCHEMA_VERSION}), file=sys.stderr)
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
