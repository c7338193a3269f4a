"""Spans and counters around phigamma's public functions, installed from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.install()`` replaces
each traced function or method, in every ``phigamma`` module namespace that
holds it, with a wrapper that records a span (name, start, end, parent, unit)
and rolls it up into calls, inclusive time, self time (duration minus the time
covered by child spans) and, for memoized constructions, a cold/warm split keyed by
the cache key the call would hit.  ``uninstall()`` puts the originals back.

Counts marked "computed" (``elems``, ``computed_bytes``) are derived from the
call's arguments with a model of the current algorithm, not measured.
"""
from __future__ import annotations

import importlib
import resource
import sys
import time
from collections import defaultdict

MAX_SPANS = 100_000  # raw spans kept for the span file; roll-ups are never capped


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- hooks run before a call: they add computed work counts and return True
# (cold: the call fills a program cache), False (warm) or None (no split) ------------


def _cached(key_fn):
    """A hook for a call memoized under key_fn(args): cold on the first key."""

    def hook(tracer, name, agg, *args, **kwargs):
        key = key_fn(*args, **kwargs)
        if key is None:
            return False
        seen = tracer.seen[name]
        if key in seen:
            return False
        seen.add(key)
        return True

    return hook


def _gamma_hook(tracer, name, agg, ctx, gamma, s, out_order=None):
    """Cold when the call builds the Lucas head matrices of (ctx.key, chi) or
    deepens its pole ladder; counts the cells of those matrices it slices and
    casts to int64 (computed, from the arguments)."""
    if s.is_zero() or gamma.chi_int == 1:
        return False
    key = (ctx.key, gamma.chi_int)
    order = min(s.order, ctx.M)
    if out_order is not None:
        order = min(order, out_order)
    order = int(order)
    cold = False
    cells = 0
    if s.low < 0:
        depth = -s.low
        ladder = tracer.ladder_depth.get(key, 0)
        if depth > ladder:
            cold = True
            ladder = tracer.ladder_depth[key] = depth
        cells += depth * max(order + ladder, 0)
    head_hi = min(s.floor + len(s.rows), ctx.M)
    if head_hi > 0:
        if key not in tracer.seen[name]:
            tracer.seen[name].add(key)
            cold = True
        cells += ctx.M * head_hi + max(order, 0) * ctx.M
    agg.work["elems"] += cells
    agg.work["computed_bytes"] += 8 * cells
    return cold


def _mul_hook(tracer, name, agg, a, b):
    rows = getattr(b, "rows", None)
    if rows is not None and not a.is_zero() and not b.is_zero():  # scalar and zero products do no convolution
        agg.work["terms"] += len(a.rows) * len(rows) * a.field.m**2


def _rref_hook(tracer, name, agg, G, mat):
    shape = getattr(mat, "shape", None)
    if shape is not None and len(shape) == 2:
        agg.work["cells"] += int(shape[0]) * int(shape[1])


# (span name, module, attribute path, hook)
SPANS = [
    ("tate.gamma_act_series", "phigamma.tate", "Context.gamma_act_series", _gamma_hook),
    ("tate.lambda_pow", "phigamma.tate", "Context.lambda_pow", _cached(lambda ctx, gamma, e: (ctx.field.key, ctx.M, ctx.f, gamma.chi_int, e))),
    ("tate.op_lambda_gamma", "phigamma.tate", "Context.op_lambda_gamma", None),
    ("series.mul", "phigamma.series", "LaurentSeries.__mul__", _mul_hook),
    ("series.inv_unit", "phigamma.series", "LaurentSeries.inv_unit", None),
    ("series.nth_root_unit", "phigamma.series", "nth_root_unit", None),
    ("field.mul_rows", "phigamma.field", "Field.mul_rows", None),
    ("rankone.kappa_gamma", "phigamma.rankone", "RankOneModule.kappa_gamma", None),
    ("rankone.weight_profiles", "phigamma.rankone", "weight_profiles", None),
    ("cocycle.basis_for", "phigamma.cocycle", "basis_for", _cached(lambda m: (m.ctx.key, m.C.index(), m.c))),
    ("cocycle.verify_cocycle", "phigamma.cocycle", "verify_cocycle", None),
    ("cocycle.is_coboundary", "phigamma.cocycle", "is_coboundary", None),
    ("cocycle.span_decompose", "phigamma.cocycle", "span_decompose", None),
    ("cocycle.PhiTransport.__init__", "phigamma.cocycle", "PhiTransport.__init__", None),
    ("cocycle.PhiTransport.coeff", "phigamma.cocycle", "PhiTransport.coeff", None),
    ("cocycle.PhiTransport.series", "phigamma.cocycle", "PhiTransport.series", None),
    ("cocycle.PhiTransport.kernel_vector", "phigamma.cocycle", "PhiTransport.kernel_vector", None),
    ("bounded.BoundedSystem.run", "phigamma.bounded", "BoundedSystem.run", None),
    ("bounded.compute_VJ", "phigamma.bounded", "compute_VJ", None),
    ("gflinalg.gf", "phigamma.gflinalg", "gf", _cached(lambda field: field.key)),
    ("gflinalg.rref", "phigamma.gflinalg", "GF.rref", _rref_hook),
    ("gflinalg.nullspace", "phigamma.gflinalg", "GF.nullspace", None),
    ("gflinalg.solve", "phigamma.gflinalg", "GF.solve", None),
    ("wach.build_wach_rank1", "phigamma.wach", "build_wach_rank1", None),
    ("wach.reduce_mod_p", "phigamma.wach", "reduce_mod_p", None),
    (
        "wach.PadicContext.substitute",
        "phigamma.wach",
        "PadicContext.substitute",
        _cached(lambda pc, s, a: None if s.is_zero() else (pc.ctx.field.key, pc.ring.depth, pc.M, a)),
    ),
    ("wach.saturation_check", "phigamma.wach", "saturation_check", None),
    ("oracle.sweep", "phigamma.oracle", "sweep", None),
]

# FieldElement +, -, *, / and inv: counted (outermost call only), no span
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "inv")


class Agg:
    __slots__ = ("calls", "incl_ns", "self_ns", "cold_calls", "cold_ns", "warm_ns", "cold_rss_kb", "work")

    def __init__(self):
        self.calls = self.incl_ns = self.self_ns = 0
        self.cold_calls = self.cold_ns = self.warm_ns = self.cold_rss_kb = 0
        self.work = defaultdict(int)

    def as_dict(self) -> dict:
        out = {k: getattr(self, k) for k in self.__slots__ if k != "work"}
        out["work"] = dict(self.work)
        return out


class Tracer:
    """In-memory spans and roll-ups; one per traced process."""

    def __init__(self):
        self.aggs = defaultdict(Agg)
        self.stack = []  # [span id, ns covered by children]
        self.spans = []  # (id, parent id, name, unit, phase, t0_ns, t1_ns)
        self.next_id = 0
        self.unit = None
        self.phase = "setup"
        self.seen = defaultdict(set)  # span name -> cache keys already filled
        self.ladder_depth = {}  # (ctx.key, chi) -> deepest pole ladder built
        self.scalar_ops = 0
        self._scalar_depth = 0
        self._patched = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------------------
    def install(self):
        import phigamma  # noqa: F401  (loads every submodule)

        mods = [m for name, m in sys.modules.items() if m is not None and (name == "phigamma" or name.startswith("phigamma."))]
        for name, modname, path, hook in SPANS:
            owner, attr = self._resolve(modname, path)
            orig = owner.__dict__[attr]
            wrapper = self._span_wrapper(name, orig, hook)
            if isinstance(owner, type):
                self._patch_identical(owner, orig, wrapper)
            else:
                for m in mods:  # every namespace that imported the function by name
                    self._patch_identical(m, orig, wrapper)
        from phigamma.field import FieldElement

        for attr in SCALAR_OPS:
            orig = FieldElement.__dict__[attr]
            self._patch(FieldElement, attr, orig, self._counter_wrapper(orig))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    @staticmethod
    def _resolve(modname, path):
        owner = importlib.import_module(modname)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]

    def _patch(self, owner, attr, orig, new):
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, new)

    def _patch_identical(self, owner, orig, new):
        for attr, val in list(vars(owner).items()):
            if val is orig:
                self._patch(owner, attr, orig, new)

    # -- wrappers ------------------------------------------------------------------------
    def _span_wrapper(self, name, fn, hook):
        tracer = self
        agg = self.aggs[name]
        perf = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            cold = hook(tracer, name, agg, *args, **kwargs) if hook is not None else None
            rss0 = _maxrss_kb() if cold else 0
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                agg.calls += 1
                agg.incl_ns += dur
                agg.self_ns += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if cold is not None:
                    if cold:
                        agg.cold_calls += 1
                        agg.cold_ns += dur
                        agg.cold_rss_kb += _maxrss_kb() - rss0
                    else:
                        agg.warm_ns += dur
                if sid < MAX_SPANS:
                    tracer.spans.append((sid, parent, name, tracer.unit, tracer.phase, t0, t1))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _counter_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._scalar_depth == 0:
                tracer.scalar_ops += 1
            tracer._scalar_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._scalar_depth -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- unit spans and output -------------------------------------------------------------
    def begin_unit(self, uid, phase="timed"):
        self.unit = uid
        self.phase = phase

    def rollup(self) -> dict:
        return {
            "aggs": {name: agg.as_dict() for name, agg in sorted(self.aggs.items())},
            "scalar_ops": self.scalar_ops,
            "spans_total": self.next_id,
            "spans_kept": len(self.spans),
        }


def scale_rollup(rollup: dict, factor: float) -> dict:
    """Rescale a roll-up's times to reference speed (refclock.py); counts stay."""
    for agg in rollup["aggs"].values():
        for k in ("incl_ns", "self_ns", "cold_ns", "warm_ns"):
            agg[k] = agg[k] * factor
    return rollup


def merge_rollups(rollups) -> dict:
    """Sum roll-ups from several traced processes (one per CLI job)."""
    out = {"aggs": {}, "scalar_ops": 0, "spans_total": 0, "spans_kept": 0}
    for r in rollups:
        out["scalar_ops"] += r["scalar_ops"]
        out["spans_total"] += r["spans_total"]
        out["spans_kept"] += r["spans_kept"]
        for name, a in r["aggs"].items():
            acc = out["aggs"].setdefault(name, {k: 0 for k in a if k != "work"} | {"work": {}})
            for k, v in a.items():
                if k == "work":
                    for wk, wv in v.items():
                        acc["work"][wk] = acc["work"].get(wk, 0) + wv
                else:
                    acc[k] += v
    return out


def layer_metrics(rollup: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json (except cli.* and trace.*) from a roll-up."""
    aggs = rollup["aggs"]

    def a(name, field):
        return aggs.get(name, {}).get(field, 0)

    def w(name, field):
        return aggs.get(name, {}).get("work", {}).get(field, 0)

    def s(ns):
        return ns / 1e9

    phi_self = sum(v["self_ns"] for k, v in aggs.items() if k.startswith("cocycle.PhiTransport."))
    return {
        "tate.gamma_act_series.cold_s": (s(a("tate.gamma_act_series", "cold_ns")), "s"),
        "tate.gamma_act_series.cold_rss_mb": (a("tate.gamma_act_series", "cold_rss_kb") / 1024, "MB"),
        "tate.gamma_act_series.warm_s": (s(a("tate.gamma_act_series", "warm_ns")), "s"),
        "tate.gamma_act_series.calls": (a("tate.gamma_act_series", "calls"), "count"),
        "tate.gamma_act_series.elems": (w("tate.gamma_act_series", "elems"), "count"),
        "tate.gamma_act_series.computed_bytes": (w("tate.gamma_act_series", "computed_bytes"), "bytes"),
        "tate.lambda_pow.cold_s": (s(a("tate.lambda_pow", "cold_ns")), "s"),
        "tate.op_lambda_gamma.calls": (a("tate.op_lambda_gamma", "calls"), "count"),
        "tate.op_lambda_gamma.self_s": (s(a("tate.op_lambda_gamma", "self_ns")), "s"),
        "series.inv_unit.self_s": (s(a("series.inv_unit", "self_ns")), "s"),
        "series.nth_root_unit.self_s": (s(a("series.nth_root_unit", "self_ns")), "s"),
        "series.mul.calls": (a("series.mul", "calls"), "count"),
        "series.mul.self_s": (s(a("series.mul", "self_ns")), "s"),
        "series.mul.terms": (w("series.mul", "terms"), "count"),
        "field.mul_rows.self_s": (s(a("field.mul_rows", "self_ns")), "s"),
        "field.scalar_ops": (rollup["scalar_ops"], "count"),
        "gflinalg.gf.cold_s": (s(a("gflinalg.gf", "cold_ns")), "s"),
        "gflinalg.rref.calls": (a("gflinalg.rref", "calls"), "count"),
        "gflinalg.rref.self_s": (s(a("gflinalg.rref", "self_ns")), "s"),
        "gflinalg.rref.cells": (w("gflinalg.rref", "cells"), "count"),
        "gflinalg.nullspace.self_s": (s(a("gflinalg.nullspace", "self_ns")), "s"),
        "gflinalg.solve.self_s": (s(a("gflinalg.solve", "self_ns")), "s"),
        "cocycle.basis_for.cold_s": (s(a("cocycle.basis_for", "cold_ns")), "s"),
        "cocycle.PhiTransport.coeff.calls": (a("cocycle.PhiTransport.coeff", "calls"), "count"),
        "cocycle.PhiTransport.self_s": (s(phi_self), "s"),
        "cocycle.span_decompose.self_s": (s(a("cocycle.span_decompose", "self_ns")), "s"),
        "cocycle.is_coboundary.self_s": (s(a("cocycle.is_coboundary", "self_ns")), "s"),
        "cocycle.verify_cocycle.self_s": (s(a("cocycle.verify_cocycle", "self_ns")), "s"),
        "bounded.BoundedSystem.run.calls": (a("bounded.BoundedSystem.run", "calls"), "count"),
        "bounded.BoundedSystem.run.self_s": (s(a("bounded.BoundedSystem.run", "self_ns")), "s"),
        "bounded.compute_VJ.self_s": (s(a("bounded.compute_VJ", "self_ns")), "s"),
        "wach.build_wach_rank1.self_s": (s(a("wach.build_wach_rank1", "self_ns")), "s"),
        "wach.reduce_mod_p.self_s": (s(a("wach.reduce_mod_p", "self_ns")), "s"),
        "wach.PadicContext.substitute.cold_s": (s(a("wach.PadicContext.substitute", "cold_ns")), "s"),
        "wach.PadicContext.substitute.warm_s": (s(a("wach.PadicContext.substitute", "warm_ns")), "s"),
        "wach.saturation_check.self_s": (s(a("wach.saturation_check", "self_ns")), "s"),
        "oracle.sweep.self_s": (s(a("oracle.sweep", "self_ns")), "s"),
        "rankone.kappa_gamma.self_s": (s(a("rankone.kappa_gamma", "self_ns")), "s"),
        "rankone.weight_profiles.self_s": (s(a("rankone.weight_profiles", "self_ns")), "s"),
    }
