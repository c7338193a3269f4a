#!/usr/bin/env python3
"""phigamma benchmark; perfbench/README.md describes the workloads and metrics.

    python3 perfbench/run.py --workload {cli_cold,vj_warm,ext_f3,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` sets up, then runs whole rounds of timed units until the
workload's minimum number of rounds is done and ``--seconds`` of wall time
have passed in timed units, and reports the end-to-end metrics.  ``--trace 1``
does set-up plus round 0 once plain and once traced, each in a fresh process,
and reports the per-layer metrics.  Either prints every metric by name with its
unit, then one JSON line ``{"correct", "attempted", "failed", "metrics"}``,
writes ``perfbench/out/<workload>-seed<N>-trace<T>.json`` and exits 1 if an
output check failed, 2 if there are no sources.
"""
import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere, children inherit it
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from workloads import HERE, ROOT, SRC, WORKLOADS, CliCold, UnitLog, child_env, cli_output_problems, cli_round_jobs, sha256  # noqa: E402

OUT = HERE / "out"
SETUP_SAMPLES = {"cli_cold": 5, "vj_warm": 3, "ext_f3": 3}
RUN = [sys.executable, str(HERE / "run.py")]


# -- statistics and metadata --------------------------------------------------------------


def tail(times):
    """(percentile, value): the highest whole percentile with >= 10 units beyond
    it, by nearest rank."""
    xs = sorted(times)
    n = len(xs)
    for q in range(99, 0, -1):
        k = math.ceil(q * n / 100)
        if n - k >= 10:
            return q, xs[k - 1]
    return 50, statistics.median(xs)


def git_sha():
    """HEAD of the checkout's own .git, read without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args) -> dict:
    lines = 0
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "load": "closed loop, one client, one job at a time",
    }


def round_digest(digests, rounds) -> str:
    return sha256("\n".join("%s %s" % (uid, h) for r, uid, h in digests if r in rounds))


def emit(args, meta, log, metrics, extra) -> int:
    """Write the result file, print the metrics and the final JSON line."""
    correct = log.failed == 0
    OUT.mkdir(exist_ok=True)
    record = {
        "meta": meta,
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "error_rate": log.failed / max(log.attempted, 1),
        "failures": log.failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "digest_round0": round_digest(log.digests, ("setup", 0)),
        "digests": log.digests,
    }
    record.update(extra)
    path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1))
    print("# meta %s" % json.dumps(meta))
    for fail in log.failures[:20]:
        print("# FAILED %s" % fail)
    print("%-10s %-40s %s" % (args.workload, "error_rate", "%d/%d" % (log.failed, log.attempted)))
    for k, (v, u) in metrics.items():
        print("%-10s %-40s %.6g %s" % (args.workload, k, v, u))
    print("# result file %s" % path.relative_to(ROOT))
    line = {"correct": correct, "attempted": log.attempted, "failed": log.failed, "metrics": record["metrics"]}
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


# -- child processes ----------------------------------------------------------------------


def run_child(args, mode) -> dict:
    """Run this script as a child in ``mode`` and return what it wrote."""
    OUT.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile("r", dir=OUT, suffix=".json") as tmp:
        cmd = RUN + ["--workload", args.workload, "--seed", str(args.seed), "--child", mode, "--out", tmp.name]
        res = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=175)
        if res.returncode != 0:
            raise RuntimeError("child %s exited %d: %s" % (mode, res.returncode, res.stderr.strip()[-2000:]))
        return json.loads(tmp.read())


def child_main(args) -> int:
    """--child setup: one timed set-up.  --child round / traced-round: set-up
    plus round 0, the fixed work of a traced run."""
    tracer = None
    log = UnitLog()
    with log.clock.timing() as total:
        with log.clock.timing() as setup:
            if args.child == "traced-round":
                from tracing import Tracer

                log.tracer = tracer = Tracer().install()
            wl = WORKLOADS[args.workload](args.seed)
            wl.setup(log)
        if args.child != "setup":
            log.round = 0
            wl.run_round(0, log)
    out = {"setup_s": log.clock.scaled(setup)}
    if args.child != "setup":
        out.update(
            wall_s=log.clock.scaled(total),
            attempted=log.attempted,
            failed=log.failed,
            failures=log.failures[:50],
            digest_round0=round_digest(log.digests, ("setup", 0)),
            digests=log.digests,
        )
    if tracer is not None:
        from tracing import scale_rollup

        tracer.uninstall()
        out["rollup"] = scale_rollup(tracer.rollup(), log.clock.scaled(total) / total.raw)
        out["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


# -- the two kinds of run -----------------------------------------------------------------


def measured_run(args) -> int:
    meta = metadata(args)
    wl = WORKLOADS[args.workload](args.seed)
    log = UnitLog()
    k = SETUP_SAMPLES[args.workload]
    if isinstance(wl, CliCold):
        samples = wl.setup_samples(k, log.clock)
    else:
        # extra set-ups first, while this process is still small
        samples = [run_child(args, "setup")["setup_s"] for _ in range(k - 1)]
        with log.clock.timing() as tm:
            wl.setup(log)
        samples.append(log.clock.scaled(tm))
    log.reset_timed()
    while log.rounds < wl.min_rounds or log.timed_raw_s < args.seconds:
        log.round = log.rounds
        wl.run_round(log.rounds, log)
    times = log.unit_times()
    timed_s = log.timed_s()
    pct, tail_s = tail(times)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "throughput": (len(times) / timed_s, "1/s"),
        "unit_p50_s": (statistics.median(times), "s"),
        "unit_tail_s": (tail_s, "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    extra = {
        "setup_samples_s": samples,
        "rounds": log.rounds,
        "units": len(times),
        "timed_s": timed_s,
        "unit_tail_percentile": pct,
        "unit_times_s": times,
        "raw_timed_s": log.timed_raw_s,
        "raw_unit_times_s": [tm.raw for tm in log.units],
    }
    return emit(args, meta, log, metrics, extra)


CLI_COMMANDS = ("classify", "vj-table", "wach-reduce", "wach-example71", "verify")


def traced_run(args) -> int:
    from tracing import layer_metrics, merge_rollups, scale_rollup

    meta = metadata(args)
    log = UnitLog()
    cli = {"import_s": 0.0} | {c: 0.0 for c in CLI_COMMANDS}
    spans = []
    if args.workload == "cli_cold":
        wl = CliCold(args.seed)
        rollups = []
        untraced_s = traced_s = 0.0
        log.round = 0
        OUT.mkdir(exist_ok=True)
        for j, (argv, cfg) in enumerate(cli_round_jobs(args.seed, 0)):
            uid = "r0/j%d %s %s" % (j, " ".join(argv), json.dumps(cfg, sort_keys=True))
            rc0, out0, tm0 = wl.run_job(argv, cfg, log.clock)
            with tempfile.NamedTemporaryFile("r", dir=OUT, suffix=".json") as tmp:
                rc1, out1, tm1 = wl.run_job(argv, cfg, log.clock, traced_out=tmp.name)
                data = json.loads(tmp.read() or "null")
            untraced_s += log.clock.scaled(tm0)
            traced_s += log.clock.scaled(tm1)
            factor = log.clock.scaled(tm1) / tm1.raw
            probs = cli_output_problems(argv, cfg, rc1, out1)
            if (rc0, out0) != (rc1, out1):
                probs.append("traced output differs from untraced output")
            log.check(uid, probs, out1)
            if data is not None:
                rollups.append(scale_rollup(data, factor))
                cli["import_s"] += data["cli"]["import_s"] * factor
                cli[data["cli"]["cmd"]] += data["cli"]["main_s"] * factor
                spans += [[j] + s for s in data.pop("spans")]
        rollup = merge_rollups(rollups)
        overhead = traced_s / untraced_s - 1
    else:
        plain = run_child(args, "round")
        traced = run_child(args, "traced-round")
        for res, tag in ((plain, "untraced"), (traced, "traced")):
            log.attempted += res["attempted"]
            log.failed += res["failed"]
            log.failures += ["%s: %s" % (tag, f) for f in res["failures"]]
        log.digests = traced["digests"]
        if plain["digest_round0"] != traced["digest_round0"]:
            log.attempted += 1
            log.failed += 1
            log.failures.append("traced outputs differ from untraced outputs")
        rollup = traced["rollup"]
        spans = traced["spans"]
        overhead = traced["wall_s"] / plain["wall_s"] - 1
    metrics = layer_metrics(rollup)
    metrics["cli.import_s"] = (cli["import_s"], "s")
    for c in CLI_COMMANDS:
        metrics["cli.%s.s" % c] = (cli[c], "s")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    OUT.mkdir(exist_ok=True)
    span_path = OUT / ("%s-seed%d.spans.jsonl" % (args.workload, args.seed))
    fields = ("id", "parent", "name", "unit", "phase", "start_ns", "end_ns")
    with open(span_path, "w") as fh:
        for s in spans:
            rec = dict(zip(("job",) + fields, s)) if len(s) == 8 else dict(zip(fields, s))
            fh.write(json.dumps(rec) + "\n")
    extra = {"rollup": rollup, "spans_file": str(span_path.relative_to(ROOT))}
    return emit(args, meta, log, metrics, extra)


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = RUN + ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if res.returncode != 0 or not lines:
            sys.stderr.write(res.stderr)
            status = 1
        if not lines:
            merged["correct"] = False
            continue
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({"%s.%s" % (name, k): v for k, v in last["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="phigamma benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "round", "traced-round"), help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # the kernel of refclock.py and the work share a core
    if not (SRC / "phigamma" / "__init__.py").is_file():
        sys.stderr.write("no phigamma sources under %s: run from the root of a checkout\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return child_main(args)
    if args.workload == "all":
        return run_all(args)
    return traced_run(args) if args.trace else measured_run(args)


if __name__ == "__main__":
    sys.exit(main())
