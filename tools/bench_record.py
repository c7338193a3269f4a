"""Summarise the perfbench runs of a parent commit and a change into one BENCH_<n>.json.

    python3 tools/bench_record.py --parent-sha SHA --change-sha SHA \
        --parent runs/parent/*.json --change runs/change/*.json > BENCH_<n>.json

Each input is the result file of one ``perfbench/run.py`` run (it writes
``perfbench/out/<workload>-seed<N>-trace0.json``; copy it aside after each run).
Runs are grouped by workload and seed, because a seed draws other inputs under the
same unit ids: the default seed 1 under the workload's name, another seed N under
"<workload> seed N".  Per group and side the record keeps the median and every
run's value of each end-to-end metric, the rounds and the tail percentile of each
run (``unit_tail_s`` depends on both), failed/attempted over all runs and the
``src/`` line count; per group it counts the units run on both sides (same round
and unit id) and those whose output digests differ.  A SHA defaults to the one the
runs recorded.  Per group and end-to-end metric it also pairs the parent's and the
change's runs in the order given and counts the pairs each side won, by the metric's
``better`` in ``BENCHMARK.json`` (a tie counts for neither), beside the parent's
quartiles: a claimed gain is read off these.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(paths) -> dict:
    """The result files by workload and seed, in the order given."""
    runs = {}
    for path in paths:
        with open(path) as fh:
            run = json.load(fh)
        name, seed = run["meta"]["workload"], run["meta"].get("seed", 1)
        runs.setdefault(name if seed == 1 else "%s seed %d" % (name, seed), []).append(run)
    return runs


def summary(runs: list, sha) -> dict:
    metrics = {}
    for name, m in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {"unit": m["unit"], "median": statistics.median(values), "runs": values}
    return {
        "sha": sha or runs[0]["meta"]["git_sha"],
        "src_lines": sorted({run["meta"]["src_lines"] for run in runs}),
        "runs": len(runs),
        "rounds": [run["rounds"] for run in runs],
        "tail_percentiles": [run.get("unit_tail_percentile") for run in runs],
        "failed": sum(run["failed"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "metrics": metrics,
    }


def digests(runs: list) -> dict:
    """(round, unit id) -> the set of output digests the runs recorded for it."""
    out = {}
    for run in runs:
        for r, uid, h in run["digests"]:
            out.setdefault((r, uid), set()).add(h)
    return out


def better(path) -> dict:
    """'lower' or 'higher' for each end-to-end metric of a BENCHMARK.json."""
    with open(path) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def quartiles(values: list) -> list:
    """The first and third quartile (inclusive method; one value is its own quartiles)."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def pairs(parent: list, change: list, better_of: dict) -> dict:
    """Per metric with a known ``better``: the parent's quartiles and the pairs (parent
    run k, change run k) that each side won."""
    out = {}
    for name in parent[0]["metrics"].keys() & better_of.keys():
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        sign = 1 if better_of[name] == "higher" else -1
        out[name] = {
            "better": better_of[name],
            "parent_quartiles": quartiles(p),
            "pairs": min(len(p), len(c)),
            "change_won": sum(sign * (y - x) > 0 for x, y in zip(p, c)),
            "parent_won": sum(sign * (x - y) > 0 for x, y in zip(p, c)),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True, help="result files of the parent commit")
    ap.add_argument("--change", nargs="+", required=True, help="result files of the change")
    ap.add_argument("--parent-sha")
    ap.add_argument("--change-sha")
    args = ap.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    better_of = better(BENCHMARK)
    record = {}
    for group in sorted(parent.keys() & change.keys()):
        record[group] = {
            "parent": summary(parent[group], args.parent_sha),
            "change": summary(change[group], args.change_sha),
        }
        p, c = digests(parent[group]), digests(change[group])
        common = p.keys() & c.keys()
        record[group]["digests"] = {"units_compared": len(common), "mismatches": sum(len(p[k] | c[k]) > 1 for k in common)}
        record[group]["pairs"] = pairs(parent[group], change[group], better_of)
    json.dump(record, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
