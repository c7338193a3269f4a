"""tools/bench_record.py summarises perfbench result files of a parent commit and
a change: per workload and side the median and every run of each end-to-end
metric, the rounds and tail percentile of each run, failed/attempted over all runs, the count of
units whose output digests differ between the sides, and per metric the pairs of runs each side won."""
import importlib.util
import json
from pathlib import Path

BENCH_RECORD = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", BENCH_RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(sha, throughput, rss, rounds, failed, attempted, digests):
    """One synthetic ``perfbench/run.py`` result file's content."""
    return {
        "meta": {"workload": "ext_f3", "git_sha": sha, "src_lines": 3900},
        "metrics": {"throughput": {"value": throughput, "unit": "1/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}},
        "rounds": rounds,
        "unit_tail_percentile": 90 + rounds,
        "failed": failed,
        "attempted": attempted,
        "digests": digests,
    }


def write(tmp_path, name, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_bench_record_summarises_both_sides(tmp_path, capsys):
    tool = load_bench_record()
    parent = [
        write(tmp_path, "p1.json", result("aaa", 10.0, 60.0, 8, 0, 100, [[0, "u0", "h0"], [0, "u1", "h1"]])),
        write(tmp_path, "p2.json", result("aaa", 14.0, 62.0, 9, 1, 110, [[0, "u0", "h0"], [1, "u0", "h2"]])),
    ]
    change = [
        write(tmp_path, "c1.json", result("bbb", 15.0, 57.0, 10, 0, 120, [[0, "u0", "h0"], [0, "u1", "DIFF"]])),
        write(tmp_path, "c2.json", result("bbb", 17.0, 58.0, 11, 0, 130, [[1, "u0", "h2"], [2, "u0", "h3"]])),
    ]
    assert tool.main(["--parent", *parent, "--change", *change, "--parent-sha", "PARENT"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert list(record) == ["ext_f3"]
    par, chg = record["ext_f3"]["parent"], record["ext_f3"]["change"]
    assert par["metrics"]["throughput"] == {"unit": "1/s", "median": 12.0, "runs": [10.0, 14.0]}
    assert chg["metrics"]["peak_rss_mb"] == {"unit": "MB", "median": 57.5, "runs": [57.0, 58.0]}
    assert (par["rounds"], chg["rounds"]) == ([8, 9], [10, 11])
    assert (par["tail_percentiles"], chg["tail_percentiles"]) == ([98, 99], [100, 101])
    assert (par["failed"], par["attempted"], chg["failed"], chg["attempted"]) == (1, 210, 0, 250)
    assert (par["runs"], par["src_lines"]) == (2, [3900])
    assert (par["sha"], chg["sha"]) == ("PARENT", "bbb")  # an explicit SHA, else the recorded one
    # units on both sides: (0, u0), (0, u1) and (1, u0); only (0, u1) differs
    assert record["ext_f3"]["digests"] == {"units_compared": 3, "mismatches": 1}


def test_bench_record_keeps_seeds_apart(tmp_path, capsys):
    """A seed draws other inputs under the same unit ids: its runs form their own
    group, and their digests are not compared with another seed's."""
    tool = load_bench_record()

    def run(name, sha, seed, digest):
        data = result(sha, 10.0 * seed, 60.0, 8, 0, 100, [[0, "u0", digest]])
        data["meta"]["seed"] = seed
        return write(tmp_path, name, data)

    parent = [run("p1.json", "aaa", 1, "h1"), run("p2.json", "aaa", 2, "h2")]
    change = [run("c1.json", "bbb", 1, "h1"), run("c2.json", "bbb", 2, "h2")]
    assert tool.main(["--parent", *parent, "--change", *change]) == 0
    record = json.loads(capsys.readouterr().out)
    assert list(record) == ["ext_f3", "ext_f3 seed 2"]
    assert record["ext_f3 seed 2"]["parent"]["metrics"]["throughput"]["runs"] == [20.0]
    assert all(group["digests"] == {"units_compared": 1, "mismatches": 0} for group in record.values())


def test_bench_record_counts_the_pairs_each_side_won(tmp_path, capsys, monkeypatch):
    """Runs pair in the order given; a pair goes to the side better by the metric's
    ``better`` in BENCHMARK.json (throughput higher, peak RSS lower), a tie to neither;
    the parent's quartiles come with the counts."""
    tool = load_bench_record()
    parent = [(10.0, 60.0), (14.0, 62.0), (12.0, 61.0), (20.0, 59.0)]
    change = [(15.0, 57.0), (14.0, 62.0), (11.0, 63.0), (30.0, 58.0)]
    files = {}
    for side, runs in (("p", parent), ("c", change)):
        files[side] = [write(tmp_path, "%s%d.json" % (side, k), result(side, t, rss, 8, 0, 10, [])) for k, (t, rss) in enumerate(runs)]
    assert tool.main(["--parent", *files["p"], "--change", *files["c"]]) == 0
    pairs = json.loads(capsys.readouterr().out)["ext_f3"]["pairs"]
    assert pairs["throughput"] == {"better": "higher", "parent_quartiles": [11.5, 15.5], "pairs": 4, "change_won": 2, "parent_won": 1}
    assert pairs["peak_rss_mb"] == {"better": "lower", "parent_quartiles": [59.75, 61.25], "pairs": 4, "change_won": 2, "parent_won": 1}
    # the order given decides the pairs: the change's runs reversed, and another BENCHMARK.json
    spec = write(tmp_path, "bench.json", {"end_to_end": [{"name": "throughput", "better": "lower"}]})
    monkeypatch.setattr(tool, "BENCHMARK", spec)
    assert tool.main(["--parent", *files["p"], "--change", *files["c"][::-1]]) == 0
    pairs = json.loads(capsys.readouterr().out)["ext_f3"]["pairs"]
    assert list(pairs) == ["throughput"]
    assert (pairs["throughput"]["change_won"], pairs["throughput"]["parent_won"]) == (2, 2)
