import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phigamma

# the child interpreter imports the same phigamma as this one
SRC = str(Path(phigamma.__file__).resolve().parents[1])


def run_cli(args, config=None, check=True, timeout=None):
    cmd = [sys.executable, "-m", "phigamma.cli"] + args
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    stdin = json.dumps(config) if config is not None else ""
    r = subprocess.run(cmd, input=stdin, capture_output=True, text=True, env=env, timeout=timeout)
    return r


def test_classify_generic():
    r = run_cli(["classify"], {"p": 5, "f": 1, "C": 1, "c": [1]})
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["dim_ext1"] == 1  # f, non-exceptional
    assert d["omega_exponents"] == [-1]
    assert d["schema_version"] == "1"
    assert "window" in d and "config_echo" in d


def test_classify_exceptional_dims():
    # C = 1, c = (p-2)-vector is the cyclotomic class: dim f+1
    d = json.loads(run_cli(["classify"], {"p": 3, "f": 1, "C": 1, "c": [1]}).stdout)
    assert d["dim_ext1"] == 2 and d["exceptional"]
    d = json.loads(run_cli(["classify"], {"p": 3, "f": 2, "C": 1, "c": [1, 1]}).stdout)
    assert d["dim_ext1"] == 3 and d["exceptional"]
    d = json.loads(run_cli(["classify"], {"p": 3, "f": 2, "C": 1, "c": [0, 0]}).stdout)
    assert d["dim_ext1"] == 3
    d = json.loads(run_cli(["classify"], {"p": 3, "f": 2, "C": 2, "c": [1, 1]}).stdout)
    assert d["dim_ext1"] == 2
    d = json.loads(run_cli(["classify"], {"p": 2, "f": 2, "C": 1, "c": [0, 0]}).stdout)
    assert d["dim_ext1"] == 4


def test_config_errors():
    r = run_cli(["classify"])
    assert r.returncode == 2
    r = run_cli(["classify"], {"p": 3})
    assert r.returncode == 2
    r = run_cli(["classify"], {"p": 3, "f": 1, "C": 0, "c": [1]})
    assert r.returncode == 2
    r = run_cli(["verify", "--lemma", "bogus"], {"p": 3, "f": 1})
    assert r.returncode == 2


GOOD = {"p": 3, "f": 1, "C": 1, "c": [1]}


@pytest.mark.parametrize(
    "cfg,cmd",
    [
        (dict(GOOD, precision={"pi_order": -5}), "classify"),
        (dict(GOOD, precision={"tail_floor": 5}), "classify"),
        (dict(GOOD, precision=7), "classify"),
        (dict(GOOD, f=0), "classify"),
        (dict(GOOD, c=["x"]), "classify"),
        (dict(GOOD, C="x"), "classify"),
        (dict(GOOD, chi_eta=3), "classify"),
        # at p = 5: 1 and 4 are no primitive roots mod 5; 7 = 2 mod 5 has 7^4 = 1 mod 25
        (dict(GOOD, p=5, chi_eta=1), "vj-table"),
        (dict(GOOD, p=5, chi_eta=4), "vj-table"),
        (dict(GOOD, p=5, chi_eta=7), "vj-table"),
        ({"p": 2, "f": 1, "C": 1, "c": [1], "chi_eta": 5}, "classify"),
        (dict(GOOD, precision={"pi_order": 0}), "classify"),
        (dict(GOOD, precision={"tail_floor": 0}), "classify"),
        # GF tables stop at q = 4096; refused before any window is built
        ({"p": 17, "f": 3, "C": 1, "c": [1, 2, 3]}, "vj-table"),
        # a p-adic depth below 1 would divide by zero in the Wach reduction
        (dict(GOOD, precision={"padic_depth": 0}), "wach reduce"),
        (dict(GOOD, precision={"padic_depth": -1}), "wach reduce"),
        (dict(GOOD, precision={"padic_depth": 0}), "wach example71"),
        # a number with a fractional part is refused, not truncated
        (dict(GOOD, p=5, chi_eta=2.5), "classify"),
        (dict(GOOD, precision={"padic_depth": 1.5}), "wach reduce"),
        (dict(GOOD, precision={"pi_order": 100.5}), "classify"),
        (dict(GOOD, precision={"tail_floor": -10.5}), "classify"),
    ],
    ids=[
        "pi_order<0",
        "tail_floor>0",
        "precision-not-object",
        "f=0",
        "c-not-int",
        "C-not-element",
        "chi_eta-not-unit",
        "chi_eta-1",
        "chi_eta-4",
        "chi_eta-7-mod-25",
        "chi_eta-1-mod-4",
        "pi_order=0",
        "tail_floor=0",
        "vj-table-q>4096",
        "padic_depth=0-reduce",
        "padic_depth=-1-reduce",
        "padic_depth=0-example71",
        "chi_eta=2.5",
        "padic_depth=1.5",
        "pi_order=100.5",
        "tail_floor=-10.5",
    ],
)
def test_malformed_config_exits_2_with_json_error(cfg, cmd):
    r = run_cli(cmd.split(), cfg, timeout=60)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "error" in json.loads(r.stderr)


def test_verify_exits_5_when_a_lemma_fails(tmp_path, monkeypatch, capsys):
    from phigamma import cli, oracle

    monkeypatch.setattr(oracle, "verify_lemma", lambda ctx, name, **params: oracle.LemmaReport(name, params, False, "forced"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": 3, "f": 1}))
    assert cli.main(["--config", str(path), "verify", "--lemma", "gamma_n"]) == cli.EXIT_LEMMA_FAILED == 5
    assert json.loads(capsys.readouterr().out)["failures"] > 0


@pytest.mark.parametrize(
    "target,argv,cfg,exc,code",
    [
        ("build_wach_rank1", ["wach", "reduce"], {"p": 2, "f": 1}, ArithmeticError("Wach commutation failed"), 6),
        ("build_wach_rank1", ["wach", "reduce"], {"p": 2, "f": 1}, ArithmeticError("g_0 is not 1 mod pi"), 6),
        ("build_wach_rank1", ["wach", "reduce"], {"p": 2, "f": 1}, ZeroDivisionError("not a unit in W/p^N"), 6),
        ("build_wach_rank1", ["wach", "reduce"], {"p": 2, "f": 1}, "PrecisionError", 4),
        ("basis_for", ["vj-table"], {"p": 3, "f": 1, "C": 2, "c": [1]}, "PivotError", 6),
        ("basis_for", ["vj-table"], {"p": 3, "f": 1, "C": 2, "c": [1]}, "NonBijectiveError", 6),
        ("sweep", ["verify"], {"p": 3, "f": 1}, "FieldError", 6),
    ],
    ids=["commutation", "g0", "zero-division", "precision-stays-4", "pivot", "non-bijective", "field-error"],
)
def test_arithmetic_failure_exits_with_json_error(target, argv, cfg, exc, code, tmp_path, monkeypatch, capsys):
    from phigamma import cli

    if isinstance(exc, str):
        exc = getattr(phigamma, exc)("forced")

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, fail)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path)] + argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(exc) in json.loads(err)["error"]


@pytest.mark.parametrize(
    "args,cfg",
    [
        (["vj-table"], {"p": 3, "f": 2, "C": 2, "c": [1, 2], "stability_rerun": True}),
        (["classify"], {"p": 3, "f": 2, "C": 1, "c": [1, 1]}),
    ],
    ids=["vj-table", "classify"],
)
def test_stdout_is_identical_across_processes(args, cfg):
    first, second = run_cli(args, cfg), run_cli(args, cfg)
    assert first.returncode == second.returncode == 0
    assert first.stdout and first.stdout == second.stdout


def test_vj_table_output():
    d = json.loads(run_cli(["vj-table"], {"p": 5, "f": 1, "C": 2, "c": [2], "stability_rerun": True}).stdout)
    cells = d["cells"]
    assert cells["J=S sign=unique"]["dim"] == 1
    assert cells["J={} sign=unique"]["dim"] == 0
    assert d["stable"] is True
    assert d["basis_labels"] == ["B_0"]


def test_vj_table_coincidence_flag():
    d = json.loads(run_cli(["vj-table"], {"p": 3, "f": 2, "C": 2, "c": [1, 2], "stability_rerun": False}).stdout)
    assert d["coincidence"]["V_{0}=V_{1} sign=unique"] is True  # c_1 = p-1


def test_verify_subcommand():
    d = json.loads(run_cli(["verify", "--lemma", "gamma_n"], {"p": 3, "f": 1}).stdout)
    assert d["failures"] == 0
    assert d["reports"]["gamma_n"]["cases"] > 0


@pytest.mark.parametrize("f", [1, 2])
def test_verify_at_p2(f):
    """The lemmas stated for p > 2 have no cases at p = 2; the p = 2 lemmas run and pass."""
    r = run_cli(["verify"], {"p": 2, "f": f})
    assert r.returncode == 0, r.stderr
    d = json.loads(r.stdout)
    assert d["failures"] == 0
    assert all(d["reports"][name]["cases"] == 0 for name in ("delta", "cyc", "trick", "trick_plus"))
    assert d["reports"]["p2H"]["cases"] > 0 and d["reports"]["gamma"]["cases"] > 0


def test_wach_example71():
    d = json.loads(run_cli(["wach", "example71"], {"p": 3, "f": 1}).stdout)
    assert d["exact"] is False
    assert d["N1prime_gap_exponent"] == 2
    assert d["t"] == [1]
    assert all(ok for _, ok in d["identities"])
    assert "open per" in d["notes"]


def test_wach_reduce_small():
    d = json.loads(run_cli(["wach", "reduce"], {"p": 2, "f": 1}).stdout)
    assert d["all_match"] is True


def test_wach_saturate_roundtrip(tmp_path):
    import sys as _sys

    _sys.path.insert(0, "src")
    from phigamma import PadicContext, split_lattice
    from conftest import ctx_for

    pctx = PadicContext(ctx_for(3, 1))
    N, sub = split_lattice(pctx, (2,), (0,))

    def ser_json(s):
        out = {}
        for k in range(len(s.rows)):
            if s.rows[k].any():
                out[str(s.floor + k)] = [int(v) for v in s.rows[k]]
        return out

    data = {
        "a": [0],
        "b": [2],
        "P": [[[ser_json(N.P[r][c][0])] for c in range(2)] for r in range(2)],
        "G": {nm: [[[ser_json(N.G[nm][r][c][0])] for c in range(2)] for r in range(2)] for nm in N.G},
        "subline": [[ser_json(sub[0][0])], [ser_json(sub[1][0])]],
    }
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(data))
    r = run_cli(["wach", "saturate", str(path)], {"p": 3, "f": 1})
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["exact"] is True and d["t"] == [0]


def test_precision_scale_flag():
    d = json.loads(run_cli(["--precision-scale", "2", "classify"], {"p": 3, "f": 1, "C": 2, "c": [1]}).stdout)
    assert d["window"]["pi_order"] == 72 and d["window"]["tail_floor"] == -24
    # an explicit window is scaled once, together with the default one
    cfg = {"p": 3, "f": 1, "C": 2, "c": [1], "precision": {"tail_floor": -10}}
    d = json.loads(run_cli(["--precision-scale", "2", "classify"], cfg).stdout)
    assert d["window"]["pi_order"] == 72 and d["window"]["tail_floor"] == -20
    cfg = {"p": 3, "f": 1, "C": 2, "c": [1], "precision": {"pi_order": 40}}
    d = json.loads(run_cli(["--precision-scale", "2", "classify"], cfg).stdout)
    assert d["window"]["pi_order"] == 80 and d["window"]["tail_floor"] == -24
