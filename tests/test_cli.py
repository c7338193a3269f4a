import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phigamma

# the child interpreter imports the same phigamma as this one
SRC = str(Path(phigamma.__file__).resolve().parents[1])


def run_cli(args, config=None, check=True):
    cmd = [sys.executable, "-m", "phigamma.cli"] + args
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    r = subprocess.run(cmd, input=json.dumps(config) if config is not None else "", capture_output=True, text=True, env=env)
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
    "cfg",
    [
        dict(GOOD, precision={"pi_order": -5}),
        dict(GOOD, precision={"tail_floor": 5}),
        dict(GOOD, precision=7),
        dict(GOOD, f=0),
        dict(GOOD, c=["x"]),
        dict(GOOD, C="x"),
        dict(GOOD, chi_eta=3),
    ],
    ids=["pi_order<0", "tail_floor>0", "precision-not-object", "f=0", "c-not-int", "C-not-element", "chi_eta-not-unit"],
)
def test_malformed_config_exits_2_with_json_error(cfg):
    r = run_cli(["classify"], cfg)
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
