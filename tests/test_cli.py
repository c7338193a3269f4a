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
        # a p-adic depth below 1 would divide by zero in the Wach reduction
        (dict(GOOD, precision={"padic_depth": 0}), "wach reduce"),
        (dict(GOOD, precision={"padic_depth": -1}), "wach reduce"),
        (dict(GOOD, precision={"padic_depth": 0}), "wach example71"),
        # the reduction compares on [0, pi_order - p), which is empty for pi_order <= p
        (dict(GOOD, precision={"pi_order": 1}), "wach reduce"),
        (dict(GOOD, precision={"pi_order": 3}), "wach reduce"),
        # a number with a fractional part is refused, not truncated
        (dict(GOOD, p=5, chi_eta=2.5), "classify"),
        (dict(GOOD, precision={"padic_depth": 1.5}), "wach reduce"),
        (dict(GOOD, precision={"pi_order": 100.5}), "classify"),
        (dict(GOOD, precision={"tail_floor": -10.5}), "classify"),
        # p, f, m and the digits c are integers too, and f >= 1 is checked before a modulus is sought
        (dict(GOOD, p=3.5), "classify"),
        (dict(GOOD, f=1.9), "classify"),
        (dict(GOOD, m=1.5), "classify"),
        (dict(GOOD, f=True), "classify"),
        (dict(GOOD, c=[1.7]), "classify"),
        (dict(GOOD, c=[True]), "vj-table"),
        (dict(GOOD, f=-1), "classify"),
        (dict(GOOD, f=2, m=3, c=[1, 1]), "classify"),
        # a composite p used to search all p^m polynomials for a modulus
        (dict(GOOD, p=1000000, f=2, c=[1, 1]), "classify"),
        # the int64 kernels of the Wach side need (2m - 1) (p^depth - 1)^2 < 2^63
        ({"p": 3, "f": 1, "precision": {"padic_depth": 20}}, "wach reduce"),
        # depth 19 at p = 3 passes at m <= 3 and overflows at m = 4, where 2m - 1 = 7
        ({"p": 3, "f": 1, "m": 4, "precision": {"padic_depth": 19}}, "wach reduce"),
        ({"p": 5, "f": 1, "precision": {"padic_depth": 14}}, "wach example71"),
        # an index C lies in [0, p^m): 7 used to run C = 1, and 99 and -1 at (5, 2) the index 24
        (dict(GOOD, C=7), "classify"),
        ({"p": 5, "f": 2, "C": 99, "c": [1, 2]}, "classify"),
        ({"p": 5, "f": 2, "C": -1, "c": [1, 2]}, "vj-table"),
        (dict(GOOD, C=True), "classify"),
        # c is a JSON list: an object used to run its keys as digits
        (dict(GOOD, c={"0": 1}), "classify"),
        (dict(GOOD, c=1), "classify"),
        # a string is refused in every integer field, not converted
        (dict(GOOD, p="3"), "classify"),
        (dict(GOOD, c=["1"]), "classify"),
        (dict(GOOD, p=5, chi_eta="2"), "classify"),
        (dict(GOOD, C="1"), "classify"),
        (dict(GOOD, C=["1"]), "classify"),
        (dict(GOOD, precision={"pi_order": "100"}), "classify"),
        ({"p": 3, "f": 2, "modulus": ["1", "1", "2"], "C": 1, "c": [1, 1]}, "classify"),
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
        "padic_depth=0-reduce",
        "padic_depth=-1-reduce",
        "padic_depth=0-example71",
        "wach-reduce-pi_order<=p",
        "wach-reduce-pi_order=p",
        "chi_eta=2.5",
        "padic_depth=1.5",
        "pi_order=100.5",
        "tail_floor=-10.5",
        "p=3.5",
        "f=1.9",
        "m=1.5",
        "f=true",
        "c=1.7",
        "c=true",
        "f=-1",
        "m-not-multiple-of-f",
        "p-not-prime",
        "padic_depth=20-at-3-1",
        "padic_depth=19-at-3-1",
        "padic_depth=14-at-5-1",
        "C=7-at-3-1",
        "C=99-at-5-2",
        "C=-1-at-5-2",
        "C=true",
        "c-object",
        "c-int",
        "p-string",
        "c-string",
        "chi_eta-string",
        "C-string",
        "C-vector-string",
        "pi_order-string",
        "modulus-string",
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
        ("build_wach_rank1", ["wach", "reduce"], {"p": 2, "f": 1}, ValueError("Ctilde must be a unit"), 6),
    ],
    ids=["commutation", "g0", "zero-division", "precision-stays-4", "pivot", "non-bijective", "field-error", "value-error"],
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


@pytest.mark.parametrize("p,depth", [(3, 18), (3, 19), (5, 12), (5, 13)])
def test_wach_reduce_at_the_deepest_int64_depth(p, depth, tmp_path, capsys):
    """The deepest p-adic depth the int64 bound admits at f = 1 still reduces, and so
    does the one below it, the deepest under the former bound max(M, 2m - 1)."""
    from phigamma import cli

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": p, "f": 1, "precision": {"padic_depth": depth}}))
    assert cli.main(["--config", str(path), "wach", "reduce"]) == 0
    assert json.loads(capsys.readouterr().out)["all_match"] is True


def write_split_lattice(path):
    """The split lattice N(T_1) + N(T_2) at p = 3, f = 1, weights b = (2,), a = (0,), as a
    lattice file for ``wach saturate``."""
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
    path.write_text(json.dumps(data))


def test_wach_saturate_roundtrip(tmp_path):
    path = tmp_path / "lattice.json"
    write_split_lattice(path)
    r = run_cli(["wach", "saturate", str(path)], {"p": 3, "f": 1})
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["exact"] is True and d["t"] == [0]


# sha256 of the stdout of the wach commands, recorded before series over W/p^N became
# LaurentSeries over a PadicRing, and at (2, 3), (3, 3) and (7, 2) before phi on W/p^N
# became a Taylor expansion instead of dense substitution matrices; the default modulus
# at every (p, f)
WACH_DIGESTS = {
    ("reduce", 2, 1): "eb08175f0f1b4ccf01784e5f283a8dbe631d710603b3970426edc9c5488fd704",
    ("reduce", 2, 2): "e436f7ef7be3d48f9aff3cb55be7f2404b0cc22b84d2ba59b851cfe988a5e7e4",
    ("reduce", 2, 3): "fc149eaa56acbfaf8b4cceb686a7071686bce30a39d51d9ceac96d082a442dbb",
    ("reduce", 3, 1): "366d4fcfe6af9abcd8c836fd2754c59de3c3efdfc5a2ec636c49888e6b56e530",
    ("reduce", 3, 2): "34d0c923c682520a1b17b5e868df3b955333456f7763efc6746680dba0e8cb3f",
    ("reduce", 3, 3): "ed23e78bc7d83cbd0667163093c85133e614cf2ba4c6e492a0a1760140c02bf0",
    ("reduce", 5, 1): "245bca3579006aad9dba848644f2e3957b67baec872ad788e099b8de5023f533",
    ("reduce", 5, 2): "db22fd3e6ed2f76bf398f1fd6ac741082bfa4f13315f3bf7168418581e39ade0",
    ("reduce", 7, 2): "0afa58ae48fa65b47262fd59fc8be6f565d559dc9ed202dbeeb01692e13a6bfb",
    ("example71", 2, 1): "54c83d9ef7055db74ba4c83ba055d063137def84295b8227537492716f3c05d6",
    ("example71", 3, 1): "529a9d89cee95fe281198009caac50854ea76810647261d122f19a7f17b6e363",
    ("example71", 5, 1): "d57df4cf7f7968686b2089a4f34057ee48bf9429ca80a8438976369cdec86492",
    ("saturate", 3, 1): "542699be47f3fd0547a65e61c2bbc8b7714055238b5fc0ba66777ea29262c4b3",
}


@pytest.mark.parametrize("cmd,p,f", list(WACH_DIGESTS), ids=["%s-%d-%d" % key for key in WACH_DIGESTS])
def test_wach_stdout_digest(cmd, p, f, tmp_path, capsys):
    import hashlib

    from phigamma import cli

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": p, "f": f}))
    argv = ["--config", str(path), "wach", cmd]
    if cmd == "saturate":
        write_split_lattice(tmp_path / "lattice.json")
        argv.append(str(tmp_path / "lattice.json"))
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == WACH_DIGESTS[cmd, p, f]


# sha256 of the stdout of V_J tables, verify sweeps and classify, recorded before lambda_gamma
# and its powers were built by Frobenius products instead of a Newton root and binary powering
CLI_DIGESTS = {
    ("vj-table", 2, 2): ({"C": 1, "c": [0, 1]}, "2ccd3a6a3fad36c190029eb0467b8aa3a3bb3071be49ae43341b46797b16160d"),
    ("vj-table", 3, 2): ({"C": 2, "c": [1, 0]}, "f27483fccf55f452f5987f3d20f0710669b1ce6ee1d1389d9205c16ffb3cc44f"),
    ("vj-table", 5, 2): ({"C": 2, "c": [3, 4]}, "87701e878cc997a718de60441d046924eae5f8f24cbe9b6b56f6a37c4f183ab9"),
    # q = 2^13, beyond the former 4096-element limit of the F_q linear algebra; recorded
    # with that limit raised before the linear algebra moved to digit planes
    ("vj-table", 2, 1): ({"m": 13, "C": 1, "c": [1]}, "ba4a1a117dcdc6d4e7924741cf7c1441234590edd5e527b8e8630dd2dfdae07a"),
    ("verify", 2, 1): ({}, "7fb1ee13c741a09c24470165a571f290f6ab5ca4ae568de5cffcc172c60d65fb"),
    ("verify", 3, 2): ({}, "cb454400e4ea08a51f3fce8470106dff498f9d4fcbb6f186e291817263556de7"),
    ("classify", 5, 3): ({"C": 2, "c": [1, 2, 3]}, "f3c764aab6061e8a6dabce8cfb406ced1e17e1b66d8e5cbb02d81396b0359491"),
}


@pytest.mark.parametrize("cmd,p,f", list(CLI_DIGESTS), ids=["%s-%d-%d" % key for key in CLI_DIGESTS])
def test_cli_stdout_digest(cmd, p, f, tmp_path, capsys):
    import hashlib

    from phigamma import cli

    extra, digest = CLI_DIGESTS[cmd, p, f]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict({"p": p, "f": f}, **extra)))
    assert cli.main(["--config", str(path), cmd]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of the stdout of V_J tables at the sizes where a system reads mu_xi and lambda^sigma
# far below the window top, recorded before they were built only below the rows a system
# reads; (3,4) reaches f = 4 and (2,3) reads both generators, these two recorded before the
# V_J systems read their generator rows from operator columns; (5,2) C=2 c=[3,4] is pinned
# in CLI_DIGESTS
VJ_TABLE_DIGESTS = {
    (7, 3, 1, (6, 5, 5)): "ee00d07d44cc527f8a8b94beed9451e0640be227f7e325c4be77997a7ee09261",
    (7, 3, 2, (1, 2, 3)): "8b462ec8f7782086563fab4db93375f501fc86e3f5b59269f7712316d09f49c3",
    (5, 3, 2, (1, 2, 3)): "a402d150096a365725249504f4f3325649b8ef8f0f6300f8dab0fec3a89cb369",
    (5, 3, 1, (4, 3, 3)): "a1d0e9fbd7057ea3555612a6aad355ec225baaa02b4f9e72ab35618a05e4c913",
    (3, 3, 2, (2, 1, 1)): "eba4d393195029898a27163952075baf2ae917de808430cec04ed4d69ca3923a",
    (3, 4, 5, (1, 2, 0, 1)): "55f220f94a7ff185926578912b08b58676812afadd8d5ea97301fa45e6da0166",
    (2, 3, 3, (0, 1, 1)): "c2d7849c097395dd9688f143a8698f26d5b6f922211776f34c9a81289e35f6e4",
}


@pytest.mark.parametrize("p,f,C,c", list(VJ_TABLE_DIGESTS), ids=["%d-%d-C%d-c%s" % (p, f, C, "".join(map(str, c))) for p, f, C, c in VJ_TABLE_DIGESTS])
def test_vj_table_stdout_digest(p, f, C, c, tmp_path, capsys):
    import hashlib

    from phigamma import cli

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": p, "f": f, "C": C, "c": list(c)}))
    assert cli.main(["--config", str(path), "vj-table"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VJ_TABLE_DIGESTS[p, f, C, c]


@pytest.mark.parametrize(
    "cmd,cfg",
    [
        ("reduce", {"p": 3, "f": 2, "modulus": [1, 1, 2]}),
        ("example71", {"p": 3, "f": 1, "m": 2, "modulus": [1, 1, 2]}),
        ("reduce", {"p": 5, "f": 2, "modulus": [4, 0, 2]}),
    ],
    ids=["reduce-3-2", "example71-3-1-m2", "reduce-5-2"],
)
def test_wach_accepts_non_monic_modulus(cmd, cfg):
    """W/p^N reduces by the monic lift lead^-1 g; subtracting g itself never ended."""
    r = run_cli(["wach", cmd], cfg, timeout=60)
    assert r.returncode == 0, r.stderr
    d = json.loads(r.stdout)
    if cmd == "reduce":
        assert d["all_match"] is True and len(d["results"]) == 3 * (cfg["p"] ** cfg["f"] - 1)
    else:
        assert d["exact"] is False and all(ok for _, ok in d["identities"])


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
