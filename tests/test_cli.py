"""Command line driver: report shape, exit codes, config parsing,
determinism."""
import dataclasses
import json
import sys

import pytest

from pargal import cli, fixture
from pargal.cohomology import cohomology_group, identity_cochain
from pargal.config import (ConfigError, build_action, build_global,
                           parse_config, resolve_idempotent)

E1_INI = """
[ring]
descriptor = GF(2)*GF(2)*GF(2)

[group]
descriptor = C3

[action]
kind = generator
permutation = 1,2,0
idempotent = (1,1,0)
"""

FROB_INI = """
[ring]
descriptor = GF(4;x^2+x+1)

[group]
descriptor = C2

[action]
kind = generator
permutation = 0
frobenius = 1
"""

# 72 elements, C6 by Frobenius on both factors: the Galois lattice
# system has 9 rows in 18 columns, with moduli 2, 6, 6, ...
F8F9C6_INI = """
[ring]
descriptor = GF(8;x^3+x+1)*GF(9;x^2+1)

[group]
descriptor = C6

[action]
kind = generator
permutation = 0,1
frobenius = 1,1
"""

F2C6G_INI = """
[ring]
descriptor = GF(2)*GF(2)*GF(2)*GF(2)*GF(2)*GF(2)

[group]
descriptor = C6

[action]
kind = generator
permutation = 1,2,3,4,5,0
"""

TABLES_BAD_INI = """
[ring]
descriptor = GF(2)*GF(2)

[group]
descriptor = C2

[action]
kind = tables
one_g = 3,3
alpha = 0,1,2,3
    0,2,2,3
"""


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- commands

def test_validate_fixture(capsys):
    code, out, _ = run(capsys, ["validate", "--fixture", "E1"])
    assert code == 0
    assert "valid: all partial action axioms hold" in out


def test_invariants(capsys):
    code, out, _ = run(capsys, ["invariants", "--fixture", "E1"])
    assert code == 0
    assert "invariant subring order 2" in out
    assert "domain sizes: [4, 2, 2]" in out


def test_galois_yes(capsys):
    code, out, _ = run(capsys, ["galois", "--fixture", "E1"])
    assert code == 0
    assert "galois: yes (m=2, strategy idempotents)" in out
    assert "certificate holds" in out


def test_galois_no_conclusive_exit_zero(capsys):
    code, out, _ = run(capsys, ["galois", "--fixture", "N1"])
    assert code == 0
    assert "galois: no (conclusive)" in out


def test_cohomology_all_n(capsys):
    for n, token in ((0, "|H|=3"), (1, "|H|=1"), (2, "|H|=1")):
        code, out, _ = run(capsys, ["cohomology", "--fixture", "E2",
                                    "--n", str(n)])
        assert code == 0
        assert f"H^{n}:" in out and token in out


def test_cohomology_engine_both(capsys):
    code, out, _ = run(capsys, ["cohomology", "--fixture", "E1", "--n", "2",
                                "--engine", "both"])
    assert code == 0
    assert "|Z|=1 |B|=1 |H|=1" in out


def test_crossed_identity_twist(capsys):
    code, out, _ = run(capsys, ["crossed", "--fixture", "E1"])
    assert code == 0
    assert "twist: identity cochain" in out
    assert "associativity: ok (512 monomial triples, exhaustive)" in out
    assert "# algebra crossed: order 16, 8 basis monomials" in out


def test_crossed_explicit_twist_matches_identity(capsys):
    act = fixture("E1")
    vals = ",".join(str(v) for v in identity_cochain(act, 2).value_tuple())
    code1, out1, _ = run(capsys, ["crossed", "--fixture", "E1"])
    code2, out2, _ = run(capsys, ["crossed", "--fixture", "E1",
                                  "--twist", vals])
    assert code1 == code2 == 0
    tail1 = out1.splitlines()[3:]   # skip command/instance/twist lines
    tail2 = out2.splitlines()[3:]
    assert tail1 == tail2


def test_delta_theta(capsys):
    code, out, _ = run(capsys, ["delta-theta", "--fixture", "E1"])
    assert code == 0
    assert "Delta(Theta) = M_2(GF(2)), order 16" in out
    assert "collapses to Delta(Theta)" in out


def test_delta_theta_f2c6g_matrix_ring(tmp_path, capsys):
    # |R*G| = 2^36: too large to list, so injectivity of rho is decided by
    # the kernel order of the lattice map, and C6 on GF(2)^6 is Galois
    cfg = tmp_path / "f2c6g.ini"
    cfg.write_text(F2C6G_INI)
    code, out, err = run(capsys, ["delta-theta", "--config", str(cfg)])
    assert code == 0, err
    assert "Delta(Theta) = M_6(GF(2)), order 68719476736" in out
    assert "regular representation bijective: True" in out


def test_pics(capsys):
    code, out, _ = run(capsys, ["pics", "--fixture", "E1"])
    assert code == 0
    assert "PicS(R): 4 classes" in out
    assert "invertible classes (Pic R): 1" in out
    assert "Z^1(G, alpha*, PicS): 1 cocycle(s)" in out


def test_sequence_consistent(capsys):
    code, out, _ = run(capsys, ["sequence", "--fixture", "E2"])
    assert code == 0
    assert "overall: consistent" in out
    assert "H^3(G,alpha,U(R))" in out


def test_census_global(capsys):
    code, out, _ = run(capsys, ["census", "--fixture", "E0"])
    assert code == 0
    assert "census of 8 restriction corners" in out
    assert "galois corners: 8 of 8" in out


def test_census_rejects_partial(capsys):
    code, out, err = run(capsys, ["census", "--fixture", "E1"])
    assert code == 2
    assert "census needs a global action" in err


# ------------------------------------------------------------ determinism

def test_sequence_byte_stable(capsys):
    _, out1, _ = run(capsys, ["sequence", "--fixture", "E2"])
    _, out2, _ = run(capsys, ["sequence", "--fixture", "E2"])
    assert out1.encode() == out2.encode()


def test_json_out_byte_stable(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, ["sequence", "--fixture", "E2", "--out", str(p1)])
    run(capsys, ["sequence", "--fixture", "E2", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


# ------------------------------------------------------------- JSON out

def test_out_document(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["galois", "--fixture", "E1",
                                "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["tool"] == "pargal"
    assert doc["command"] == "galois"
    assert doc["exit"] == 0
    assert doc["report"]["galois"] is True
    assert doc["report"]["pairs"] == [["(0,1,0)", "(0,1,0)"],
                                      ["(1,0,0)", "(1,0,0)"]]
    assert doc["instance"]["ring"]["order"] == 4


def test_out_written_on_violation(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(TABLES_BAD_INI)
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["validate", "--config", str(cfg),
                                "--out", str(path)])
    assert code == 1
    assert "INVALID" in out
    doc = json.loads(path.read_text())
    assert doc["exit"] == 1
    assert doc["report"]["ok"] is False
    axioms = {v["axiom"] for v in doc["report"]["violations"]}
    assert "bijection" in axioms


def test_crossed_out_carries_full_structure(tmp_path, capsys):
    path = tmp_path / "crossed.json"
    code, out, _ = run(capsys, ["crossed", "--fixture", "E1",
                                "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    # 1 header + 8 basis + 64 product lines
    assert len(doc["report"]["structure"].splitlines()) == 73


# ------------------------------------------------------------- configs

def test_config_matches_fixture(tmp_path, capsys):
    cfg = tmp_path / "e1.ini"
    cfg.write_text(E1_INI)
    code, out_cfg, _ = run(capsys, ["galois", "--config", str(cfg)])
    _, out_fix, _ = run(capsys, ["galois", "--fixture", "E1"])
    assert code == 0
    assert out_cfg.splitlines()[2:] == out_fix.splitlines()[2:]


def test_config_frobenius_generator(tmp_path, capsys):
    cfg = tmp_path / "frob.ini"
    cfg.write_text(FROB_INI)
    code, out, _ = run(capsys, ["delta-theta", "--config", str(cfg)])
    assert code == 0
    assert "Delta(Theta) = M_2(GF(2)), order 16" in out


F4F4_SWAP_INI = """
[ring]
descriptor = GF(4;x^2+x+1)*GF(4;x^2+x+1)

[group]
descriptor = C2

[action]
kind = generator
permutation = 1,0
"""


@pytest.mark.parametrize("frob", ["1", "1,1,0"])
def test_frobenius_length_mismatch_is_config_error(tmp_path, capsys, frob):
    # one Frobenius power per permutation slot, or a config error naming
    # the count; neither a short nor a long list reaches the slot maps
    cfg = tmp_path / "swap.ini"
    cfg.write_text(F4F4_SWAP_INI + f"frobenius = {frob}\n")
    code, out, err = run(capsys, ["validate", "--config", str(cfg)])
    count = len(frob.split(","))
    assert (code, out) == (2, "")
    assert err == (f"error: frobenius needs 2 values, one per permutation "
                   f"slot, not {count}\n")


# trivial K4 on GF(4): H^3 has |Z| = |B| = 3^12, too many members to list
# for a lex-least representative in a test; tests/configs/k4f4.ini is the
# same instance, run by CI under a 5 s timeout
K4F4_INI = """
[ring]
descriptor = GF(4;x^2+x+1)

[group]
descriptor = C2*C2

[action]
kind = trivial
"""


@pytest.mark.parametrize("budget", [[], ["--budget", "100000"]])
def test_k4f4_h3_lex_least_without_closure(tmp_path, capsys, budget):
    cfg = tmp_path / "k4f4.ini"
    cfg.write_text(K4F4_INI)
    _clear_caches()
    code, out, _ = run(capsys, ["cohomology", "--config", str(cfg), "--n", "3",
                                *budget])
    assert code == 0
    assert ("H^3: |Z|=531441 |B|=531441 |H|=1 invariants=[] [structure]"
            in out.splitlines())
    act = build_action(parse_config(K4F4_INI))
    if budget:
        act = dataclasses.replace(act, budgets=act.budgets.capped(100000))
    grp = cohomology_group(act, 3)
    assert grp.lex_least and grp.h_order == 1


def test_f8f9c6_not_galois(tmp_path, capsys):
    cfg = tmp_path / "f8f9c6.ini"
    cfg.write_text(F8F9C6_INI)
    source = ["--config", str(cfg)]
    code, out, _ = run(capsys, ["galois", *source])
    assert code == 0
    assert "galois: no (conclusive)" in out
    code, out, _ = run(capsys, ["census", *source])
    assert code == 0
    assert "galois corners: 1 of 4" in out
    for command in ("delta-theta", "sequence"):
        code, _, err = run(capsys, [command, *source])
        assert code == 2
        assert "not a partial Galois extension" in err


def test_parse_error_carries_line(tmp_path, capsys):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("[ring]\ndescriptor GF(2)\n")
    code, out, err = run(capsys, ["validate", "--config", str(cfg)])
    assert code == 2
    assert "line  2" in err


def test_missing_section(tmp_path, capsys):
    cfg = tmp_path / "nosec.ini"
    cfg.write_text("[ring]\ndescriptor = GF(2)\n")
    code, _, err = run(capsys, ["validate", "--config", str(cfg)])
    assert code == 2
    assert "missing [group] section" in err


def test_parse_config_objects():
    cfg = parse_config(E1_INI)
    assert cfg.kind == "generator"
    assert cfg.permutation == (1, 2, 0)
    act = build_action(cfg)
    assert act.ring.order == 4
    glob = build_global(cfg)
    assert glob is not None and glob.ring.order == 8


def test_resolve_idempotent_and_errors():
    cfg = parse_config(E1_INI)
    glob = build_global(cfg)
    assert resolve_idempotent(glob.ring, "(1,1,0)") == resolve_idempotent(
        glob.ring, str(resolve_idempotent(glob.ring, "(1,1,0)")))
    with pytest.raises(ConfigError):
        resolve_idempotent(glob.ring, "(9,9,9)")
    with pytest.raises(ConfigError):
        parse_config(E1_INI.replace("kind = generator", "kind = warp"))
    with pytest.raises(ConfigError):
        parse_config(E1_INI.replace("permutation = 1,2,0", ""))


# ----------------------------------------------------------- exit codes

def test_flag_conflicts(capsys):
    code, _, err = run(capsys, ["validate"])
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, ["validate", "--fixture", "E1",
                                "--config", "x.ini"])
    assert code == 2 and "exactly one" in err


def test_unknown_fixture(capsys):
    code, _, err = run(capsys, ["validate", "--fixture", "E9"])
    assert code == 2
    assert "unknown fixture" in err


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "dir" / "report.json"
    code, _, err = run(capsys, ["galois", "--fixture", "E1",
                                "--out", str(path)])
    assert code == 2
    assert err.startswith("error:")
    assert "No such file or directory" in err


def test_budget_cap_names_budget(tmp_path, capsys):
    cfg = tmp_path / "frob.ini"
    cfg.write_text(FROB_INI)
    for source in (["--config", str(cfg)], ["--fixture", "E2"]):
        argv = ["cohomology", *source, "--n", "2", "--engine", "enumerate"]
        code, _, err = run(capsys, argv + ["--budget", "5"])
        assert code == 2
        assert "budget 'kernel-dfs-nodes' exceeded" in err
        # a later uncapped run on the same instance answers in full
        code, out, _ = run(capsys, argv)
        assert code == 0 and "|H|=1" in out


def _clear_caches():
    """Empty every lru_cache in pargal, as in a new process."""
    for name, mod in list(sys.modules.items()):
        if name == "pargal" or name.startswith("pargal."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.mark.parametrize("argv,budget", [
    (["cohomology", "--fixture", "E3", "--n", "2"], "structure-positions"),
    (["sequence", "--fixture", "E3"], "kernel-dfs-nodes"),
    (["census", "--fixture", "E0"], "structure-positions"),
])
def test_capped_run_after_uncapped_refuses_as_cold(capsys, argv, budget):
    # the capped action is a fresh object, so no cache entry of the
    # uncapped run answers it; census corners inherit the cap
    capped = argv + ["--budget", "10"]
    _clear_caches()
    cold = run(capsys, capped)
    assert cold[0] == 2 and f"budget '{budget}' exceeded" in cold[2]
    assert run(capsys, argv)[0] == 0
    assert run(capsys, capped) == cold


@pytest.mark.parametrize("name,triples", [("E0", 729), ("E2", 512)])
def test_crossed_budget_forces_associativity_proof(tmp_path, capsys, name,
                                                   triples):
    # N^3 = 13,824 monomial triples pass the cap, so the check is a proof
    # on generator triples; nothing else in the report changes
    full, capped = tmp_path / "full.json", tmp_path / "capped.json"
    code1, out1, _ = run(capsys, ["crossed", "--fixture", name,
                                  "--out", str(full)])
    code2, out2, _ = run(capsys, ["crossed", "--fixture", name,
                                  "--budget", "1000", "--out", str(capped)])
    assert code1 == code2 == 0
    lines1, lines2 = out1.splitlines(), out2.splitlines()
    k = lines1.index("associativity: ok (13824 monomial triples, exhaustive)")
    assert lines2[k] == (f"associativity: ok ({triples} generator triples, "
                         "proved on additive generators of a bi-additive "
                         "table)")
    assert lines1[:k] + lines1[k + 1:] == lines2[:k] + lines2[k + 1:]
    doc1, doc2 = json.loads(full.read_text()), json.loads(capped.read_text())
    assert doc1["report"].pop("assoc") == {"triples": 13824, "sampled": False,
                                           "ok": True}
    assert doc2["report"].pop("assoc") == {
        "triples": triples, "sampled": False, "ok": True,
        "proof": "proved on additive generators of a bi-additive table"}
    assert doc1 == doc2


def test_bad_twist_rejected(capsys):
    code, _, err = run(capsys, ["crossed", "--fixture", "E1",
                                "--twist", "0,0,0"])
    assert code == 2 and "--twist needs 9 values" in err
    code, _, err = run(capsys, ["crossed", "--fixture", "E1",
                                "--twist", ",".join(["0"] * 9)])
    assert code == 2 and "not a unit" in err
