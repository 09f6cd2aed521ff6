"""Row-by-row structure text, the streamed --out document, and the Θ
factor-set checks over whole slots, each against the code it replaced.

The oracles below are the earlier implementations: the structure text
as one list of N² lines, and the factor-set identities checked one
first-slot element u at a time.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pargal import cli, crossed, fixtures
from pargal import cohomology as coh
from pargal.errors import DefectError
from pargal.partial_action import _additive_generators

ROOT = Path(__file__).resolve().parents[1]


# ------------------------------------------------------- structure text

def _list_structure_text(alg) -> str:
    """One Python string per basis pair, from a whole-table np.where."""
    names = alg.action.ring.names
    lines = [f"# algebra {alg.tag}: order {alg.order}, "
             f"{len(alg.table)} basis monomials"]
    lines += [f"basis {i}: {names[d]} delta_{alg.action.group.names[g]}"
              for i, (g, d) in enumerate(alg.monomials())]
    shown = np.where(alg.basis.coeff[alg.table] == alg.action.ring.zero,
                     0, alg.table)
    num = [str(k) for k in range(len(alg.table))]
    mid = [f" {j} -> " for j in num]
    lines += [i + m + num[t] for i, row in zip(num, shown.tolist())
              for m, t in zip(mid, row)]
    return "\n".join(lines) + "\n"


def _twisted_e2():
    """E2 twisted by its first 2-cocycle that is not the identity."""
    act = fixtures.fixture("E2")
    ident = coh.identity_cochain(act, 2)
    for table in coh._kernel_dfs(act, 2):
        f = coh.Cochain(act, 2, np.array(table, dtype=np.int64))
        if f != ident:
            return crossed.crossed_product(act, f)
    raise AssertionError("E2 has no nontrivial 2-cocycle")


@pytest.mark.parametrize("name", ["E0", "E1", "E2", "E3", "N1", "f4c4",
                                  "f2c6g", "twisted E2", "delta E1"])
def test_structure_text_matches_list_oracle(name, stress_action):
    if name == "twisted E2":
        alg = _twisted_e2()
    elif name == "delta E1":
        alg = crossed.delta_theta(fixtures.fixture("E1"))
    else:
        act = (fixtures.fixture(name) if name[0] in "EN"
               else stress_action(name))
        alg = crossed.skew_group_ring(act)
    assert alg.structure_text() == _list_structure_text(alg)


def test_twisted_e2_has_zero_products_and_a_real_twist():
    alg = _twisted_e2()
    assert alg.twist != coh.identity_cochain(alg.action, 2)
    assert (alg.basis.coeff[alg.table] == alg.action.ring.zero).any()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    try:
        os.chdir(ROOT)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "pargal" or name.startswith("pargal."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def test_f2c6g_crossed_out_peaks_under_8_mb(tmp_path):
    """The whole report, instance set-up included, in tracemalloc's view:
    with the list-of-lines text and the whole JSON string it peaked at
    16.3 MB."""
    out = tmp_path / "report.json"
    argv = ["crossed", "--config", "perfbench/configs/f2c6g.ini",
            "--out", str(out)]
    _run(argv)   # imports and first-call set-up stay out of the peak
    _clear_caches()
    tracemalloc.start()
    try:
        code, _, _ = _run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.stat().st_size > 2_000_000   # the full table was written
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_out_document_not_created_on_refusal(tmp_path):
    out = tmp_path / "report.json"
    code, _, err = _run(["crossed", "--fixture", "E1", "--twist", "1,2",
                         "--out", str(out)])
    assert code == 2 and err.startswith("error: --twist needs 9 values")
    assert not out.exists()


# -------------------------------------------------- factor-set checks

def _per_u_theta_checks(action) -> None:
    """The factor-set checks of theta_factor_set, one first-slot element
    u at a time: raises the DefectError of the first failure."""
    R, G = action.ring, action.group
    nG = G.order
    basis = crossed._monomial_basis(action)
    values = crossed._theta_values(action, basis)
    side = len(values)
    exhaustive = (max(side * side * R.order, side ** 3)
                  <= action.budgets.assoc_triples)
    slot = [basis.coeff[basis.grade == g] for g in range(nG)]
    r = np.arange(R.order)
    if not exhaustive:
        crossed._check_biadditive(basis, values, "factor set")
        slot = [np.asarray(ts, dtype=np.int64) for ts in basis.generators]
        r = np.asarray(_additive_generators(R, r), dtype=np.int64)
    r = r[None, :]
    ahat, pos = action.alpha_hat, basis.pos

    def fs(g, h, u, v):
        return values[pos[g, u], pos[h, v]]

    for g, h in itertools.product(range(nG), repeat=2):
        gh = G.op(g, h)
        v = slot[h][:, None]
        for u in slot[g].tolist():
            val = fs(g, h, u, v)
            corner = (R.mul[val, action.one(g)] != val)[:, 0]
            bad = np.stack([
                fs(g, h, R.mul[u, ahat[g][r]], v) != fs(g, h, u, R.mul[r, v]),
                fs(g, h, R.mul[r, u], v) != R.mul[r, val],
                fs(g, h, u, R.mul[v, ahat[h][r]]) != R.mul[val, ahat[gh][r]]])
            hit = np.flatnonzero(corner | bad.any(axis=(0, 2)))
            if not hit.size:
                continue
            if corner[hit[0]]:
                raise DefectError("factor set leaves the 1_g corner")
            ri, kind = np.argwhere(bad[:, hit[0], :].T)[0]
            if kind == 0:
                raise DefectError(f"balance fails at g={g},h={h},u={u},"
                                  f"v={v[hit[0], 0]},r={r[0, ri]}")
            raise DefectError("left linearity fails" if kind == 1
                              else "right linearity fails")

    for g, h, l in itertools.product(range(nG), repeat=3):
        gh, hl = G.op(g, h), G.op(h, l)
        v, w = slot[h][:, None], slot[l][None, :]
        vw = fs(h, l, v, w)
        for u in slot[g].tolist():
            if (fs(gh, l, fs(g, h, u, v), w) != fs(g, hl, u, vw)).any():
                raise DefectError(f"pentagon fails at ({g},{h},{l})")


def _first_failure(check, action) -> str | None:
    try:
        check(action)
    except DefectError as exc:
        return str(exc)
    return None


def _corrupt(monkeypatch, cells):
    honest = crossed._theta_values

    def corrupted(action, basis):
        values = honest(action, basis).copy()
        for (i, j), value in cells.items():
            values[i, j] = value
        return values

    monkeypatch.setattr(crossed, "_theta_values", corrupted)


PINNED = [("E1", 2, 1, 2), ("E1", 6, 0, 2), ("E2", 1, 22, 4),
          ("E2", 21, 20, 2), ("N1", 1, 3, 0)]


@pytest.mark.parametrize("name,i,j,value", PINNED)
def test_pinned_corruptions_agree_with_per_u_loop(monkeypatch, name, i, j,
                                                  value):
    act = fixtures.fixture(name)
    _corrupt(monkeypatch, {(i, j): value})
    want = _first_failure(_per_u_theta_checks, act)
    assert want is not None
    assert _first_failure(crossed.theta_factor_set, act) == want


@pytest.mark.parametrize("cells", [None, 1, 100])
@pytest.mark.parametrize("name", ["E1", "E2", "E3"])
def test_seeded_corruptions_agree_with_per_u_loop(monkeypatch, name, cells):
    """Small chunk sizes split the u's of a slot over several chunks."""
    if cells is not None:
        monkeypatch.setattr(crossed, "_CHUNK_CELLS", cells)
    act = fixtures.fixture(name)
    basis = crossed._monomial_basis(act)
    honest = crossed._theta_values(act, basis)
    n, order = len(honest), act.ring.order
    rng = random.Random(f"theta {name}")
    failures = set()
    for _ in range(40):
        i, j = rng.randrange(n), rng.randrange(n)
        value = rng.choice([x for x in range(order) if x != honest[i, j]])
        _corrupt(monkeypatch, {(i, j): value})
        want = _first_failure(_per_u_theta_checks, act)
        assert _first_failure(crossed.theta_factor_set, act) == want
        failures.add(want)
    assert len(failures) > 1   # the corruptions hit more than one check


@pytest.mark.parametrize("name", ["E0", "E1", "E2", "E3", "N1"])
def test_honest_factor_sets_pass_both(name):
    act = fixtures.fixture(name)
    assert _first_failure(_per_u_theta_checks, act) is None
    assert crossed.theta_factor_set(act).pentagon_checked


def _zero_domain_action(budget=None):
    """The F2 cube's shift restricted at (1,0,0): 1_g = 0 for g != 1, so
    D_g = 0 and a zero domain's additive generators are ()."""
    from dataclasses import replace
    from pargal.finring import element_from_components
    from pargal.partial_action import restrict_global
    glob = fixtures.shift_global("GF(2)")
    e = element_from_components(glob.ring, (1, 0, 0))
    act = restrict_global(glob, e, tag="corner (1,0,0)")
    if budget is not None:
        act = replace(act, budgets=act.budgets.capped(budget))
    return act


@pytest.mark.parametrize("budget", [None, 10])
def test_zero_domain_factor_set_agrees_with_per_u_loop(monkeypatch, budget):
    act = _zero_domain_action(budget)
    fs = crossed.theta_factor_set(act)
    basis = fs.basis
    if budget is None:
        assert fs.exhaustive
    else:
        assert not fs.exhaustive
        assert () in basis.generators   # the empty-slot path runs
    assert _first_failure(_per_u_theta_checks, act) is None
    n, order = len(fs.values), act.ring.order
    for i, j in itertools.product(range(n), repeat=2):
        for value in range(order):
            if value == fs.values[i, j]:
                continue
            _corrupt(monkeypatch, {(i, j): value})
            assert (_first_failure(crossed.theta_factor_set, act)
                    == _first_failure(_per_u_theta_checks, act))
            monkeypatch.undo()


@pytest.mark.parametrize("budget", [[], ["--budget", "10"]])
def test_zero_domain_delta_theta_report(tmp_path, budget):
    ini = tmp_path / "corner.ini"
    ini.write_text((ROOT / "perfbench/configs/e1.ini").read_text()
                   .replace("idempotent = (1,1,0)", "idempotent = (1,0,0)"))
    code, out, err = _run(["delta-theta", "--config", str(ini), *budget])
    assert (code, err) == (0, "")
    assert "\nDelta(Theta) = M_1(GF(2)), order 2\n" in out
