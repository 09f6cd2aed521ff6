"""The orbit census against the per-corner loop it replaced.

`cli.corner_census` computes H^1 and H^2 on the first corner of each
sigma-orbit of idempotents and lets every later corner reuse them, once
`check_transport` has verified the isomorphism sigma_k gives between the
two restricted actions.  The oracle below is the earlier census loop,
which computes both groups on every corner: the rows must be equal.
"""
import itertools
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pargal import cli, fixtures
from pargal.cohomology import cohomology_group
from pargal.config import build_action, parse_config
from pargal.errors import DefectError
from pargal.finring import idempotents, make_ring, product_automorphism
from pargal.galois import GaloisCertificate, find_certificate
from pargal.groups import group_from_table
from pargal.partial_action import (GlobalAction, check_transport,
                                   corner_transport, restrict_global)

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def oracle_census(glob, engine="auto"):
    """The census loop before orbits: every corner computes its own H^n."""
    R = glob.ring
    rows = []
    for e in idempotents(R):
        sub = restrict_global(glob, e, tag=f"corner {R.names[e]}")
        res = find_certificate(sub)
        if isinstance(res, GaloisCertificate):
            verdict = f"yes (m={res.m})"
        else:
            verdict = "no" if res.conclusive else "undecided"
        h1 = cohomology_group(sub, 1, engine=engine)
        h2 = cohomology_group(sub, 2, engine=engine)
        rows.append((R.names[e], sub.ring.order,
                     tuple(int(x) for x in sub.one_g), verdict,
                     h1.h_order, h2.h_order))
    return rows


def as_global(action):
    return GlobalAction(action.ring, action.group, action.alpha.copy(),
                        tag=action.tag)


def named_global(name):
    if name in ("E0", "E3"):
        return as_global(fixtures.fixture(name))
    text = (CONFIGS / f"{name}.ini").read_text()
    return as_global(build_action(parse_config(text)))


def s3_on_gf2_cubed():
    """S3 permuting the three slots of GF(2)^3; sigma_p sends slot j to
    slot p[j], so sigma_p . sigma_q = sigma_{p.q}."""
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(p[q[j]] for j in range(3))) for q in perms]
             for p in perms]
    group = group_from_table(table, tag="S3")
    ring = make_ring("GF(2)*GF(2)*GF(2)")
    sigma = np.stack([product_automorphism(ring, p) for p in perms])
    return GlobalAction(ring, group, sigma, tag="S3 on GF(2)^3")


def counted_census(monkeypatch, glob):
    """The census rows, the n of every cohomology_group call and the
    number of transports checked."""
    calls, checks = [], []

    def counting(action, n, engine="auto"):
        calls.append(n)
        return cohomology_group(action, n, engine=engine)

    def checking(*args):
        checks.append(args)
        return check_transport(*args)

    monkeypatch.setattr(cli, "cohomology_group", counting)
    monkeypatch.setattr(cli, "check_transport", checking)
    return cli.corner_census(glob), calls, len(checks)


@pytest.mark.parametrize("name,orbits", [("E0", 4), ("E3", 4), ("f2c6g", 14)])
def test_rows_equal_oracle_with_one_h_pair_per_orbit(monkeypatch, name, orbits):
    glob = named_global(name)
    rows, calls, checks = counted_census(monkeypatch, glob)
    assert rows == oracle_census(glob)
    assert sorted(calls) == [1] * orbits + [2] * orbits
    assert checks == len(rows) - orbits


def test_failed_transport_is_a_defect(monkeypatch, capsys):
    def failing(*args):
        raise DefectError("transport is not a ring isomorphism")

    monkeypatch.setattr(cli, "check_transport", failing)
    assert cli.main(["census", "--fixture", "E0"]) == 1
    assert "transport is not a ring isomorphism" in capsys.readouterr().err


@pytest.mark.parametrize("seed,max_order",
                         [*((s, 128) for s in range(20)), (5, 512)],
                         ids=[*map(str, range(20)), "5-512"])
def test_rows_equal_oracle_on_random_instance(seed, max_order):
    # rings up to 128 elements: past that some corners' bounded Galois
    # search takes seconds, in both censuses alike.  Seed 5 at 512 is C6
    # on GF(8)xGF(4)xGF(9), whose order-72 corner needs the modular
    # Galois lattice solve to finish
    glob, _ = fixtures.random_global_instance(random.Random(seed),
                                              max_order=max_order)
    assert cli.corner_census(glob) == oracle_census(glob)


def test_rows_equal_oracle_on_s3(monkeypatch):
    glob = s3_on_gf2_cubed()
    rows, calls, checks = counted_census(monkeypatch, glob)
    assert rows == oracle_census(glob)
    assert (len(rows), len(calls), checks) == (8, 4 * 2, 8 - 4)


def test_conjugation_twist_passes_and_identity_twist_fails_on_s3():
    glob = s3_on_gf2_cubed()
    subs = {e: restrict_global(glob, e) for e in idempotents(glob.ring)}
    ident = np.arange(glob.group.order)
    failed = 0
    for e, k in itertools.product(subs, range(glob.group.order)):
        src, dst = subs[e], subs[int(glob.sigma[k, e])]
        phi, twist = corner_transport(glob, e, k)
        check_transport(src, dst, phi, twist)
        try:
            check_transport(src, dst, phi, ident)
        except DefectError as exc:
            assert "to 1'_{twist(g)}" in str(exc) or "to alpha'" in str(exc)
            failed += 1
    assert failed


def _transport_case():
    """A weight-one corner of S3 on GF(2)^3 and its image under a
    transposition that moves it: src, dst, phi, twist."""
    glob = s3_on_gf2_cubed()
    e = next(e for e in idempotents(glob.ring) if glob.ring.names[e] == "(1,0,0)")
    k = next(k for k in range(6) if int(glob.sigma[k, e]) != e)
    phi, twist = corner_transport(glob, e, k)
    return (restrict_global(glob, e),
            restrict_global(glob, int(glob.sigma[k, e])), phi, twist)


def stand_in(act, **changes):
    fields = dict(ring=act.ring, group=act.group, one_g=act.one_g.copy(),
                  alpha=act.alpha.copy())
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_each_broken_identity_raises():
    src, dst, phi, twist = _transport_case()
    check_transport(src, dst, phi, twist)
    swap = np.arange(6)
    swap[[0, 1]] = [1, 0]      # moves the identity: not an automorphism
    cases = [
        ((src, dst, phi, swap), "twist is not an automorphism"),
        ((src, dst, phi[::-1], twist), "not a ring isomorphism"),
        ((src, dst, np.zeros_like(phi), twist), "not a bijection"),
        ((src, dst, phi[:-1], twist), "not a bijection"),
    ]
    g = int(np.argmax(src.one_g == src.ring.zero))
    one_g = dst.one_g.copy()
    one_g[twist[g]] = dst.ring.one
    cases.append(((src, stand_in(dst, one_g=one_g), phi, twist),
                  "does not carry 1_g"))
    alpha = dst.alpha.copy()
    alpha[twist[g], phi[src.ring.one]] = phi[src.ring.one]
    cases.append(((src, stand_in(dst, alpha=alpha), phi, twist),
                  "does not carry alpha_g"))
    for args, text in cases:
        with pytest.raises(DefectError, match=text):
            check_transport(*args)


def test_additive_bijection_that_is_not_multiplicative_raises():
    glob = s3_on_gf2_cubed()
    e = next(e for e in idempotents(glob.ring) if glob.ring.names[e] == "(1,1,0)")
    sub = restrict_global(glob, e)
    A = sub.ring
    perms = [np.array(p) for p in itertools.permutations(range(A.order))]
    additive = [p for p in perms if np.array_equal(p[A.add], A.add[p[:, None], p])]
    not_mul = [p for p in additive
               if not np.array_equal(p[A.mul], A.mul[p[:, None], p])]
    # GL_2(F_2) acting on F_2 x F_2; only the identity and the slot swap
    # are ring automorphisms
    assert (len(additive), len(not_mul)) == (6, 4)
    for phi in not_mul:
        with pytest.raises(DefectError, match="not a ring isomorphism"):
            check_transport(sub, sub, phi, np.arange(6))
