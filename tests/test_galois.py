import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pargal import fixtures, galois
from pargal.errors import PreconditionError
from pargal.finring import frobenius_table, galois_field, make_ring
from pargal.groups import cyclic_group
from pargal.partial_action import (GlobalAction, as_partial, invariant_subring,
                                   restrict_global)


def _frobenius_c2_action():
    # F4 over F2 via Frobenius: the one Galois fixture whose certificate
    # the idempotent heuristic cannot see (the only idempotent is 1)
    F4 = make_ring("GF(4;x^2+x+1)")
    sigma = np.stack([np.arange(4, dtype=np.int64), frobenius_table(F4)])
    return as_partial(GlobalAction(F4, cyclic_group(2), sigma))


# ------------------------------------------------------------- verification

def test_e0_coordinate_idempotents():
    E0 = fixtures.fixture("E0")
    prims = [1, 2, 4]  # (0,0,1), (0,1,0), (1,0,0)
    chk = galois.verify_certificate(E0, [(e, e) for e in prims])
    assert chk.ok and chk.failing_g is None
    assert str(chk) == "certificate holds"


def test_e1_frozen_certificate():
    E1 = fixtures.fixture("E1")
    chk = galois.verify_certificate(E1, [(1, 1), (2, 2)])
    assert chk.ok
    # dropping one pair must fail with a witness
    bad = galois.verify_certificate(E1, [(1, 1)])
    assert not bad.ok
    assert bad.failing_g == 0  # sum at identity is e1, not 1
    assert "fails at g=0" in str(bad)


def test_trivial_action_never_verifies():
    N1 = fixtures.fixture("N1")
    for pairs in ([(1, 1)], [(1, 1), (1, 1)], [(0, 1), (1, 0)]):
        chk = galois.verify_certificate(N1, pairs)
        assert not chk.ok


def test_out_of_range_pair_rejected():
    E1 = fixtures.fixture("E1")
    with pytest.raises(PreconditionError):
        galois.verify_certificate(E1, [(1, 9)])


# ------------------------------------------------------------------ search

def test_find_e1_idempotent_strategy():
    cert = galois.find_certificate(fixtures.fixture("E1"))
    assert isinstance(cert, galois.GaloisCertificate)
    assert cert.strategy == "idempotents"
    assert cert.pairs == ((1, 1), (2, 2))
    assert cert.m == 2


def test_find_e0_e2_e3():
    for name, m in (("E0", 3), ("E2", 2), ("E3", 3)):
        cert = galois.find_certificate(fixtures.fixture(name))
        assert isinstance(cert, galois.GaloisCertificate)
        assert cert.m == m
        assert galois.verify_certificate(fixtures.fixture(name), cert).ok


def test_find_n1_conclusive_notfound():
    out = galois.find_certificate(fixtures.fixture("N1"))
    assert isinstance(out, galois.NotFound)
    assert out.conclusive
    assert "lattice" in out.reason


def test_frobenius_field_uses_linear_solve():
    act = _frobenius_c2_action()
    cert = galois.find_certificate(act)
    assert isinstance(cert, galois.GaloisCertificate)
    assert cert.strategy == "linear-solve"
    assert galois.verify_certificate(act, cert).ok


def test_is_galois_summary():
    assert galois.is_galois(fixtures.fixture("E2"))
    assert not galois.is_galois(fixtures.fixture("N1"))


def test_certificate_survives_commuting_automorphism():
    # relabeling through sigma_g itself commutes with a global action
    E0 = fixtures.fixture("E0")
    glob, _ = fixtures.shift_global("GF(2)"), None
    cert = galois.find_certificate(E0)
    sig = glob.sigma[1]
    moved = [(int(sig[x]), int(sig[y])) for x, y in cert.pairs]
    assert galois.verify_certificate(E0, moved).ok


# ------------------------------------------------ regular representation

def test_regular_representation_e1():
    rep = galois.regular_representation(fixtures.fixture("E1"))
    assert rep.is_homomorphism
    assert rep.injective
    assert rep.skew_order == 16
    assert rep.invariant_order == 2
    assert rep.free_rank == 2
    assert rep.endo_order == 16
    assert rep.bijective
    assert rep.cross_checked and not rep.sampled


def test_regular_representation_e0():
    rep = galois.regular_representation(fixtures.fixture("E0"))
    assert rep.bijective
    assert rep.skew_order == 512
    assert rep.invariant_order == 2
    assert rep.free_rank == 3
    assert rep.endo_order == 512


def test_regular_representation_e2():
    rep = galois.regular_representation(fixtures.fixture("E2"))
    assert rep.bijective
    assert rep.skew_order == 256
    assert rep.invariant_order == 4
    assert rep.free_rank == 2
    assert rep.cross_checked


def test_regular_representation_trivial_not_bijective():
    rep = galois.regular_representation(fixtures.fixture("N1"))
    assert rep.is_homomorphism
    assert rep.injective is False
    assert rep.skew_order == 4
    assert rep.endo_order == 2
    assert rep.bijective is False


def _rho_injective_by_enumeration(act):
    """Injectivity of rho by listing the image of every element of R*G."""
    R, nG = act.ring, act.group.order
    rows = [[galois.rho_monomial(act, g, r) for r in act.domain_members(g)]
            for g in range(nG)]
    images = set()
    for choice in itertools.product(*rows):
        acc = np.full(R.order, R.zero, dtype=np.int64)
        for table in choice:
            acc = R.add[acc, table]
        images.add(acc.tobytes())
    return len(images) == galois.skew_order(act)


@pytest.mark.parametrize("name,want", [
    ("E0", True), ("E1", True), ("E2", True), ("N1", False)])
def test_rho_injectivity_matches_enumeration(name, want):
    act = fixtures.fixture(name)
    assert _rho_injective_by_enumeration(act) is want
    assert galois.regular_representation(act).injective is want


def test_galois_iff_bijective_rho():
    acts = [fixtures.fixture(k) for k in fixtures.fixture_names()]
    acts.append(_frobenius_c2_action())
    for act in acts:
        found = isinstance(galois.find_certificate(act), galois.GaloisCertificate)
        rep = galois.regular_representation(act)
        assert found == bool(rep.bijective)


def test_rho_monomial_values():
    E1 = fixtures.fixture("E1")
    # rho(1_g delta_g) sends x to alpha_g(x·1_{g^-1})
    row = galois.rho_monomial(E1, 1, E1.one(1))
    assert [int(v) for v in row] == [E1.alpha_hat[1][x] for x in range(4)]


def test_skew_order_is_domain_product():
    for name, order in (("E0", 512), ("E1", 16), ("E2", 256), ("N1", 4)):
        assert galois.skew_order(fixtures.fixture(name)) == order


@settings(max_examples=25)
@given(st.integers(0, 10**9))
def test_random_restrictions_conclusive(seed):
    rng = random.Random(seed)
    glob, e = fixtures.random_global_instance(rng, max_order=5)
    act = restrict_global(glob, e)
    out = galois.find_certificate(act)
    if isinstance(out, galois.GaloisCertificate):
        assert galois.verify_certificate(act, out).ok
    else:
        assert out.conclusive
    rep = galois.regular_representation(act)
    if rep.bijective is not None and out is not None:
        assert isinstance(out, galois.GaloisCertificate) == rep.bijective
