import copy
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pargal import fixtures, galois, intmat
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


# moduli rich in common divisors, so the lcm E exceeds most moduli
@settings(max_examples=300)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n),
             max_size=5),
    st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), min_size=n, max_size=n),
    st.lists(st.integers(-20, 20), min_size=n, max_size=n))))
def test_solve_row_system_matches_row_lattice(case):
    rows, moduli, target = case
    got = galois._solve_row_system(rows, moduli, target)
    assert (got is None) == (not intmat.RowLattice(moduli, rows).contains(target))
    if got is not None:
        assert len(got) == len(rows)
        for j, m in enumerate(moduli):
            assert (sum(c * r[j] for c, r in zip(got, rows)) - target[j]) % m == 0


def test_solve_row_system_without_rows_or_moduli():
    # no rows: only targets in the moduli lattice are reached
    assert galois._solve_row_system([], [4, 6], [8, -6]) == []
    assert galois._solve_row_system([], [4, 6], [1, 0]) is None
    # no moduli: the empty target is every row's zero combination
    assert galois._solve_row_system([[], []], [], []) == [0, 0]
    assert galois._solve_row_system([], [], []) == []


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
    assert rep.cross_checked


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


def _count_linear_endos(ring, s_members):
    """Brute-force |End_S(R)|: assign images to additive generators,
    keep assignments that extend to additive maps and commute with S.
    Additive extension is automatic once each image's additive order
    divides its generator's; S-linearity then only needs checking at the
    generators (both sides are additive in the other argument)."""
    pres = galois._additive_presentation(ring)
    gens, facs = pres.generators, pres.invariant_factors
    top = max(facs, default=1)
    mult = np.zeros((top + 1, ring.order), dtype=np.int64)   # mult[c] = c·(-)
    for c in range(1, top + 1):
        mult[c] = ring.add[mult[c - 1], np.arange(ring.order)]
    choices = [np.nonzero(mult[d] == ring.zero)[0] for d in facs]
    coords = np.array([pres.coords_of(x) for x in range(ring.order)],
                      dtype=np.int64)
    count = 0
    for images in itertools.product(*choices):
        table = np.full(ring.order, ring.zero, dtype=np.int64)
        for j, y in enumerate(images):
            table = ring.add[table, mult[coords[:, j], y]]
        if all(table[ring.mul[s, gj]] == ring.mul[s, table[gj]]
               for s in s_members for gj in gens):
            count += 1
    return count


@pytest.mark.parametrize("name,want", [
    ("E0", 512), ("E1", 16), ("E2", 256), ("N1", 2)])
def test_endo_count_matches_brute_force(name, want):
    act = fixtures.fixture(name)
    members = invariant_subring(act).members
    assert _count_linear_endos(act.ring, members) == want
    assert galois._linear_endo_order(act.ring, members) == want


@pytest.mark.parametrize("name,want", [
    ("E3", 262_144), ("f4c4", 262_144), ("f8c3", 4_096), ("f2c6g", 2 ** 36)])
def test_endo_count_matches_free_rank(name, want, stress_action):
    act = fixtures.fixture(name) if name[0] == "E" else stress_action(name)
    members = invariant_subring(act).members
    assert galois._linear_endo_order(act.ring, members) == want
    rep = galois.regular_representation(act)
    assert rep.endo_order == len(members) ** (rep.free_rank ** 2) == want
    assert rep.cross_checked


def _rho_multiplicative_by_pairs(act):
    """rho(r·delta_g)·rho(r2·delta_h) = rho(r·alpha_g(r2)·delta_gh) on
    every pair of monomials."""
    R, G = act.ring, act.group
    monos = [(g, int(r)) for g in range(G.order) for r in act.domain_members(g)]
    for (g, r), (h, r2) in itertools.product(monos, monos):
        left = galois.rho_monomial(act, g, r)[galois.rho_monomial(act, h, r2)]
        prod_r = int(R.mul[r, act.alpha_hat[g][r2]])
        if not np.array_equal(left, galois.rho_monomial(act, G.op(g, h), prod_r)):
            return False
    return True


@pytest.mark.parametrize("name", ["E0", "E1", "E2", "N1"])
def test_rho_generator_check_matches_pair_loop(name):
    act = fixtures.fixture(name)
    assert _rho_multiplicative_by_pairs(act)
    assert galois._rho_multiplicative(act)


def _with_alpha_hat(base, g, r, value):
    act = copy.copy(base)
    table = base.alpha_hat.copy()
    table[g, r] = value
    act.__dict__["alpha_hat"] = table   # the cached property's slot
    return act


def test_rho_generator_check_fails_on_corrupted_alpha():
    base = fixtures.fixture("E1")
    R = base.ring
    act = _with_alpha_hat(base, 1, 1, 1)   # alpha_g(1·1_{g^-1}) was 0
    assert not _rho_multiplicative_by_pairs(act)
    assert not galois._rho_multiplicative(act)
    assert not galois.regular_representation(act).is_homomorphism
    # on every single-entry corruption the generator check is at least as
    # strict as the pair loop
    for g, r, v in itertools.product(range(base.group.order), range(R.order),
                                     range(R.order)):
        act = _with_alpha_hat(base, g, r, v)
        if not _rho_multiplicative_by_pairs(act):
            assert not galois._rho_multiplicative(act)


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
