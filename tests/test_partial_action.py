import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pargal import finring, fixtures, groups, partial_action
from pargal.errors import DefectError
from pargal.partial_action import (Budgets, GlobalAction, PartialAction,
                                   as_partial, invariant_subring, orbit_report,
                                   restrict_global, trivial_partial_action,
                                   validate)


def test_e1_frozen_values():
    act = fixtures.fixture("E1")
    R = act.ring
    # corner of F2^3 at (1,1,0): members (0,0,0),(0,1,0),(1,0,0),(1,1,0)
    assert R.order == 4
    assert R.names == ("(0,0,0)", "(0,1,0)", "(1,0,0)", "(1,1,0)")
    assert act.one(0) == 3                    # 1_1 = (1,1,0) = identity
    assert R.names[act.one(1)] == "(0,1,0)"   # 1_g
    assert R.names[act.one(2)] == "(1,0,0)"   # 1_{g^2}
    assert [len(act.domain_members(g)) for g in range(3)] == [4, 2, 2]
    # alpha_g maps D_{g^2} = {0,(1,0,0)} to D_g: (1,0,0) -> (0,1,0)
    assert act.apply(1, 2) == 1
    assert act.apply(2, 1) == 2


def test_e1_validates_and_report_is_empty():
    act = fixtures.fixture("E1")
    rep = validate(act.ring, act.group, act.one_g, act.alpha)
    assert rep.ok
    assert str(rep).startswith("valid")


def test_zero_map_mutation_rejected():
    act = fixtures.fixture("E1")
    alpha = act.alpha.copy()
    # replace alpha_g by the zero map on its domain
    g = 1
    alpha[g][alpha[g] >= 0] = act.ring.zero
    rep = validate(act.ring, act.group, act.one_g, alpha)
    assert not rep.ok
    assert "unit-to-unit" in rep.counts or "bijection" in rep.counts


def test_every_single_site_mutation_rejected_on_e1():
    act = fixtures.fixture("E1")
    count = 0
    for desc, one2, alpha2 in fixtures.single_site_mutations(act):
        rep = validate(act.ring, act.group, one2, alpha2)
        assert not rep.ok, f"mutation not rejected: {desc}"
        assert rep.violations, desc
        count += 1
    assert count > 30


def test_global_action_is_valid_partial_action():
    act = fixtures.fixture("E0")
    assert act.is_global()
    assert [len(act.domain_members(g)) for g in range(3)] == [8, 8, 8]
    rep = validate(act.ring, act.group, act.one_g, act.alpha)
    assert rep.ok


def test_invariant_subring_e1_is_diagonal():
    act = fixtures.fixture("E1")
    S = invariant_subring(act)
    # {(0,0,0), (1,1,0)} = F2 diagonal inside the corner
    assert S.members == (0, 3)
    assert S.ring.order == 2


def test_invariant_subring_global_shift():
    act = fixtures.fixture("E0")
    S = invariant_subring(act)
    assert len(S.members) == 2  # diagonal F2
    act4 = fixtures.fixture("E3")
    S4 = invariant_subring(act4)
    assert len(S4.members) == 4  # diagonal F4


def test_invariant_subring_trivial_action():
    act = fixtures.fixture("N1")
    S = invariant_subring(act)
    assert len(S.members) == act.ring.order


def test_orbit_report_e1():
    rep = orbit_report(fixtures.fixture("E1"))
    assert rep.domain_sizes == (4, 2, 2)
    assert rep.one_names == ("(1,1,0)", "(0,1,0)", "(1,0,0)")
    assert rep.one_heights == (2, 1, 1)
    # idempotent dynamics: alpha_g(e·1_{g^-1}) stays within idempotents
    for row in rep.dynamics:
        for e in row:
            assert e in rep.idempotents


def test_composition_domain_identity():
    # alpha_g(D_{g^-1} ∩ D_h) = D_g ∩ D_{gh} for validated actions
    for name in ("E1", "E2", "E0"):
        act = fixtures.fixture(name)
        R, G = act.ring, act.group
        for g in range(G.order):
            for h in range(G.order):
                inv_g = G.inv(g)
                lhs = {act.apply(g, r) for r in act.domain_members(inv_g)
                       if R.mul[r, act.one(h)] == r}
                gh = G.op(g, h)
                rhs = {r for r in act.domain_members(g)
                       if R.mul[r, act.one(gh)] == r}
                assert lhs == rhs, (name, g, h)


def test_restrict_at_identity_is_global():
    glob = fixtures.shift_global("GF(2)")
    act = restrict_global(glob, glob.ring.one)
    assert act.is_global()
    assert act.ring.order == glob.ring.order
    assert np.array_equal(act.alpha, glob.sigma)


def test_restrict_at_zero_is_degenerate():
    glob = fixtures.shift_global("GF(2)")
    act = restrict_global(glob, glob.ring.zero)
    assert act.ring.order == 1
    assert [len(act.domain_members(g)) for g in range(3)] == [1, 1, 1]


def test_one_g_zero_domain_is_zero_ideal():
    # C2 on F2 x F2 swapping is global; instead force 1_g = 0 by
    # restricting the swap at e = (1,0): 1_g = e·sigma(e) = (1,0)(0,1) = 0
    R = finring.make_ring("GF(2)*GF(2)")
    G = groups.cyclic_group(2)
    swap = finring.product_automorphism(R, (1, 0))
    sigma = np.stack([np.arange(4), swap])
    glob = GlobalAction(ring=R, group=G, sigma=sigma, tag="swap")
    e = finring.element_from_components(R, (1, 0))
    act = restrict_global(glob, e)
    assert act.ring.order == 2
    assert act.one(1) == act.ring.zero
    assert len(act.domain_members(1)) == 1


def test_budgets_pass_from_global_action_to_its_restrictions():
    capped = Budgets().capped(7)
    assert capped == Budgets(*[7] * 9)
    assert Budgets(basis_nodes=3).capped(7).basis_nodes == 3
    E0 = fixtures.fixture("E0")
    glob = GlobalAction(E0.ring, E0.group, E0.alpha, budgets=capped)
    assert as_partial(glob).budgets == capped
    assert all(restrict_global(glob, e).budgets == capped
               for e in E0.ring.idempotent_set)
    assert E0.budgets == Budgets()


def test_constructor_rejects_invalid():
    act = fixtures.fixture("E1")
    alpha = act.alpha.copy()
    dom = np.nonzero(alpha[1] >= 0)[0]
    alpha[1, dom[0]] = -1
    with pytest.raises(DefectError):
        PartialAction(act.ring, act.group, act.one_g, alpha)


@settings(max_examples=25)
@given(st.integers(0, 10**9))
def test_random_restriction_validates(seed):
    rng = random.Random(seed)
    glob, e = fixtures.random_global_instance(rng)
    act = restrict_global(glob, e)  # constructor validates eagerly
    rep = validate(act.ring, act.group, act.one_g, act.alpha)
    assert rep.ok
    # invariants of the restriction embed into global invariants cut to Se
    inv_loc = invariant_subring(act)
    glob_partial = as_partial(glob)
    inv_glob = invariant_subring(glob_partial)
    amb = finring.corner_ring(glob.ring, e)
    members = glob.ring.corner_members(e)
    restricted = {int(glob.ring.mul[x, e]) for x in inv_glob.members}
    loc_in_amb = {members[i] for i in inv_loc.members}
    assert loc_in_amb <= {int(m) for m in members}
    assert restricted <= set(members)
    # the global invariants, cut to Se, land inside the local invariants
    for x in restricted:
        assert x in loc_in_amb


def test_spot_mutations_on_random_instances():
    rng = random.Random(2024)
    for _ in range(5):
        glob, e = fixtures.random_global_instance(rng)
        act = restrict_global(glob, e)
        for desc, one2, alpha2 in fixtures.single_site_mutations(
                act, rng=rng, per_site=1):
            rep = validate(act.ring, act.group, one2, alpha2)
            assert not rep.ok, desc
