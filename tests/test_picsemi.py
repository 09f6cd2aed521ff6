import pytest

from pargal import fixtures, picsemi
from pargal.errors import PreconditionError
from pargal.finring import make_ring
from pargal.groups import cyclic_group
from pargal.partial_action import trivial_partial_action


def test_monoid_e1_ring():
    R = fixtures.fixture("E1").ring
    mon = picsemi.pics_monoid(R)
    assert len(mon.classes) == 4
    assert mon.neutral == picsemi.PicSClass(3)
    # meet of the two atoms is the zero class
    assert mon.op(picsemi.PicSClass(1), picsemi.PicSClass(2)) == picsemi.PicSClass(0)


def test_monoid_field_and_z6():
    assert len(picsemi.pics_monoid(make_ring("GF(7)")).classes) == 2
    mon = picsemi.pics_monoid(make_ring("Z6"))
    assert tuple(c.e for c in mon.classes) == (0, 1, 3, 4)


def test_pic_is_trivial():
    for tag in ("Z6", "GF(4;x^2+x+1)", "GF(2)*GF(3)"):
        mon = picsemi.pics_monoid(make_ring(tag))
        assert mon.units() == (mon.neutral,)


def test_star_e1_frozen():
    act = fixtures.fixture("E1")
    pics = picsemi.star_action(act)
    # 1_{g^-1} = 1_{g^2} = index 2; alpha_g moves the atom below it to index 1
    assert pics.domain(1) == (0, 2)
    assert pics.apply(1, picsemi.PicSClass(2)) == picsemi.PicSClass(1)
    assert pics.apply(1, picsemi.PicSClass(0)) == picsemi.PicSClass(0)
    with pytest.raises(PreconditionError):
        pics.apply(1, picsemi.PicSClass(1))  # e1 is not below 1_{g^2}


def test_star_identity_component():
    for name in ("E0", "E1", "E2"):
        act = fixtures.fixture(name)
        pics = picsemi.star_action(act)
        ident = act.group.identity
        for e in pics.domain(ident):
            assert pics.star[ident][e] == e


def test_star_inverse_round_trip():
    act = fixtures.fixture("E2")
    pics = picsemi.star_action(act)
    G = act.group
    for g in range(G.order):
        ginv = G.inv(g)
        for e in pics.domain(g):         # domain of star_g is {e <= 1_{g^-1}}
            moved = pics.star[g][e]
            assert pics.star[ginv][moved] == e


def test_star_validates_all_fixtures():
    # construction raises on any axiom or tensor cross-check failure
    for name in fixtures.fixture_names():
        picsemi.star_action(fixtures.fixture(name))


def test_tensor_support_matches_closed_form():
    act = fixtures.fixture("E1")
    # independent recomputation at every (g, e) pair
    for g in range(3):
        ginv = act.group.inv(g)
        es = [0, act.one(ginv)]
        got = picsemi._tensor_supports(act, g, es)
        assert got.tolist() == [int(act.alpha_hat[g][e]) for e in es]


def test_semilattice_units_are_tops():
    act = fixtures.fixture("E2")
    pics = picsemi.star_action(act)
    for g in range(3):
        assert picsemi.semilattice_units(pics, g) == (act.one(g),)


def test_z1_singletons():
    for name in ("E0", "E1", "E2", "E3"):
        act = fixtures.fixture(name)
        pics = picsemi.star_action(act)
        out = picsemi.z1_pics(pics)
        assert len(out) == 1
        assert out[0] == tuple(picsemi.PicSClass(act.one(g))
                               for g in range(act.group.order))


def test_z1_trivial_group():
    act = trivial_partial_action(make_ring("Z6"), cyclic_group(1))
    pics = picsemi.star_action(act)
    assert len(picsemi.z1_pics(pics)) == 1


def test_collapse_note_mentions_semilattice():
    assert "semilattice" in picsemi.COLLAPSE_NOTE
