"""The array form of `picsemi` against the loops it replaced.

Each oracle below is the earlier loop implementation: the induced action
alpha* on PicS with its axiom checks and tensor cross-check, the unit
scans and the Z^1 enumeration.  The array code must give equal star
maps, units and cocycles, and on a corrupted action the same first
`DefectError` message.
"""
import itertools
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

from pargal import fixtures, picsemi
from pargal.config import build_action, parse_config
from pargal.errors import DefectError
from pargal.finring import (_additive_span, idempotents, make_ring,
                            primitive_idempotents)
from pargal.groups import cyclic_group, make_group
from pargal.partial_action import (GlobalAction, restrict_global,
                                   trivial_partial_action)

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
CONFIG_NAMES = sorted(p.stem for p in CONFIGS.glob("*.ini"))

# ------------------------------------------------------------ oracles


def oracle_ideal_support(ring, span):
    members = set(int(x) for x in span)
    for f in idempotents(ring):
        if f in members and all(int(ring.mul[f, x]) == x for x in members):
            return f
    raise DefectError("ideal has no idempotent support")


def oracle_tensor_support(action, g, e):
    R = action.ring
    ginv = action.group.inv(g)
    ahat = action.alpha_hat[g]
    dg = np.asarray(action.domain_members(g), dtype=np.int64)
    dginv = np.asarray(action.domain_members(ginv), dtype=np.int64)
    r_e = np.flatnonzero(R.mul[:, e] == np.arange(R.order))
    t1 = _additive_span(R, R.mul[dg[:, None], ahat[r_e]])
    t2 = _additive_span(R, R.mul[t1[:, None], ahat[dginv]])
    return oracle_ideal_support(R, t2)


def oracle_supports(action, g, es):
    """oracle_tensor_support at each e, -1 where it has no support."""
    out = []
    for e in es:
        try:
            out.append(oracle_tensor_support(action, g, e))
        except DefectError:
            out.append(-1)
    return out


def oracle_star_maps(action):
    """The star maps with every axiom check, without the tensor check."""
    R, G = action.ring, action.group
    nG = G.order
    ids = idempotents(R)
    below = {g: tuple(e for e in ids if int(R.mul[e, action.one(g)]) == e)
             for g in range(nG)}
    star = []
    for g in range(nG):
        ginv = G.inv(g)
        star.append({e: int(action.alpha_hat[g][e]) for e in below[ginv]})

    for g in range(nG):
        ginv = G.inv(g)
        mp = star[g]
        if sorted(mp.values()) != list(below[g]):
            raise DefectError(f"star_{g} is not onto the idempotents under 1_g")
        for e, f in mp.items():
            for e2, f2 in mp.items():
                if star[g][int(R.mul[e, e2])] != int(R.mul[f, f2]):
                    raise DefectError(f"star_{g} breaks the meet at ({e},{e2})")
        if mp[action.one(ginv)] != action.one(g):
            raise DefectError(f"star_{g} moves the top class")

    ident = G.identity
    if any(star[ident][e] != e for e in below[ident]):
        raise DefectError("star_1 is not the identity")
    for g in range(nG):
        ginv = G.inv(g)
        for e in below[g]:
            if star[g][star[ginv][e]] != e:
                raise DefectError(f"star_{g} does not invert star at {e}")
    for g in range(nG):
        for h in range(nG):
            gh = G.op(g, h)
            ginv, hinv = G.inv(g), G.inv(h)
            src = {e for e in ids
                   if int(R.mul[e, int(R.mul[action.one(ginv), action.one(h)])]) == e}
            dst = {e for e in ids
                   if int(R.mul[e, int(R.mul[action.one(g), action.one(gh)])]) == e}
            if {star[g][e] for e in src} != dst:
                raise DefectError(f"star domain pattern fails at ({g},{h})")
            for e in ids:
                if int(R.mul[e, action.one(hinv)]) == e \
                        and int(R.mul[e, action.one(G.inv(gh))]) == e:
                    lhs = star[g].get(star[h][e])
                    if lhs is not None and int(R.mul[star[h][e], action.one(ginv)]) \
                            == star[h][e]:
                        if lhs != star[gh][e]:
                            raise DefectError(f"star composition fails at ({g},{h},{e})")
    return tuple(star)


def oracle_star(action):
    star = oracle_star_maps(action)
    for g in range(action.group.order):
        for e in star[action.group.inv(g)].values():   # e <= 1_{g^-1}
            got = oracle_tensor_support(action, g, e)
            if got != star[g][e]:
                raise DefectError(
                    f"tensor support {got} disagrees with star_{g}({e})")
    return star


def oracle_units(mon):
    return tuple(a for a in mon.classes
                 if any(mon.op(a, b) == mon.neutral for b in mon.classes))


def oracle_semilattice_units(pics, g):
    R = pics.base.ring
    top = pics.base.one(g)
    xg = [e for e in idempotents(R) if int(R.mul[e, top]) == e]
    return tuple(e for e in xg if any(int(R.mul[e, e2]) == top for e2 in xg))


def oracle_z1(pics):
    action = pics.base
    R, G = action.ring, action.group
    nG = G.order
    units = [oracle_semilattice_units(pics, g) for g in range(nG)]
    out = []
    for choice in itertools.product(*units):
        ok = all(
            int(R.mul[pics.star[g][int(R.mul[choice[h], action.one(G.inv(g))])],
                      choice[g]])
            == int(R.mul[choice[G.op(g, h)], action.one(g)])
            for g in range(nG) for h in range(nG))
        if ok:
            out.append(tuple(picsemi.PicSClass(e) for e in choice))
    return tuple(out)


# ------------------------------------------------------------ instances


class StandIn:
    """Duck-typed action: raw 1_g and alpha_hat tables on a ring and a
    group, which the partial-action checks never see."""

    def __init__(self, ring, group, one_g, alpha_hat):
        self.ring, self.group = ring, group
        self.one_g, self.alpha_hat = np.asarray(one_g), np.asarray(alpha_hat)

    def one(self, g):
        return int(self.one_g[g])

    def domain_members(self, g):
        return self.ring.corner_members(int(self.one_g[g]))


def with_alpha_hat(action, alpha_hat):
    return StandIn(action.ring, action.group, action.one_g, alpha_hat)


def config_action(name):
    return build_action(parse_config((CONFIGS / f"{name}.ini").read_text()))


def as_global(action):
    return GlobalAction(action.ring, action.group, action.alpha.copy(),
                        tag=action.tag)


def outcome(star_fn, action):
    try:
        return "ok", star_fn(action)
    except DefectError as exc:
        return "defect", str(exc)


def array_star(action):
    return picsemi.star_action(action).star


def assert_matches_oracle(action):
    pics = picsemi.star_action(action)
    assert pics.star == oracle_star(action)
    for g in range(action.group.order):
        assert picsemi.semilattice_units(pics, g) \
            == oracle_semilattice_units(pics, g)
    assert picsemi.z1_pics(pics) == oracle_z1(pics)
    mon = picsemi.pics_monoid(action.ring)
    assert mon.units() == oracle_units(mon)


# ------------------------------------------------------------ agreement


@pytest.mark.parametrize("name", fixtures.fixture_names())
def test_fixture_matches_oracle(name):
    assert_matches_oracle(fixtures.fixture(name))


def test_the_eight_configs_are_all_here():
    assert len(CONFIG_NAMES) == 8


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_config_matches_oracle(name):
    assert_matches_oracle(config_action(name))


@pytest.mark.parametrize("name", ("E0", "E3", "f2c6g"))
def test_every_restriction_corner_matches_oracle(name):
    act = fixtures.fixture(name) if name.startswith("E") else config_action(name)
    glob = as_global(act)
    for e in idempotents(act.ring):
        assert_matches_oracle(restrict_global(glob, e))


@pytest.mark.parametrize("seed", range(20))
def test_random_instance_matches_oracle(seed):
    glob, e = fixtures.random_global_instance(random.Random(seed), max_order=512)
    assert_matches_oracle(restrict_global(glob, e))


def test_tensor_supports_match_oracle_on_every_pair():
    act = fixtures.fixture("E2")
    ids = np.asarray(idempotents(act.ring))
    for g in range(act.group.order):
        got = picsemi._tensor_supports(act, g, ids)
        assert got.tolist() == oracle_supports(act, g, ids.tolist())


def test_z1_of_shuffled_star_tables_matches_oracle():
    # a PicSAction built around the checks: one star row shuffled
    rng = random.Random(4)
    sizes = set()
    for name in ("E0", "E1", "E2", "E3"):
        act = fixtures.fixture(name)
        table = picsemi.star_action(act).table
        for _ in range(30):
            shuffled = table.copy()
            g = rng.randrange(act.group.order)
            dom = np.flatnonzero(shuffled[g] >= 0)
            shuffled[g, dom] = rng.sample(shuffled[g, dom].tolist(), len(dom))
            pics = picsemi.PicSAction(act, shuffled)
            got = picsemi.z1_pics(pics)
            assert got == oracle_z1(pics)
            sizes.add(len(got))
    assert sizes == {0, 1}


@pytest.mark.parametrize("cells", (100, 1 << 22))
def test_additive_closure_in_row_and_column_blocks(monkeypatch, cells):
    # 100 cells on a ring of order 16: one row and six columns per block
    monkeypatch.setattr(picsemi, "_BLOCK_CELLS", cells)
    ring = make_ring("Z4*GF(4;x^2+x+1)")
    sets = np.random.default_rng(1).random((40, ring.order)) < 0.1
    got = picsemi._additive_closure(ring, sets)
    for row, out in zip(sets, got):
        assert np.flatnonzero(out).tolist() \
            == _additive_span(ring, np.flatnonzero(row)).tolist()


def test_wide_ring_chunks_and_matches_oracle():
    # trivial C2 on GF(2)^8: |E| = |R| = 256, so one closure of all of E
    # takes 256 * 256^2 cells, four times the block size
    ring = make_ring("*".join(["GF(2)"] * 8))
    act = trivial_partial_action(ring, cyclic_group(2))
    assert len(idempotents(ring)) == ring.order == 256
    assert len(ring.idempotent_set) * ring.order ** 2 > 2 * picsemi._BLOCK_CELLS
    start = time.perf_counter()
    pics = picsemi.star_action(act)
    assert time.perf_counter() - start < 2.0
    assert pics.star == oracle_star_maps(act)
    sample = sorted(random.Random(8).sample(idempotents(ring), 32))
    for g in range(2):
        got = picsemi._tensor_supports(act, g, sample)
        assert got.tolist() == [oracle_tensor_support(act, g, e) for e in sample]
        assert got.tolist() == [pics.star[g][e] for e in sample]
    # a random row makes every product set an unclosed union of ideals;
    # closing all 256 rows at once spans four row blocks
    ahat = np.array(act.alpha_hat)
    ahat[1] = np.random.default_rng(8).integers(0, ring.order, ring.order)
    stand_in = with_alpha_hat(act, ahat)
    got = picsemi._tensor_supports(stand_in, 1, idempotents(ring))
    assert got[sample].tolist() == oracle_supports(stand_in, 1, sample)  # E(R) = R


# ------------------------------------------------------------ corruption


def with_tops(glob_action, one_g):
    """A global action's automorphisms cut down to chosen domains: 1_g
    from one_g, alpha_hat[g](r) = sigma_g(r·1_{g^-1})."""
    R, G, sigma = glob_action.ring, glob_action.group, glob_action.alpha
    return StandIn(R, G, one_g, [sigma[g][R.mul[:, one_g[G.inv(g)]]]
                                 for g in range(G.order)])


def random_semilattice_tables(ring, group, rng):
    """Random domains 1_g (1 at the identity, kept as the identity map
    with probability 0.7) and, for each g, alpha_hat on E(R) induced by a
    random bijection from the atoms below 1_{g^-1} to those below 1_g, or
    to random atoms when their numbers differ.  On a product of copies of
    GF(2) every element is idempotent, so these are whole tables."""
    ids, atoms = idempotents(ring), primitive_idempotents(ring)
    nG, inv = group.order, group.inverse_table
    one = [ring.one if g == group.identity else rng.choice(ids) for g in range(nG)]
    ahat = np.tile(np.arange(ring.order), (nG, 1))
    for g in rng.sample(range(nG), nG):
        if g == group.identity and rng.random() < 0.7:
            continue
        src = [a for a in atoms if ring.mul[a, one[inv[g]]] == a]
        dst = [a for a in atoms if ring.mul[a, one[g]] == a]
        if len(src) != len(dst):
            dst = rng.sample(atoms, len(src))
        perm = dict(zip(src, rng.sample(dst, len(dst))))
        for e in ids:
            if ring.mul[e, one[inv[g]]] == e:
                v = ring.zero
                for a in src:
                    if ring.mul[a, e] == a:
                        v = ring.add[v, perm[a]]
                ahat[g, e] = v
    return StandIn(ring, group, one, ahat)


def stand_ins(action, sites, rng, count):
    """Corrupted stand-ins of action, labelled:
    * one alpha_hat entry (g, r) set to v, for each (g, r, v) in sites;
    * two idempotent values of one alpha_hat row swapped;
    * every alpha_hat row g replaced by row tau(g), for maps tau: G -> G;
    * for a global action, domains 1_{g^-1} = t and 1_g = alpha_g(t) for
      random idempotents t, one pair {g, g^-1} at a time.
    The last three draw count instances each when there are more."""
    R, G = action.ring, action.group
    nG = G.order
    ahat0 = np.asarray(action.alpha_hat)
    ids = idempotents(R)
    for g, r, v in sites:
        ahat = ahat0.copy()
        ahat[g, r] = v
        yield ("site", g, r, v), with_alpha_hat(action, ahat)
    swaps = [(g, e, e2) for g in range(nG) for e, e2 in itertools.combinations(ids, 2)]
    for g, e, e2 in rng.sample(swaps, min(count, len(swaps))):
        ahat = ahat0.copy()
        ahat[g, [e, e2]] = ahat[g, [e2, e]]
        yield ("swap", g, e, e2), with_alpha_hat(action, ahat)
    maps = list(itertools.product(range(nG), repeat=nG)) if nG <= 4 else \
        [tuple(rng.randrange(nG) for _ in range(nG)) for _ in range(count)]
    for tau in rng.sample(maps, min(count, len(maps))):
        yield ("rows", tau), with_alpha_hat(action, ahat0[list(tau)])
    if action.is_global():
        for _ in range(count):
            one = np.full(nG, R.one, dtype=np.int64)
            for g in range(nG):
                ginv = G.inv(g)
                if ginv < g or g == G.identity:
                    continue
                t = rng.choice([t for t in ids
                                if g != ginv or action.alpha[g][t] == t])
                one[ginv], one[g] = t, action.alpha[g][t]
            yield ("tops", tuple(one.tolist())), with_tops(action, one)


def all_sites(action):
    n = action.ring.order
    return [(g, r, v) for g in range(action.group.order) for r in range(n)
            for v in range(n) if v != action.alpha_hat[g, r]]


def sampled_sites(action, count, rng):
    """Every idempotent site with one wrong value, plus count random
    (site, value) triples."""
    n, nG = action.ring.order, action.group.order
    ahat = action.alpha_hat
    ids = idempotents(action.ring)
    sites = [(g, e, rng.choice([v for v in range(n) if v != ahat[g, e]]))
             for g in range(nG) for e in ids]
    while len(sites) < nG * len(ids) + count:
        g, r, v = rng.randrange(nG), rng.randrange(n), rng.randrange(n)
        if v != ahat[g, r]:
            sites.append((g, r, v))
    return sites


def corruption_kinds(action, sites, rng, count):
    """Check every stand-in against the oracle; return the message kinds
    seen, digits masked ("ok" for a stand-in both accept)."""
    kinds = set()
    for label, stand_in in stand_ins(action, sites, rng, count):
        want = outcome(oracle_star, stand_in)
        assert outcome(array_star, stand_in) == want, label
        kinds.add(re.sub(r"\d+", "#", want[1]) if want[0] == "defect" else "ok")
    return kinds


CORRUPTED = {   # instance -> (all sites?, sampled site count, family count)
    "E0": (True, 0, 60), "E1": (True, 0, 60), "E2": (True, 0, 60),
    "N1": (True, 0, 60), "E3": (False, 200, 60), "f4c4": (False, 60, 60),
    "f2c6g": (False, 30, 30),
}


def corrupted_instance(name):
    return fixtures.fixture(name) if name in fixtures.fixture_names() \
        else config_action(name)


@pytest.mark.parametrize("name", sorted(CORRUPTED))
def test_corruptions_match_oracle(name):
    act = corrupted_instance(name)
    every, sampled, count = CORRUPTED[name]
    rng = random.Random(sum(map(ord, name)))
    sites = all_sites(act) if every else sampled_sites(act, sampled, rng)
    corruption_kinds(act, sites, rng, count)


def test_corruptions_reach_every_reachable_check():
    kinds = set()
    for name in ("E0", "E1", "E2", "E3", "f4c4"):
        act = corrupted_instance(name)
        kinds |= corruption_kinds(act, all_sites(act) if act.ring.order <= 16 else [],
                                  random.Random(0), 60)
    # "moves the top class" cannot fire after the onto and meet checks pass:
    # a meet-preserving bijection of finite semilattices keeps the top
    assert kinds >= {
        "ok",
        "star_# is not onto the idempotents under #_g",
        "star_# breaks the meet at (#,#)",
        "star_# is not the identity",
        "star_# does not invert star at #",
        "star domain pattern fails at (#,#)",
        "star composition fails at (#,#,#)",
        "tensor support # disagrees with star_#(#)",
    }, sorted(kinds)


def test_random_semilattice_tables_match_oracle():
    kinds = set()
    for ring_tag, group_tag in (("GF(2)*GF(2)*GF(2)", "C3"), ("GF(2)*GF(2)", "C4"),
                                ("GF(2)*GF(2)*GF(2)", "C2*C2"),
                                ("GF(2)*GF(2)*GF(2)", "C6")):
        ring, group = make_ring(ring_tag), make_group(group_tag)
        rng = random.Random(ring_tag + group_tag)
        for _ in range(400):
            stand_in = random_semilattice_tables(ring, group, rng)
            want = outcome(oracle_star, stand_in)
            assert outcome(array_star, stand_in) == want
            kinds.add(re.sub(r"\d+", "#", want[1]) if want[0] == "defect" else "ok")
    assert kinds >= {"ok", "star_# is not the identity",
                     "star_# does not invert star at #",
                     "star domain pattern fails at (#,#)",
                     "star composition fails at (#,#,#)"}, sorted(kinds)


def test_tensor_supports_of_random_tables_match_oracle():
    # random alpha_hat rows make the product sets unions of ideals that
    # are not closed, so both closures matter, and some spans unsupported
    rng = np.random.default_rng(5)
    seen = set()
    for act in (fixtures.fixture("E1"), fixtures.fixture("E2"),
                trivial_partial_action(make_ring("Z4*Z4"), cyclic_group(2))):
        ids = idempotents(act.ring)
        for _ in range(20):
            ahat = rng.integers(0, act.ring.order, act.alpha_hat.shape)
            stand_in = with_alpha_hat(act, ahat)
            for g in range(act.group.order):
                got = picsemi._tensor_supports(stand_in, g, ids).tolist()
                assert got == oracle_supports(stand_in, g, ids)
                seen.update(x < 0 for x in got)
    assert seen == {True, False}


def test_unsupported_tensor_ideal_matches_oracle():
    # trivial C2 on Z4*Z4 (element (a, b) is 4a + b): sending (2,0) to
    # (0,2) leaves every star map intact, but the tensor span of
    # Re = R·(1,0) becomes Z4 x 2Z4, an ideal with no idempotent support
    act = trivial_partial_action(make_ring("Z4*Z4"), cyclic_group(2))
    ahat = np.array(act.alpha_hat)
    ahat[1, 8] = 2
    stand_in = with_alpha_hat(act, ahat)
    assert picsemi._tensor_supports(stand_in, 1, [4, 5]).tolist() == [-1, 5]
    want = ("defect", "ideal has no idempotent support")
    assert outcome(oracle_star, stand_in) == want
    assert outcome(array_star, stand_in) == want
