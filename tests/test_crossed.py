import dataclasses
import itertools
import random
import re

import numpy as np
import pytest

from pargal import cli
from pargal import cohomology as coh
from pargal import crossed, fixtures
from pargal.errors import DefectError, PreconditionError
from pargal.finring import make_ring, subring_from_members
from pargal.groups import cyclic_group
from pargal.partial_action import Budgets, trivial_partial_action


# ------------------------------------------------------------- skew ring

def test_skew_e1_order_and_unit():
    alg = crossed.skew_group_ring(fixtures.fixture("E1"))
    assert alg.order == 16
    assert alg.assoc.ok and not alg.assoc.sampled
    assert alg.assoc.triples == 8 ** 3
    assert alg.central_checked
    assert alg.unit == (3, 0, 0)  # 1 = e at local index 3


def test_skew_orders():
    for name, order in (("E0", 512), ("E2", 256), ("N1", 4)):
        assert crossed.skew_group_ring(fixtures.fixture(name)).order == order


def test_trivial_action_gives_group_algebra():
    # F2[C2]: (1 + g)^2 = 1 + g^2 = 0 in characteristic 2
    alg = crossed.skew_group_ring(fixtures.fixture("N1"))
    u = (1, 1)
    assert alg.mul(u, u) == alg.zero
    assert alg.mul((0, 1), (0, 1)) == (1, 0)  # g^2 = 1


def test_grading_respected():
    alg = crossed.skew_group_ring(fixtures.fixture("E2"))
    G = alg.action.group
    for g, a in alg.monomials():
        for h, b in alg.monomials():
            out = alg.mul(alg.monomial(g, a), alg.monomial(h, b))
            for k, c in enumerate(out):
                if k != G.op(g, h):
                    assert c == alg.action.ring.zero


def test_element_validation():
    alg = crossed.skew_group_ring(fixtures.fixture("E1"))
    with pytest.raises(PreconditionError):
        alg.element((0, 3, 0))  # 3 = e is not in D_g
    with pytest.raises(PreconditionError):
        alg.element((0, 0))


def test_ring_embedding_multiplicative():
    alg = crossed.skew_group_ring(fixtures.fixture("E1"))
    R = alg.action.ring
    for r in range(R.order):
        for r2 in range(R.order):
            assert alg.mul(alg.embed_ring(r), alg.embed_ring(r2)) \
                == alg.embed_ring(int(R.mul[r, r2]))


def test_structure_text_shape():
    alg = crossed.skew_group_ring(fixtures.fixture("E1"))
    text = alg.structure_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# algebra skew")
    assert len(lines) == 1 + 8 + 64
    assert "delta_" in lines[1]


# ------------------------------------------------------- crossed product

def test_identity_twist_matches_skew():
    act = fixtures.fixture("E2")
    ident = coh.identity_cochain(act, 2)
    alg = crossed.crossed_product(act, ident)
    skew = crossed.skew_group_ring(act)
    assert alg.unit == skew.unit
    # bit-identical structure constants
    assert alg.structure_text().replace("crossed", "skew") == skew.structure_text()


def test_crossed_all_z2_e2_associative():
    act = fixtures.fixture("E2")
    for table in coh._kernel_dfs(act, 2):
        f = coh.Cochain(act, 2, np.array(table, dtype=np.int64))
        alg = crossed.crossed_product(act, f)
        assert alg.assoc.ok and not alg.assoc.sampled


def test_crossed_unit_is_inverse_of_f11():
    act = fixtures.fixture("E2")
    R = act.ring
    # build a cocycle with f(1,1) != 1 as the coboundary of a 1-cochain
    pos, corners, units = coh._position_data(act, 1)
    vals = [units[i][-1] for i in range(len(pos))]
    eps = coh.Cochain(act, 1, np.array(vals, dtype=np.int64))
    f = coh.coboundary(act, eps)
    if f[(0, 0)] == R.one:
        pytest.skip("coboundary landed on a normalized cocycle")
    alg = crossed.crossed_product(act, f)
    ident = act.group.identity
    assert int(R.mul[alg.unit[ident], f[(ident, ident)]]) == R.one


def test_corrupted_twist_witness():
    act = fixtures.fixture("E2")
    R = act.ring
    # identity cochain except f(1,1) = some unit u with u·1_g != 1_g
    u = next(x for x in range(R.order)
             if int(R.mul[x, act.one(1)]) != act.one(1)
             and int(R.mul[x, R.one]) == x
             and any(int(R.mul[x, y]) == R.one for y in range(R.order)))
    values = {}
    for g, h in itertools.product(range(3), repeat=2):
        values[(g, h)] = coh.corner_idem(act, (g, h))
    values[(0, 0)] = u
    f = coh.cochain_from_map(act, 2, values)
    with pytest.raises(PreconditionError, match="2-cocycle law at"):
        crossed.crossed_product(act, f)


def test_twist_arity_checked():
    act = fixtures.fixture("E2")
    with pytest.raises(PreconditionError, match="2-cochain"):
        crossed.crossed_product(act, coh.identity_cochain(act, 1))


# ------------------------------------------------------------- coiso map

def test_coiso_identity_witness():
    act = fixtures.fixture("E2")
    ident2 = coh.identity_cochain(act, 2)
    ident1 = coh.identity_cochain(act, 1)
    iso = crossed.coiso_map(act, ident2, ident2, ident1)
    assert iso.multiplicative and iso.bijective and iso.fixes_invariants
    alg = iso.source
    for g, d in alg.monomials():
        assert iso.forward(alg.monomial(g, d)) == alg.monomial(g, d)


def test_coiso_coboundary_to_identity():
    act = fixtures.fixture("E2")
    pos, corners, units = coh._position_data(act, 1)
    vals = [units[i][0] for i in range(len(pos))]
    eps = coh.Cochain(act, 1, np.array(vals, dtype=np.int64))
    f = coh.coboundary(act, eps)
    ident2 = coh.identity_cochain(act, 2)
    iso = crossed.coiso_map(act, f, ident2, eps)
    assert iso.multiplicative and iso.bijective and iso.fixes_invariants
    assert iso.target.tag == "crossed"


def test_coiso_bad_witness_rejected():
    act = fixtures.fixture("E2")
    ident2 = coh.identity_cochain(act, 2)
    pos, corners, units = coh._position_data(act, 1)
    if all(len(u) == 1 for u in units):
        pytest.skip("no nontrivial 1-cochain available")
    vals = [units[i][-1] for i in range(len(pos))]
    eps = coh.Cochain(act, 1, np.array(vals, dtype=np.int64))
    if coh.coboundary(act, eps) == ident2:
        pytest.skip("chosen eps is a cocycle")
    with pytest.raises(PreconditionError, match="witness invalid"):
        crossed.coiso_map(act, ident2, ident2, eps)


# ------------------------------------------------------------ factor set

def test_factor_set_truncation_at_identity():
    act = fixtures.fixture("E1")
    fs = crossed.theta_factor_set(act)
    R = act.ring
    for h in range(3):
        for u in range(R.order):           # D_1 = R
            for v in act.domain_members(h):
                assert fs(0, h, u, int(v)) == int(R.mul[u, int(v)])


def test_factor_set_e1_g_gsq():
    act = fixtures.fixture("E1")
    fs = crossed.theta_factor_set(act)
    # u_g = 1_g (index 1), u_{g^2} = 1_{g^2} (index 2): image 1_g in D_1
    assert fs(1, 2, 1, 2) == 1
    assert fs.bilinear_checked and fs.pentagon_checked and fs.exhaustive


def test_factor_set_lands_in_product_corner():
    act = fixtures.fixture("E2")
    fs = crossed.theta_factor_set(act)
    R, G = act.ring, act.group
    for g in range(3):
        for h in range(3):
            corner = int(R.mul[act.one(g), act.one(G.op(g, h))])
            for u in act.domain_members(g):
                for v in act.domain_members(h):
                    val = fs(g, h, int(u), int(v))
                    assert int(R.mul[val, corner]) == val


def test_bimodule_compatibility():
    act = fixtures.fixture("E2")
    mod = crossed.theta_bimodule(act, 1)
    R = act.ring
    ginv = act.group.inv(1)
    for r in range(R.order):
        for d in mod.members:
            assert mod.left(r, d) == mod.right(d, int(act.alpha_hat[ginv][r]))


# ----------------------------------------------------------- delta theta

def test_delta_theta_e1():
    alg = crossed.delta_theta(fixtures.fixture("E1"))
    assert alg.order == 16
    assert alg.assoc.ok
    assert alg.component_members[0] == (0, 1, 2, 3)  # component 1 is R


@pytest.mark.parametrize("name", ["E0", "E1", "E2", "E3", "f4c4", "f8c3",
                                  "f2c6g"])
@pytest.mark.parametrize("capped", [False, True])
def test_delta_theta_associativity_from_pentagon(name, capped, stress_action):
    # delta_theta takes associativity from the factor set's pentagon; the
    # table check it no longer runs stays as the oracle
    act = fixtures.fixture(name) if name[0] == "E" else stress_action(name)
    if capped:
        act = _capped_triples(act)
    alg = crossed.delta_theta(act)
    oracle = crossed._check_associativity(alg.basis, alg.table)
    assert alg.assoc.ok and oracle.ok and not alg.assoc.sampled
    exhaustive = crossed.theta_factor_set(act).exhaustive
    assert alg.assoc.on_generators == (not exhaustive)
    if exhaustive == (not oracle.on_generators):
        assert alg.assoc == oracle


def test_delta_theta_trivial_group_is_ring():
    act = trivial_partial_action(make_ring("Z6"), cyclic_group(1))
    alg = crossed.delta_theta(act)
    assert alg.order == 6
    R = act.ring
    for a in range(6):
        for b in range(6):
            assert alg.mul((a,), (b,)) == (int(R.mul[a, b]),)


def test_epsilon_set_law():
    # {(D_g delta_g)(D_{g^-1} delta_{g^-1})} sweeps exactly D_g in slot 1
    for name in ("E1", "E2"):
        act = fixtures.fixture(name)
        alg = crossed.skew_group_ring(act)
        for g in range(act.group.order):
            ginv = act.group.inv(g)
            prods = {alg.mono_mul(g, int(a), ginv, int(b))[1]
                     for a in act.domain_members(g)
                     for b in act.domain_members(ginv)}
            assert prods == {int(d) for d in act.domain_members(g)}


def test_theta_sandwich_identity():
    # (1_g d_g)(1_{g^-1} d_{g^-1})(1_g d_g) = 1_g d_g
    for name in ("E1", "E2", "E0"):
        act = fixtures.fixture(name)
        alg = crossed.skew_group_ring(act)
        for g in range(act.group.order):
            ginv = act.group.inv(g)
            th = alg.monomial(g, act.one(g))
            thi = alg.monomial(ginv, act.one(ginv))
            assert alg.mul(alg.mul(th, thi), th) == th


# ---------------------------------------------------------------- kappa

def test_kappa_e1_e2():
    for name in ("E1", "E2"):
        iso = crossed.kappa_iso(fixtures.fixture(name))
        assert iso.multiplicative and iso.bijective and iso.fixes_invariants
        assert iso.source.tag == "Delta(Theta)"
        assert iso.target.tag == "skew"


def test_kappa_trivial_group_identity():
    act = trivial_partial_action(make_ring("GF(5)"), cyclic_group(1))
    iso = crossed.kappa_iso(act)
    for r in range(5):
        assert iso.forward((r,)) == (r,)


# ------------------------------------------------- table against oracles

def _reference_product(act, twist, g, a, h, b):
    """(a·delta_g)(b·delta_h) = a·alpha_g(b·1_{g^-1})·f(g,h)·delta_{gh},
    one scalar lookup at a time; twist None is R*G."""
    R = act.ring
    coeff = int(R.mul[a, int(act.alpha_hat[g][b])])
    if twist is not None:
        coeff = int(R.mul[coeff, twist[(g, h)]])
    return act.group.op(g, h), coeff


def _reference_factor_set(act, g, h, u, v):
    """f^Theta_{g,h}(u, v) = u·alpha_g(v·1_{g^-1})."""
    return int(act.ring.mul[u, int(act.alpha_hat[g][v])])


def _monomial_pairs(act):
    monos = [(g, int(d)) for g in range(act.group.order)
             for d in act.domain_members(g)]
    return itertools.product(monos, monos)


def _assert_table_matches(alg, twist):
    for (g, a), (h, b) in _monomial_pairs(alg.action):
        assert alg.mono_mul(g, a, h, b) == \
            _reference_product(alg.action, twist, g, a, h, b)


ORACLE_ACTIONS = ("E0", "E1", "E2", "N1", "trivial")


@pytest.mark.parametrize("name", ORACLE_ACTIONS)
def test_table_matches_scalar_reference(name):
    act = trivial_partial_action(make_ring("Z6"), cyclic_group(1)) \
        if name == "trivial" else fixtures.fixture(name)
    _assert_table_matches(crossed.skew_group_ring(act), None)
    ident = coh.identity_cochain(act, 2)
    _assert_table_matches(crossed.crossed_product(act, ident), ident)
    fs = crossed.theta_factor_set(act)
    dt = crossed.delta_theta(act)
    for (g, u), (h, v) in _monomial_pairs(act):
        want = _reference_factor_set(act, g, h, u, v)
        assert fs(g, h, u, v) == want
        assert dt.mono_mul(g, u, h, v) == (act.group.op(g, h), want)


def test_table_matches_scalar_reference_on_every_e2_cocycle():
    act = fixtures.fixture("E2")
    for table in coh._kernel_dfs(act, 2):
        f = coh.Cochain(act, 2, np.array(table, dtype=np.int64))
        _assert_table_matches(crossed.crossed_product(act, f), f)


def _capped_triples(act):
    return dataclasses.replace(act, budgets=Budgets(assoc_triples=100))


def _corrupted_e1(act=None):
    alg = crossed.skew_group_ring(act or fixtures.fixture("E1"))
    table = alg.table.copy()
    table[5, 5] = 7   # (1,1)(1,1) = (2,0), changed to (2,2)
    names = [f"({g},{d})" for g, d in alg.monomials()]
    return alg, table, names


def _assoc_fails(table, i, j, k):
    return table[table[i, j], k] != table[i, table[j, k]]


def test_corrupted_table_names_first_failing_triple():
    alg, table, names = _corrupted_e1()
    first = next(t for t in itertools.product(range(len(table)), repeat=3)
                 if _assoc_fails(table, *t))
    want = "associativity fails on monomials " + ",".join(names[x] for x in first)
    with pytest.raises(DefectError, match=re.escape(want) + "$"):
        crossed._check_associativity(alg.basis, table)


def test_corrupted_table_proof_names_witness():
    # past the budget the check is a proof.  D_g = {0, 1} for g = 1, so
    # any value of (1,1)(1,1) is bi-additive: the generator triples see it
    alg, table, names = _corrupted_e1(_capped_triples(fixtures.fixture("E1")))
    witness = (alg.basis.index(0, 1), 5, 5)
    assert _assoc_fails(table, *witness)
    want = ",".join(names[x] for x in witness)
    with pytest.raises(DefectError, match=re.escape(
            "associativity fails on monomials " + want) + "$"):
        crossed._check_associativity(alg.basis, table)
    gens = sum(len(ts) for ts in alg.basis.generators)
    assert crossed._check_associativity(alg.basis, alg.table) == \
        crossed.AssocReport(gens ** 3, False, True, on_generators=True)


def _exhaustive_assoc_ok(table):
    return all((table[table[i]] == table[i][table]).all()
               for i in range(len(table)))


def _twisted_table(act, f11):
    """Table of the product twisted by the identity cochain with f(1,1)
    replaced: bi-additive and graded, associative iff the twist is a
    cocycle."""
    R = act.ring
    twist = np.array([[coh.corner_idem(act, (g, h))
                       for h in range(act.group.order)]
                      for g in range(act.group.order)], dtype=np.int64)
    twist[0, 0] = f11
    basis = crossed._monomial_basis(act)
    grade = basis.grade
    values = R.mul[crossed._theta_values(act, basis),
                   twist[grade[:, None], grade[None, :]]]
    return basis, crossed._index_table(act, basis, values)


def test_proof_names_failing_generator_triple():
    act = _capped_triples(fixtures.fixture("E2"))
    R = act.ring
    u = next(x for x in range(R.order)
             if int(R.mul[x, act.one(1)]) != act.one(1)
             and any(int(R.mul[x, y]) == R.one for y in range(R.order)))
    basis, table = _twisted_table(act, u)
    assert not _exhaustive_assoc_ok(table)
    with pytest.raises(DefectError, match="associativity fails on monomials"
                       ) as err:
        crossed._check_associativity(basis, table)
    named = re.findall(r"\((\d+),(\d+)\)", str(err.value))
    i, j, k = (basis.index(int(g), int(d)) for g, d in named)
    assert _assoc_fails(table, i, j, k)
    for x in (i, j, k):
        g = int(basis.grade[x])
        assert int(basis.coeff[x]) in basis.generators[g]


@pytest.mark.parametrize("name", ["E3", "f4c4", "f2c6g"])
def test_proof_catches_single_entry_corruptions(name, stress_action):
    act = fixtures.fixture(name) if name[0] == "E" else stress_action(name)
    alg = crossed.skew_group_ring(act)
    assert alg.assoc.on_generators and not alg.assoc.sampled
    basis, table = alg.basis, alg.table
    rng = random.Random(0)
    for _ in range(10):
        i, j = rng.randrange(len(table)), rng.randrange(len(table))
        same = np.flatnonzero(basis.grade == basis.grade[table[i, j]])
        bad = table.copy()
        bad[i, j] = rng.choice([int(k) for k in same if k != table[i, j]])
        with pytest.raises(DefectError):
            crossed._check_associativity(basis, bad)


# one changed factor-set entry per check; each message is the one the
# scalar per-element loops report first
@pytest.mark.parametrize("name,i,j,value,message", [
    ("E1", 2, 1, 2, "balance fails at g=0,h=0,u=2,v=1,r=1"),
    ("E1", 6, 0, 2, "left linearity fails"),
    ("E2", 1, 22, 4, "right linearity fails"),
    ("E2", 21, 20, 2, "factor set leaves the 1_g corner"),
    ("N1", 1, 3, 0, "pentagon fails at (0,1,1)"),
])
def test_corrupted_factor_set_names_first_failure(monkeypatch, name, i, j,
                                                  value, message):
    honest = crossed._theta_values

    def corrupted(action, basis):
        values = honest(action, basis).copy()
        values[i, j] = value
        return values

    monkeypatch.setattr(crossed, "_theta_values", corrupted)
    with pytest.raises(DefectError, match=re.escape(message) + "$"):
        crossed.theta_factor_set(fixtures.fixture(name))


def test_wrong_unit_names_first_monomial():
    act = fixtures.fixture("E1")
    alg = crossed.skew_group_ring(act)
    e = 1   # the idempotent (1,0,0), not the unit (1,1,1)
    ident = act.group.identity
    first = next(m for m in alg.monomials()
                 if _reference_product(act, None, ident, e, *m) != m
                 or _reference_product(act, None, *m, ident, e) != m)
    with pytest.raises(DefectError, match=re.escape(
            f"unit fails on monomial ({first[0]},{first[1]})")):
        crossed._algebra(act, None, e, "skew", alg.basis, alg.table)


def test_non_central_invariant_names_first_witness(monkeypatch):
    act = fixtures.fixture("E1")
    alg = crossed.skew_group_ring(act)
    R, ident = act.ring, act.group.identity
    # pretend all of R is invariant: the nontrivial action moves some of it
    monkeypatch.setattr(crossed, "invariant_subring",
                        lambda action: subring_from_members(R, range(R.order)))
    s, (g, d) = next(
        (s, m) for s in range(R.order) for m in alg.monomials()
        if _reference_product(act, None, ident, s, *m)
        != _reference_product(act, None, *m, ident, s))
    with pytest.raises(DefectError, match=re.escape(
            f"invariant {s} not central against ({g},{d})")):
        crossed._algebra(act, None, R.one, "skew", alg.basis, alg.table)


def test_non_multiplicative_map_names_first_pair():
    act = fixtures.fixture("E2")
    R = act.ring
    skew = crossed.skew_group_ring(act)
    # scaling grade 1 by a unit s with s·s != s is not multiplicative
    s = next(x for x in range(R.order) if int(R.mul[x, x]) != x
             and any(int(R.mul[x, y]) == R.one for y in range(R.order)))
    scale = [act.one(g) for g in range(act.group.order)]
    scale[act.group.identity] = s

    def image(g, a):
        return g, int(R.mul[a, scale[g]])

    (g, a), (h, b) = next(
        (m, n) for m, n in _monomial_pairs(act)
        if image(*_reference_product(act, None, *m, *n))
        != _reference_product(act, None, *image(*m), *image(*n)))
    with pytest.raises(PreconditionError, match=re.escape(
            f"map not multiplicative on ({g},{a})x({h},{b})")):
        crossed._verify_iso(skew, skew, scale)


def test_e3_crossed_proved_on_generators(capsys):
    assert cli.main(["crossed", "--fixture", "E3"]) == 0
    out = capsys.readouterr().out
    assert ("associativity: ok (5832 generator triples, proved on additive "
            "generators of a bi-additive table)") in out


def test_theta_fast_path_checks_additivity(monkeypatch):
    act = fixtures.fixture("E3")
    basis = crossed._monomial_basis(act)
    g = 1
    t1, t2 = basis.generators[g][:2]
    i = basis.index(g, int(act.ring.add[t1, t2]))   # not a generator
    honest = crossed._theta_values

    def corrupted(action, b):
        values = honest(action, b).copy()
        values[i, 0] = act.ring.add[values[i, 0], act.one(g)]
        return values

    assert not crossed.theta_factor_set(act).exhaustive
    monkeypatch.setattr(crossed, "_theta_values", corrupted)
    with pytest.raises(DefectError,
                       match=r"^factor set not additive in slot 1 at "):
        crossed.theta_factor_set(act)


@pytest.mark.parametrize("name", ["E0", "E1", "E2", "E3"])
def test_z2_witness_is_the_first_scalar_failure(name):
    """The batched witness names the first triple, lexicographically, where
    the scalar coboundary of a random 2-cochain differs from 1."""
    act = fixtures.fixture(name)
    _, _, units = coh._position_data(act, 2)
    ident = coh.identity_cochain(act, 3)
    rng = random.Random(name)
    failures = 0
    for _ in range(25):
        f = coh.Cochain(act, 2, np.array([rng.choice(u) for u in units]))
        df = coh.coboundary(act, f)
        want = next((tuple(act.group.names[g] for g in gs)
                     for gs in coh.positions(act, 3) if df[gs] != ident[gs]),
                    None)
        assert crossed._z2_witness(act, f) == want
        failures += want is not None
    # over GF(2) every corner's only unit is its identity: no non-cocycles
    assert (failures > 0) == (name in ("E2", "E3"))
