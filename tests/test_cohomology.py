import dataclasses
import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pargal import cohomology as coh
from pargal import finring, fixtures, groups, intmat
from pargal.errors import BudgetError, DefectError, PreconditionError
from pargal.finring import element_from_components, idempotents, make_ring
from pargal.partial_action import (Budgets, as_partial, restrict_global,
                                   trivial_partial_action)
from test_array_checks import scalar_corner_idem


def _random_cochain(action, n, rng):
    pos, corners, units = coh._position_data(action, n)
    vals = np.array([rng.choice(u) for u in units], dtype=np.int64)
    return coh.Cochain(action, n, vals)


# ---------------------------------------------------- cochain basics

def test_cochain_space_sizes_frozen():
    # corner unit counts worked out by hand for the rotation fixtures
    E1, E2, E3 = (fixtures.fixture(k) for k in ("E1", "E2", "E3"))
    assert coh.cochain_space_size(E1, 1) == 1
    assert coh.cochain_space_size(E2, 0) == 9
    assert coh.cochain_space_size(E2, 1) == 81
    assert coh.cochain_space_size(E2, 2) == 6561
    assert coh.cochain_space_size(E3, 1) == 27 ** 3
    assert coh.cochain_space_size(fixtures.fixture("E0"), 2) == 1


def test_cochain_membership_enforced():
    E2 = fixtures.fixture("E2")
    vals = np.full(3, E2.ring.one, dtype=np.int64)
    # value 1 at position (g,) is not in the corner D_g
    with pytest.raises(PreconditionError):
        coh.Cochain(E2, 1, vals)


@pytest.mark.parametrize("bad", [-1, "order"])
def test_cochain_values_outside_the_ring_refused(bad):
    E1 = fixtures.fixture("E1")
    nR = E1.ring.order
    bad = nR if bad == "order" else bad
    vals = coh.identity_cochain(E1, 1).values
    vals[1] = bad
    with pytest.raises(PreconditionError) as info:
        coh.Cochain(E1, 1, vals)
    assert str(info.value) == (f"value {bad} at (1,) is not an element of "
                               f"the ring (0..{nR - 1})")


def test_cochain_takes_any_integer_sequence():
    E1 = fixtures.fixture("E1")
    f = coh.Cochain(E1, 1, [3, 1, 2])
    assert f.values.dtype == np.int64 and f.value_tuple() == (3, 1, 2)
    for bad in ([3.0, 1.0, 2.0], [[3, 1, 2]], "312", 3):
        with pytest.raises(PreconditionError):
            coh.Cochain(E1, 1, bad)


def test_identity_cochain_and_corner_idem():
    E2 = fixtures.fixture("E2")
    ident = coh.identity_cochain(E2, 2)
    assert ident[(1, 1)] == E2.ring.zero  # 1_g·1_{g^2} = 0
    assert ident[(0, 1)] == E2.one(1)
    assert coh.corner_idem(E2, ()) == E2.ring.one


def test_delta0_of_one_is_identity_cochain():
    for name in ("E1", "E2", "E3"):
        act = fixtures.fixture(name)
        one = coh.cochain_from_map(act, 0, act.ring.one)
        assert coh.coboundary(act, one) == coh.identity_cochain(act, 1)


def test_delta0_component_formula_on_e2():
    E2 = fixtures.fixture("E2")
    R = E2.ring
    # R = F4 x F4; delta0(x)(g) = alpha_g(x·1_{g^-1})·x^{-1} per component
    units = finring.units(R)
    for x in units.elements:
        f = coh.coboundary(E2, coh.cochain_from_map(E2, 0, x))
        xin = units.inv(x)
        for g in range(3):
            expect = R.mul[E2.apply(g, x), xin]
            assert f[(g,)] == int(R.mul[expect, E2.one(g)])


# ---------------------------------------------------- delta composition

def test_delta_delta_identity_exhaustive_small_arity():
    # n = 0 and n = 1 over every cochain of E1 and E2
    for name in ("E1", "E2"):
        act = fixtures.fixture(name)
        for n in (0, 1):
            ident = coh.identity_cochain(act, n + 2)
            for table in coh._enumerate_cochains(act, n):
                f = coh.Cochain(act, n, np.array(table, dtype=np.int64))
                assert coh.coboundary(act, coh.coboundary(act, f)) == ident


def test_delta_delta_identity_arity2_sampled():
    rng = random.Random(11)
    act = fixtures.fixture("E2")
    ident = coh.identity_cochain(act, 4)
    for _ in range(300):
        f = _random_cochain(act, 2, rng)
        assert coh.coboundary(act, coh.coboundary(act, f)) == ident


@settings(max_examples=30)
@given(st.integers(0, 10**9))
def test_delta_is_homomorphism(seed):
    rng = random.Random(seed)
    act = fixtures.fixture("E2")
    n = rng.choice([0, 1, 2])
    f, f2 = _random_cochain(act, n, rng), _random_cochain(act, n, rng)
    lhs = coh.coboundary(act, coh.cochain_mul(f, f2))
    rhs = coh.cochain_mul(coh.coboundary(act, f), coh.coboundary(act, f2))
    assert lhs == rhs


def test_z1_shape_matches_direct_formula():
    # delta^1 f = identity  iff  alpha_g(f(h)1_{g^-1})·f(g) = f(gh)·1_g
    act = fixtures.fixture("E2")
    R, G = act.ring, act.group
    for table in coh._enumerate_cochains(act, 1):
        f = dict(zip(coh.positions(act, 1), table))
        direct = all(
            int(R.mul[act.apply(g, f[(h,)]), f[(g,)]])
            == int(R.mul[f[(G.op(g, h),)], act.one(g)])
            for g in range(3) for h in range(3))
        via_delta = tuple(table) in set(coh._kernel_dfs(act, 1))
        assert direct == via_delta


def test_z2_shape_matches_direct_formula():
    act = fixtures.fixture("E2")
    R, G = act.ring, act.group
    z2 = set(coh._kernel_dfs(act, 2))
    rng = random.Random(5)
    checked = 0
    for table in coh._enumerate_cochains(act, 2):
        if rng.random() > 0.05 and tuple(table) not in z2:
            continue  # all cocycles plus a 5% sample of the rest
        f = dict(zip(coh.positions(act, 2), table))
        direct = all(
            int(R.mul[act.apply(g, f[(h, l)]), f[(g, G.op(h, l))]])
            == int(R.mul[f[(G.op(g, h), l)], f[(g, h)]])
            for g in range(3) for h in range(3) for l in range(3))
        assert direct == (tuple(table) in z2)
        checked += 1
    assert checked >= 27


# ---------------------------------------------------- batched delta kernel

KERNEL_INSTANCES = ("E0", "E1", "E2", "E3", "N1", "f4c4", "f8c3", "f2c6g")


def _instance(name, stress_action):
    return fixtures.fixture(name) if name[0] in "EN" else stress_action(name)


def _kernel_arities(act):
    return [n for n in range(4) if n < 3 or act.group.order ** 4 <= 256]


def _generator_tables(act, n):
    """The identity n-cochain with one position moved to a generator of
    its corner's unit group, one table per (position, generator)."""
    space = coh._space(act, n)
    ident = space.corners
    out = []
    for i, pres in enumerate(space.presentations):
        for g in pres.generators:
            table = ident.copy()
            table[i] = g
            out.append(table)
    return np.array(out, dtype=np.int64).reshape(-1, len(ident))


def _scalar_images(act, n, tables):
    return np.array([coh.coboundary(act, coh.Cochain(act, n, t)).values
                     for t in tables],
                    dtype=np.int64).reshape(-1, act.group.order ** (n + 1))


@pytest.mark.parametrize("name", KERNEL_INSTANCES)
def test_delta_batch_matches_scalar_coboundary(name, stress_action):
    act = _instance(name, stress_action)
    rng = random.Random(17)
    for n in _kernel_arities(act):
        gens = _generator_tables(act, n)
        assert np.array_equal(coh._delta_batch(act, n, gens),
                              _scalar_images(act, n, gens))
        assert np.array_equal(coh._generator_images(act, n)[0],
                              _scalar_images(act, n, gens))
        rand = np.array([_random_cochain(act, n, rng).values
                         for _ in range(50)])
        assert np.array_equal(coh._delta_batch(act, n, rand),
                              _scalar_images(act, n, rand))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_non_unit_at_negative_face_raises_on_both_paths(n):
    act = fixtures.fixture("E2")
    R = act.ring
    table = coh.identity_cochain(act, n).values
    table[0] = R.zero   # the corner at (1,..,1) is R: 0 is no unit there
    with pytest.raises(PreconditionError, match="no corner inverse"):
        for gs in coh.positions(act, n + 1):
            coh._delta_value(act, n, gs, table)
    with pytest.raises(PreconditionError, match="no corner inverse"):
        coh._delta_batch(act, n, table[None, :])


@pytest.mark.parametrize("name", KERNEL_INSTANCES)
def test_corners_match_corner_idem(name, stress_action):
    act = _instance(name, stress_action)
    for n in range(4):
        want = [scalar_corner_idem(act, gs) for gs in coh.positions(act, n)]
        assert coh._space(act, n).corners.tolist() == want
        assert [coh.corner_idem(act, gs)
                for gs in coh.positions(act, n)] == want


def test_generator_images_refuses_before_building_a_plan():
    # a fresh action, so nothing is cached on it yet
    act = dataclasses.replace(fixtures.fixture("E2"),   # |G^3| = 27
                              budgets=Budgets(structure_positions=26))
    with pytest.raises(BudgetError) as info:
        coh._generator_images(act, 2)
    assert info.value.budget == "structure-positions"
    # no face plan and no cochain-space record, of any arity
    assert [key for key in act._cache
            if key[0] in ("_face_plan", "_space")] == []


def _solve_one(basis_rows, target):
    """The per-target triangular solve, kept as the oracle."""
    v = list(target)
    rows = {next(i for i, x in enumerate(r) if x): r for r in basis_rows}
    out = [0] * len(basis_rows)
    for k, c in enumerate(sorted(rows)):
        r = rows[c]
        if v[c] % r[c]:
            raise DefectError("image vector outside kernel lattice")
        q = v[c] // r[c]
        out[k] = q
        v = [a - q * b for a, b in zip(v, r)]
    if any(v):
        raise DefectError("image vector outside kernel lattice")
    return out


@pytest.mark.parametrize("name", ["E3", "f4c4"])
def test_batched_solve_matches_per_target(name, stress_action):
    act = _instance(name, stress_action)
    rows_n, dom, cod = coh._delta_matrix(act, 3)
    mod_d = dom.moduli
    _, _, lam = groups.kernel_image_orders(rows_n, mod_d, cod.moduli)
    rows_prev, _, _ = coh._delta_matrix(act, 2)
    b_lat = intmat.RowLattice(mod_d, rows_prev)
    K, targets = lam.basis(), b_lat.basis()
    assert len(targets) > 0
    assert coh._solve_triangular(K, targets) == [
        _solve_one(K, t) for t in targets]
    # a unit vector outside the kernel lattice is refused by both
    units = ([int(i == j) for j in range(len(mod_d))]
             for i in range(len(mod_d)))
    outside = next(v for v in units if not lam.contains(v))
    with pytest.raises(DefectError):
        _solve_one(K, outside)
    with pytest.raises(DefectError):
        coh._solve_triangular(K, [outside])


# ---------------------------------------------------- orders (frozen)

FROZEN = {
    # name, n: (z, b, h)
    ("E0", 0): (1, 1, 1), ("E0", 1): (1, 1, 1), ("E0", 2): (1, 1, 1),
    ("E1", 0): (1, 1, 1), ("E1", 1): (1, 1, 1), ("E1", 2): (1, 1, 1),
    ("E1", 3): (1, 1, 1),
    ("E2", 0): (3, 1, 3), ("E2", 1): (3, 3, 1), ("E2", 2): (27, 27, 1),
    ("E3", 0): (3, 1, 3), ("E3", 1): (9, 9, 1), ("E3", 2): (2187, 2187, 1),
    ("N1", 0): (1, 1, 1), ("N1", 1): (1, 1, 1), ("N1", 2): (1, 1, 1),
}


@pytest.mark.parametrize("name,n", sorted(FROZEN))
def test_frozen_orders_enumeration(name, n):
    act = fixtures.fixture(name)
    grp = coh.cohomology_group(act, n, engine="enumerate")
    assert (grp.z_order, grp.b_order, grp.h_order) == FROZEN[(name, n)]


@pytest.mark.parametrize("name,n", sorted(FROZEN))
def test_frozen_orders_structure(name, n):
    act = fixtures.fixture(name)
    grp = coh.cohomology_group(act, n, engine="structure")
    assert (grp.z_order, grp.b_order, grp.h_order) == FROZEN[(name, n)]


def test_engines_agree_via_both():
    for name in ("E1", "E2", "E0", "E3"):
        act = fixtures.fixture(name)
        for n in (1, 2):
            grp = coh.cohomology_group(act, n, engine="both")
            assert grp.z_order == grp.b_order * grp.h_order


def test_h0_is_invariant_units():
    # H^0 = Z^0 = {x in U(R) : alpha_g(x·1_{g^-1}) = x·1_g}
    for name in ("E2", "E3"):
        act = fixtures.fixture(name)
        R = act.ring
        direct = [
            x for x in finring.units(R).elements
            if all(
                act.apply(g, x) == int(R.mul[x, act.one(g)])
                for g in range(act.group.order))]
        grp = coh.cohomology_group(act, 0)
        assert grp.z_order == len(direct)
        assert grp.h_order == len(direct)


def test_b_inside_z_all_fixtures():
    for name in ("E1", "E2", "E3"):
        act = fixtures.fixture(name)
        for n in (1, 2):
            z = set(coh._kernel_dfs(act, n))
            b = _image_set(act, n)
            assert b <= z


def _image_set(act, n):
    """B^n as the enumeration engine closes it, as a set of value tables."""
    return set(map(tuple, coh._image_rows(act, n).tolist()))


def _brute_coboundaries(act, n):
    """B^n by definition: delta c for every c in C^(n-1)."""
    return {coh.coboundary(act, coh.Cochain(act, n - 1, np.array(t))).value_tuple()
            for t in coh._enumerate_cochains(act, n - 1)}


@pytest.mark.parametrize("name,ns", [
    ("E2", (1, 2, 3)), ("E3", (1, 2)), ("f8c3", (1, 2))])
def test_image_closure_matches_coboundary_scan(name, ns, stress_action):
    act = fixtures.fixture(name) if name[0] == "E" else stress_action(name)
    for n in ns:
        assert _image_set(act, n) == _brute_coboundaries(act, n)


def test_image_closure_refuses_past_budget():
    act = dataclasses.replace(fixtures.fixture("E2"),   # |B^3| = 243
                              budgets=Budgets(materialize=100))
    with pytest.raises(BudgetError) as info:
        _image_set(act, 3)
    assert info.value.budget == "materialize"


def test_f8c3_h3_lex_least_in_seconds(stress_action):
    act = stress_action("f8c3")
    start = time.perf_counter()
    grp = coh.cohomology_group(act, 3)
    assert time.perf_counter() - start < 5.0
    assert grp.lex_least and grp.engine == "structure"
    assert (grp.z_order, grp.b_order, grp.h_order) == (16807, 16807, 1)
    # the one representative is the least member of B^3, the identity coset
    assert grp.representatives[0].value_tuple() == min(_image_set(act, 3))


# ---------------------------------------------------- lex-least oracle

CLOSURE_CAP = 50_000   # members of B^n x representatives the oracle closes


def _lex_least_row(rows: np.ndarray) -> tuple[int, ...]:
    """The lexicographically least row, as a tuple of ints."""
    idx = np.arange(len(rows))
    for col in range(rows.shape[1]):
        vals = rows[idx, col]
        idx = idx[vals == vals.min()]
        if len(idx) == 1:
            break
    return tuple(rows[idx[0]].tolist())


def _assert_descent_matches_closure(act, ns=(1, 2, 3)):
    """The structure engine's representatives against the least member of
    each coset rep·B^n, B^n closed member by member; returns how many
    groups were compared."""
    compared = 0
    for n in ns:
        grp = coh.cohomology_group(act, n, engine="structure")
        assert grp.lex_least
        if grp.b_order * max(1, len(grp.representatives)) > CLOSURE_CAP:
            continue
        b_rows = coh._image_rows(act, n)
        assert len(b_rows) == grp.b_order
        want = [_lex_least_row(act.ring.mul[list(rep.value_tuple()), b_rows])
                for rep in grp.representatives]
        assert [rep.value_tuple() for rep in grp.representatives] == want
        compared += 1
    return compared


@pytest.mark.parametrize("name", ["E0", "E1", "E2", "E3", "f8c3"])
def test_descent_matches_closure_on_fixtures(name, stress_action):
    act = fixtures.fixture(name) if name[0] == "E" else stress_action(name)
    assert _assert_descent_matches_closure(act) >= 2


# every n with 1 < |H^n| <= 8 whose closure fits CLOSURE_CAP
@pytest.mark.parametrize("ring_tag,group_spec,ns", [
    ("GF(3)", "C2", (1, 2, 3)),
    ("GF(3)", "C2*C2", (1, 2)),
    ("GF(3)", "C4", (1, 2, 3)),
    ("GF(5)", "C2", (1, 2, 3)),
    ("GF(5)", "C4", (1, 2)),
    ("GF(4;x^2+x+1)", "C3", (1, 2, 3)),
    ("GF(7)", "C3", (1, 2)),
    ("GF(7)", "C6", (1, 2)),
    ("GF(9;x^2+1)", "C2", (1, 2, 3)),
])
def test_descent_matches_closure_on_trivial_actions(ring_tag, group_spec, ns):
    act = _trivial_action(ring_tag, group_spec)
    for n in ns:
        assert 1 < coh.cohomology_group(act, n, engine="structure").h_order <= 8
    assert _assert_descent_matches_closure(act, ns) == len(ns)


@pytest.mark.parametrize("seed", range(20))
def test_descent_matches_closure_on_random_corners(seed):
    glob, _ = fixtures.random_global_instance(random.Random(seed),
                                              max_order=128)
    for e in idempotents(glob.ring):
        _assert_descent_matches_closure(restrict_global(glob, e))


def test_representatives_lex_least_enumeration():
    act = fixtures.fixture("E2")
    grp = coh.cohomology_group(act, 1, engine="enumerate")
    assert grp.lex_least
    assert len(grp.representatives) == grp.h_order
    rep = grp.representatives[0]
    # the identity coset's least element: B^1 contains the identity cochain,
    # whose value table starts with 1 = element index 5? comparison is by
    # raw index tuples, so just assert the rep really is minimal in its coset
    b = sorted(_image_set(act, 1))
    orbit = sorted(
        tuple(int(act.ring.mul[a, c]) for a, c in zip(rep.value_tuple(), bt))
        for bt in b)
    assert orbit[0] == rep.value_tuple()


def test_h_structure_presentation():
    act = fixtures.fixture("E2")
    g0 = coh.cohomology_group(act, 0)
    assert g0.invariant_factors == (3,)
    g1 = coh.cohomology_group(act, 1)
    assert g1.invariant_factors == ()


def test_arity3_consistency():
    # no independent oracle for H^3 here; check internal consistency and
    # cross-engine agreement instead
    act = fixtures.fixture("E2")
    grp = coh.cohomology_group(act, 3, engine="both")
    assert grp.z_order == grp.b_order * grp.h_order
    assert grp.b_order == 6561 // 27  # |C^2| / |Z^2|
    with pytest.raises(PreconditionError):
        coh.cohomology_group(act, 4)


# ---------------------------------------------------- classical oracles

def _trivial_action(ring_tag, group_spec):
    return trivial_partial_action(make_ring(ring_tag),
                                  groups.make_group(group_spec))


def _assert_distinct_classes(act, grp):
    assert len(grp.representatives) == grp.h_order
    for rep in grp.representatives:
        assert coh.is_cocycle(act, rep)
    if grp.n <= 2:   # the witness search is exhaustive over C^(n-1)
        for f, f2 in itertools.combinations(grp.representatives, 2):
            assert coh.cohomologous(act, f, f2) is None


# A trivial action of G on a field k gives ordinary group cohomology with
# coefficients in the cyclic group U(k) (Brown, GTM 87): H^n(C_m, Z/m) =
# Z/m for n >= 1, and H^n(C2 x C2, Z/2) = (Z/2)^(n+1) by Kunneth.  The
# enumeration engine joins in ("both") while its scans stay small.
@pytest.mark.parametrize("ring_tag,group_spec,n,want,engines", [
    ("GF(3)", "C2*C2", 1, (2, 2), ("both", "structure")),
    ("GF(3)", "C2*C2", 2, (2, 2, 2), ("both", "structure")),
    ("GF(3)", "C2*C2", 3, (2, 2, 2, 2), ("structure",)),
    ("GF(5)", "C4", 1, (4,), ("both", "structure")),
    ("GF(5)", "C4", 2, (4,), ("structure",)),
    ("GF(5)", "C4", 3, (4,), ("structure",)),
    ("GF(4;x^2+x+1)", "C3", 1, (3,), ("both", "structure")),
    ("GF(4;x^2+x+1)", "C3", 2, (3,), ("both", "structure")),
    ("GF(4;x^2+x+1)", "C3", 3, (3,), ("structure",)),
    ("GF(5)", "C4*C2", 2, (2, 2, 4), ("structure",)),
])
def test_trivial_action_matches_group_cohomology(ring_tag, group_spec, n,
                                                 want, engines):
    act = _trivial_action(ring_tag, group_spec)
    listings = {}
    for engine in engines:
        grp = coh.cohomology_group(act, n, engine=engine)
        assert grp.invariant_factors == want
        assert grp.h_order == math.prod(want) > 1
        _assert_distinct_classes(act, grp)
        listings[engine] = [rep.value_tuple() for rep in grp.representatives]
    # "both" returns the enumeration engine's group: both engines list the
    # classes by their value tables, whatever generators the Smith form picks
    if "both" in listings:
        assert listings["both"] == listings["structure"]


def test_structure_engine_smith_form_sees_only_torsion_columns(monkeypatch):
    # H^3(C2 x C2, Z/2) = (Z/2)^4 in a C^3 of 64 coordinates: the Smith
    # form gets at most log2|H| = 4 columns, not B's basis in Z's
    columns = []
    smith = intmat.smith_normal_form

    def spy(*args):
        columns.append(len(args[0][0]))
        return smith(*args)

    monkeypatch.setattr(intmat, "smith_normal_form", spy)
    grp = coh.cohomology_group(_trivial_action("GF(3)", "C2*C2"), 3,
                               engine="structure")
    assert grp.invariant_factors == (2, 2, 2, 2)
    assert columns and max(columns) <= math.floor(math.log2(grp.h_order))


def test_trivial_c2_cubed_h2_is_fast():
    # H^2(C2^3, Z/2) = (Z/2)^6: 64 classes, each listed once
    act = _trivial_action("GF(3)", "C2*C2*C2")
    start = time.perf_counter()
    grp = coh.cohomology_group(act, 2)
    assert time.perf_counter() - start < 2.0
    assert grp.invariant_factors == (2,) * 6
    assert len(grp.representatives) == grp.h_order == 64
    assert len({rep.value_tuple() for rep in grp.representatives}) == 64


def test_f4c5_h3_finishes():
    # GF(4)^5 under the 5-cycle, restricted to (1,1,1,1,0): B^3 is a
    # lattice in Z^256 whose Hermite form, without reduction mod the
    # moduli, grows entries of thousands of bits
    glob = fixtures.shift_global("GF(4;x^2+x+1)", 5)
    act = restrict_global(
        glob, element_from_components(glob.ring, (1, 1, 1, 1, 0)))
    start = time.perf_counter()
    grp = coh.cohomology_group(act, 3)
    assert time.perf_counter() - start < 10.0
    assert grp.h_order == 1 and grp.invariant_factors == ()


def _cyclic_closed_form(glob, n):
    """|H^n(<sigma>, M)| for M = U(R) under a cyclic global action, from
    the periodic resolution of a cyclic group (Brown, GTM 87, III.1):
    |ker N| / |{sigma(x)·x^-1}| for odd n and |M^G| / |N(M)| for even n,
    N the norm x -> prod_k sigma^k(x).  It reads the unit group and the
    sigma tables only, neither engine."""
    R, sig = glob.ring, glob.sigma
    units = finring.units(R)
    u = np.array(units.elements, dtype=np.int64)
    sigma = sig[1 % len(sig)]            # the generator, or 1 when G = C1
    norm = u
    for s in sig[1:]:
        norm = R.mul[norm, s[u]]
    if n % 2:
        inv = np.array([units.inv(x) for x in units.elements], dtype=np.int64)
        moved = np.unique(R.mul[sigma[u], inv])      # {sigma(x)·x^-1}
        return int((norm == R.one).sum()) // len(moved)
    return int((sigma[u] == u).sum()) // len(np.unique(norm))


def test_cyclic_global_actions_match_closed_form():
    rows = nontrivial = 0
    for seed in range(40):
        glob, _ = fixtures.random_global_instance(random.Random(seed),
                                                  max_order=512)
        act = as_partial(glob)
        for n in (1, 2, 3):
            if n == 3 and seed in (13, 35):
                continue   # about 4 s each
            h = coh.cohomology_group(act, n).h_order
            assert h == _cyclic_closed_form(glob, n), (seed, n)
            rows += 1
            nontrivial += h > 1
    assert (rows, nontrivial) == (118, 25)


# ---------------------------------------------------- witnesses

def test_cohomologous_reflexive():
    act = fixtures.fixture("E2")
    rng = random.Random(3)
    f = _random_cochain(act, 1, rng)
    eps = coh.cohomologous(act, f, f)
    assert eps is not None
    # witness must satisfy f = f·delta(eps)
    prod = coh.cochain_mul(f, coh.coboundary(act, eps))
    assert prod == f


def test_cohomologous_round_trip():
    act = fixtures.fixture("E2")
    rng = random.Random(4)
    eps0 = _random_cochain(act, 1, rng)
    f = coh.coboundary(act, eps0)  # a 2-coboundary
    ident = coh.identity_cochain(act, 2)
    eps = coh.cohomologous(act, f, ident)
    assert eps is not None
    assert coh.cochain_mul(ident, coh.coboundary(act, eps)) == f


def test_cohomologous_negative_conclusive():
    # on E2 take f in Z^1 and f' = f·(nontrivial non-coboundary shift)?
    # H^1 is trivial there, so instead take arities where C^0 search is
    # exhaustive: any two distinct cocycles ARE cohomologous on E2 (H^1=1);
    # a conclusive negative needs non-cohomologous inputs, so use E3 with
    # two 1-cochains differing outside B^1's reach
    act = fixtures.fixture("E3")
    z = coh._kernel_dfs(act, 1)
    b = _image_set(act, 1)
    assert set(z) == b  # H^1 trivial: every pair IS cohomologous
    f = coh.Cochain(act, 1, np.array(z[0], dtype=np.int64))
    f2 = coh.Cochain(act, 1, np.array(z[-1], dtype=np.int64))
    assert coh.cohomologous(act, f, f2) is not None
    # manufacture a non-cohomologous pair: a cocycle vs a non-cocycle
    # (delta·eps keeps cocycles cocycles, so no witness can exist)
    pos, corners, units = coh._position_data(act, 1)
    non = None
    for table in itertools.islice(coh._enumerate_cochains(act, 1), 200):
        if table not in set(z):
            non = coh.Cochain(act, 1, np.array(table, dtype=np.int64))
            break
    assert non is not None
    assert coh.cohomologous(act, f, non) is None


# ---------------------------------------------------- normalization

def test_normalize_1cocycle_identity_path():
    act = fixtures.fixture("E2")
    # every 1-cocycle is already normalized: f(1) = 1
    for table in coh._kernel_dfs(act, 1):
        f = coh.Cochain(act, 1, np.array(table, dtype=np.int64))
        assert coh.is_cocycle(act, f)
        assert f[(act.group.identity,)] == act.ring.one


def test_normalize_2cocycle_already_normalized():
    act = fixtures.fixture("E2")
    ident = coh.identity_cochain(act, 2)
    out, eps = coh.normalize_2cocycle(act, ident)
    assert out == ident
    assert eps == coh.identity_cochain(act, 1)


def test_normalize_2cocycle_round_trip():
    act = fixtures.fixture("E2")
    rng = random.Random(9)
    # pick eps0 with eps0(1) != 1 so delta(eps0) is an unnormalized cocycle
    _, _, units = coh._position_data(act, 1)
    for _ in range(50):
        vals = np.array([rng.choice(u) for u in units], dtype=np.int64)
        eps0 = coh.Cochain(act, 1, vals)
        f = coh.coboundary(act, eps0)
        if any(f[(act.group.identity, g)]
               != coh.corner_idem(act, (act.group.identity, g))
               for g in range(act.group.order)):
            break
    else:
        pytest.skip("no unnormalized coboundary found")
    tilde, eps = coh.normalize_2cocycle(act, f)
    # output is normalized and differs from f by delta(eps)
    G = act.group
    for g in range(G.order):
        assert tilde[(G.identity, g)] == coh.corner_idem(act, (G.identity, g))
        assert tilde[(g, G.identity)] == coh.corner_idem(act, (g, G.identity))
    assert coh.cochain_mul(tilde, coh.coboundary(act, eps)) == f
    # normalized forms are still cocycles
    assert coh.is_cocycle(act, tilde)


def test_normalize_all_z2_cocycles_e2():
    act = fixtures.fixture("E2")
    for table in coh._kernel_dfs(act, 2):
        f = coh.Cochain(act, 2, np.array(table, dtype=np.int64))
        tilde, eps = coh.normalize_2cocycle(act, f)
        assert coh.is_cocycle(act, tilde)
        assert coh.cochain_mul(tilde, coh.coboundary(act, eps)) == f


@pytest.mark.parametrize("name", ["E0", "E1", "E2", "N1"])
def test_normalize_2cocycle_needs_no_scan(name, monkeypatch):
    # the closed form eps(g) = f(g,1) normalizes every cocycle, each here
    # twisted by a random coboundary, without a scan of C^1
    act = fixtures.fixture(name)
    G = act.group
    rng = random.Random(21)

    def no_scan(*args):
        raise AssertionError("normalize_2cocycle scanned C^1")

    monkeypatch.setattr(coh, "_enumerate_cochains", no_scan)
    for table in coh._kernel_dfs(act, 2):
        f = coh.cochain_mul(coh.Cochain(act, 2, table), coh.coboundary(
            act, _random_cochain(act, 1, rng)))
        tilde, eps = coh.normalize_2cocycle(act, f)
        for g in range(G.order):
            for gs in ((G.identity, g), (g, G.identity)):
                assert tilde[gs] == coh.corner_idem(act, gs)
        assert coh.is_cocycle(act, tilde)
        assert coh.cochain_mul(tilde, coh.coboundary(act, eps)) == f
