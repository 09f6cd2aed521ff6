"""The array forms of the axiom checks, ring tables and coordinate maps
against the scalar loops they replaced.

Each oracle below is the earlier loop implementation, kept verbatim in
spirit: the array code must give equal tables, equal validator reports
(violations, witnesses and counts, in the same order) and the same first
error message.
"""
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from pargal import cli, cohomology, finring, fixtures, groups, partial_action
from pargal.config import build_action, build_tables, parse_config
from pargal.errors import PreconditionError
from pargal.partial_action import (Budgets, GlobalAction, ValidationReport,
                                   trivial_partial_action, validate)

ROOT = Path(__file__).resolve().parents[1]

# ------------------------------------------------------------ oracles


def scalar_additive_generators(ring, members):
    in_span = np.zeros(ring.order, dtype=bool)
    in_span[ring.zero] = True
    gens = []
    for m in [int(m) for m in members]:
        if in_span[m]:
            continue
        gens.append(m)
        current = np.nonzero(in_span)[0]
        while True:
            new = np.unique(ring.add[current, m])
            fresh = new[~in_span[new]]
            if fresh.size == 0:
                break
            in_span[fresh] = True
            current = np.nonzero(in_span)[0]
    return gens


def scalar_validate(ring, group, one_g, alpha):
    """The validator as one loop per axiom and per g, h, a, b."""
    col = partial_action._Collector()
    cap = partial_action._WITNESS_CAP
    nR, nG = ring.order, group.order
    one_g = np.asarray(one_g, dtype=np.int64)
    alpha = np.asarray(alpha, dtype=np.int64)
    if one_g.shape != (nG,) or alpha.shape != (nG, nR):
        col.hit("shape", {"one_g": one_g.shape, "alpha": alpha.shape},
                f"expected one_g ({nG},) and alpha ({nG}, {nR})")
        return col.report()
    if one_g.min() < 0 or one_g.max() >= nR or alpha.min() < -1 or alpha.max() >= nR:
        col.hit("shape", {}, "table entries out of element range")
        return col.report()
    inv = group.inverse_table
    gid = group.identity
    for g in range(nG):
        e = int(one_g[g])
        if int(ring.mul[e, e]) != e:
            col.hit("one-idempotent", {"g": g, "e": e}, "1_g is not idempotent")
    if int(one_g[gid]) != ring.one:
        col.hit("identity-component", {"g": gid, "e": int(one_g[gid])},
                "1_1 must be the ring identity")
    else:
        bad = np.nonzero(alpha[gid] != np.arange(nR))[0]
        if bad.size:
            col.hit("identity-component", {"g": gid, "r": int(bad[0])},
                    "alpha_1 must be the identity map", extra=int(bad.size) - 1)
    dom_ok = np.ones(nG, dtype=bool)
    for g in range(nG):
        e_in = int(one_g[inv[g]])
        in_dom = ring.mul[:, e_in] == np.arange(nR)
        defined = alpha[g] >= 0
        missing = np.nonzero(in_dom & ~defined)[0]
        spurious = np.nonzero(~in_dom & defined)[0]
        for r in missing[:cap]:
            col.hit("domain-definedness", {"g": g, "r": int(r)},
                    "alpha_g undefined on a member of D_{g^-1}")
        for r in spurious[:cap]:
            col.hit("domain-definedness", {"g": g, "r": int(r)},
                    "alpha_g defined outside D_{g^-1}")
        if missing.size or spurious.size:
            dom_ok[g] = False
    safe = np.where(alpha >= 0, alpha, ring.zero)
    ahat = np.empty((nG, nR), dtype=np.int64)
    for g in range(nG):
        ahat[g] = safe[g][ring.mul[:, one_g[inv[g]]]]
    for g in range(nG):
        if not dom_ok[g]:
            continue
        e_in, e_out = int(one_g[inv[g]]), int(one_g[g])
        members = np.nonzero(ring.mul[:, e_in] == np.arange(nR))[0]
        image = safe[g][members]
        out_members = ring.mul[:, e_out] == np.arange(nR)
        if (len(np.unique(image)) != len(members)
                or not out_members[image].all()
                or len(members) != int(out_members.sum())):
            col.hit("bijection", {"g": g},
                    "alpha_g is not a bijection from D_{g^-1} onto D_g")
            continue
        if int(safe[g][e_in]) != e_out:
            col.hit("unit-to-unit", {"g": g, "got": int(safe[g][e_in])},
                    "alpha_g(1_{g^-1}) != 1_g")
        gens = scalar_additive_generators(ring, members)
        for a in gens:
            lhs = safe[g][ring.add[a, members]]
            rhs = ring.add[safe[g][a], image]
            bad = np.nonzero(lhs != rhs)[0]
            if bad.size:
                col.hit("additive", {"g": g, "a": a, "b": int(members[bad[0]])},
                        "alpha_g(a+b) != alpha_g(a)+alpha_g(b)",
                        extra=int(bad.size) - 1)
        for a in gens:
            for b in gens:
                lhs = int(safe[g][ring.mul[a, b]])
                rhs = int(ring.mul[safe[g][a], safe[g][b]])
                if lhs != rhs:
                    col.hit("multiplicative", {"g": g, "a": a, "b": b},
                            "alpha_g(ab) != alpha_g(a)alpha_g(b)")
    for g in range(nG):
        for h in range(nG):
            lhs = int(ahat[g][one_g[h]])
            rhs = int(ring.mul[one_g[g], one_g[group.table[g, h]]])
            if lhs != rhs:
                col.hit("unital-compatibility", {"g": g, "h": h},
                        "alpha_g(1_h 1_{g^-1}) != 1_g 1_{gh}")
    for g in range(nG):
        eg = int(one_g[g])
        for h in range(nG):
            gh = int(group.table[g, h])
            lhs = ring.mul[ahat[g][ahat[h]], eg]
            rhs = ring.mul[ahat[gh], eg]
            bad = np.nonzero(lhs != rhs)[0]
            if bad.size:
                col.hit("composition", {"g": g, "h": h, "s": int(bad[0])},
                        "alpha_g . alpha_h and alpha_{gh} disagree",
                        extra=int(bad.size) - 1)
    for g in range(nG):
        if not (dom_ok[g] and dom_ok[inv[g]]):
            continue
        e_in = int(one_g[inv[g]])
        members = np.nonzero(ring.mul[:, e_in] == np.arange(nR))[0]
        back = safe[inv[g]][safe[g][members]]
        bad = np.nonzero(back != members)[0]
        if bad.size:
            col.hit("inverse-pairing", {"g": g, "r": int(members[bad[0]])},
                    "alpha_{g^-1}(alpha_g(r)) != r", extra=int(bad.size) - 1)
    return col.report()


def scalar_global_checks(ring, group, sigma):
    """GlobalAction's checks as loops; raises the first failure."""
    nR, nG = ring.order, group.order
    if sigma.shape != (nG, nR):
        raise ValueError("sigma tables have wrong shape")
    if not np.array_equal(sigma[group.identity], np.arange(nR)):
        raise ValueError("sigma_1 is not the identity")
    gens = scalar_additive_generators(ring, np.arange(nR))
    for g in range(nG):
        s = sigma[g]
        if sorted(s.tolist()) != list(range(nR)):
            raise ValueError(f"sigma_{g} is not a bijection")
        if int(s[ring.one]) != ring.one:
            raise ValueError(f"sigma_{g} moves the identity")
        for a in gens:
            if not np.array_equal(s[ring.add[a]], ring.add[s[a]][s]):
                raise ValueError(f"sigma_{g} is not additive")
            for b in gens:
                if int(s[ring.mul[a, b]]) != int(ring.mul[s[a], s[b]]):
                    raise ValueError(f"sigma_{g} is not multiplicative")
    for g in range(nG):
        for h in range(nG):
            gh = int(group.table[g, h])
            if not np.array_equal(sigma[g][sigma[h]], sigma[gh]):
                raise ValueError(f"sigma_{g} . sigma_{h} != sigma_{{gh}}")


def gather_product_ring(parts):
    """product_ring's tables by 2-D gathers over decoded digits."""
    n = int(np.prod([r.order for r in parts]))
    sizes = [r.order for r in parts]
    strides = [int(np.prod(sizes[i + 1:])) for i in range(len(parts))]
    idx = np.arange(n, dtype=np.int64)
    digs = [(idx // strides[i]) % sizes[i] for i in range(len(parts))]
    add = np.zeros((n, n), dtype=np.int64)
    mul = np.zeros((n, n), dtype=np.int64)
    for i, r in enumerate(parts):
        d = digs[i]
        add += strides[i] * r.add[d[:, None], d[None, :]]
        mul += strides[i] * r.mul[d[:, None], d[None, :]]
    zero = sum(strides[i] * parts[i].zero for i in range(len(parts)))
    one = sum(strides[i] * parts[i].one for i in range(len(parts)))
    names = tuple("(" + ",".join(parts[i].names[(a // strides[i]) % sizes[i]]
                                 for i in range(len(parts))) + ")"
                  for a in range(n))
    return add, mul, zero, one, names


def scalar_frobenius(ring):
    p, _ = ring.field_params
    return np.array([ring.elem_pow(a, p) for a in range(ring.order)],
                    dtype=np.int64)


def scalar_coords_of_table(table, pres, offsets, k):
    vec = [0] * k
    for i, p in enumerate(pres):
        c = p.coords_of(table[i])
        vec[offsets[i]:offsets[i] + len(c)] = list(c)
    return vec


# ------------------------------------------------------------ validate


def _same_report(a: ValidationReport, b: ValidationReport):
    assert a.violations == b.violations
    assert [repr(v.witness) for v in a.violations] \
        == [repr(v.witness) for v in b.violations]
    assert a.counts == b.counts
    assert str(a) == str(b)


def _mutants(action, sample=None, seed=0):
    muts = fixtures.single_site_mutations(action)
    if sample is None:
        return list(muts)
    total = sum(1 for _ in fixtures.single_site_mutations(action))
    keep = set(random.Random(seed).sample(range(total), sample))
    return [m for i, m in enumerate(muts) if i in keep]


@pytest.mark.parametrize("name", ["E0", "E1", "E2", "N1"])
def test_validate_matches_loops_on_every_single_site_mutant(name):
    act = fixtures.fixture(name)
    muts = _mutants(act)
    assert len(muts) >= 10
    for desc, one_g, alpha in muts:
        _same_report(validate(act.ring, act.group, one_g, alpha),
                     scalar_validate(act.ring, act.group, one_g, alpha))


@pytest.mark.parametrize("name", ["e3", "f2c6g"])
def test_validate_matches_loops_on_sampled_mutants(name, stress_action):
    act = stress_action(name)
    for desc, one_g, alpha in _mutants(act, sample=300, seed=7):
        _same_report(validate(act.ring, act.group, one_g, alpha),
                     scalar_validate(act.ring, act.group, one_g, alpha))


def test_validate_matches_loops_on_stacked_corruptions():
    # several broken sites at once: witness order across g, h, a, b matters
    act = fixtures.fixture("E2")
    rng = random.Random(5)
    R = act.ring
    for _ in range(150):
        one_g, alpha = act.one_g.copy(), act.alpha.copy()
        for _ in range(rng.randint(2, 6)):
            g, r = rng.randrange(act.group.order), rng.randrange(R.order)
            if rng.random() < 0.2:
                one_g[g] = rng.choice(finring.idempotents(R))
            else:
                alpha[g, r] = rng.randrange(-1, R.order)
        _same_report(validate(R, act.group, one_g, alpha),
                     scalar_validate(R, act.group, one_g, alpha))


def test_validate_shape_reports_match():
    act = fixtures.fixture("E1")
    for one_g, alpha in ((act.one_g[:2], act.alpha),
                         (act.one_g, act.alpha + 7)):
        _same_report(validate(act.ring, act.group, one_g, alpha),
                     scalar_validate(act.ring, act.group, one_g, alpha))


@pytest.mark.parametrize("desc", ["GF(2)*GF(2)*GF(2)", "Z6*GF(3)*Z4",
                                  "GF(4;x^2+x+1)*GF(4;x^2+x+1)*Z9",
                                  "GF(8;x^3+x+1)*GF(8;x^3+x+1)*GF(8;x^3+x+1)"])
def test_additive_generators_match_loops_on_every_ideal(desc):
    R = finring.make_ring(desc)
    rng = random.Random(3)
    for e in finring.idempotents(R):
        members = np.asarray(R.corner_members(e), dtype=np.int64)
        for order in (members, np.asarray(rng.sample(list(members),
                                                     len(members)))):
            assert list(partial_action._additive_generators(R, order)) \
                == scalar_additive_generators(R, order)


def test_additive_generators_cached_on_the_ring():
    R = finring.make_ring("GF(4;x^2+x+1)*GF(4;x^2+x+1)")
    members = np.arange(R.order)
    first = partial_action._additive_generators(R, members)
    assert list(first) == scalar_additive_generators(R, members)
    assert partial_action._additive_generators(R, tuple(range(R.order))) \
        is first
    other = finring.make_ring("GF(4;x^2+x+1)*GF(4;x^2+x+1)")
    assert partial_action._additive_generators(other, members) is not first


# ------------------------------------------------------------ GlobalAction


def _first_error(fn):
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


def _same_global_verdict(ring, group, sigma):
    want = _first_error(lambda: scalar_global_checks(ring, group, sigma))
    got = _first_error(lambda: GlobalAction(ring, group, sigma))
    assert got == want
    return got


def test_global_checks_match_loops_on_every_permutation_of_e0():
    # p runs over every bijection of GF(2)^3 fixing 0 and 1, placed as
    # sigma_1 (with sigma_2 = p^2 or the shift's sigma_2) or as sigma_2
    glob = fixtures.shift_global("GF(2)")
    R, G = glob.ring, glob.group
    ident, s1, s2 = glob.sigma
    rest = [x for x in range(R.order) if x not in (R.zero, R.one)]
    seen = set()
    for perm in itertools.permutations(rest):
        p = np.arange(R.order)
        p[rest] = perm
        for sigma in ((ident, p, p[p]), (ident, p, s2), (ident, s1, p)):
            seen.add(_same_global_verdict(R, G, np.stack(sigma)))
    assert seen == {None, "sigma_1 is not additive",
                    "sigma_1 is not multiplicative",
                    "sigma_1 . sigma_1 != sigma_{gh}",
                    "sigma_1 . sigma_2 != sigma_{gh}",
                    "sigma_2 is not additive",
                    "sigma_2 is not multiplicative"}


@pytest.mark.parametrize("tag", ["GF(4;x^2+x+1)", "Z4"])
def test_global_checks_match_loops_on_corrupted_sigma(tag):
    glob = fixtures.shift_global(tag)
    R, G = glob.ring, glob.group
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        sigma = glob.sigma.copy()
        g = rng.randrange(1, G.order)
        kind = rng.randrange(4)
        if kind == 0:      # swap two images: usually breaks additivity
            i, j = rng.sample(range(R.order), 2)
            sigma[g, [i, j]] = sigma[g, [j, i]]
        elif kind == 1:    # not a bijection
            sigma[g, rng.randrange(R.order)] = rng.randrange(R.order)
        elif kind == 2:    # a valid automorphism in the wrong place
            sigma[g] = glob.sigma[rng.randrange(G.order)]
        else:              # an additive shear fixing 1
            a = rng.randrange(R.order)
            sigma[g] = R.add[sigma[g], R.mul[sigma[g], a]]
        seen.add(_same_global_verdict(R, G, sigma))
    assert len(seen) >= 4


def test_global_checks_shape_and_identity_messages():
    glob = fixtures.shift_global("GF(2)")
    R, G = glob.ring, glob.group
    assert _same_global_verdict(R, G, glob.sigma[:2]) \
        == "sigma tables have wrong shape"
    bad = glob.sigma.copy()
    bad[0, [1, 2]] = bad[0, [2, 1]]
    assert _same_global_verdict(R, G, bad) == "sigma_1 is not the identity"
    moved = glob.sigma.copy()
    moved[1] = np.roll(np.arange(R.order), 1)
    assert _same_global_verdict(R, G, moved) == "sigma_1 moves the identity"


# ------------------------------------------------------------ ring tables


@pytest.mark.parametrize("desc", [
    "Z6*GF(3)*Z4",
    "GF(2)*GF(2)*GF(2)*GF(2)*GF(2)*GF(2)",
    "GF(4;x^2+x+1)*GF(4;x^2+x+1)*GF(4;x^2+x+1)*GF(4;x^2+x+1)",
    "GF(8;x^3+x+1)*GF(8;x^3+x+1)*GF(8;x^3+x+1)",
])
def test_product_ring_matches_gather_formula(desc):
    R = finring.make_ring(desc)
    add, mul, zero, one, names = gather_product_ring(R.components)
    assert np.array_equal(R.add, add) and np.array_equal(R.mul, mul)
    assert (R.zero, R.one, R.names) == (zero, one, names)
    assert R.add.dtype == np.int64 and R.mul.dtype == np.int64


def test_make_ring_builds_each_component_once():
    R = finring.make_ring("GF(8;x^3+x+1)*Z2*GF(8;x^3+x+1)*GF(8;x^3+x+1)")
    a, z, b, c = R.components
    assert a is b is c and a is not z


@pytest.mark.parametrize("desc", ["GF(4;x^2+x+1)", "GF(8;x^3+x+1)",
                                  "GF(9;x^2+1)", "GF(16;x^4+x+1)"])
def test_frobenius_table_matches_elem_pow(desc):
    F = finring.make_ring(desc)
    assert np.array_equal(finring.frobenius_table(F), scalar_frobenius(F))


# ------------------------------------------------------------ delta matrix


def _old_rows(action, n):
    images, _, cod = cohomology._generator_images(action, n)
    _, _, pres_c, mod_c, off_c = cod
    return [scalar_coords_of_table(img, pres_c, off_c, len(mod_c))
            for img in images.tolist()]


@pytest.mark.parametrize("name", ["e2", "e3", "f4c4", "f8c3"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_matrix_rows_match_dict_lookups(name, n, stress_action):
    act = stress_action(name)
    rows = cohomology._delta_matrix(act, n)[0]
    assert rows.dtype == np.int64
    assert rows.tolist() == _old_rows(act, n)


def test_delta_matrix_rows_on_trivial_c2_cubed_over_gf3():
    act = trivial_partial_action(finring.make_ring("GF(3)"),
                                 groups.make_group("C2*C2*C2"))
    assert cohomology._delta_matrix(act, 2)[0].tolist() == _old_rows(act, 2)


def test_coord_table_agrees_with_coords_of():
    R = finring.make_ring("Z9*GF(4;x^2+x+1)")
    cu = finring.units(R)
    pres = groups.abelian_structure(cu.elements, cu.op, R.one)
    table = pres.coord_table
    for x in range(table.shape[0]):
        want = pres.dlog.get(x)
        assert tuple(table[x]) == (want if want is not None
                                   else (-1,) * len(pres.invariant_factors))


# ------------------------------------------------------------ one action


def test_cohomology_report_validates_the_action_once(monkeypatch, capsys):
    calls = []
    real = partial_action.validate

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(partial_action, "validate", counting)
    monkeypatch.chdir(ROOT)
    assert cli.main(["cohomology", "--n", "1", "--config",
                     "perfbench/configs/e3.ini"]) == 0
    assert len(calls) == 1


def test_build_tables_returns_the_action_with_tag_and_budgets():
    budgets = Budgets().capped(10)
    for name, tag in (("e1", "GF(2)*GF(2)*GF(2)/C3/generator"),
                      ("e3", "GF(4;x^2+x+1)*GF(4;x^2+x+1)*GF(4;x^2+x+1)"
                             "/C3/generator"),
                      ("n1", "GF(2)/C2/trivial")):
        cfg = parse_config((ROOT / f"perfbench/configs/{name}.ini").read_text())
        ring, group, one_g, alpha, act = build_tables(cfg, budgets)
        assert (act.ring, act.group) == (ring, group)
        assert act.one_g is one_g and act.alpha is alpha
        assert (act.tag, act.budgets) == (tag, budgets)
        assert build_action(cfg).budgets == Budgets()


def test_build_tables_leaves_raw_tables_unbuilt():
    cfg = parse_config("[ring]\ndescriptor = GF(2)*GF(2)\n[group]\n"
                       "descriptor = C2\n[action]\nkind = tables\n"
                       "one_g = 3,3\nalpha = 0,1,2,3\n  0,2,1,3\n")
    ring, group, one_g, alpha, act = build_tables(cfg)
    assert act is None and alpha.shape == (2, 4)
    assert build_action(cfg).tag == "GF(2)*GF(2)/C2/tables"


# ------------------------------------------------- cochain unit check


def scalar_unit_error(action, n, values):
    """The per-position loop Cochain used: the first value, in lex order,
    that is not a unit of its position's corner, as the error text."""
    inv_map, _ = cohomology._machinery(action)
    names = action.ring.names
    for flat, gs in enumerate(cohomology.positions(action, n)):
        e = cohomology.corner_idem(action, gs)
        v = int(values[flat])
        if inv_map[e][v] < 0:
            return (f"value {names[v]} at {gs} is not a unit "
                    f"of the corner at {names[e]}")
    return None


def _unit_error(action, n, values):
    try:
        cohomology.Cochain(action, n, values)
    except PreconditionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", ["E0", "E1", "E2", "E3"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_cochain_unit_check_matches_loop(name, n):
    act = fixtures.fixture(name)
    base = cohomology.identity_cochain(act, n).values
    size, nR = len(base), act.ring.order
    # every single corrupted position, then seeded multi-site corruptions
    cases = []
    for p, r in itertools.product(range(size), range(nR)):
        vals = base.copy()
        vals[p] = r
        cases.append(vals)
    rng = np.random.default_rng(size * nR)
    for _ in range(200):
        vals = base.copy()
        at = rng.choice(size, size=min(size, 3), replace=False)
        vals[at] = rng.integers(0, nR, size=len(at))
        cases.append(vals)
    errors = 0
    for vals in cases:
        want = scalar_unit_error(act, n, vals)
        assert _unit_error(act, n, vals) == want
        errors += want is not None
    assert errors
