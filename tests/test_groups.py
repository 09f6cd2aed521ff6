import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pargal import finring, groups, intmat
from pargal.errors import PreconditionError


def test_cyclic_and_product_construction():
    C3 = groups.make_group("C3")
    assert C3.order == 3 and C3.identity == 0
    assert C3.op(1, 2) == 0 and C3.inv(1) == 2
    K4 = groups.make_group("C2*C2")
    assert K4.order == 4
    assert all(K4.op(a, a) == K4.identity for a in range(4))
    C6 = groups.make_group("C2*C3")
    assert sorted(C6.elem_order(a) for a in range(6)) == [1, 2, 3, 3, 6, 6]


def test_bad_table_rejected():
    # 'multiplication' a*b = a on {0,1}: no two-sided identity
    with pytest.raises(ValueError):
        groups.make_group([[0, 0], [1, 1]])
    # identity present but associativity broken on 3 elements
    bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(ValueError):
        groups.make_group(bad)


def test_explicit_table_accepted():
    C2 = groups.make_group([[0, 1], [1, 0]])
    assert C2.order == 2 and C2.identity == 0


def _units(tag):
    """The unit group of a ring: its presentation and its product."""
    R = finring.make_ring(tag)
    U = finring.units(R)
    return groups.abelian_structure(U.elements, U.op, U.e), U.op


def _units_presentation(tag):
    return _units(tag)[0]


def test_abelian_structure_u_z6():
    pres = _units_presentation("Z6")
    assert pres.invariant_factors == (2,)
    assert pres.generators == (5,)


def test_abelian_structure_u_f4xf4():
    pres = _units_presentation("GF(4;x^2+x+1)*GF(4;x^2+x+1)")
    assert pres.invariant_factors == (3, 3)
    assert pres.order == 9


def test_abelian_structure_trivial():
    pres = groups.abelian_structure([0], lambda a, b: 0, 0)
    assert pres.invariant_factors == ()
    assert pres.order == 1


def test_abelian_structure_u_z15():
    # U(Z15) is C2 x C4
    pres = _units_presentation("Z15")
    assert pres.invariant_factors == (2, 4)


def test_abelian_structure_u_z16():
    # U(Z16) is C2 x C4
    pres = _units_presentation("Z16")
    assert pres.invariant_factors == (2, 4)


def test_noncommutative_oracle_rejected():
    S3 = [[0, 1, 2, 3, 4, 5],
          [1, 0, 4, 5, 2, 3],
          [2, 5, 0, 4, 3, 1],
          [3, 4, 5, 0, 1, 2],
          [4, 3, 1, 2, 5, 0],
          [5, 2, 3, 1, 0, 4]]
    G = groups.make_group(S3)  # valid group, but not abelian
    with pytest.raises(PreconditionError, match="commutative"):
        groups.abelian_structure(range(6), G.op, G.identity)


@given(st.sampled_from(["Z5", "Z7", "Z8", "Z12", "Z9", "Z21",
                        "GF(9;x^2+1)", "Z4*Z3"]))
def test_dlog_round_trip(tag):
    # x is built from the generators with the group law; its coordinates
    # come back from coords_of, and by_coords (mixed radix) finds it
    pres, op = _units(tag)
    seen = set()
    for flat, coords in enumerate(itertools.product(
            *[range(d) for d in pres.invariant_factors])):
        x = pres.identity
        for g, c in zip(pres.generators, coords):
            for _ in range(c):
                x = op(x, g)
        assert pres.coords_of(x) == coords
        assert pres.elements[pres.by_coords[flat]] == x
        seen.add(x)
    assert seen == set(pres.elements)


def _hom_orders(dom, cod, images):
    """Kernel and image orders of the homomorphism sending domain
    generator j to images[j], from its coordinate matrix."""
    A = [list(cod.coords_of(y)) for y in images]
    k, im, _ = groups.kernel_image_orders(
        A, list(dom.invariant_factors), list(cod.invariant_factors))
    return k, im


def test_hom_identity_on_c2():
    dom = _units_presentation("Z6")  # [2]
    assert _hom_orders(dom, dom, dom.generators) == (1, 2)


def test_hom_zero_on_33():
    dom = _units_presentation("GF(4;x^2+x+1)*GF(4;x^2+x+1)")  # [3,3]
    assert _hom_orders(dom, dom, [dom.identity, dom.identity]) == (9, 1)


def test_hom_squaring_on_c4():
    dom, op = _units("Z5")  # [4]
    g = dom.generators[0]
    assert _hom_orders(dom, dom, [op(g, g)]) == (2, 2)


def test_hom_rejects_order_violation():
    c2 = _units_presentation("Z6")       # [2]
    c4 = _units_presentation("Z5")       # [4]
    g4 = c4.generators[0]
    with pytest.raises(PreconditionError):
        _hom_orders(c2, c4, [g4])  # image of order 4 from order 2


@given(st.sampled_from(["Z8", "Z12", "Z15", "Z16", "Z24"]))
def test_kernel_times_image_is_domain_order(tag):
    dom, op = _units(tag)
    # squaring is always a homomorphism on an abelian group
    sq = [op(g, g) for g in dom.generators]
    k, im = _hom_orders(dom, dom, sq)
    assert k * im == dom.order
    # against brute force
    elems = dom.elements
    img = {op(x, x) for x in elems}
    ker = [x for x in elems if op(x, x) == dom.identity]
    assert (k, im) == (len(ker), len(img))


def _brute_kernel_image(A, dom_moduli, cod_moduli):
    kernel, image = 0, set()
    for x in itertools.product(*(range(d) for d in dom_moduli)):
        y = tuple(sum(c * row[j] for c, row in zip(x, A)) % e
                  for j, e in enumerate(cod_moduli))
        kernel += not any(y)
        image.add(y)
    return kernel, len(image)


@st.composite
def _homs(draw):
    """Mixed moduli in 2..15, at most 2,000 domain elements, and a matrix
    whose rows respect their generators' orders."""
    dom = draw(st.lists(st.integers(2, 15), max_size=4).filter(
        lambda m: math.prod(m) <= 2000))
    cod = draw(st.lists(st.integers(2, 15), max_size=4))
    A = [[draw(st.integers(-4, 4)) * (e // math.gcd(d, e)) for e in cod]
         for d in dom]
    return A, dom, cod


@given(_homs())
def test_kernel_image_orders_match_enumeration(hom):
    A, dom, cod = hom
    k, im, ker_lat = groups.kernel_image_orders(A, dom, cod)
    assert (k, im) == _brute_kernel_image(A, dom, cod)
    assert math.prod(dom) // ker_lat.covolume() == k


@given(_homs())
def test_kernel_covolume_from_elimination_matches_hermite(hom):
    # kernel_lattice reads its covolume off the elimination; the Hermite
    # basis, built on demand, has the product of its pivots
    A, dom, cod = hom
    lat = intmat.kernel_lattice(A, dom, cod)
    pivots = math.prod(row[c] for c, row in enumerate(lat.basis()))
    assert lat.covolume() == pivots


def test_kernel_image_orders_large_entries_fast():
    # the former Smith-normal-form kernel grew 19,000-bit entries here
    A = [[35, -20, 8, -18, -24], [-3, 24, 16, 9, 24],
         [-30, -6, -16, 9, 6], [-20, 21, 14, 3, 17]]
    dom, cod = [3, 5, 2, 12], [15, 12, 8, 9, 12]
    start = time.perf_counter()
    k, im, _ = groups.kernel_image_orders(A, dom, cod)
    assert time.perf_counter() - start < 1.0
    assert (k, im) == (1, 360) == _brute_kernel_image(A, dom, cod)


def test_kernel_image_orders_reduce_before_narrowing():
    # entries far past small moduli: reduced before the elimination,
    # whose int64 products they would overflow
    A = [[2 ** 40 + 3, 7 * 2 ** 35], [-(2 ** 33) - 1, 2 ** 36 + 14]]
    want = _brute_kernel_image([[a % 7 for a in r] for r in A], [7, 7], [7, 7])
    assert groups.kernel_image_orders(A, [7, 7], [7, 7])[:2] == want


def test_kernel_image_orders_huge_moduli():
    # past int64 range for the intermediate products: exact all the same
    big = 2 ** 40
    k, im, ker_lat = groups.kernel_image_orders([[2, 3]], [big], [big, big])
    assert (k, im) == (1, big)
    k, im, ker_lat = groups.kernel_image_orders([[2]], [big], [big])
    assert (k, im) == (2, big // 2)
    assert ker_lat.basis() == [[big // 2]]
