import math
import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, strategies as st

from pargal import cohomology as coh
from pargal import fixtures, intmat


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _as_sympy(rows):
    return sympy.Matrix(rows)


small_mats = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m)))


@given(small_mats)
def test_snf_factorisation_and_divisibility(rows):
    m, n = len(rows), len(rows[0])
    diag, U, V, Uinv, Vinv = intmat.smith_normal_form(rows)
    S = _mat_mul(_mat_mul(U, rows), V)
    for i in range(m):
        for j in range(n):
            want = diag[i] if i == j and i < len(diag) else 0
            assert S[i][j] == want
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    assert all(d >= 0 for d in diag)
    # U * Uinv = I and V * Vinv = I
    I = _mat_mul(U, Uinv)
    assert I == [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    J = _mat_mul(V, Vinv)
    assert J == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # invariant factors match sympy's
    ours = sorted(d for d in diag if d > 1)
    sm = sympy_snf(_as_sympy(rows))
    theirs = sorted(abs(int(d)) for d in sm.diagonal()
                    if abs(int(d)) not in (0, 1))
    assert theirs == ours


@given(small_mats, st.lists(st.integers(2, 12), min_size=5, max_size=5))
def test_kernel_lattice_annihilates(rows, moduli):
    # every domain order a multiple of every codomain order: any A is valid
    cod = moduli[:len(rows[0])]
    d = math.lcm(*cod)
    lat = intmat.kernel_lattice(rows, [d] * len(rows), cod)
    assert lat.rank() == len(rows)
    for i in range(len(rows)):
        assert lat.contains([d if j == i else 0 for j in range(len(rows))])
    for x in lat.basis():
        assert len(x) == len(rows)
        image = intmat.mat_vec(intmat.transpose(rows), x)
        assert all(y % e == 0 for y, e in zip(image, cod))


def _snf_kernel_lattice(A, dom_moduli, cod_moduli):
    """Reference: the integer kernel of A stacked over diag(e), read off
    a Smith normal form, plus the domain moduli."""
    kd, kc = len(dom_moduli), len(cod_moduli)
    lat = intmat.RowLattice(kd)
    for i, d in enumerate(dom_moduli):
        lat.add([d if j == i else 0 for j in range(kd)])
    if kc == 0:
        for row in intmat.eye(kd):
            lat.add(row)
        return lat
    stacked = [list(r) for r in A] + [
        [e if j == i else 0 for j in range(kc)] for i, e in enumerate(cod_moduli)]
    diag, _, V, _, _ = intmat.smith_normal_form(intmat.transpose(stacked))
    rank = sum(1 for x in diag if x)
    for j in range(rank, kd + kc):
        lat.add([V[r][j] for r in range(kd)])
    return lat


@pytest.mark.parametrize("name", ["E2", "E3", "f4c4", "f8c3"])
def test_kernel_lattice_matches_snf_on_delta(name, stress_action):
    act = fixtures.fixture(name) if name[0] == "E" else stress_action(name)
    for n in (0, 1, 2):
        rows, dom, cod = coh._delta_matrix(act, n)
        got = intmat.kernel_lattice(rows, dom[3], cod[3])
        assert got.basis() == _snf_kernel_lattice(rows, dom[3], cod[3]).basis()


def test_row_lattice_membership_and_covolume():
    lat = intmat.RowLattice(3)
    assert lat.add([2, 0, 0])
    assert lat.add([0, 3, 1])
    assert not lat.add([2, 3, 1])
    assert lat.contains([4, 3, 1])
    assert not lat.contains([1, 0, 0])
    assert lat.covolume() == 0  # rank 2 < 3
    assert lat.add([0, 0, 5])
    assert lat.covolume() == 2 * 3 * 5


def test_row_lattice_residue_is_canonical():
    rng = random.Random(7)
    lat = intmat.RowLattice(4)
    vecs = [[rng.randrange(-6, 7) for _ in range(4)] for _ in range(6)]
    for v in vecs:
        lat.add(v)
    for _ in range(200):
        v = [rng.randrange(-20, 21) for _ in range(4)]
        r = lat.residue(v)
        assert lat.contains([a - b for a, b in zip(v, r)])
        assert lat.residue([a + b for a, b in
                            zip(v, lat.basis()[rng.randrange(lat.rank())])]) == r


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-30, 30), min_size=n, max_size=n), max_size=8)))
def test_row_lattice_bulk_matches_row_by_row(rows):
    n = len(rows[0]) if rows else 3
    one_by_one = intmat.RowLattice(n)
    for r in rows:
        one_by_one.add(r)
    bulk = intmat.RowLattice(n, rows)
    assert bulk.basis() == one_by_one.basis()
    assert bulk.covolume() == one_by_one.covolume()


def test_row_lattice_full_integer_lattice():
    lat = intmat.RowLattice(2)
    lat.add([1, 0])
    lat.add([0, 1])
    assert lat.covolume() == 1
    assert lat.residue([17, -5]) == (0, 0)


@pytest.mark.parametrize("rows,want", [
    ([[2, 4], [6, 8]], [2, 4]),     # det 8-24=-16, gcd 2 -> 2,8? no: SNF of [[2,4],[6,8]]
    ([[1, 0], [0, 1]], [1, 1]),
    ([[0, 0], [0, 0]], [0, 0]),
])
def test_snf_small_cases(rows, want):
    diag, *_ = intmat.smith_normal_form(rows)
    if rows == [[2, 4], [6, 8]]:
        # d1 = gcd of entries = 2; d1*d2 = |det| = 8
        assert diag == [2, 4]
    else:
        assert diag == want
