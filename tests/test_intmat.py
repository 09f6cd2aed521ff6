import math
import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings, strategies as st

from pargal import cohomology as coh
from pargal import fixtures, groups, intmat


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _as_sympy(rows):
    return sympy.Matrix(rows)


small_mats = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m)))


@given(small_mats, st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 30, 36, 64]))
def test_snf_factorisation_and_divisibility(rows, modulus):
    k = len(rows[0])
    diag, V, Vinv = intmat.smith_normal_form(rows, modulus)
    # the invariant factors of Z^k / (span(rows) + modulus·Z^k), in order
    stacked = rows + [[modulus if j == i else 0 for j in range(k)]
                      for i in range(k)]
    assert diag == [abs(int(d)) for d in sympy_snf(_as_sympy(stacked)).diagonal()]
    # V and Vinv are reduced and inverse to each other mod the modulus
    assert all(0 <= x < modulus for row in V + Vinv for x in row)
    assert [[x % modulus for x in row] for row in _mat_mul(V, Vinv)] == [
        [int(i == j) % modulus for j in range(k)] for i in range(k)]
    # every relation maps to 0 in (+) Z/d_j under x -> x·V
    for row in _mat_mul(rows, V):
        assert all(x % d == 0 for x, d in zip(row, diag))


def _exact_smith_transform(mat):
    """Oracle: the column transform V of an exact Smith form mat·V =
    W·diag over Z, W unimodular, by the smallest nonzero entry of the
    remaining block as pivot, on unreduced ints; returns (diag, V)."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    S = [[int(x) for x in row] for row in mat]
    V = intmat.eye(n)

    def col_add(j, i, c):  # col j += c * col i
        for M in (S, V):
            for row in M:
                row[j] += c * row[i]

    def col_swap(i, j):
        for M in (S, V):
            for row in M:
                row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        cells = [(abs(S[i][j]), i, j) for i in range(t, m)
                 for j in range(t, n) if S[i][j]]
        if not cells:
            break
        _, pi, pj = min(cells)
        S[t], S[pi] = S[pi], S[t]
        col_swap(t, pj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    S[i] = [a - q * b for a, b in zip(S[i], S[t])]
                    if S[i][t]:
                        S[t], S[i] = S[i], S[t]
                        dirty = True
            for j in range(t + 1, n):
                if S[t][j]:
                    col_add(j, t, -(S[t][j] // S[t][t]))
                    if S[t][j]:
                        col_swap(t, j)
                        dirty = True
        # the pivot must divide the rest of the block, else absorb a bad row
        bad = next((i for i in range(t + 1, m)
                    if any(x % S[t][t] for x in S[i][t + 1:])), None)
        if bad is not None:
            S[t] = [a + b for a, b in zip(S[t], S[bad])]
            continue
        t += 1
    return [abs(S[i][i]) for i in range(min(m, n))], V


class PlainRowLattice:
    """Oracle: the Hermite basis of span(rows) inside Z^n by echelon
    insertion over Z with no reduction, so entries may grow; possibly of
    deficient rank."""

    def __init__(self, n, rows=()):
        self.n = n
        self.pivot_rows = {}  # pivot column -> row
        for r in rows:
            self.add(r)

    def add(self, row):
        v = [int(x) for x in row]
        while True:
            c = next((i for i, x in enumerate(v) if x), None)
            if c is None:
                break
            b = self.pivot_rows.get(c)
            if b is None:
                self.pivot_rows[c] = v if v[c] > 0 else [-x for x in v]
                break
            q = v[c] // b[c]
            v = [x - q * y for x, y in zip(v, b)]
            if v[c]:
                # remainder is smaller: swap roles and keep reducing
                self.pivot_rows[c], v = v, b
        # reduce entries above each pivot into [0, pivot)
        cols = sorted(self.pivot_rows)
        for idx, c in enumerate(cols):
            b = self.pivot_rows[c]
            for c2 in cols[idx + 1:]:
                b2 = self.pivot_rows[c2]
                q = b[c2] // b2[c2]
                if q:
                    self.pivot_rows[c] = b = [x - q * y for x, y in zip(b, b2)]

    def residue(self, row):
        v = [int(x) for x in row]
        for c in sorted(self.pivot_rows):
            b = self.pivot_rows[c]
            q = v[c] // b[c]
            v = [x - q * y for x, y in zip(v, b)]
        return tuple(v)

    def covolume(self):
        if len(self.pivot_rows) < self.n:
            return 0
        return math.prod(row[c] for c, row in self.pivot_rows.items())

    def basis(self):
        return [self.pivot_rows[c] for c in sorted(self.pivot_rows)]


def _plain_with_moduli(moduli, rows):
    n = len(moduli)
    return PlainRowLattice(n, [*([m if j == i else 0 for j in range(n)]
                                 for i, m in enumerate(moduli)), *rows])


@given(small_mats, st.lists(st.integers(2, 12), min_size=5, max_size=5))
def test_kernel_lattice_annihilates(rows, moduli):
    # every domain order a multiple of every codomain order: any A is valid
    cod = moduli[:len(rows[0])]
    d = math.lcm(*cod)
    lat = intmat.kernel_lattice(rows, [d] * len(rows), cod)
    assert len(lat.basis()) == len(rows)
    for i in range(len(rows)):
        assert lat.contains([d if j == i else 0 for j in range(len(rows))])
    for x in lat.basis():
        assert len(x) == len(rows)
        image = [sum(a * b for a, b in zip(col, x)) for col in zip(*rows)]
        assert all(y % e == 0 for y, e in zip(image, cod))


def _snf_kernel_lattice(A, dom_moduli, cod_moduli):
    """Reference: the integer kernel of A stacked over diag(e), read off
    a Smith normal form, plus the domain moduli."""
    kd, kc = len(dom_moduli), len(cod_moduli)
    if kc == 0:
        return _plain_with_moduli(dom_moduli, intmat.eye(kd))
    stacked = [list(r) for r in A] + [
        [e if j == i else 0 for j in range(kc)] for i, e in enumerate(cod_moduli)]
    diag, V = _exact_smith_transform([list(c) for c in zip(*stacked)])
    rank = sum(1 for x in diag if x)
    return _plain_with_moduli(dom_moduli, (
        [V[r][j] for r in range(kd)] for j in range(rank, kd + kc)))


@st.composite
def _mid_moduli_homs(draw):
    """Moduli in [2**15, 2**30), the elimination's int64 range: every
    codomain modulus divides the domain modulus m, so any matrix is a
    homomorphism; entries run past int32 before reduction."""
    m = draw(st.integers(2 ** 15 // 36 + 1, (2 ** 30 - 1) // 36)) * 36
    k = draw(st.integers(1, 3))
    cod = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 9, 12, 36]),
                        min_size=1, max_size=3))
    cod = [m // t for t in cod]
    A = draw(st.lists(st.lists(st.integers(-2 ** 40, 2 ** 40),
                               min_size=len(cod), max_size=len(cod)),
                      min_size=k, max_size=k))
    return A, [m] * k, cod


@given(_mid_moduli_homs())
def test_kernel_lattice_on_mid_moduli(hom):
    # the index of the kernel is the order of the image, prod(e) over the
    # covolume of span(A) + (+) e_j Z, read off sympy's Smith form; a
    # sublattice of the kernel with that covolume is the kernel
    A, dom, cod = hom
    lat = intmat.kernel_lattice(A, dom, cod)
    basis = lat.basis()
    pivots = math.prod(row[c] for c, row in enumerate(basis))
    stacked = [[a % e for a, e in zip(r, cod)] for r in A] + [
        [e if j == i else 0 for j in range(len(cod))]
        for i, e in enumerate(cod)]
    sm = sympy_snf(_as_sympy(stacked))
    image = math.prod(cod) // abs(math.prod(sm[i, i] for i in range(len(cod))))
    assert lat.covolume() == pivots == image
    for x in basis:
        assert all(sum(c * r[j] for c, r in zip(x, A)) % e == 0
                   for j, e in enumerate(cod))


@pytest.mark.parametrize("name", ["E2", "E3", "f4c4", "f8c3"])
def test_kernel_lattice_matches_snf_on_delta(name, stress_action):
    act = fixtures.fixture(name) if name[0] == "E" else stress_action(name)
    for n in (0, 1, 2):
        rows, dom, cod = coh._delta_matrix(act, n)
        got = intmat.kernel_lattice(rows, dom.moduli, cod.moduli)
        assert got.basis() == _snf_kernel_lattice(
            rows, dom.moduli, cod.moduli).basis()


def test_row_lattice_membership_and_covolume():
    # 2·(0,3,1) - (0,6,0) = (0,0,2) joins (0,0,10)
    lat = intmat.RowLattice([4, 6, 10], [[0, 3, 1]])
    assert lat.basis() == [[4, 0, 0], [0, 3, 1], [0, 0, 2]]
    assert lat.contains([4, 3, 1])
    assert lat.contains([8, 9, 5])
    assert not lat.contains([1, 0, 0])
    assert not lat.contains([0, 3, 0])
    assert lat.covolume() == 4 * 3 * 2
    assert intmat.RowLattice([]).covolume() == 1


def test_row_lattice_residue_is_canonical():
    rng = random.Random(7)
    moduli = [4, 6, 9, 8]
    vecs = [[rng.randrange(-6, 7) for _ in range(4)] for _ in range(3)]
    lat = intmat.RowLattice(moduli, vecs)
    for _ in range(200):
        v = [rng.randrange(-20, 21) for _ in range(4)]
        r = lat.residue(v)
        assert all(0 <= x < b[c] for c, (x, b) in
                   enumerate(zip(r, lat.basis())))
        assert lat.contains([a - b for a, b in zip(v, r)])
        assert lat.residue([a + b for a, b in
                            zip(v, lat.basis()[rng.randrange(4)])]) == r


def _assert_matches_plain(moduli, rows, probes):
    lat = intmat.RowLattice(moduli, rows)
    plain = _plain_with_moduli(moduli, rows)
    assert lat.basis() == plain.basis()
    assert lat.covolume() == plain.covolume()
    for v in probes:
        assert lat.residue(v) == plain.residue(v)


# moduli rich in common divisors, so that inserted rows meet pivots
# other than the moduli rows and the extended-gcd steps matter
@settings(max_examples=400)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([1, 4, 8, 9, 12, 16, 27, 36]),
             min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-99, 99), min_size=n, max_size=n),
             max_size=6),
    st.lists(st.lists(st.integers(-99, 99), min_size=n, max_size=n),
             max_size=4))))
def test_row_lattice_bulk_matches_row_by_row(case):
    # modular insertion of all rows at once against the plain lattice
    # built row by row over Z from the moduli rows and the same rows
    _assert_matches_plain(*case)


@pytest.mark.parametrize("name", ["E3", "f4c4", "f8c3"])
def test_row_lattice_matches_plain_on_h3_lattices(name, stress_action):
    act = fixtures.fixture(name) if name[0] == "E" else stress_action(name)
    rows_n, dom, cod = coh._delta_matrix(act, 3)
    rows_prev, _, _ = coh._delta_matrix(act, 2)
    mod_d = dom.moduli
    _, _, lam = groups.kernel_image_orders(rows_n, mod_d, cod.moduli)
    rng = random.Random(5)
    probes = [[rng.randrange(-50, 50) for _ in mod_d] for _ in range(20)]
    _assert_matches_plain(mod_d, rows_prev, probes)   # B^3
    _assert_matches_plain(mod_d, lam.basis(), probes)  # Z^3


def test_row_lattice_full_integer_lattice():
    lat = intmat.RowLattice([5, 7], [[1, 0], [0, 1]])
    assert lat.covolume() == 1
    assert lat.residue([17, -5]) == (0, 0)
    assert intmat.RowLattice([1, 1]).basis() == [[1, 0], [0, 1]]


@pytest.mark.parametrize("rows,modulus,want", [
    ([[2, 4], [6, 8]], 16, [2, 4]),
    ([[1, 0], [0, 1]], 5, [1, 1]),
    ([[0, 0], [0, 0]], 6, [6, 6]),
    ([[4, 6]], 8, [2, 8]),
    ([[5, 7]], 1, [1, 1]),
])
def test_snf_small_cases(rows, modulus, want):
    diag, *_ = intmat.smith_normal_form(rows, modulus)
    assert diag == want
