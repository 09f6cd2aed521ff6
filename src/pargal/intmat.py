"""Exact integer matrix routines: Smith/Hermite normal forms, lattices.

Matrices are lists of rows of python ints, so every computation is
arbitrary precision.  Every lattice carries its moduli: a `RowLattice`
is span(rows) + (+) m_i Z, whose modular Hermite form, with entries
reduced mod the moduli so that no entry grows, is built only when a
basis, a residue or a membership test asks for it.  Kernels of maps
between finite abelian groups never leave the moduli either, so
`kernel_lattice` works on numpy rows reduced mod the domain orders and
reads the kernel's covolume off its own elimination; it also decides
whether a target is in a span mod moduli (Hermite row 0 of the kernel
of [-target; rows], as in the Galois solve).  The pivot-by-smallest
Smith form remains for quotient generators, on unreduced ints, and
tracks only its column transform.
"""
from __future__ import annotations

from functools import cached_property
from math import gcd, prod

import numpy as np


def eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Return (diag, V, Vinv) with mat*V = W*diag for a unimodular W.

    diag is the list of diagonal entries d_1 | d_2 | ... (nonnegative,
    zeros trailing).  V is unimodular and Vinv its inverse, maintained
    alongside so callers can pull quotient-group generators without a
    separate inversion.  Row operations reduce the matrix but are not
    tracked.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    S = [[int(x) for x in row] for row in mat]
    V, Vinv = eye(n), eye(n)

    def col_add(j, i, c):  # col j += c * col i ; Vinv row i -= c * row j
        for r in range(m):
            S[r][j] += c * S[r][i]
        for r in range(n):
            V[r][j] += c * V[r][i]
        Vinv[i] = [a - c * b for a, b in zip(Vinv[i], Vinv[j])]

    def col_swap(i, j):
        for r in range(m):
            S[r][i], S[r][j] = S[r][j], S[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    t = 0
    while t < min(m, n):
        # smallest nonzero entry of the remaining block becomes the pivot
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = abs(S[i][j])
                if a and (best is None or a < best):
                    best, pivot = a, (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            S[t], S[pivot[0]] = S[pivot[0]], S[t]
            col_swap(t, pivot[1])
        # clear row and column t
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
                    q = S[t][j] // S[t][t]
                    col_add(j, t, -q)
                    if S[t][j]:
                        col_swap(t, j)
                        dirty = True
        # pivot must divide the rest of the block, else absorb a bad row
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if S[i][j] % S[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            S[t] = [a + b for a, b in zip(S[t], S[bad])]
            continue
        t += 1

    # each pivot row is 0 off the diagonal: its sign is a row operation
    diag = [abs(S[i][i]) for i in range(min(m, n))]
    return diag, V, Vinv


def as_rows(A, dom_moduli, cod_moduli) -> np.ndarray:
    """A as a (len(dom_moduli), len(cod_moduli)) array whose products with
    the moduli cannot overflow: int64 when they stay below 2**62, python
    ints otherwise."""
    A = np.asarray(A).reshape(len(dom_moduli), len(cod_moduli))
    top = max([*dom_moduli, *cod_moduli, 1])
    if A.dtype == object or (int(np.abs(A).max(initial=0)) + 1) * top >= 2 ** 62:
        return A.astype(object)
    return A.astype(np.int64, copy=False)


def images(X, A, dom_moduli, cod_moduli) -> np.ndarray:
    """X·A mod the codomain moduli: the images of the domain vectors X
    under the map whose generator images are the rows of A, in python
    ints once (k + 2)·top² reaches 2**62."""
    top = max([*dom_moduli, *cod_moduli, 1])
    A = as_rows(A, dom_moduli, cod_moduli)
    if (len(dom_moduli) + 2) * top * top >= 2 ** 62:
        A = A.astype(object)
    d, e = (np.array(m, dtype=A.dtype) for m in (dom_moduli, cod_moduli))
    return np.asarray(X).astype(A.dtype) % d @ (A % e) % e


def kernel_lattice(A, dom_moduli, cod_moduli) -> RowLattice:
    """{x in Z^k : xA in (+) e_j Z} + (+) d_i Z as a RowLattice.

    Row i of A is the image of the i-th generator of Z/d_1 x ... x Z/d_k
    in Z/e_1 x ...; each image must respect its order (d_i A[i][j] = 0
    mod e_j), so the answer is the preimage of 0 and contains every
    d_i e_i.  The lattice is held as k generating rows x modulo (+) d_i Z,
    each beside its image xA mod e, starting from [A | I], and cut down
    one codomain column at a time, skipping columns its images already
    clear: extended-gcd row operations move the column's values mod e
    onto one pivot row, which is then multiplied by e / gcd(value, e).
    That factor is the index the column cuts, so the covolume is their
    product and no Hermite basis is needed to know it.
    """
    k, kc = len(dom_moduli), len(cod_moduli)
    top = max([*dom_moduli, *cod_moduli, 1])
    # every intermediate value stays below 2·top²
    dtype = np.int64 if top < 2 ** 30 else object
    A = as_rows(A, dom_moduli, cod_moduli)
    A = (A % np.array(cod_moduli, dtype=A.dtype)).astype(dtype)
    M = np.concatenate([A, np.eye(k, dtype=dtype)], axis=1)
    mods = np.array([*cod_moduli, *dom_moduli], dtype=dtype)
    covolume, j = 1, 0
    while len(live := np.flatnonzero(M[:, j:kc].any(axis=0))):
        j += int(live[0])
        e = cod_moduli[j]
        while True:
            v = M[:, j]
            nz = np.flatnonzero(v)
            p = int(nz[np.argmin(np.gcd(v[nz], e))])
            g = gcd(int(v[p]), e)
            off = nz[v[nz] % g != 0]
            if len(off):
                # unimodular 2x2 step: the pivot's value becomes gcd(v_p, v_r)
                r = int(off[0])
                vp, vr = int(v[p]), int(v[r])
                h, s, t = _xgcd(vp, vr)
                M[p], M[r] = ((s * M[p] + t * M[r]) % mods,
                              (vr // h * M[p] - vp // h * M[r]) % mods)
                continue
            # every value is a multiple of the pivot's: clear them at once
            c = (v[nz] // g) * pow(int(v[p]) // g, -1, e // g) % (e // g)
            c[nz == p] = 0
            M[nz] = (M[nz] - c[:, None] * M[p]) % mods
            M[p] = M[p] * (e // g) % mods
            covolume *= e // g
            break
        j += 1
    return RowLattice(dom_moduli, M[:, kc:], covolume)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s·a + t·b = g = gcd(a, b), for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


class RowLattice:
    """The lattice span(rows) + (+) m_i Z inside Z^n, n = len(moduli).
    Its unique Hermite basis (one row per column, pivots positive, every
    entry right of a pivot in [0, that column's pivot)) is built on the
    first call of basis(), residue() or contains(); a covolume known in
    advance, as kernel_lattice's is, is returned without it.

    The lattice always contains its moduli, so it has full rank and
    covolume prod(pivots).  The rows m_i·e_i seed the pivots and every
    entry right of a pivot stays reduced mod its column's modulus while
    rows are inserted, so no entry ever grows past the moduli: modular
    Hermite form (Domich-Kannan-Trotter, Math. Oper. Res. 12, 1987;
    Cohen, GTM 138, 2.4.2).
    """

    def __init__(self, moduli, rows=(), covolume=None):
        self.moduli = [int(m) for m in moduli]   # each positive
        self.rows = rows   # a sequence of rows, read when the basis is built
        self._covolume = covolume

    @cached_property
    def pivot_rows(self) -> list[list[int]]:
        n = len(self.moduli)
        pivots = [[m if j == i else 0 for j in range(n)]
                  for i, m in enumerate(self.moduli)]
        for r in self.rows:   # the Hermite basis is unique: normalize once
            self._insert(pivots, r)
        # reduce entries right of each pivot into [0, pivot), bottom row
        # first, so each row is reduced by rows already in final form
        for c in reversed(range(n)):
            b = pivots[c]
            for c2 in range(c + 1, n):
                q = b[c2] // pivots[c2][c2]
                if q:
                    b[c2:] = [x - q * y for x, y in
                              zip(b[c2:], pivots[c2][c2:])]
        return pivots

    def _insert(self, pivots, row):
        """Echelon insertion mod the moduli, without normalizing."""
        mods = self.moduli
        v = [int(x) % m for x, m in zip(row, mods)]
        c = 0
        while True:
            c = next((i for i in range(c, len(v)) if v[i]), None)
            if c is None:
                return
            b = pivots[c]
            x, y = v[c], b[c]
            # unimodular 2x2 step: the pivot becomes gcd(x, y) and the
            # other combination clears column c (when y | x the pivot row
            # stays and v loses x/y copies of it)
            g, s, t = _xgcd(x, y)
            xg, yg = x // g, y // g
            tail = zip(v[c + 1:], b[c + 1:], mods[c + 1:])
            pairs = [((s * a + t * z) % m, (yg * a - xg * z) % m)
                     for a, z, m in tail]
            b[c:] = [g] + [p for p, _ in pairs]
            v[c:] = [0] + [r for _, r in pairs]

    def residue(self, row) -> tuple[int, ...]:
        """Canonical representative of row + lattice (floor reduction)."""
        v = [int(x) for x in row]
        for c, b in enumerate(self.pivot_rows):
            q = v[c] // b[c]
            if q:
                v[c:] = [x - q * y for x, y in zip(v[c:], b[c:])]
        return tuple(v)

    def contains(self, row) -> bool:
        return not any(self.residue(row))

    def covolume(self) -> int:
        """Index [Z^n : lattice], the product of the pivots."""
        if self._covolume is None:
            self._covolume = prod(b[c] for c, b in enumerate(self.pivot_rows))
        return self._covolume

    def basis(self) -> list[list[int]]:
        return list(self.pivot_rows)
