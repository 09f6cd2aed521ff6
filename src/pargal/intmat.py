"""Exact integer matrix routines: Smith/Hermite normal forms, lattices.

Matrices are lists of rows of python ints, so every computation is
arbitrary precision.  Every lattice carries its moduli: a `RowLattice`
is span(rows) + (+) m_i Z, kept in modular Hermite form with entries
reduced mod the moduli, so no entry grows.  Kernels of maps between
finite abelian groups never leave the moduli either, so
`kernel_lattice` works on numpy rows reduced mod the domain orders; it
also decides whether a target is in a span mod moduli (Hermite row 0 of
the kernel of [-target; rows], as in the Galois solve).  The
pivot-by-smallest Smith form remains for quotient generators, on
unreduced ints, and tracks only its column transform.
"""
from __future__ import annotations

from math import gcd, prod

import numpy as np


def eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(rows: list[list[int]], v: list[int]) -> list[int]:
    return [sum(r[j] * v[j] for j in range(len(v))) for r in rows]


def transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)] if rows else []


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


def kernel_lattice(A, dom_moduli, cod_moduli) -> RowLattice:
    """{x in Z^k : xA in (+) e_j Z} + (+) d_i Z as a RowLattice.

    Row i of A is the image of the i-th generator of Z/d_1 x ... x Z/d_k
    in Z/e_1 x ...; each image must respect its order (d_i A[i][j] = 0
    mod e_j), so the answer is the preimage of 0 and contains every
    d_i e_i.  The lattice is held as k generating rows modulo (+) d_i Z,
    entries reduced mod d, and cut down one codomain column at a time:
    extended-gcd row operations move the column's values mod e onto one
    pivot row, which is then multiplied by e / gcd(value, e).
    """
    k = len(dom_moduli)
    top = max([*dom_moduli, *cod_moduli, 1])
    # every intermediate value stays below (k + 2)·top²
    dtype = np.int64 if (k + 2) * top * top < 2 ** 62 else object
    A = as_rows(A, dom_moduli, cod_moduli)
    d = np.array(dom_moduli, dtype=dtype)
    B = np.eye(k, dtype=dtype)
    for j, e in enumerate(cod_moduli):
        v = B @ (A[:, j] % e).astype(dtype) % e
        while True:
            nz = np.flatnonzero(v)
            if not len(nz):
                break
            p = int(nz[np.argmin(np.gcd(v[nz], e))])
            g = gcd(int(v[p]), e)
            off = nz[v[nz] % g != 0]
            if len(off):
                # unimodular 2x2 step: the pivot's value becomes gcd(v_p, v_r)
                r = int(off[0])
                vp, vr = int(v[p]), int(v[r])
                h, s, t = _xgcd(vp, vr)
                B[p], B[r] = ((s * B[p] + t * B[r]) % d,
                              (vr // h * B[p] - vp // h * B[r]) % d)
                v[p], v[r] = h, 0
                continue
            # every value is a multiple of the pivot's: clear them at once
            c = (v[nz] // g) * pow(int(v[p]) // g, -1, e // g) % (e // g)
            c[nz == p] = 0
            B[nz] = (B[nz] - c[:, None] * B[p]) % d
            B[p] = B[p] * (e // g) % d
            break
    return RowLattice(dom_moduli, B.tolist())


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s·a + t·b = g = gcd(a, b), for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


class RowLattice:
    """The lattice span(rows) + (+) m_i Z inside Z^n, n = len(moduli), held
    as its unique Hermite basis: one row per column, pivots positive, every
    entry right of a pivot in [0, that column's pivot).

    The lattice always contains its moduli, so it has full rank and
    covolume prod(pivots).  The rows m_i·e_i seed the pivots and every
    entry right of a pivot stays reduced mod its column's modulus while
    rows are inserted, so no entry ever grows past the moduli: modular
    Hermite form (Domich-Kannan-Trotter, Math. Oper. Res. 12, 1987;
    Cohen, GTM 138, 2.4.2).
    """

    def __init__(self, moduli, rows=()):
        self.moduli = [int(m) for m in moduli]   # each positive
        n = len(self.moduli)
        self.pivot_rows = [[m if j == i else 0 for j in range(n)]
                           for i, m in enumerate(self.moduli)]
        for r in rows:   # the Hermite basis is unique: normalize once
            self._insert(r)
        self._normalize()

    def _insert(self, row):
        """Echelon insertion mod the moduli, without normalizing."""
        mods = self.moduli
        v = [int(x) % m for x, m in zip(row, mods)]
        c = 0
        while True:
            c = next((i for i in range(c, len(v)) if v[i]), None)
            if c is None:
                return
            b = self.pivot_rows[c]
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

    def _normalize(self):
        # reduce entries right of each pivot into [0, pivot), bottom row
        # first, so each row is reduced by rows already in final form
        rows = self.pivot_rows
        for c in reversed(range(len(rows))):
            b = rows[c]
            for c2 in range(c + 1, len(rows)):
                q = b[c2] // rows[c2][c2]
                if q:
                    b[c2:] = [x - q * y for x, y in
                              zip(b[c2:], rows[c2][c2:])]

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
        return prod(b[c] for c, b in enumerate(self.pivot_rows))

    def basis(self) -> list[list[int]]:
        return list(self.pivot_rows)
