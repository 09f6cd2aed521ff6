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
of [-target; rows], as in the Galois solve).  Every quotient it is
asked to present contains modulus·Z^k, so the Smith form works over
Z/modulus: its entries, its column transform and that transform's
inverse never grow past the modulus.
"""
from __future__ import annotations

from functools import cached_property
from math import gcd, prod

import numpy as np


def eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(rows, modulus: int):
    """Smith form of Z^k / (span(rows) + modulus·Z^k) over Z/modulus
    (Hafner-McCurley, SIAM J. Comput. 20, 1991), for nonempty rows of k.

    Returns (diag, V, Vinv): the invariant factors d_1 | ... | d_k of the
    modulus (the modulus itself where the rows leave a column free), and
    V, Vinv, inverse mod the modulus, with x -> ((x·V)_j mod d_j)_j an
    isomorphism onto (+) Z/d_j taking row j of Vinv to the j-th unit
    vector.  Each pivot is the entry with the least gcd with the modulus;
    untracked row steps and column steps, both extended-gcd, clear its
    column and row, every entry reduced mod the modulus."""
    m = int(modulus)
    r, k = len(rows), len(rows[0])
    # the rows above V: column steps act on both, row steps on the rows only
    A = [[int(x) % m for x in row] for row in [*rows, *eye(k)]]
    Vinv = [row[:] for row in A[r:]]

    def row_step(t, i, a, b, c, d):   # rows (t, i) <- (a·t + b·i, c·t + d·i)
        A[t], A[i] = ([(a * x + b * y) % m for x, y in zip(A[t], A[i])],
                      [(c * x + d * y) % m for x, y in zip(A[t], A[i])])

    def col_step(t, j, a, b, c, d):   # the same on columns; Vinv's rows
        for row in A:                 # take the inverse step
            x, y = row[t], row[j]
            row[t], row[j] = (a * x + b * y) % m, (c * x + d * y) % m
        det = a * d - b * c           # ±1, its own inverse
        Vinv[t], Vinv[j] = (
            [det * (d * x - c * y) % m for x, y in zip(Vinv[t], Vinv[j])],
            [det * (a * y - b * x) % m for x, y in zip(Vinv[t], Vinv[j])])

    t = 0
    while t < min(r, k):
        block = [(gcd(A[i][j], m), i, j) for i in range(t, r)
                 for j in range(t, k) if A[i][j]]
        if not block:
            break
        _, i, j = min(block)
        if i != t:
            row_step(t, i, 0, 1, 1, 0)
        if j != t:
            col_step(t, j, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, r):
                if A[i][t]:
                    row_step(t, i, *_clearing_step(A[t][t], A[i][t]))
            for j in range(t + 1, k):
                if A[t][j]:
                    col_step(t, j, *_clearing_step(A[t][t], A[t][j]))
            if any(A[i][t] for i in range(t + 1, r)):
                continue   # a column step that moved the pivot refilled it
            # the pivot must divide the rest of the block, else it takes in
            # a row it does not divide, which the next column step lowers it by
            g = gcd(A[t][t], m)
            bad = next((i for i in range(t + 1, r)
                        if any(x % g for x in A[i][t + 1:])), None)
            if bad is None:
                break
            row_step(t, bad, 1, 1, 0, 1)
        t += 1
    diag = [gcd(A[i][i], m) for i in range(t)] + [m] * (k - t)
    return diag, A[r:], Vinv


def _clearing_step(p: int, y: int) -> tuple[int, int, int, int]:
    """A unimodular (a, b, c, d) with (a·p + b·y, c·p + d·y) = (gcd(p, y), 0),
    for p > 0; (1, 0, -y/p, 1), which leaves p's line alone, when p | y."""
    if y % p == 0:
        return 1, 0, -(y // p), 1
    h, s, u = _xgcd(p, y)
    return s, u, y // h, -(p // h)


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
