"""Exact integer matrix routines: Smith/Hermite normal forms, lattices.

Matrices are lists of rows of python ints, so every computation is
arbitrary precision.  Sizes here stay in the low hundreds; simple
pivot-by-smallest reduction is plenty.
"""
from __future__ import annotations

from math import prod


def eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(rows: list[list[int]], v: list[int]) -> list[int]:
    return [sum(r[j] * v[j] for j in range(len(v))) for r in rows]


def transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)] if rows else []


def smith_normal_form(mat):
    """Return (diag, U, V, Uinv, Vinv) with U*mat*V in Smith normal form.

    diag is the list of diagonal entries d_1 | d_2 | ... (nonnegative,
    zeros trailing).  U, V are unimodular; Uinv and Vinv are their
    inverses, maintained alongside so callers can pull quotient-group
    generators without a separate inversion.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    S = [[int(x) for x in row] for row in mat]
    U, Uinv, V, Vinv = eye(m), eye(m), eye(n), eye(n)

    def row_add(i, j, c):  # row i += c * row j ; Uinv col j -= c * col i
        S[i] = [a + c * b for a, b in zip(S[i], S[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for r in range(m):
            Uinv[r][j] -= c * Uinv[r][i]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        for r in range(m):
            Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def row_neg(i):
        S[i] = [-a for a in S[i]]
        U[i] = [-a for a in U[i]]
        for r in range(m):
            Uinv[r][i] = -Uinv[r][i]

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
            row_swap(t, pivot[0])
            col_swap(t, pivot[1])
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    row_add(i, t, -q)
                    if S[i][t]:
                        row_swap(t, i)
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
            row_add(t, bad, 1)
            continue
        if S[t][t] < 0:
            row_neg(t)
        t += 1

    diag = [S[i][i] for i in range(min(m, n))]
    return diag, U, V, Uinv, Vinv


def kernel_basis(mat) -> list[list[int]]:
    """Basis vectors (columns) of the integer kernel {x : mat @ x = 0}."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [col for col in eye(n)]
    diag, _, V, _, _ = smith_normal_form(mat)
    rank = sum(1 for d in diag if d)
    return [[V[r][j] for r in range(n)] for j in range(rank, n)]


class RowLattice:
    """Canonical Hermite basis of the lattice spanned by integer row vectors.

    Supports incremental insertion, membership, canonical residues, and
    covolume.  Rows live in Z^n.
    """

    def __init__(self, n: int, rows=()):
        self.n = n
        self.pivot_rows: dict[int, list[int]] = {}  # pivot column -> row
        for r in rows:
            self.add(r)

    def add(self, row) -> bool:
        """Insert a vector; returns True if the lattice grew."""
        v = [int(x) for x in row]
        grew = False
        while True:
            c = next((i for i, x in enumerate(v) if x), None)
            if c is None:
                break
            b = self.pivot_rows.get(c)
            if b is None:
                if v[c] < 0:
                    v = [-x for x in v]
                self.pivot_rows[c] = v
                grew = True
                break
            q = v[c] // b[c]
            v = [x - q * y for x, y in zip(v, b)]
            if v[c]:
                # remainder is smaller: swap roles and keep reducing
                self.pivot_rows[c] = v
                v = b
                grew = True
        if grew:
            self._normalize()
        return grew

    def _normalize(self):
        # reduce entries above each pivot into [0, pivot)
        cols = sorted(self.pivot_rows)
        for idx, c in enumerate(cols):
            b = self.pivot_rows[c]
            for c2 in cols[idx + 1:]:
                b2 = self.pivot_rows[c2]
                q = b[c2] // b2[c2]
                if q:
                    self.pivot_rows[c] = b = [x - q * y for x, y in zip(b, b2)]

    def residue(self, row) -> tuple[int, ...]:
        """Canonical representative of row + lattice (floor reduction)."""
        v = [int(x) for x in row]
        for c in sorted(self.pivot_rows):
            if v[c]:
                b = self.pivot_rows[c]
                q = v[c] // b[c]
                v = [x - q * y for x, y in zip(v, b)]
        return tuple(v)

    def contains(self, row) -> bool:
        return not any(self.residue(row))

    def rank(self) -> int:
        return len(self.pivot_rows)

    def covolume(self) -> int:
        """Index [Z^n : lattice]; 0 when the lattice has deficient rank."""
        if len(self.pivot_rows) < self.n:
            return 0
        return prod(row[c] for c, row in self.pivot_rows.items())

    def basis(self) -> list[list[int]]:
        return [self.pivot_rows[c] for c in sorted(self.pivot_rows)]
