"""Finite groups and finite abelian structure tools.

Group elements are integers 0..n-1 with a dense multiplication table.
Cyclic products enumerate mixed-radix, leftmost factor most significant,
matching the ring-product convention.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from . import intmat
from .errors import PreconditionError

MAX_GROUP_ORDER = 64


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    table: np.ndarray
    identity: int
    names: tuple[str, ...]
    tag: str

    def __post_init__(self):
        T = self.table
        n = T.shape[0]
        if T.shape != (n, n):
            raise ValueError("table must be square")
        if T.min() < 0 or T.max() >= n:
            raise ValueError("table entries out of range")
        e = self.identity
        idx = np.arange(n)
        if not (np.array_equal(T[e], idx) and np.array_equal(T[:, e], idx)):
            raise ValueError("identity law fails")
        if not np.array_equal(T[T, :], T[:, T]):
            raise ValueError("associativity fails")
        if not all(np.count_nonzero(T[a] == e) == 1 for a in range(n)):
            raise ValueError("inverse law fails")

    @property
    def order(self) -> int:
        return int(self.table.shape[0])

    @cached_property
    def inverse_table(self) -> np.ndarray:
        return np.argmax(self.table == self.identity, axis=1)

    def op(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse_table[a])

    def elem_order(self, a: int) -> int:
        x, k = a, 1
        while x != self.identity:
            x = self.op(x, a)
            k += 1
        return k

    def __repr__(self):
        return f"FiniteGroup({self.tag}, order={self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1 or n > MAX_GROUP_ORDER:
        raise ValueError(f"cyclic order must be in 1..{MAX_GROUP_ORDER}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    names = tuple("1" if i == 0 else ("g" if i == 1 else f"g^{i}")
                  for i in range(n))
    return FiniteGroup(table=table, identity=0, names=names, tag=f"C{n}")


def direct_product(parts) -> FiniteGroup:
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    n = prod(g.order for g in parts)
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"group order {n} exceeds {MAX_GROUP_ORDER}")
    sizes = [g.order for g in parts]
    strides = [prod(sizes[i + 1:]) for i in range(len(parts))]
    idx = np.arange(n)
    table = np.zeros((n, n), dtype=np.int64)
    for i, g in enumerate(parts):
        d = (idx // strides[i]) % sizes[i]
        table += strides[i] * g.table[d[:, None], d[None, :]]
    identity = sum(strides[i] * parts[i].identity for i in range(len(parts)))
    names = tuple(
        "(" + ",".join(parts[i].names[(a // strides[i]) % sizes[i]]
                       for i in range(len(parts))) + ")"
        for a in range(n))
    tag = "*".join(g.tag for g in parts)
    return FiniteGroup(table=table, identity=int(identity), names=names, tag=tag)


def group_from_table(table, names=None, tag="custom") -> FiniteGroup:
    T = np.asarray(table, dtype=np.int64)
    n = T.shape[0]
    identity = None
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(T[e], idx) and np.array_equal(T[:, e], idx):
            identity = e
            break
    if identity is None:
        raise ValueError("table has no identity element")
    if names is None:
        names = tuple(str(i) for i in range(n))
    return FiniteGroup(table=T, identity=identity, names=tuple(names), tag=tag)


def make_group(spec) -> FiniteGroup:
    """Build a group from 'Cn', a '*'-product of those, or a Cayley table."""
    if isinstance(spec, str):
        parts = []
        for piece in spec.split("*"):
            piece = piece.strip()
            if not (piece.startswith("C") and piece[1:].isdigit()):
                raise ValueError(f"cannot parse group descriptor {piece!r}")
            parts.append(cyclic_group(int(piece[1:])))
        return direct_product(parts)
    return group_from_table(spec)


# ------------------------------------------------- abelian structure

@dataclass(frozen=True, eq=False)
class FinAbPresentation:
    """Invariant-factor presentation of a finite abelian group.

    generators[j] has order invariant_factors[j]; every element is
    prod generators[j]^coords[j] with coords taken mod the factors.
    """
    elements: tuple[int, ...]
    generators: tuple[int, ...]
    invariant_factors: tuple[int, ...]
    identity: int
    dlog: dict
    _op: object

    @property
    def order(self) -> int:
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def coords_of(self, x) -> tuple[int, ...]:
        return self.dlog[x]

    @cached_property
    def coord_table(self) -> np.ndarray:
        """coords_of as a dense table indexed by element: row x holds the
        coordinates of x, and -1 where x is not an element."""
        k = len(self.invariant_factors)
        out = np.full((max(self.elements) + 1, k), -1, dtype=np.int64)
        xs = np.fromiter(self.dlog, dtype=np.int64, count=len(self.dlog))
        out[xs] = np.array(list(self.dlog.values()),
                           dtype=np.int64).reshape(len(xs), k)
        return out

    def from_coords(self, coords):
        x = self.identity
        for g, d, c in zip(self.generators, self.invariant_factors, coords):
            for _ in range(c % d):
                x = self._op(x, g)
        return x


def abelian_structure(elements, op, identity) -> FinAbPresentation:
    """Invariant factors d1 | d2 | ... of a finite abelian group given by
    a multiplication oracle, with explicit generators and discrete logs."""
    elems = sorted(elements)
    n = len(elems)
    if identity not in elems:
        raise PreconditionError("identity not among the elements")
    for a in elems:
        for b in elems:
            if op(a, b) != op(b, a):
                raise PreconditionError(f"oracle not commutative at ({a},{b})")

    # greedy generating set
    gens = []
    span = {identity}
    for x in elems:
        if x in span:
            continue
        gens.append(x)
        powers = [identity]
        cur = x
        while cur != identity:
            powers.append(cur)
            cur = op(cur, x)
        span = {op(s, p) for s in span for p in powers}
    if set(elems) != span:
        raise PreconditionError("oracle elements not closed under op")
    k = len(gens)

    # raw coordinates by breadth-first search over generator multiplication
    coord = {identity: [0] * k}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            cx = coord[x]
            for i, g in enumerate(gens):
                y = op(x, g)
                if y not in coord:
                    c = list(cx)
                    c[i] += 1
                    coord[y] = c
                    nxt.append(y)
        frontier = nxt
    assert len(coord) == n

    # relation lattice: c(x) + e_i - c(x*g_i) for all x, i
    rels = []
    for x in elems:
        cx = coord[x]
        for i, g in enumerate(gens):
            rel = [a - b for a, b in zip(cx, coord[op(x, g)])]
            rel[i] += 1
            rels.append(rel)
    # g^n = 1 for every g, so the relation lattice contains n·Z^k
    M = intmat.RowLattice([n] * k, rels).basis()
    diag, V, Vinv = intmat.smith_normal_form(M)
    # Z^k / rows(M) = sum Z/d_i in the coordinates c -> c V
    keep = [i for i, d in enumerate(diag) if d > 1]
    factors = tuple(diag[i] for i in keep)

    def elem_from_raw(raw):
        x = identity
        for i, e in enumerate(raw):
            g = gens[i] if e >= 0 else _group_inv(op, identity, gens[i])
            for _ in range(abs(e)):
                x = op(x, g)
        return x

    new_gens = tuple(elem_from_raw(Vinv[j]) for j in keep)
    dlog = {}
    for x in elems:
        cV = intmat.mat_vec(intmat.transpose(V), coord[x])
        dlog[x] = tuple(cV[i] % diag[i] for i in keep)

    pres = FinAbPresentation(elements=tuple(elems), generators=new_gens,
                             invariant_factors=factors, identity=identity,
                             dlog=dlog, _op=op)
    # reconstruction check: coords -> element -> coords round-trips
    for j, g in enumerate(new_gens):
        want = tuple(1 if i == j else 0 for i in range(len(keep)))
        if dlog[g] != want:
            raise AssertionError("generator coordinates fail to round-trip")
    assert pres.order == n
    return pres


def _group_inv(op, identity, a):
    x, prev = a, a
    while x != identity:
        prev = x
        x = op(x, a)
    return prev


# ------------------------------------------------- homomorphisms

def kernel_image_orders(A, dom_moduli, cod_moduli):
    """Kernel/image orders of the map (Z/d1 x ...) -> (Z/e1 x ...) whose
    j-th domain generator maps to row j of A (codomain coordinates).
    Returns (kernel_order, image_order, kernel_lattice); the kernel
    lattice is the preimage of 0 in Z^len(dom_moduli).  Its index in
    that Z^k is the image order (first isomorphism theorem), so no image
    lattice is built."""
    A = intmat.as_rows(A, dom_moduli, cod_moduli)
    d, e = (np.array(m, dtype=A.dtype) for m in (dom_moduli, cod_moduli))
    bad = np.flatnonzero((d[:, None] * A % e).any(axis=1))
    if bad.size:
        j = int(bad[0])
        raise PreconditionError(
            f"generator {j} image violates its order {dom_moduli[j]}")
    ker_lat = intmat.kernel_lattice(A, dom_moduli, cod_moduli)
    dom_order = prod(dom_moduli)
    image_order = ker_lat.covolume()
    assert dom_order % image_order == 0
    return dom_order // image_order, image_order, ker_lat

