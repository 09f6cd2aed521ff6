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
    prod generators[j]^coords[j] with coords taken mod the factors;
    coords[i] holds the coordinates of elements[i].
    """
    elements: tuple
    generators: tuple
    invariant_factors: tuple[int, ...]
    identity: object
    coords: np.ndarray

    @property
    def order(self) -> int:
        return prod(self.invariant_factors) if self.invariant_factors else 1

    @cached_property
    def dlog(self) -> dict:
        return dict(zip(self.elements, map(tuple, self.coords.tolist())))

    def coords_of(self, x) -> tuple[int, ...]:
        return self.dlog[x]

    @cached_property
    def coord_table(self) -> np.ndarray:
        """coords_of as a dense table indexed by element: row x holds the
        coordinates of x, and -1 where x is not an element."""
        out = np.full((max(self.elements) + 1, len(self.invariant_factors)),
                      -1, dtype=np.int64)
        out[list(self.elements)] = self.coords
        return out

    @cached_property
    def by_coords(self) -> np.ndarray:
        """The index in elements of the element at each coordinate vector,
        numbered mixed-radix with the first coordinate most significant."""
        flat = np.zeros(len(self.elements), dtype=np.int64)
        for c, d in zip(self.coords.T, self.invariant_factors):
            flat = flat * d + c
        out = np.empty_like(flat)
        out[flat] = np.arange(len(flat))
        return out


def abelian_structure(elements, op, identity) -> FinAbPresentation:
    """Invariant factors d1 | d2 | ... of a finite abelian group given by
    a multiplication oracle, with explicit generators and discrete logs.
    The oracle is called once per pair, to build the group's table."""
    elems = sorted(elements)
    index = {x: i for i, x in enumerate(elems)}
    outside = {}   # products outside elems, each with its own negative code
    table = np.array(
        [[index[y] if y in index else outside.setdefault(y, -1 - len(outside))
          for y in (op(a, b) for b in elems)] for a in elems], dtype=np.int64)
    return _present(elems, table, identity)


def subgroup_structure(members, cayley, identity) -> FinAbPresentation:
    """abelian_structure of the members under the operation whose table on
    all elements is cayley (R.mul for corner units, R.add for additive
    groups): one gather builds the group's table."""
    elems = sorted(int(x) for x in members)
    index = np.full(len(cayley), -1, dtype=np.int64)
    index[elems] = np.arange(len(elems))
    return _present(elems, index[cayley[np.ix_(elems, elems)]], identity)


def _present(elems, T, identity) -> FinAbPresentation:
    """The presentation of the group on elems whose table T holds the index
    of each product in elems (negative outside them).

    Greedy generators g_1, g_2, ... (each the least element outside the
    span of those before it) write every element once as s·g_t^a, with s
    in the span of g_1..g_(t-1) and 0 <= a < o_t, o_t the least power of
    g_t back in that span.  The k power relations o_t·e_t - c(g_t^o_t)
    then span every relation among the g_t (the quotient they cut has
    order prod o_t = n), so one Smith form of their Hermite basis gives
    the invariant factors, the new generators and every discrete log."""
    n = len(elems)
    if identity not in elems:
        raise PreconditionError("identity not among the elements")
    bad = T != T.T
    if bad.any():
        a, b = divmod(int(bad.argmax()), n)
        raise PreconditionError(f"oracle not commutative at ({elems[a]},{elems[b]})")
    if (T < 0).any():
        raise PreconditionError("oracle elements not closed under op")
    e = elems.index(identity)
    C = np.zeros((n, n.bit_length()), dtype=np.int64)   # at most log2 n gens
    gens, rels = [], []
    span = np.array([e])
    inside = np.zeros(n, dtype=bool)
    inside[e] = True
    while not inside.all():
        x, t = int(inside.argmin()), len(gens)
        pw, cur = [e], x
        while not inside[cur]:
            if len(pw) > n:
                raise PreconditionError("oracle is not a group")
            pw.append(cur)
            cur = int(T[cur, x])
        cosets = T[np.ix_(span, pw)]   # span·x^a, one column per a < o_t
        C[cosets] = C[span][:, None]
        C[cosets, t] = np.arange(len(pw))
        rel = -C[cur]
        rel[t] += len(pw)
        gens.append(x)
        rels.append(rel)
        span = cosets.ravel()
        inside[span] = True
    k = len(gens)
    C = C[:, :k]
    if not k:
        return FinAbPresentation(tuple(elems), (), (), identity, C)
    rels = [r[:k].tolist() for r in rels]
    diag, V, Vinv = intmat.smith_normal_form(intmat.RowLattice([n] * k, rels).basis())
    # Z^k / rows(M) = sum Z/d_i in the coordinates c -> c V
    keep = [i for i, d in enumerate(diag) if d > 1]
    factors = tuple(diag[i] for i in keep)
    box = np.zeros(n, dtype=np.int64)   # element index by its coordinates
    orders = [r[t] for t, r in enumerate(rels)]
    strides = [prod(orders[t + 1:]) for t in range(k)]
    box[C @ np.array(strides, dtype=np.int64)] = np.arange(n)
    new_gens = []
    for j in keep:   # prod g_t^Vinv[j][t], reduced by the power relations
        c = list(Vinv[j])
        for t in reversed(range(k)):
            q = c[t] // orders[t]
            c = [a - q * r for a, r in zip(c, rels[t])]
        new_gens.append(int(box[sum(a * w for a, w in zip(c, strides))]))
    Vk = np.array([[V[r][j] % diag[j] for j in keep] for r in range(k)],
                  dtype=np.int64).reshape(k, len(keep))
    coords = C @ Vk % np.array(factors, dtype=np.int64)
    # reconstruction check: each new generator has unit coordinates
    if not np.array_equal(coords[new_gens], np.eye(len(keep), dtype=np.int64)):
        raise AssertionError("generator coordinates fail to round-trip")
    assert prod(factors) == n
    return FinAbPresentation(tuple(elems), tuple(elems[x] for x in new_gens),
                             factors, identity, coords)


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

