"""Finite commutative unital rings with dense operation tables.

Elements of a ring of order n are the integers 0..n-1; ``add`` and
``mul`` are (n, n) index tables.  Enumeration order is part of the
contract:

* Z_n: ascending residues 0..n-1.
* GF(p^k): index written in base p gives the coefficient vector of the
  element, least significant digit = constant term (so 0, 1, ..., p-1
  are the prime-field constants and index p is x).
* products: mixed radix over the component indices, leftmost component
  most significant.
* corner rings Re: members sorted by ambient index.

A product's corner at e = (e_1, ..., e_m) is the product of the
component corners R_j·e_j, so `product_corner` builds it from those, and
`ring_components`, `slot_maps` and `product_element_named` read a
product's descriptor, automorphism and element names off its components:
none of them tabulates the product.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .errors import BudgetError

DEFAULT_RING_CAP = 4096

# Element handles are plain integer indices; an Idempotent is an element
# with e*e == e (consumers check).
RingElement = int
Idempotent = int


@dataclass(frozen=True, eq=False)
class FiniteRing:
    add: np.ndarray
    mul: np.ndarray
    zero: int
    one: int
    names: tuple[str, ...]
    tag: str
    components: tuple["FiniteRing", ...] = ()
    field_params: tuple[int, int] | None = None  # (p, k) when a finite field

    def __post_init__(self):
        n = self.add.shape[0]
        if self.add.shape != (n, n) or self.mul.shape != (n, n):
            raise ValueError("tables must be square and same size")
        if not np.array_equal(self.add, self.add.T):
            raise ValueError("addition not commutative")
        if not np.array_equal(self.mul, self.mul.T):
            raise ValueError("multiplication not commutative")
        idx = np.arange(n)
        if not (np.array_equal(self.add[self.zero], idx)
                and np.array_equal(self.mul[self.one], idx)):
            raise ValueError("zero/one laws fail")
        if self.zero == self.one and n > 1:
            raise ValueError("zero == one in a ring of order > 1")

    @property
    def order(self) -> int:
        return int(self.add.shape[0])

    def __repr__(self):
        return f"FiniteRing({self.tag}, order={self.order})"

    @cached_property
    def neg(self) -> np.ndarray:
        return np.argmax(self.add == self.zero, axis=1)

    @cached_property
    def idempotent_set(self) -> tuple[int, ...]:
        n = self.order
        diag = self.mul[np.arange(n), np.arange(n)]
        return tuple(int(e) for e in np.nonzero(diag == np.arange(n))[0])

    @cached_property
    def _corner_cache(self) -> dict:
        return {}

    def corner_members(self, e: int) -> tuple[int, ...]:
        """Sorted elements of the ideal Re."""
        key = ("members", e)
        got = self._corner_cache.get(key)
        if got is None:
            got = tuple(int(x) for x in sorted(set(self.mul[:, e].tolist())))
            self._corner_cache[key] = got
        return got

    def is_idempotent(self, e: int) -> bool:
        return int(self.mul[e, e]) == e

    def elem_pow(self, a: int, k: int) -> int:
        acc, base = self.one, a
        while k:
            if k & 1:
                acc = int(self.mul[acc, base])
            base = int(self.mul[base, base])
            k >>= 1
        return acc


@dataclass(frozen=True, eq=False)
class CornerUnitGroup:
    """Units of the ideal Re viewed as a unital ring with identity e."""
    ring: FiniteRing
    e: int
    elements: tuple[int, ...]
    inverse: dict[int, int]

    @property
    def order(self) -> int:
        return len(self.elements)

    def op(self, a: int, b: int) -> int:
        return int(self.ring.mul[a, b])

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def __contains__(self, a: int) -> bool:
        return a in self.inverse


@dataclass(frozen=True, eq=False)
class Subring:
    ambient: FiniteRing
    members: tuple[int, ...]
    ring: FiniteRing          # relabeled copy on 0..len(members)-1
    embed: np.ndarray         # local index -> ambient element

def idempotents(ring: FiniteRing) -> tuple[int, ...]:
    """All solutions of e*e == e, sorted by element index."""
    return ring.idempotent_set


def primitive_idempotents(ring: FiniteRing) -> tuple[int, ...]:
    """Nonzero idempotents with no idempotent strictly between 0 and them."""
    ids = [e for e in ring.idempotent_set if e != ring.zero]
    prims = []
    for e in ids:
        atom = True
        for f in ids:
            if f != e and int(ring.mul[e, f]) == f:
                atom = False
                break
        if atom:
            prims.append(e)
    return tuple(prims)


def corner_units(ring: FiniteRing, e: int) -> CornerUnitGroup:
    """The group {u in Re : exists u' in Re with u*u' = e}."""
    if not ring.is_idempotent(e):
        raise ValueError(f"{e} is not idempotent")
    key = ("units", e)
    got = ring._corner_cache.get(key)
    if got is not None:
        return got
    members = np.array(ring.corner_members(e), dtype=np.int64)
    prods = ring.mul[np.ix_(members, members)]
    ii, jj = np.nonzero(prods == e)
    inverse = {}
    for i, j in zip(ii.tolist(), jj.tolist()):
        u = int(members[i])
        # corner inverses are unique; keep the scan honest by checking
        v = int(members[j])
        if u in inverse and inverse[u] != v:
            raise ValueError(f"non-unique corner inverse for {u} at e={e}")
        inverse[u] = v
    group = CornerUnitGroup(ring, e, tuple(sorted(inverse)), inverse)
    ring._corner_cache[key] = group
    return group


def units(ring: FiniteRing) -> CornerUnitGroup:
    return corner_units(ring, ring.one)


def subring_from_members(ambient: FiniteRing, members) -> Subring:
    members = tuple(sorted(set(int(m) for m in members)))
    if ambient.zero not in members or ambient.one not in members:
        raise ValueError("subring must contain 0 and 1")
    embed = np.array(members, dtype=np.int64)
    to_loc = np.full(ambient.order, -1, dtype=np.int64)
    to_loc[embed] = np.arange(len(members))
    add = to_loc[ambient.add[np.ix_(embed, embed)]]
    mul = to_loc[ambient.mul[np.ix_(embed, embed)]]
    if (add < 0).any() or (mul < 0).any():
        raise ValueError("member set not closed under ring operations")
    ring = FiniteRing(
        add=add,
        mul=mul,
        zero=int(to_loc[ambient.zero]),
        one=int(to_loc[ambient.one]),
        names=tuple(ambient.names[a] for a in members),
        tag=f"subring({ambient.tag};{len(members)})",
    )
    return Subring(ambient=ambient, members=members, ring=ring, embed=embed)


def _additive_span(ring: FiniteRing, seed) -> np.ndarray:
    """Sorted additive subgroup generated by seed (an array of elements)."""
    cur = np.union1d(np.ravel(seed), [ring.zero]).astype(np.int64)
    while True:
        nxt = np.unique(ring.add[np.ix_(cur, cur)])
        if nxt.shape == cur.shape:
            return cur
        cur = nxt


def subring_generated(ring: FiniteRing, seeds=()) -> Subring:
    """Smallest subset containing seeds, 0, 1, closed under add/neg/mul."""
    current = {ring.zero, ring.one} | {int(s) for s in seeds}
    while True:
        new = set(current)
        cur = sorted(current)
        for a in cur:
            new.add(int(ring.neg[a]))
            for b in cur:
                new.add(int(ring.add[a, b]))
                new.add(int(ring.mul[a, b]))
        if new == current:
            break
        current = new
    return subring_from_members(ring, current)


# ---------------------------------------------------------------- Z_n

def zmod(n: int, max_order: int = DEFAULT_RING_CAP) -> FiniteRing:
    if n < 1:
        raise ValueError("modulus must be >= 1")
    if n > max_order:
        raise BudgetError("ring-order", max_order, n)
    idx = np.arange(n, dtype=np.int64)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    field_params = (n, 1) if n > 1 and _is_prime(n) else None
    return FiniteRing(add=add, mul=mul, zero=0, one=1 % n,
                      names=tuple(str(i) for i in range(n)),
                      tag=f"Z{n}", field_params=field_params)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------- GF(p^k)

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mod(a, f, p):
    a = list(a)
    df, lead = len(f) - 1, f[-1]
    assert lead == 1, "modulus must be monic"
    while len(a) - 1 >= df and any(a):
        shift = len(a) - 1 - df
        c = a[-1] % p
        if c:
            for i, fc in enumerate(f):
                a[shift + i] = (a[shift + i] - c * fc) % p
        _poly_trim(a)
        if not a:
            break
    return [c % p for c in a]


def _poly_mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_mod(out, f, p)


def _poly_powmod(a, e, f, p):
    acc, base = [1], list(a)
    while e:
        if e & 1:
            acc = _poly_mulmod(acc, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return acc


def _poly_gcd(a, b, p):
    a = _poly_trim([c % p for c in a])
    b = _poly_trim([c % p for c in b])
    while b:
        inv = pow(b[-1], p - 2, p)
        monic = [(c * inv) % p for c in b]
        a, b = b, _poly_mod(a, monic, p)
    return a


def _is_irreducible(f, p) -> bool:
    """Rabin's test for a monic polynomial f over F_p."""
    k = len(f) - 1
    if k < 1:
        return False
    x = [0, 1]
    xpk = _poly_powmod(x, p ** k, f, p)
    if _poly_trim([(a - b) % p for a, b in _zip_pad(xpk, x)]):
        return False
    for q in _prime_divisors(k):
        xpd = _poly_powmod(x, p ** (k // q), f, p)
        diff = [(a - b) % p for a, b in _zip_pad(xpd, x)]
        g = _poly_gcd(f, diff, p)
        if len(g) - 1 > 0:
            return False
    return True


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _prime_divisors(k: int):
    out, d = [], 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def _gf_name(digits, p) -> str:
    terms = []
    for e in range(len(digits) - 1, -1, -1):
        c = digits[e]
        if not c:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            xe = "x" if e == 1 else f"x^{e}"
            terms.append(xe if c == 1 else f"{c}*{xe}")
    return "+".join(terms) if terms else "0"


def galois_field(p: int, k: int, poly=None,
                 max_order: int = DEFAULT_RING_CAP) -> FiniteRing:
    """GF(p^k).  ``poly`` is the monic irreducible modulus as a low-to-high
    coefficient list of length k+1; required when k > 1."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = p ** k
    if q > max_order:
        raise BudgetError("ring-order", max_order, q)
    if k == 1:
        ring = zmod(p, max_order)
        return FiniteRing(add=ring.add, mul=ring.mul, zero=0, one=1,
                          names=ring.names, tag=f"GF({p})", field_params=(p, 1))
    if poly is None:
        raise ValueError(f"GF({q}) needs an explicit irreducible polynomial")
    f = [c % p for c in poly]
    if len(f) != k + 1 or f[-1] != 1:
        raise ValueError("modulus must be monic of degree k")
    if not _is_irreducible(f, p):
        raise ValueError(f"polynomial is reducible over F_{p}")

    def decode(i):
        out = []
        for _ in range(k):
            out.append(i % p)
            i //= p
        return out

    def encode(digits):
        v, s = 0, 1
        for d in digits:
            v += d * s
            s *= p
        return v

    def pmul(a, b):
        return encode((_poly_mulmod(decode(a), decode(b), f, p) + [0] * k)[:k])

    # multiplicative generator -> exp/log tables -> vectorized mul
    gen = None
    for cand in range(1, q):
        seen, cur, t = set(), cand, 0
        while cur not in seen:
            seen.add(cur)
            cur = pmul(cur, cand)
            t += 1
            if cur == cand:
                break
        order = len(seen)
        if order == q - 1:
            gen = cand
            break
    if gen is None:
        raise ValueError("no multiplicative generator found (not a field?)")
    exp = np.empty(q - 1, dtype=np.int64)
    exp[0] = 1
    for i in range(1, q - 1):
        exp[i] = pmul(int(exp[i - 1]), gen)
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(q - 1)

    idx = np.arange(q, dtype=np.int64)
    digs = [(idx // p ** i) % p for i in range(k)]
    add = np.zeros((q, q), dtype=np.int64)
    for i in range(k):
        add += (p ** i) * ((digs[i][:, None] + digs[i][None, :]) % p)
    mul = exp[(log[idx][:, None] + log[idx][None, :]) % (q - 1)]
    mul[0, :] = 0
    mul[:, 0] = 0
    names = tuple(_gf_name(decode(i), p) for i in range(q))
    ptxt = _gf_name(f, p)
    return FiniteRing(add=add, mul=mul, zero=0, one=1, names=names,
                      tag=f"GF({q};{ptxt})", field_params=(p, k))


def frobenius_table(ring: FiniteRing) -> np.ndarray:
    """x -> x^p on a finite field, as an index table."""
    if ring.field_params is None:
        raise ValueError("frobenius needs a field")
    p, _ = ring.field_params
    acc = np.full(ring.order, ring.one, dtype=np.int64)
    base = np.arange(ring.order, dtype=np.int64)
    while p:   # square-and-multiply on every element at once
        if p & 1:
            acc = ring.mul[acc, base]
        base = ring.mul[base, base]
        p >>= 1
    return acc


# ---------------------------------------------------------------- products

def _strides(sizes) -> list[int]:
    """Mixed-radix place values, leftmost component most significant."""
    return [prod(sizes[i + 1:]) for i in range(len(sizes))]


def _product_tables(parts):
    """(add, mul, zero, one, names) of the product of rings, mixed radix
    over the component indices: each step puts the next component's table
    on its own pair of axes and flattens."""
    add = mul = np.zeros((1, 1), dtype=np.int64)
    zero = one = 0
    for r in parts:
        k, s = add.shape[0], r.order
        add = (add[:, None, :, None] * s
               + r.add[None, :, None, :]).reshape(k * s, k * s)
        mul = (mul[:, None, :, None] * s
               + r.mul[None, :, None, :]).reshape(k * s, k * s)
        zero, one = zero * s + r.zero, one * s + r.one
    names = tuple("(" + ",".join(t) + ")"
                  for t in itertools.product(*(r.names for r in parts)))
    return add, mul, zero, one, names


def product_ring(parts, max_order: int = DEFAULT_RING_CAP) -> FiniteRing:
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty product")
    if len(parts) == 1:
        return parts[0]
    n = prod(r.order for r in parts)
    if n > max_order:
        raise BudgetError("ring-order", max_order, n)
    add, mul, zero, one, names = _product_tables(parts)
    tag = "*".join(r.tag for r in parts)
    return FiniteRing(add=add, mul=mul, zero=zero, one=one,
                      names=names, tag=tag, components=parts)


def product_corner(parts, comps) -> FiniteRing:
    """corner_ring(product_ring(parts), e) for the idempotent e with
    component indices comps.  Re is the product of the corners R_j·e_j,
    so it is built from those: the product ring is never tabulated."""
    parts = tuple(parts)
    if len(parts) == 1:
        return corner_ring(parts[0], comps[0])
    corners = [r if c == r.one else corner_ring(r, c)
               for r, c in zip(parts, comps)]
    add, mul, zero, one, names = _product_tables(corners)
    tag = "*".join(r.tag for r in parts)
    e = "(" + ",".join(r.names[c] for r, c in zip(parts, comps)) + ")"
    return FiniteRing(add=add, mul=mul, zero=zero, one=one, names=names,
                      tag=f"corner({tag};e={e})")


def product_digits(parts, a: int) -> tuple[int, ...]:
    """Component indices of element a of product_ring(parts)."""
    sizes = [r.order for r in parts]
    return tuple((a // st) % sz for st, sz in zip(_strides(sizes), sizes))


def product_element_named(parts, name: str) -> int | None:
    """Index in product_ring(parts) of the element printed as name, or
    None.  It is read off the components' names (which hold no comma
    outside parentheses), so the product is never built."""
    if len(parts) == 1:
        return parts[0].names.index(name) if name in parts[0].names else None
    if not (name.startswith("(") and name.endswith(")")):
        return None
    pieces = _split_top(name[1:-1], ",")
    if (len(pieces) != len(parts)
            or any(t not in r.names for t, r in zip(pieces, parts))):
        return None
    strides = _strides([r.order for r in parts])
    return sum(st * r.names.index(t)
               for st, r, t in zip(strides, parts, pieces))


def component_indices(ring: FiniteRing, a: int) -> tuple[int, ...]:
    """Decode an element of a product ring to its component indices."""
    if not ring.components:
        raise ValueError("not a product ring")
    return product_digits(ring.components, a)


def element_from_components(ring: FiniteRing, comps) -> int:
    if not ring.components:
        raise ValueError("not a product ring")
    sizes = [r.order for r in ring.components]
    strides = _strides(sizes)
    comps = tuple(comps)
    if len(comps) != len(sizes) or any(not 0 <= c < s for c, s in zip(comps, sizes)):
        raise ValueError("bad component tuple")
    return sum(c * strides[i] for i, c in enumerate(comps))


def slot_maps(parts, perm, frob=None) -> list[np.ndarray]:
    """The automorphism of product_ring(parts) that sends component j
    through frobenius^frob[j] into slot perm[j], one slot at a time: the
    index table of frobenius^frob[j] on parts[j] for each j.  Permuted
    slots must hold identically constructed components."""
    m = len(parts)
    perm = list(perm)
    if sorted(perm) != list(range(m)):
        raise ValueError("not a permutation")
    frob = list(frob) if frob is not None else [0] * m
    for j in range(m):
        if parts[perm[j]].tag != parts[j].tag:
            raise ValueError("permutation mixes non-identical components")
        if frob[j] and parts[j].field_params is None:
            raise ValueError("frobenius twist on a non-field component")
    maps = []
    for j, r in enumerate(parts):
        d = np.arange(r.order, dtype=np.int64)
        if frob[j] and r.field_params:
            fr = frobenius_table(r)
            for _ in range(frob[j] % r.field_params[1]):
                d = fr[d]
        maps.append(d)
    return maps


def product_automorphism(ring: FiniteRing, perm, frob=None) -> np.ndarray:
    """The automorphism of slot_maps on a product ring, as an index
    table."""
    parts = ring.components
    if not parts:
        raise ValueError("not a product ring")
    maps = slot_maps(parts, perm, frob)
    sizes = [r.order for r in parts]
    strides = _strides(sizes)
    idx = np.arange(ring.order, dtype=np.int64)
    out = np.zeros(ring.order, dtype=np.int64)
    for j, t in enumerate(maps):
        out += strides[perm[j]] * t[(idx // strides[j]) % sizes[j]]
    return out


def corner_ring(ring: FiniteRing, e: int) -> FiniteRing:
    """The ideal Re as a unital ring with identity e."""
    if not ring.is_idempotent(e):
        raise ValueError(f"{e} is not idempotent")
    members = np.array(ring.corner_members(e), dtype=np.int64)
    to_loc = np.full(ring.order, -1, dtype=np.int64)
    to_loc[members] = np.arange(len(members))
    return FiniteRing(
        add=to_loc[ring.add[np.ix_(members, members)]],
        mul=to_loc[ring.mul[np.ix_(members, members)]],
        zero=int(to_loc[ring.zero]),
        one=int(to_loc[e]),
        names=tuple(ring.names[int(a)] for a in members),
        tag=f"corner({ring.tag};e={ring.names[e]})",
    )


# ---------------------------------------------------------------- parser

_GF_RE = re.compile(r"^GF\(\s*(\d+)\s*(?:;(.*))?\)$")
_Z_RE = re.compile(r"^Z\(?\s*(\d+)\s*\)?$")


def _split_top(expr: str, sep: str):
    parts, depth, cur = [], 0, []
    for ch in expr:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_poly(text: str, p: int) -> list[int]:
    """Parse 'x^2+2*x+1' into low-to-high coefficients over F_p."""
    text = text.replace(" ", "").replace("-", "+-")
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        if not term:
            continue
        m = re.fullmatch(r"(-?\d+)?\*?(x(?:\^(\d+))?)?", term)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"bad polynomial term {term!r}")
        c = int(m.group(1)) if m.group(1) is not None else 1
        e = 0 if m.group(2) is None else (1 if m.group(3) is None else int(m.group(3)))
        coeffs[e] = (coeffs.get(e, 0) + c) % p
    deg = max(coeffs) if coeffs else 0
    return [coeffs.get(i, 0) for i in range(deg + 1)]


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            if q != 1:
                raise ValueError("GF order must be a prime power")
            return p, k
    raise ValueError("GF order must be >= 2")


def ring_components(descriptor: str,
                    max_order: int = DEFAULT_RING_CAP) -> tuple[FiniteRing, ...]:
    """The rings a descriptor multiplies, without their product: a single
    ring when it names no product.  The product's order still counts
    against max_order."""
    expr = descriptor.strip()
    tops = [t.strip() for t in _split_top(expr, "*")]
    if len(tops) > 1:
        built = {t: make_ring(t, max_order) for t in dict.fromkeys(tops)}
        parts = tuple(built[t] for t in tops)
        n = prod(r.order for r in parts)
        if n > max_order:
            raise BudgetError("ring-order", max_order, n)
        return parts
    if expr.startswith("(") and expr.endswith(")"):
        return ring_components(expr[1:-1], max_order)
    m = _Z_RE.match(expr)
    if m:
        return (zmod(int(m.group(1)), max_order),)
    m = _GF_RE.match(expr)
    if m:
        q = int(m.group(1))
        p, k = _factor_prime_power(q)
        poly = parse_poly(m.group(2), p) if m.group(2) else None
        return (galois_field(p, k, poly, max_order),)
    raise ValueError(f"cannot parse ring descriptor {descriptor!r}")


def make_ring(descriptor: str, max_order: int = DEFAULT_RING_CAP) -> FiniteRing:
    """Build a ring from a descriptor: Z6, GF(4;x^2+x+1), products with '*'."""
    return product_ring(ring_components(descriptor, max_order), max_order)
