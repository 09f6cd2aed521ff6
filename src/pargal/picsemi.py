"""PicS of a finite commutative ring as its idempotent semilattice.

COLLAPSE DECISION, load-bearing for everything downstream: a finite
commutative ring is a product of finite local rings, and finite local
rings have trivial Picard group.  Every finitely generated projective
module of rank <= 1 is therefore isomorphic to an ideal Re for a unique
idempotent e, classes multiply by [Re][Rf] = [Ref], and PicS_R(R) is the
semilattice E(R) under the ring product.  The induced partial action
collapses to e -> alpha_g(e) on {e <= 1_{g^-1}}.  Pic(R) itself is the
unit-class singleton.  This file computes with idempotents throughout and
cross-checks the collapse against the element-level bimodule tensor
construction rather than assuming it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DefectError, PreconditionError
from .finring import FiniteRing, _additive_span, idempotents
from .partial_action import PartialAction

COLLAPSE_NOTE = ("PicS collapsed to the idempotent semilattice E(R): finite "
                 "commutative rings are products of finite local rings, so "
                 "all rank <= 1 projectives are ideals Re and Pic is trivial.")


@dataclass(frozen=True, order=True)
class PicSClass:
    """[Re], canonically represented by the idempotent e."""
    e: int

    def __repr__(self):
        return f"[Re:{self.e}]"


@dataclass(frozen=True, eq=False)
class PicSMonoid:
    ring: FiniteRing
    classes: tuple[PicSClass, ...]

    @property
    def neutral(self) -> PicSClass:
        return PicSClass(self.ring.one)

    def op(self, a: PicSClass, b: PicSClass) -> PicSClass:
        return PicSClass(int(self.ring.mul[a.e, b.e]))

    def units(self) -> tuple[PicSClass, ...]:
        """Invertible classes; this is Pic(R), the singleton [R]."""
        out = [a for a in self.classes
               if any(self.op(a, b) == self.neutral for b in self.classes)]
        return tuple(out)


def pics_monoid(ring: FiniteRing) -> PicSMonoid:
    return PicSMonoid(ring, tuple(PicSClass(e) for e in idempotents(ring)))


# ------------------------------------------------------------ star action

def _ideal_support(ring: FiniteRing, span) -> int:
    """The idempotent generator of an idempotent-generated ideal, found by
    scan; DefectError when the ideal has none (would refute the collapse)."""
    members = set(int(x) for x in span)
    for f in idempotents(ring):
        if f in members and all(int(ring.mul[f, x]) == x for x in members):
            return f
    raise DefectError("ideal has no idempotent support")


def _tensor_support(action: PartialAction, g: int, e: int) -> int:
    """Support idempotent of (D_g)_{g^-1} (x)_R Re (x)_R (D_{g^-1})_g,
    computed by collapsing the two balanced products as additive ideal
    spans.  Independent of the closed form alpha_g(e); used to cross-check
    it."""
    R = action.ring
    ginv = action.group.inv(g)
    ahat = action.alpha_hat[g]
    dg = np.asarray(action.domain_members(g), dtype=np.int64)
    dginv = np.asarray(action.domain_members(ginv), dtype=np.int64)
    re = np.flatnonzero(R.mul[:, e] == np.arange(R.order))
    # step 1: d (x) x collapses to d·alpha_g(x·1_{g^-1}) (x) e
    t1 = _additive_span(R, R.mul[dg[:, None], ahat[re]])
    # step 2: t (x) d collapses to t·alpha_g(d·1_{g^-1}) (x) 1_{g^-1},
    # the right twist then straightens to the plain action
    t2 = _additive_span(R, R.mul[t1[:, None], ahat[dginv]])
    return _ideal_support(R, t2)


@dataclass(frozen=True, eq=False)
class PicSAction:
    base: PartialAction
    star: tuple[dict, ...]   # star[g]: {e <= 1_{g^-1}} -> {e <= 1_g}

    def domain(self, g: int) -> tuple[int, ...]:
        return tuple(sorted(self.star[g]))

    def apply(self, g: int, cls: PicSClass) -> PicSClass:
        if cls.e not in self.star[g]:
            raise PreconditionError(f"class {cls} outside the domain of star_{g}")
        return PicSClass(self.star[g][cls.e])


def star_action(action: PartialAction) -> PicSAction:
    """alpha* on PicS: e -> alpha_g(e) on {e <= 1_{g^-1}}; the partial-action
    axioms are checked on the semilattice and the value of every star_g is
    cross-checked against the bimodule tensor construction."""
    R, G = action.ring, action.group
    nG = G.order
    ids = idempotents(R)
    below = {g: tuple(e for e in ids if int(R.mul[e, action.one(g)]) == e)
             for g in range(nG)}
    star = []
    for g in range(nG):
        ginv = G.inv(g)
        star.append({e: int(action.alpha_hat[g][e]) for e in below[ginv]})

    for g in range(nG):
        ginv = G.inv(g)
        mp = star[g]
        if sorted(mp.values()) != list(below[g]):
            raise DefectError(f"star_{g} is not onto the idempotents under 1_g")
        for e, f in mp.items():
            for e2, f2 in mp.items():
                if star[g][int(R.mul[e, e2])] != int(R.mul[f, f2]):
                    raise DefectError(f"star_{g} breaks the meet at ({e},{e2})")
        if mp[action.one(ginv)] != action.one(g):
            raise DefectError(f"star_{g} moves the top class")

    ident = G.identity
    if any(star[ident][e] != e for e in below[ident]):
        raise DefectError("star_1 is not the identity")
    for g in range(nG):
        ginv = G.inv(g)
        for e in below[g]:
            if star[g][star[ginv][e]] != e:
                raise DefectError(f"star_{g} does not invert star at {e}")
    for g in range(nG):
        for h in range(nG):
            gh = G.op(g, h)
            ginv, hinv = G.inv(g), G.inv(h)
            # domain pattern: star_g({e <= 1_{g^-1}·1_h}) = {e <= 1_g·1_{gh}}
            src = {e for e in ids
                   if int(R.mul[e, int(R.mul[action.one(ginv), action.one(h)])]) == e}
            dst = {e for e in ids
                   if int(R.mul[e, int(R.mul[action.one(g), action.one(gh)])]) == e}
            if {star[g][e] for e in src} != dst:
                raise DefectError(f"star domain pattern fails at ({g},{h})")
            # composition on the common domain
            for e in ids:
                if int(R.mul[e, action.one(hinv)]) == e \
                        and int(R.mul[e, action.one(G.inv(gh))]) == e:
                    lhs = star[g].get(star[h][e])
                    if lhs is not None and int(R.mul[star[h][e], action.one(ginv)]) \
                            == star[h][e]:
                        if lhs != star[gh][e]:
                            raise DefectError(f"star composition fails at ({g},{h},{e})")

    for g in range(nG):
        ginv = G.inv(g)
        for e in below[ginv]:
            got = _tensor_support(action, g, e)
            if got != star[g][e]:
                raise DefectError(
                    f"tensor support {got} disagrees with star_{g}({e})")
    return PicSAction(action, tuple(star))


# ------------------------------------------------------------- 1-cocycles

def semilattice_units(pics: PicSAction, g: int) -> tuple[int, ...]:
    """Units of the corner monoid X_g = {e <= 1_g} under the meet; scanned,
    not assumed to be the singleton {1_g}."""
    action = pics.base
    R = action.ring
    top = action.one(g)
    xg = [e for e in idempotents(R) if int(R.mul[e, top]) == e]
    return tuple(e for e in xg
                 if any(int(R.mul[e, e2]) == top for e2 in xg))


def z1_pics(pics: PicSAction) -> tuple[tuple[PicSClass, ...], ...]:
    """All monoid 1-cocycles: maps f with f(g) a unit of X_g and
    star_g(f(h)·1_{g^-1})·f(g) = f(gh)·1_g.  Enumerated over the honest
    unit scan; over finite rings the result is the identity singleton,
    which the callers assert rather than assume."""
    action = pics.base
    R, G = action.ring, action.group
    nG = G.order
    units = [semilattice_units(pics, g) for g in range(nG)]
    out = []
    for choice in itertools.product(*units):
        ok = True
        for g in range(nG):
            for h in range(nG):
                moved = pics.star[g][int(R.mul[choice[h], action.one(G.inv(g))])]
                lhs = int(R.mul[moved, choice[g]])
                rhs = int(R.mul[choice[G.op(g, h)], action.one(g)])
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(PicSClass(e) for e in choice))
    return tuple(out)
