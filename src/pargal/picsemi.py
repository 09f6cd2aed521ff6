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

Array form: E(R) is the ascending index array E of the idempotents, and
star_g is the gather alpha_hat[g, E] masked to {e <= 1_{g^-1}}.  The
partial-action axioms on the semilattice are array identities over
(g, h, e); a failure names its first witness in (g, h, e) order.  The
tensor cross-check runs at every (g, e), batched over e once per g: the
two balanced products are boolean (e, r) membership matrices, closed
under addition in row blocks of about 2**22 cells.  Units of a corner
monoid are the rows of its meet table that reach the top.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DefectError, PreconditionError
from .finring import FiniteRing, idempotents
from .partial_action import PartialAction

COLLAPSE_NOTE = ("PicS collapsed to the idempotent semilattice E(R): finite "
                 "commutative rings are products of finite local rings, so "
                 "all rank <= 1 projectives are ideals Re and Pic is trivial.")

_BLOCK_CELLS = 1 << 22   # cells of the largest boolean closure temporary


@dataclass(frozen=True, order=True)
class PicSClass:
    """[Re], canonically represented by the idempotent e."""
    e: int

    def __repr__(self):
        return f"[Re:{self.e}]"


def _units_of(ring: FiniteRing, xs, top: int) -> tuple[int, ...]:
    """The members x of xs with x·y == top for some y in xs."""
    xs = np.asarray(xs, dtype=np.int64)
    return tuple(xs[(ring.mul[np.ix_(xs, xs)] == top).any(axis=1)].tolist())


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
        return tuple(PicSClass(e) for e in _units_of(
            self.ring, [c.e for c in self.classes], self.ring.one))


def pics_monoid(ring: FiniteRing) -> PicSMonoid:
    return PicSMonoid(ring, tuple(PicSClass(e) for e in idempotents(ring)))


# ------------------------------------------------------------ star action

def _blocks(n: int, row_cells: int) -> list[slice]:
    """Consecutive slices of range(n), each covering about _BLOCK_CELLS
    cells at row_cells cells per row (at least one row)."""
    step = max(1, _BLOCK_CELLS // max(1, row_cells))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def _additive_closure(ring: FiniteRing, sets: np.ndarray) -> np.ndarray:
    """Each row of a boolean (k, |R|) membership matrix, with 0 added,
    closed under addition: r joins a row holding x and r - x."""
    n = ring.order
    diff = ring.add[:, ring.neg]     # diff[r, x] = r - x
    sets = sets.copy()
    sets[:, ring.zero] = True
    for rows in _blocks(len(sets), n * n):
        cur = sets[rows]
        cols = _blocks(n, len(cur) * n)
        while True:
            nxt = np.concatenate(
                [(cur[:, diff[c]] & cur[:, None, :]).any(axis=2) for c in cols],
                axis=1)
            if np.array_equal(nxt, cur):
                break
            cur = nxt
        sets[rows] = cur
    return sets


def _product_table(ring: FiniteRing, left, right) -> np.ndarray:
    """table[x, r] = 1 when r == left[x]·y for some y in right, as float32
    so that images of membership rows are matrix products."""
    left = np.asarray(left, dtype=np.int64)
    table = np.zeros((len(left), ring.order), dtype=np.float32)
    table[np.arange(len(left))[:, None], ring.mul[np.ix_(left, right)]] = 1
    return table


def _tensor_supports(action: PartialAction, g: int, es) -> np.ndarray:
    """Support idempotent of (D_g)_{g^-1} (x)_R Re (x)_R (D_{g^-1})_g for
    each e in es, -1 where the collapsed ideal has none.  The two balanced
    products collapse to additive ideal spans, held as boolean (e, r)
    membership rows.  Independent of the closed form alpha_g(e); used to
    cross-check it."""
    R = action.ring
    idx = np.arange(R.order)
    ahat = np.asarray(action.alpha_hat[g], dtype=np.int64)
    dg = np.asarray(action.domain_members(g), dtype=np.int64)
    dginv = np.asarray(action.domain_members(action.group.inv(g)), dtype=np.int64)
    in_re = (R.mul[np.asarray(es, dtype=np.int64)] == idx).astype(np.float32)
    # step 1: d (x) x collapses to d·alpha_g(x·1_{g^-1}) (x) e
    t1 = _additive_closure(R, in_re @ _product_table(R, ahat, dg) > 0)
    # step 2: t (x) d collapses to t·alpha_g(d·1_{g^-1}) (x) 1_{g^-1},
    # the right twist then straightens to the plain action
    t2 = _additive_closure(
        R, t1.astype(np.float32) @ _product_table(R, idx, ahat[dginv]) > 0)
    # the support: the first idempotent in the span that fixes all of it
    ids = np.asarray(idempotents(R), dtype=np.int64)
    moves = (R.mul[ids] != idx).astype(np.float32)     # moves[f, x]: f·x != x
    ok = t2[:, ids] & ~(t2.astype(np.float32) @ moves.T > 0)
    return np.where(ok.any(axis=1), ids[ok.argmax(axis=1)], -1)


@dataclass(frozen=True, eq=False)
class PicSAction:
    base: PartialAction
    table: np.ndarray   # table[g, e] = star_g(e) for e in E(R), e <= 1_{g^-1}; else -1

    @cached_property
    def star(self) -> tuple[dict, ...]:
        """star[g]: {e <= 1_{g^-1}} -> {e <= 1_g}, keys ascending."""
        return tuple({e: int(row[e]) for e in np.flatnonzero(row >= 0).tolist()}
                     for row in self.table)

    def domain(self, g: int) -> tuple[int, ...]:
        return tuple(sorted(self.star[g]))

    def apply(self, g: int, cls: PicSClass) -> PicSClass:
        if cls.e not in self.star[g]:
            raise PreconditionError(f"class {cls} outside the domain of star_{g}")
        return PicSClass(self.star[g][cls.e])


def _below(ring: FiniteRing, E: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """below[..., i]: E[i] <= tops[...], i.e. E[i]·top == E[i]."""
    return ring.mul[tops[..., None], E] == E


def star_action(action: PartialAction) -> PicSAction:
    """alpha* on PicS: e -> alpha_g(e) on {e <= 1_{g^-1}}; the partial-action
    axioms are checked on the semilattice and the value of every star_g is
    cross-checked against the bimodule tensor construction."""
    R, G = action.ring, action.group
    nG = G.order
    E = np.asarray(idempotents(R), dtype=np.int64)
    pos = np.full(R.order, -1, dtype=np.int64)
    pos[E] = np.arange(len(E))
    one = np.asarray(action.one_g, dtype=np.int64)
    inv, gh = G.inverse_table, G.table
    gs = np.arange(nG)
    below = _below(R, E, one)                # below[g, i]: E[i] <= 1_g
    dom = below[inv]                         # the domain of star_g
    S = np.asarray(action.alpha_hat, dtype=np.int64)[:, E]   # star_g(E[i]) on dom

    for g in range(nG):
        d, v = E[dom[g]], S[g, dom[g]]
        if not np.array_equal(np.sort(v), E[below[g]]):
            raise DefectError(f"star_{g} is not onto the idempotents under 1_g")
        bad = np.argwhere(S[g, pos[R.mul[np.ix_(d, d)]]] != R.mul[np.ix_(v, v)])
        if bad.size:
            i, j = bad[0]
            raise DefectError(f"star_{g} breaks the meet at ({d[i]},{d[j]})")
        if S[g, pos[one[inv[g]]]] != one[g]:
            raise DefectError(f"star_{g} moves the top class")

    # from here every star_g is a bijection of dom[g] onto below[g]
    ident = G.identity
    if (dom[ident] & (S[ident] != E)).any():
        raise DefectError("star_1 is not the identity")
    bad = np.argwhere(below & (S[gs[:, None], pos[S[inv]]] != E))
    if bad.size:
        g, i = bad[0]
        raise DefectError(f"star_{g} does not invert star at {E[i]}")
    # domain pattern: star_g({e <= 1_{g^-1}·1_h}) = {e <= 1_g·1_{gh}}
    src = _below(R, E, R.mul[one[inv][:, None], one])
    dst = _below(R, E, R.mul[one[:, None], one[gh]])
    image = np.zeros_like(src)
    g_, h_, i_ = np.nonzero(src)
    image[g_, h_, pos[S[g_, i_]]] = True
    pattern_bad = (image != dst).any(axis=2)
    # composition star_g(star_h(e)) = star_gh(e) wherever both sides exist
    mid = pos[S][None]                       # mid[0, h, i]: star_h(E[i]) in E
    g3 = gs[:, None, None]
    comp_bad = (dom[None] & dom[gh] & dom[g3, mid] & (S[g3, mid] != S[gh]))
    bad = np.argwhere(pattern_bad | comp_bad.any(axis=2))
    if bad.size:
        g, h = bad[0]
        if pattern_bad[g, h]:
            raise DefectError(f"star domain pattern fails at ({g},{h})")
        e = E[np.flatnonzero(comp_bad[g, h])[0]]
        raise DefectError(f"star composition fails at ({g},{h},{e})")

    for g in range(nG):
        es, want = E[dom[g]], S[g, dom[g]]
        got = _tensor_supports(action, g, es)
        bad = np.flatnonzero(got != want)
        if bad.size:
            i = bad[0]
            if got[i] < 0:
                raise DefectError("ideal has no idempotent support")
            raise DefectError(
                f"tensor support {got[i]} disagrees with star_{g}({es[i]})")

    table = np.full((nG, R.order), -1, dtype=np.int64)
    g_, i_ = np.nonzero(dom)
    table[g_, E[i_]] = S[g_, i_]
    return PicSAction(action, table)


# ------------------------------------------------------------- 1-cocycles

def semilattice_units(pics: PicSAction, g: int) -> tuple[int, ...]:
    """Units of the corner monoid X_g = {e <= 1_g} under the meet; scanned,
    not assumed to be the singleton {1_g}."""
    R = pics.base.ring
    top = pics.base.one(g)
    E = np.asarray(idempotents(R), dtype=np.int64)
    return _units_of(R, E[R.mul[E, top] == E], top)


def z1_pics(pics: PicSAction) -> tuple[tuple[PicSClass, ...], ...]:
    """All monoid 1-cocycles: maps f with f(g) a unit of X_g and
    star_g(f(h)·1_{g^-1})·f(g) = f(gh)·1_g.  Enumerated over the honest
    unit scan, each choice tested over all (g, h) at once; over finite
    rings the result is the identity singleton, which the callers assert
    rather than assume."""
    action = pics.base
    R, G = action.ring, action.group
    one = np.asarray(action.one_g, dtype=np.int64)
    units = [semilattice_units(pics, g) for g in range(G.order)]
    out = []
    for choice in itertools.product(*units):
        f = np.array(choice, dtype=np.int64)
        moved = pics.table[np.arange(G.order)[:, None],
                           R.mul[one[G.inverse_table][:, None], f]]
        if np.array_equal(R.mul[moved, f[:, None]], R.mul[f[G.table], one[:, None]]):
            out.append(tuple(PicSClass(e) for e in choice))
    return tuple(out)
