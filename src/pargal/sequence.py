"""Finite-scale consequences of the seven-term exact sequence.

Over a finite commutative base, five of the seven groups are provably
trivial (both Picard groups and the relative Brauer group collapse), so
exactness pins H^1 and H^2 to the trivial group and forces the PicS-valued
1-cocycles down to the identity.  These are checkable predictions; this
module recomputes each term by honest enumeration and compares.  H^3 is
reported without a prediction: the sequence only maps into it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import (Cochain, cohomologous, cohomology_group, identity_cochain,
                         is_cocycle)
from .errors import DefectError, PreconditionError
from .galois import GaloisCertificate, find_certificate, regular_representation
from .partial_action import PartialAction, invariant_subring
from .picsemi import COLLAPSE_NOTE, pics_monoid, star_action, z1_pics

IDENTIFICATION_NOTE = ("for commutative Galois bases the auxiliary PicS_0 and "
                       "quotient H-bar groups coincide with PicS and H^1; the "
                       "collapsed objects are the ones computed here.")


def _require_galois(action: PartialAction) -> GaloisCertificate:
    found = find_certificate(action)
    if not isinstance(found, GaloisCertificate):
        raise PreconditionError(
            f"action is not a partial Galois extension ({found.reason})")
    return found


# ------------------------------------------------------ twisted invariants

@dataclass(frozen=True)
class TwistedInvariantsReport:
    twist_values: tuple[int, ...]       # f(g) per group element
    members: tuple[int, ...]            # the twisted invariant set R^G_f
    invariant_order: int                # |R^alpha|
    free_rank_one: bool
    generator: int | None
    twist_is_coboundary: bool

    def __str__(self):
        shape = "free of rank 1" if self.free_rank_one else "not free of rank 1"
        return (f"R^G_f: {len(self.members)} elements, {shape} over R^alpha "
                f"(order {self.invariant_order})")


def twisted_invariants(action: PartialAction, f: Cochain) -> TwistedInvariantsReport:
    """R^G under the f-twisted skew action: the monomial 1_g·delta_g acts
    as r -> alpha_g(r·1_{g^-1})·f(g)^{-1}, so membership reads
    alpha_g(r·1_{g^-1}) = r·f(g) for every g.  Exactness at H^1 predicts
    free of rank 1 over R^alpha precisely when f is a coboundary, which is
    always the case here; both sides of that biconditional are computed."""
    _require_galois(action)
    if f.n != 1:
        raise PreconditionError("twist must be a 1-cochain")
    if not is_cocycle(action, f):
        raise PreconditionError("twist is not a 1-cocycle")
    R, G = action.ring, action.group
    mask = np.ones(R.order, dtype=bool)
    for g in range(G.order):
        mask &= action.alpha_hat[g] == R.mul[np.arange(R.order), f[(g,)]]
    members = tuple(int(x) for x in np.nonzero(mask)[0])

    S = invariant_subring(action)
    s_members = [int(s) for s in S.members]
    gen = None
    for m in members:
        image = {int(R.mul[s, m]) for s in s_members}
        if image == set(members) and len(image) == len(s_members):
            gen = m
            break
    free = gen is not None

    eps = cohomologous(action, f, identity_cochain(action, 1))
    in_b1 = eps is not None
    if free != in_b1:
        raise DefectError("freeness disagrees with the coboundary test: "
                          f"free={free}, coboundary={in_b1}")
    return TwistedInvariantsReport(
        twist_values=tuple(f[(g,)] for g in range(G.order)),
        members=members, invariant_order=len(s_members),
        free_rank_one=free, generator=gen, twist_is_coboundary=in_b1)


# ------------------------------------------------------- consequence check

@dataclass(frozen=True)
class TermEntry:
    name: str
    order: int
    method: str
    expected: str          # exactness prediction, or "no prediction"
    consistent: bool | None


@dataclass(frozen=True)
class SequenceReport:
    action_tag: str
    entries: tuple[TermEntry, ...]
    consistent: bool
    notes: tuple[str, ...]

    def text_table(self) -> str:
        width = max(len(e.name) for e in self.entries)
        lines = [f"exact-sequence consequences for {self.action_tag}",
                 f"overall: {'consistent' if self.consistent else 'INCONSISTENT'}"]
        for e in self.entries:
            verdict = {True: "ok", False: "VIOLATED", None: "-"}[e.consistent]
            lines.append(f"  {e.name.ljust(width)}  order {e.order:>12}  "
                         f"[{e.method}]  expected {e.expected}: {verdict}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        return {
            "action": self.action_tag,
            "consistent": self.consistent,
            "terms": [
                {"name": e.name, "order": e.order, "method": e.method,
                 "expected": e.expected, "consistent": e.consistent}
                for e in self.entries],
            "notes": list(self.notes),
        }


def consequence_check(action: PartialAction, engine: str = "auto") -> SequenceReport:
    _require_galois(action)
    S = invariant_subring(action)

    h1 = cohomology_group(action, 1, engine=engine)
    h2 = cohomology_group(action, 2, engine=engine)
    h3 = cohomology_group(action, 3, engine=engine)
    pics = star_action(action)
    z1p = z1_pics(pics)
    pic_r = pics_monoid(action.ring).units()
    pic_s = pics_monoid(S.ring).units()

    entries = (
        TermEntry("H^1(G,alpha,U(R))", h1.h_order, h1.engine, "1", h1.h_order == 1),
        TermEntry("Pic(R^alpha)", len(pic_s), "unit-class scan", "1", len(pic_s) == 1),
        TermEntry("Pic(R)", len(pic_r), "unit-class scan", "1", len(pic_r) == 1),
        TermEntry("H^2(G,alpha,U(R))", h2.h_order, h2.engine, "1", h2.h_order == 1),
        TermEntry("B(R/R^alpha)", 1, "collapse (finite ring)", "1", True),
        TermEntry("Z^1(G,alpha*,PicS)", len(z1p), "semilattice enumeration", "1",
                  len(z1p) == 1),
        TermEntry("H^3(G,alpha,U(R))", h3.h_order, h3.engine, "no prediction", None),
    )
    consistent = all(e.consistent for e in entries if e.consistent is not None)
    return SequenceReport(
        action_tag=repr(action), entries=entries, consistent=consistent,
        notes=(COLLAPSE_NOTE, IDENTIFICATION_NOTE))


# ------------------------------------------------------- matrix-ring verdict

@dataclass(frozen=True)
class BrauerVerdict:
    matrix_size: int
    base_order: int
    base_label: str
    order: int
    rho_bijective: bool
    kappa_multiplicative: bool

    def __str__(self):
        return (f"Delta(Theta) = M_{self.matrix_size}({self.base_label}), "
                f"order {self.order}")


def delta_theta_brauer_class(action: PartialAction) -> BrauerVerdict:
    """Delta(Theta) is isomorphic to the skew group ring (kappa), which the
    regular representation identifies with the full R^alpha-endomorphism
    ring of R; for a Galois action that pins its class in the relative
    Brauer group to the trivial one, i.e. a full matrix ring over R^alpha."""
    from .crossed import kappa_iso   # local import: crossed pulls cohomology

    _require_galois(action)
    rep = regular_representation(action)
    if rep.bijective is not True:
        raise DefectError(f"regular representation is not an isomorphism: {rep}")
    kappa = kappa_iso(action)
    S = invariant_subring(action)
    s_ring = S.ring
    units = sum(1 for u in range(s_ring.order)
                if any(int(s_ring.mul[u, v]) == s_ring.one
                       for v in range(s_ring.order)))
    label = f"GF({s_ring.order})" if units == s_ring.order - 1 \
        else f"ring of order {s_ring.order}"
    n = rep.free_rank
    assert rep.endo_order == rep.invariant_order ** (n * n)
    assert rep.skew_order == rep.endo_order
    return BrauerVerdict(
        matrix_size=n, base_order=rep.invariant_order, base_label=label,
        order=rep.endo_order, rho_bijective=True,
        kappa_multiplicative=kappa.multiplicative)
