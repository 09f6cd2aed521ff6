"""Unital partial actions of a finite group on a finite commutative ring.

An action assigns to each g an idempotent 1_g (so D_g = R·1_g) and a ring
isomorphism alpha_g : D_{g^-1} -> D_g.  alpha[g] is stored as a total
table on D_{g^-1} with -1 outside it; applying alpha_g to an arbitrary r
always means alpha_g(r·1_{g^-1}).
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import DefectError
from .finring import (FiniteRing, Subring, corner_ring, idempotents,
                      primitive_idempotents, subring_from_members)
from .groups import FiniteGroup


@dataclass(frozen=True)
class Budgets:
    """The size limits of the computations on an action.  Past one, a
    computation either raises a BudgetError that names it or takes the
    other route its docstring gives (a proof on generators or an
    undecided answer)."""
    cochain_scan: int = 10_000_000         # cochains an exhaustive scan visits
    kernel_dfs_nodes: int = 10_000_000     # nodes of the cocycle search
    materialize: int = 1_000_000           # members of B^n the enumeration engine closes
    cochain_size: int = 10_000_000         # values of one cochain, |G|^n
    structure_positions: int = 200_000     # positions of delta^n, |G|^(n+1)
    galois_search: int = 1_000_000         # pair lists the Galois search tries
    galois_lattice: int = 40_000_000       # (rows + cols) * cols^2 of its lattice
    basis_nodes: int = 20_000              # nodes of the free-basis search
    assoc_triples: int = 1_000_000         # triples checked one by one

    def capped(self, n: int) -> Budgets:
        """Every budget lowered to at most n."""
        return replace(self, **{f.name: min(getattr(self, f.name), n)
                                for f in fields(self)})


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: dict
    detail: str

    def __str__(self):
        w = ", ".join(f"{k}={v}" for k, v in self.witness.items())
        return f"[{self.axiom}] {self.detail} ({w})"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    counts: dict

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid: all partial action axioms hold"
        lines = [f"INVALID: {sum(self.counts.values())} violation(s) "
                 f"across {len(self.counts)} axiom(s)"]
        for v in self.violations:
            lines.append("  " + str(v))
        for ax, c in sorted(self.counts.items()):
            lines.append(f"  axiom {ax}: {c} total")
        return "\n".join(lines)


_WITNESS_CAP = 3  # per axiom; counts still reflect every violation


class _Collector:
    def __init__(self):
        self.violations = []
        self.counts = {}

    def hit(self, axiom, witness, detail, extra=0):
        n = self.counts.get(axiom, 0)
        if n < _WITNESS_CAP:
            self.violations.append(Violation(axiom, witness, detail))
        self.counts[axiom] = n + 1 + extra

    def report(self):
        return ValidationReport(tuple(self.violations), dict(self.counts))


def _additive_generators(ring: FiniteRing, members) -> tuple[int, ...]:
    """Small set generating the additive group of the given ideal; kept
    in the ring's corner cache per member sequence."""
    members = np.asarray(members, dtype=np.int64)
    key = ("additive-generators", members.tobytes())
    got = ring._corner_cache.get(key)
    if got is not None:
        return got
    in_span = np.zeros(ring.order, dtype=bool)
    in_span[ring.zero] = True
    gens = []
    for m in members.tolist():
        if in_span[m]:
            continue
        gens.append(m)
        # span + <m> is the union of the cosets span + k*m, k = 0, 1, ...;
        # they are disjoint until the walk returns to the span itself
        coset = np.nonzero(in_span)[0]
        while True:
            coset = ring.add[coset, m]
            if in_span[coset[0]]:
                break
            in_span[coset] = True
    got = ring._corner_cache[key] = tuple(gens)
    return got


def validate(ring: FiniteRing, group: FiniteGroup, one_g, alpha) -> ValidationReport:
    """Check all unital partial action axioms on raw tables.

    Violations are data: every broken axiom is reported with a concrete
    witness (element/group indices); an empty report certifies the axioms.
    Each axiom is checked as array identities over its witness indices
    (g, h, a, b, s), and its failures are reported in lexicographic order
    of those indices.
    """
    col = _Collector()
    nR, nG = ring.order, group.order
    one_g = np.asarray(one_g, dtype=np.int64)
    alpha = np.asarray(alpha, dtype=np.int64)
    if one_g.shape != (nG,) or alpha.shape != (nG, nR):
        col.hit("shape", {"one_g": one_g.shape, "alpha": alpha.shape},
                f"expected one_g ({nG},) and alpha ({nG}, {nR})")
        return col.report()
    if one_g.min() < 0 or one_g.max() >= nR or alpha.min() < -1 or alpha.max() >= nR:
        col.hit("shape", {}, "table entries out of element range")
        return col.report()

    inv = group.inverse_table
    gid = group.identity
    idx = np.arange(nR)
    one_in = one_g[inv]                       # 1_{g^-1} per g

    for g in np.nonzero(ring.mul[one_g, one_g] != one_g)[0].tolist():
        col.hit("one-idempotent", {"g": g, "e": int(one_g[g])},
                "1_g is not idempotent")

    if int(one_g[gid]) != ring.one:
        col.hit("identity-component", {"g": gid, "e": int(one_g[gid])},
                "1_1 must be the ring identity")
    else:
        bad = np.nonzero(alpha[gid] != idx)[0]
        if bad.size:
            col.hit("identity-component", {"g": gid, "r": int(bad[0])},
                    "alpha_1 must be the identity map",
                    extra=int(bad.size) - 1)

    # definedness: alpha[g] is a total map exactly on D_{g^-1}
    in_dom = ring.mul[:, one_in].T == idx     # (g, r): r in D_{g^-1}
    defined = alpha >= 0
    missing = in_dom & ~defined
    spurious = ~in_dom & defined
    dom_ok = ~(missing | spurious).any(axis=1)
    for g in np.nonzero(~dom_ok)[0].tolist():
        for r in np.nonzero(missing[g])[0][:_WITNESS_CAP].tolist():
            col.hit("domain-definedness", {"g": g, "r": r},
                    "alpha_g undefined on a member of D_{g^-1}")
        for r in np.nonzero(spurious[g])[0][:_WITNESS_CAP].tolist():
            col.hit("domain-definedness", {"g": g, "r": r},
                    "alpha_g defined outside D_{g^-1}")

    # the remaining checks read alpha through a totalised table; broken
    # entries collapse to 0 and are already reported above
    safe = np.where(defined, alpha, ring.zero)
    ahat = np.take_along_axis(safe, ring.mul[:, one_in].T, axis=1)
    out_dom = ring.mul[:, one_g].T == idx     # (g, r): r in D_g

    for g in np.nonzero(dom_ok)[0].tolist():
        e_in, e_out = int(one_in[g]), int(one_g[g])
        sg = safe[g]
        members = np.nonzero(in_dom[g])[0]
        image = sg[members]
        if (len(np.unique(image)) != len(members)
                or not out_dom[g][image].all()
                or len(members) != int(out_dom[g].sum())):
            col.hit("bijection", {"g": g},
                    "alpha_g is not a bijection from D_{g^-1} onto D_g")
            continue
        if int(sg[e_in]) != e_out:
            col.hit("unit-to-unit", {"g": g, "got": int(sg[e_in])},
                    "alpha_g(1_{g^-1}) != 1_g")
        gens = np.asarray(_additive_generators(ring, members), dtype=np.int64)
        col_g = gens[:, None]
        bad = sg[ring.add[col_g, members]] != ring.add[sg[col_g], image]
        for i in np.nonzero(bad.any(axis=1))[0].tolist():
            at = np.nonzero(bad[i])[0]
            col.hit("additive", {"g": g, "a": int(gens[i]),
                                 "b": int(members[at[0]])},
                    "alpha_g(a+b) != alpha_g(a)+alpha_g(b)",
                    extra=int(at.size) - 1)
        bad = sg[ring.mul[col_g, gens]] != ring.mul[sg[col_g], sg[gens]]
        for i, j in np.argwhere(bad).tolist():
            col.hit("multiplicative", {"g": g, "a": int(gens[i]),
                                       "b": int(gens[j])},
                    "alpha_g(ab) != alpha_g(a)alpha_g(b)")

    # unital compatibility: alpha_g(1_h 1_{g^-1}) = 1_g 1_{gh}
    bad = ahat[:, one_g] != ring.mul[one_g[:, None], one_g[group.table]]
    for g, h in np.argwhere(bad).tolist():
        col.hit("unital-compatibility", {"g": g, "h": h},
                "alpha_g(1_h 1_{g^-1}) != 1_g 1_{gh}")

    # composition: alpha_g(alpha_h(s 1_{h^-1}) 1_{g^-1}) 1_g = alpha_{gh}(s 1_{(gh)^-1}) 1_g
    for g in range(nG):
        eg = int(one_g[g])
        bad = ring.mul[ahat[g][ahat], eg] != ring.mul[ahat[group.table[g]], eg]
        for h in np.nonzero(bad.any(axis=1))[0].tolist():
            at = np.nonzero(bad[h])[0]
            col.hit("composition", {"g": g, "h": h, "s": int(at[0])},
                    "alpha_g . alpha_h and alpha_{gh} disagree",
                    extra=int(at.size) - 1)

    # inverse pairing: alpha_{g^-1} inverts alpha_g on D_{g^-1}
    for g in range(nG):
        if not (dom_ok[g] and dom_ok[inv[g]]):
            continue
        members = np.nonzero(in_dom[g])[0]
        back = safe[inv[g]][safe[g][members]]
        bad = np.nonzero(back != members)[0]
        if bad.size:
            col.hit("inverse-pairing", {"g": g, "r": int(members[bad[0]])},
                    "alpha_{g^-1}(alpha_g(r)) != r",
                    extra=int(bad.size) - 1)

    return col.report()


@dataclass(frozen=True, eq=False)
class PartialAction:
    ring: FiniteRing
    group: FiniteGroup
    one_g: np.ndarray
    alpha: np.ndarray
    tag: str = ""
    budgets: Budgets = Budgets()

    def __post_init__(self):
        report = validate(self.ring, self.group, self.one_g, self.alpha)
        if not report.ok:
            raise DefectError(f"invalid partial action\n{report}")

    @cached_property
    def alpha_hat(self) -> np.ndarray:
        """Total tables: alpha_hat[g][r] = alpha_g(r·1_{g^-1})."""
        inv = self.group.inverse_table
        out = np.empty((self.group.order, self.ring.order), dtype=np.int64)
        for g in range(self.group.order):
            out[g] = self.alpha[g][self.ring.mul[:, self.one_g[inv[g]]]]
        return out

    def one(self, g: int) -> int:
        return int(self.one_g[g])

    def apply(self, g: int, r: int) -> int:
        """alpha_g(r·1_{g^-1})."""
        return int(self.alpha_hat[g, r])

    def domain_members(self, g: int) -> tuple[int, ...]:
        return self.ring.corner_members(int(self.one_g[g]))

    def is_global(self) -> bool:
        return bool((self.one_g == self.ring.one).all())

    def __repr__(self):
        label = self.tag or "partial action"
        return (f"PartialAction({label}: {self.group.tag} on {self.ring.tag}, "
                f"domains {[len(self.domain_members(g)) for g in range(self.group.order)]})")


def trivial_partial_action(ring: FiniteRing, group: FiniteGroup,
                           tag: str = "",
                           budgets: Budgets = Budgets()) -> PartialAction:
    nG, nR = group.order, ring.order
    one_g = np.full(nG, ring.one, dtype=np.int64)
    alpha = np.tile(np.arange(nR, dtype=np.int64), (nG, 1))
    return PartialAction(ring, group, one_g, alpha, tag=tag or "trivial",
                         budgets=budgets)


def check_automorphisms(R: FiniteRing, tables, labels) -> None:
    """Raise ValueError naming labels[i] unless every index table
    tables[i] is a ring automorphism of R.  Each law is one array identity
    over the additive generators a, b (and every r); the first failure is
    raised in the order of the loops i, a, b, additive before
    multiplicative at each a."""
    idx = np.arange(R.order)
    gens = np.asarray(_additive_generators(R, idx), dtype=np.int64)
    for s, label in zip(tables, labels):
        if not np.array_equal(np.sort(s), idx):
            raise ValueError(f"{label} is not a bijection")
        if int(s[R.one]) != R.one:
            raise ValueError(f"{label} moves the identity")
        sa = s[gens][:, None]
        not_add = np.flatnonzero((s[R.add[gens]] != R.add[sa, s]).any(axis=1))
        not_mul = np.flatnonzero(
            (s[R.mul[gens[:, None], gens]] != R.mul[sa, sa.T]).any(axis=1))
        if not_add.size and not (not_mul.size and not_mul[0] < not_add[0]):
            raise ValueError(f"{label} is not additive")
        if not_mul.size:
            raise ValueError(f"{label} is not multiplicative")


@dataclass(frozen=True, eq=False)
class GlobalAction:
    ring: FiniteRing
    group: FiniteGroup
    sigma: np.ndarray  # (|G|, |R|) automorphism tables
    tag: str = ""
    budgets: Budgets = Budgets()

    def __post_init__(self):
        R, nG = self.ring, self.group.order
        nR = R.order
        if self.sigma.shape != (nG, nR):
            raise ValueError("sigma tables have wrong shape")
        if not np.array_equal(self.sigma[self.group.identity], np.arange(nR)):
            raise ValueError("sigma_1 is not the identity")
        check_automorphisms(R, self.sigma, [f"sigma_{g}" for g in range(nG)])
        for g in range(nG):
            bad = (self.sigma[g][self.sigma]
                   != self.sigma[self.group.table[g]]).any(axis=1)
            if bad.any():
                h = int(np.argmax(bad))
                raise ValueError(f"sigma_{g} . sigma_{h} != sigma_{{gh}}")

    def __repr__(self):
        label = self.tag or "global action"
        return f"GlobalAction({label}: {self.group.tag} on {self.ring.tag})"


def as_partial(glob: GlobalAction) -> PartialAction:
    """A global action is a partial action with every 1_g = 1."""
    nG = glob.group.order
    one_g = np.full(nG, glob.ring.one, dtype=np.int64)
    return PartialAction(glob.ring, glob.group, one_g, glob.sigma.copy(),
                         tag=glob.tag or "global", budgets=glob.budgets)


def restrict_sigma(corner: FiniteRing, group: FiniteGroup, one_g, sigma,
                   tag: str = "", budgets: Budgets = Budgets()) -> PartialAction:
    """A global action restricted to a corner Re, from its tables on Re:
    one_g[g] = e·sigma_g(e) and sigma[g] = sigma_g on each member, both as
    corner indices (-1 where sigma_g leaves Re).  alpha_g is sigma_g cut
    down to D_{g^-1} = Re·1_{g^-1}, which it carries into Re."""
    one_g = np.asarray(one_g, dtype=np.int64)
    in_dom = (corner.mul[:, one_g[group.inverse_table]].T
              == np.arange(corner.order))
    alpha = np.where(in_dom, sigma, -1)
    return PartialAction(corner, group, one_g, alpha, tag=tag, budgets=budgets)


def restrict_global(glob: GlobalAction, e: int, tag: str = "") -> PartialAction:
    """Restrict a global action to the corner Se: 1_g = e·sigma_g(e),
    alpha_g = sigma_g cut down to D_{g^-1}."""
    R, sig = glob.ring, glob.sigma
    corner = corner_ring(R, e)   # refuses an e that is not idempotent
    members = np.array(R.corner_members(e), dtype=np.int64)
    to_loc = np.full(R.order, -1, dtype=np.int64)
    to_loc[members] = np.arange(len(members))
    return restrict_sigma(corner, glob.group, to_loc[R.mul[e, sig[:, e]]],
                          to_loc[sig[:, members]],
                          tag=tag or f"{glob.tag or 'global'}|e={R.names[e]}",
                          budgets=glob.budgets)


def corner_transport(glob: GlobalAction, e: int, k: int):
    """sigma_k cut down to the corner Re, which it carries onto the corner
    at e' = sigma_k(e): (phi, twist), with phi on local indices of the two
    restrictions and twist[g] = k g k^-1.  sigma_k sends 1_g = e·sigma_g(e)
    to e'·sigma_{kgk^-1}(e') and alpha_g to alpha'_{kgk^-1}."""
    R, G = glob.ring, glob.group
    to_loc = np.full(R.order, -1, dtype=np.int64)
    image = np.array(R.corner_members(int(glob.sigma[k, e])), dtype=np.int64)
    to_loc[image] = np.arange(len(image))
    phi = to_loc[glob.sigma[k][np.array(R.corner_members(e))]]
    return phi, G.table[G.table[k], G.inverse_table[k]]


def check_transport(src: PartialAction, dst: PartialAction, phi, twist) -> None:
    """Check that (phi, twist) is an isomorphism of partial actions from src
    onto dst: twist an automorphism of G, phi a ring isomorphism with
    1'_{twist(g)} = phi(1_g) and alpha'_{twist(g)}(phi(r)) = phi(alpha_g(r)),
    the domains included.  Isomorphic actions have isomorphic H^n, so dst
    may reuse what was computed on src.  Raise DefectError otherwise."""
    A, B, T = src.ring, dst.ring, src.group.table
    phi = np.asarray(phi, dtype=np.int64)
    twist = np.asarray(twist, dtype=np.int64)
    if not (np.array_equal(np.sort(twist), np.arange(len(T)))
            and np.array_equal(twist[T], T[twist][:, twist])):
        raise DefectError("transport twist is not an automorphism of G")
    if not (len(phi) == A.order
            and np.array_equal(np.sort(phi), np.arange(B.order))):
        raise DefectError("transport is not a bijection between the corners")
    col = phi[:, None]
    if not (np.array_equal(phi[A.add], B.add[col, phi])
            and np.array_equal(phi[A.mul], B.mul[col, phi])):
        raise DefectError("transport is not a ring isomorphism")
    if not np.array_equal(dst.one_g[twist], phi[src.one_g]):
        raise DefectError("transport does not carry 1_g to 1'_{twist(g)}")
    if not np.array_equal(dst.alpha[twist][:, phi], np.append(phi, -1)[src.alpha]):
        raise DefectError("transport does not carry alpha_g to alpha'_{twist(g)}")


def invariant_subring(action: PartialAction) -> Subring:
    """{r in R : alpha_g(r·1_{g^-1}) = r·1_g for every g}."""
    R = action.ring
    mask = np.ones(R.order, dtype=bool)
    for g in range(action.group.order):
        mask &= action.alpha_hat[g] == R.mul[:, action.one_g[g]]
    return subring_from_members(R, np.nonzero(mask)[0])


@dataclass(frozen=True)
class OrbitReport:
    domain_sizes: tuple[int, ...]
    one_names: tuple[str, ...]
    one_heights: tuple[int, ...]          # primitive idempotents below 1_g
    idempotents: tuple[int, ...]
    dynamics: tuple[tuple[int, ...], ...]  # dynamics[g][i] = alpha_g(e_i·1_{g^-1})

    def __str__(self):
        lines = [f"domain sizes: {list(self.domain_sizes)}",
                 f"1_g: {list(self.one_names)}",
                 f"1_g heights: {list(self.one_heights)}"]
        lines.append(f"idempotents: {list(self.idempotents)}")
        for g, row in enumerate(self.dynamics):
            lines.append(f"  g={g}: e -> {list(row)}")
        return "\n".join(lines)


def orbit_report(action: PartialAction) -> OrbitReport:
    R, G = action.ring, action.group
    ids = idempotents(R)
    prims = primitive_idempotents(R)
    sizes = tuple(len(action.domain_members(g)) for g in range(G.order))
    heights = tuple(
        sum(1 for p in prims if int(R.mul[p, action.one_g[g]]) == p)
        for g in range(G.order))
    dyn = tuple(
        tuple(int(action.alpha_hat[g, e]) for e in ids)
        for g in range(G.order))
    return OrbitReport(domain_sizes=sizes,
                       one_names=tuple(R.names[int(action.one_g[g])]
                                       for g in range(G.order)),
                       one_heights=heights,
                       idempotents=ids,
                       dynamics=dyn)
