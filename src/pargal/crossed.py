"""Graded algebras over a partial action.

R*G (skew group ring), the twisted crossed product R*_f G for a 2-cocycle
f, the twisted bimodules (D_g)_{g^-1}, the factor set of the canonical
partial representation Theta, Delta(Theta), and the isomorphisms tying
them together.

Elements are per-component coordinate tuples: entry g holds an element of
D_g, standing for a_g·delta_g.  The monomial basis is the disjoint union
of the D_g's in component order.  Since 0 lies in every D_g, the product
of two basis monomials is again a basis monomial, so each algebra is one
N x N index table: table[i, j] is the basis index of monomial i times
monomial j.  Every check (associativity, unit, centrality of R^alpha,
multiplicativity of an isomorphism, the Theta factor-set identities) is
an identity between numpy gathers on such tables, evaluated one first
index at a time or over whole slots in bounded chunks.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .cohomology import (Cochain, _delta_batch, _space, coboundary,
                         cochain_mul)
from .errors import DefectError, PreconditionError
from .partial_action import (Budgets, PartialAction, _additive_generators,
                             invariant_subring)

# the default triple budget as a module name: perfbench/wl_cochain.py
# reads it
ASSOC_TRIPLE_BUDGET = Budgets().assoc_triples
# cells per array of a chunked check: 512 kB of int64
_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class TwistedBimodule:
    """(D_g)_{g^-1}: the ideal D_g with plain left action and right action
    twisted through alpha_g."""
    action: PartialAction
    g: int

    def __post_init__(self):
        act, g = self.action, self.g
        R = act.ring
        ginv = act.group.inv(g)
        # compatibility: r·d = d * alpha_{g^-1}(r·1_g) for all r, d, where
        # * is this module's twisted right action
        twisted = act.alpha_hat[g][act.alpha_hat[ginv]]
        for d in self.members:
            lhs = R.mul[np.arange(R.order), d]
            rhs = R.mul[d, twisted]
            if not np.array_equal(lhs, rhs):
                raise DefectError(f"bimodule compatibility fails at g={g}, d={d}")

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple(int(d) for d in self.action.domain_members(self.g))

    def left(self, r: int, d: int) -> int:
        return int(self.action.ring.mul[r, d])

    def right(self, d: int, r: int) -> int:
        return int(self.action.ring.mul[d, self.action.alpha_hat[self.g][r]])


def theta_bimodule(action: PartialAction, g: int) -> TwistedBimodule:
    return TwistedBimodule(action, g)


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """The monomials d·delta_g, d in D_g, in component order: monomial i is
    coeff[i]·delta_{grade[i]}, and pos[g, d] is its index (-1 when d is not
    in D_g)."""
    grade: np.ndarray
    coeff: np.ndarray
    pos: np.ndarray
    action: PartialAction

    @cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        """Additive generators of each D_g, as coefficients."""
        R = self.action.ring
        return tuple(tuple(_additive_generators(R, self.coeff[self.grade == g]))
                     for g in range(len(self.pos)))

    def index(self, g: int, d: int) -> int:
        i = int(self.pos[g, d]) if 0 <= d < self.pos.shape[1] else -1
        if i < 0:
            raise PreconditionError(f"component {g} value {d} outside D_g")
        return i

    def name(self, i: int) -> str:
        return f"({int(self.grade[i])},{int(self.coeff[i])})"


def _monomial_basis(action: PartialAction) -> MonomialBasis:
    members = [action.domain_members(g) for g in range(action.group.order)]
    grade = np.repeat(np.arange(len(members)), [len(m) for m in members])
    coeff = np.fromiter(itertools.chain.from_iterable(members), dtype=np.int64)
    pos = np.full((len(members), action.ring.order), -1, dtype=np.int64)
    pos[grade, coeff] = np.arange(len(coeff))
    return MonomialBasis(grade, coeff, pos, action)


def _theta_values(action: PartialAction, basis: MonomialBasis) -> np.ndarray:
    """values[i, j] = a·alpha_g(b·1_{g^-1}) for monomials i = a·delta_g and
    j = b·delta_h: the Theta factor set, and the coefficient of their
    product in R*G."""
    twisted = action.alpha_hat[basis.grade[:, None], basis.coeff[None, :]]
    return action.ring.mul[basis.coeff[:, None], twisted]


def _index_table(action: PartialAction, basis: MonomialBasis,
                 values: np.ndarray) -> np.ndarray:
    """table[i, j] = basis index of values[i, j]·delta_{gh}."""
    grade = basis.grade
    table = basis.pos[action.group.table[grade[:, None], grade[None, :]], values]
    outside = np.argwhere(table < 0)
    if outside.size:
        i, j = outside[0]
        raise DefectError(f"product of monomials {basis.name(i)} and "
                          f"{basis.name(j)} leaves D_gh")
    return table


@dataclass(frozen=True)
class AssocReport:
    triples: int
    sampled: bool
    ok: bool
    on_generators: bool = False   # proved on additive-generator triples


@dataclass(frozen=True, eq=False)
class GradedAlgebra:
    action: PartialAction
    twist: Cochain | None
    unit: tuple[int, ...]
    assoc: AssocReport
    central_checked: bool
    tag: str
    basis: MonomialBasis
    table: np.ndarray   # table[i, j] = basis index of monomial i times j

    @cached_property
    def component_members(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(d) for d in self.action.domain_members(g))
                     for g in range(self.action.group.order))

    @property
    def order(self) -> int:
        return prod(len(m) for m in self.component_members)

    @property
    def zero(self) -> tuple[int, ...]:
        return (self.action.ring.zero,) * self.action.group.order

    def element(self, coords) -> tuple[int, ...]:
        out = tuple(int(c) for c in coords)
        if len(out) != self.action.group.order:
            raise PreconditionError("wrong number of components")
        for g, c in enumerate(out):
            self.basis.index(g, c)   # raises when c is not in D_g
        return out

    def monomial(self, g: int, d: int) -> tuple[int, ...]:
        out = [self.action.ring.zero] * self.action.group.order
        out[g] = d
        return self.element(out)

    def mono_mul(self, g: int, a: int, h: int, b: int) -> tuple[int, int]:
        """(a·delta_g)(b·delta_h) = coeff·delta_{gh}."""
        k = self.table[self.basis.index(g, a), self.basis.index(h, b)]
        return int(self.basis.grade[k]), int(self.basis.coeff[k])

    def mul(self, u, v) -> tuple[int, ...]:
        R = self.action.ring
        nG = self.action.group.order
        acc = [R.zero] * nG
        for g in range(nG):
            if u[g] == R.zero:
                continue
            for h in range(nG):
                if v[h] == R.zero:
                    continue
                k, coeff = self.mono_mul(g, u[g], h, v[h])
                acc[k] = int(R.add[acc[k], coeff])
        return tuple(acc)

    def embed_ring(self, r: int) -> tuple[int, ...]:
        """r -> r·(unit); the unital ring embedding R -> component 1."""
        R = self.action.ring
        ident = self.action.group.identity
        out = [R.zero] * self.action.group.order
        out[ident] = int(R.mul[r, self.unit[ident]])
        return tuple(out)

    def monomials(self):
        yield from zip(self.basis.grade.tolist(), self.basis.coeff.tolist())

    def structure_text(self) -> str:
        """Plain-text structure constants: basis legend, then one line per
        basis index pair with the product's basis index, 0 for a zero
        product.  Built one table row at a time, one string per row, so
        no temporary holds a string per basis pair."""
        names = self.action.ring.names
        lines = [f"# algebra {self.tag}: order {self.order}, "
                 f"{len(self.table)} basis monomials"]
        lines += [f"basis {i}: {names[d]} delta_{self.action.group.names[g]}"
                  for i, (g, d) in enumerate(self.monomials())]
        zero = self.basis.coeff == self.action.ring.zero
        num = [str(k) for k in range(len(self.table))]
        mid = [f" {j} -> " for j in num]
        for i, row in zip(num, self.table):
            shown = np.where(zero[row], 0, row).tolist()
            lines.append("\n".join([i + m + num[t]
                                    for m, t in zip(mid, shown)]))
        lines.append("")   # the text ends in a newline, with no extra copy
        return "\n".join(lines)


def _check_associativity(basis: MonomialBasis, table: np.ndarray) -> AssocReport:
    """(m_i m_j) m_k = m_i (m_j m_k) on every triple, one first index i at
    a time, when N^3 fits the budget.  Past it, a proof: once the table is
    graded and its coefficients bi-additive, both sides are additive in
    each of the three coefficients, so the identity holds everywhere as
    soon as it holds on the additive generators of each D_g."""
    n = len(table)
    if n ** 3 <= basis.action.budgets.assoc_triples:
        for i in range(n):
            bad = table[table[i]] != table[i][table]
            if bad.any():
                _assoc_defect(basis, i, *np.argwhere(bad)[0])
        return AssocReport(n ** 3, False, True)
    grade = basis.grade
    bad = np.argwhere(grade[table] != basis.action.group.table[np.ix_(grade, grade)])
    if bad.size:
        raise DefectError("table not graded at monomials "
                          + ",".join(basis.name(x) for x in bad[0]))
    _check_biadditive(basis, basis.coeff[table], "table")
    gens = np.concatenate([basis.pos[g, list(ts)]
                           for g, ts in enumerate(basis.generators)])
    pair = table[gens[:, None], gens[None, :]]
    bad = np.argwhere(table[pair[:, :, None], gens]
                      != table[gens[:, None, None], pair])
    if bad.size:
        _assoc_defect(basis, *gens[bad[0]])
    return AssocReport(len(gens) ** 3, False, True, on_generators=True)


def _check_biadditive(basis: MonomialBasis, mu: np.ndarray, what: str):
    """mu(a + t, b) = mu(a, b) + mu(t, b) for the coefficients a, b of any
    monomials i, j (mu[i, j] in R) and every t among 0 and the additive
    generators of a's D_g; likewise in the second slot.  Generator shifts
    reach all of D_g, so mu is bi-additive; the zero shift forces
    mu(0, b) = 0 even when D_g = 0."""
    R = basis.action.ring
    for slot, m in ((1, mu), (2, mu.T)):
        for g, ts in enumerate(basis.generators):
            rows = np.flatnonzero(basis.grade == g)
            for t in (R.zero, *ts):
                it = basis.pos[g, t]
                bad = np.argwhere(m[basis.pos[g, R.add[basis.coeff[rows], t]]]
                                  != R.add[m[rows], m[it]])
                if bad.size:
                    r, j = bad[0]
                    raise DefectError(
                        f"{what} not additive in slot {slot} at "
                        f"{basis.name(rows[r])} + {basis.name(it)} "
                        f"with {basis.name(j)}")


def _assoc_defect(basis: MonomialBasis, *triple):
    raise DefectError("associativity fails on monomials "
                      + ",".join(basis.name(x) for x in triple))


def _algebra(action: PartialAction, twist: Cochain | None, unit_coeff: int,
             tag: str, basis: MonomialBasis, table: np.ndarray,
             assoc: AssocReport | None = None) -> GradedAlgebra:
    """Check associativity (unless assoc reports it already proved), the
    unit unit_coeff·delta_1 and centrality of R^alpha on the table, then
    wrap it."""
    report = assoc or _check_associativity(basis, table)
    R = action.ring
    ident = action.group.identity
    every = np.arange(len(table))
    u = basis.pos[ident, unit_coeff]
    bad = np.flatnonzero((table[u] != every) | (table[:, u] != every))
    if bad.size:
        raise DefectError(f"unit fails on monomial {basis.name(bad[0])}")
    invariants = np.asarray(invariant_subring(action).members, dtype=np.int64)
    e = basis.pos[ident, R.mul[invariants, unit_coeff]]
    bad = np.argwhere(table[e] != table[:, e].T)
    if bad.size:
        s, m = bad[0]
        raise DefectError(f"invariant {invariants[s]} not central against "
                          f"{basis.name(m)}")
    unit = [R.zero] * action.group.order
    unit[ident] = unit_coeff
    return GradedAlgebra(action, twist, tuple(unit), report, True, tag,
                         basis, table)


def skew_group_ring(action: PartialAction) -> GradedAlgebra:
    """R*G with (a·delta_g)(b·delta_h) = a·alpha_g(b·1_{g^-1})·delta_{gh}."""
    basis = _monomial_basis(action)
    table = _index_table(action, basis, _theta_values(action, basis))
    return _algebra(action, None, action.ring.one, "skew", basis, table)


def _z2_witness(action: PartialAction, f: Cochain):
    """First triple, in lexicographic order, where the 2-cocycle identity
    delta f = 1 fails, or None: one batched delta^2, held as a Cochain so
    the cochain-size budget refuses it, against the corners of G^3."""
    df = Cochain(action, 3, _delta_batch(action, 2, f.values[None, :])[0])
    bad = np.flatnonzero(df.values != _space(action, 3).corners)
    if not bad.size:
        return None
    gs = np.unravel_index(int(bad[0]), (action.group.order,) * 3)
    return tuple(action.group.names[int(g)] for g in gs)


def crossed_product(action: PartialAction, f: Cochain) -> GradedAlgebra:
    """R*_{alpha,f}G with (a·delta_g)(b·delta_h) =
    a·alpha_g(b·1_{g^-1})·f(g,h)·delta_{gh}; identity f(1,1)^{-1}·delta_1."""
    if f.n != 2:
        raise PreconditionError("twist must be a 2-cochain")
    witness = _z2_witness(action, f)
    if witness is not None:
        raise PreconditionError(f"twist violates the 2-cocycle law at {witness}")
    R = action.ring
    ident = action.group.identity
    f11 = f[(ident, ident)]
    # f(1,1) is a unit of all of R: its corner is 1_1·1_1 = 1
    inv = int(np.flatnonzero((R.mul[f11] == R.one) & (R.mul[:, f11] == R.one))[0])
    basis = _monomial_basis(action)
    grade = basis.grade
    twist = f.values.reshape(action.group.order, -1)[grade[:, None], grade[None, :]]
    table = _index_table(action, basis, R.mul[_theta_values(action, basis), twist])
    return _algebra(action, f, inv, "crossed", basis, table)


# ------------------------------------------------------------- factor set

@dataclass(frozen=True, eq=False)
class ThetaFactorSet:
    """f^Theta_{g,h}: Theta(g) x Theta(h) -> Theta(gh), (u,v) ->
    u·alpha_g(v·1_{g^-1}); values[i, j] for basis monomials i = u·delta_g
    and j = v·delta_h."""
    action: PartialAction
    basis: MonomialBasis
    values: np.ndarray
    bilinear_checked: bool
    pentagon_checked: bool
    exhaustive: bool   # False: checks ran on additive generators per slot

    def __call__(self, g: int, h: int, u: int, v: int) -> int:
        return int(self.values[self.basis.index(g, u), self.basis.index(h, v)])


def theta_factor_set(action: PartialAction) -> ThetaFactorSet:
    """Build the factor-set table, then check the 1_g corner, balance,
    outer linearity and the pentagon over whole slots, in chunks of
    first-slot elements u.  All identities are additive in every element
    slot once the table is, so when full enumeration exceeds the budget
    the table is checked bi-additive and the slots range over additive
    generators instead; the report says which ran.  The first failure
    named is the first in the order (g, h), u, v, then the corner before
    the other kinds, then r, then kind."""
    R, G = action.ring, action.group
    nG = G.order
    basis = _monomial_basis(action)
    values = _theta_values(action, basis)
    side = len(values)
    exhaustive = (max(side * side * R.order, side ** 3)
                  <= action.budgets.assoc_triples)
    slot = [basis.coeff[basis.grade == g] for g in range(nG)]
    r = np.arange(R.order)
    if not exhaustive:
        _check_biadditive(basis, values, "factor set")
        slot = [np.asarray(ts, dtype=np.int64) for ts in basis.generators]
        r = np.asarray(_additive_generators(R, r), dtype=np.int64)
    r = r[None, :]
    for g in range(nG):
        TwistedBimodule(action, g)   # checks the bimodule compatibility
    ahat, pos = action.alpha_hat, basis.pos

    def fs(g, h, u, v):
        return values[pos[g, u], pos[h, v]]

    def chunks(us, cells):
        """us[:, None, None] in runs of whole u's of at most _CHUNK_CELLS
        cells, each u spanning `cells` cells; a u spans none when the
        other slots are empty (a zero domain's generators are ())."""
        step = max(1, _CHUNK_CELLS // cells if cells else len(us))
        for lo in range(0, len(us), step):
            yield us[lo:lo + step, None, None]

    for g, h in itertools.product(range(nG), repeat=2):
        gh = G.op(g, h)
        v = slot[h][:, None]
        for u in chunks(slot[g], v.size * r.size):
            val = fs(g, h, u, v)   # (u, v, 1)
            corner = (R.mul[val, action.one(g)] != val)[..., 0]
            bad = np.stack([   # balance, left linearity, right linearity
                fs(g, h, R.mul[u, ahat[g][r]], v) != fs(g, h, u, R.mul[r, v]),
                fs(g, h, R.mul[r, u], v) != R.mul[r, val],
                fs(g, h, u, R.mul[v, ahat[h][r]]) != R.mul[val, ahat[gh][r]]])
            hit = np.flatnonzero(corner | bad.any(axis=(0, 3)))
            if not hit.size:
                continue
            ui, vi = divmod(int(hit[0]), len(v))
            if corner[ui, vi]:
                raise DefectError("factor set leaves the 1_g corner")
            ri, kind = np.argwhere(bad[:, ui, vi, :].T)[0]
            if kind == 0:
                raise DefectError(f"balance fails at g={g},h={h},"
                                  f"u={u[ui, 0, 0]},v={v[vi, 0]},"
                                  f"r={r[0, ri]}")
            raise DefectError("left linearity fails" if kind == 1
                              else "right linearity fails")

    for g, h, l in itertools.product(range(nG), repeat=3):
        gh, hl = G.op(g, h), G.op(h, l)
        v, w = slot[h][:, None], slot[l][None, :]
        vw = fs(h, l, v, w)
        for u in chunks(slot[g], vw.size):
            if (fs(gh, l, fs(g, h, u, v), w) != fs(g, hl, u, vw)).any():
                raise DefectError(f"pentagon fails at ({g},{h},{l})")
    return ThetaFactorSet(action, basis, values, True, True, exhaustive)


def delta_theta(action: PartialAction) -> GradedAlgebra:
    """Delta(Theta) = direct sum of the Theta(g) with multiplication given
    by the Theta factor set; unity 1·delta_1.  Its table is graded by
    construction and its coefficients are the factor set's values, so the
    pentagon that theta_factor_set proved is associativity itself: on
    every triple, or on additive generators of a table it checked
    bi-additive."""
    fs = theta_factor_set(action)
    table = _index_table(action, fs.basis, fs.values)
    if fs.exhaustive:
        assoc = AssocReport(len(table) ** 3, False, True)
    else:
        gens = sum(len(ts) for ts in fs.basis.generators)
        assoc = AssocReport(gens ** 3, False, True, on_generators=True)
    return _algebra(action, None, action.ring.one, "Delta(Theta)", fs.basis,
                    table, assoc)


# ----------------------------------------------------------- isomorphisms

@dataclass(frozen=True, eq=False)
class GradedIso:
    """Component-scaling map source -> target: a_g·delta_g -> a_g·scale_g·delta_g."""
    source: GradedAlgebra
    target: GradedAlgebra
    scale: tuple[int, ...]
    multiplicative: bool
    bijective: bool
    fixes_invariants: bool

    def forward(self, u) -> tuple[int, ...]:
        R = self.source.action.ring
        return tuple(int(R.mul[a, s]) for a, s in zip(u, self.scale))


def _verify_iso(source: GradedAlgebra, target: GradedAlgebra,
                scale) -> GradedIso:
    action = source.action
    R = action.ring
    for g, mem in enumerate(source.component_members):
        imgs = {int(R.mul[d, scale[g]]) for d in mem}
        if imgs != set(target.component_members[g]):
            raise PreconditionError(f"component {g} map is not a bijection")
    basis, grade = source.basis, source.basis.grade
    # image[i]: target index of the image of source monomial i
    image = target.basis.pos[grade, R.mul[basis.coeff, np.asarray(scale)[grade]]]
    bad = np.argwhere(image[source.table]
                      != target.table[image[:, None], image[None, :]])
    if bad.size:
        i, j = bad[0]
        raise PreconditionError(
            f"map not multiplicative on {basis.name(i)}x{basis.name(j)}")
    iso = GradedIso(source, target, tuple(scale), True, True, True)
    S = invariant_subring(action)
    if any(iso.forward(source.embed_ring(int(s))) != target.embed_ring(int(s))
           for s in S.members):
        raise DefectError("map moves the invariant subring")
    return iso


def coiso_map(action: PartialAction, f: Cochain, f2: Cochain,
              eps: Cochain) -> GradedIso:
    """For f = f2·(delta eps): the isomorphism R*_{alpha,f}G -> R*_{alpha,f2}G
    sending a_g·delta_g to a_g·eps(g)·delta_g."""
    if f.n != 2 or f2.n != 2 or eps.n != 1:
        raise PreconditionError("need 2-cochains f, f2 and a 1-cochain eps")
    if cochain_mul(f2, coboundary(action, eps)) != f:
        raise PreconditionError("witness invalid: f != f2·(delta eps)")
    source = crossed_product(action, f)
    target = crossed_product(action, f2)
    scale = [eps[(g,)] for g in range(action.group.order)]
    return _verify_iso(source, target, scale)


def kappa_iso(action: PartialAction) -> GradedIso:
    """Delta(Theta) -> R*G by u_g -> u_g·delta_g (coordinatewise identity),
    checked multiplicative on every basis pair."""
    source = delta_theta(action)
    target = skew_group_ring(action)
    scale = [action.one(g) for g in range(action.group.order)]
    return _verify_iso(source, target, scale)
