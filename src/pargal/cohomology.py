"""Partial group cohomology H^n(G, alpha, U(R)) for n <= 3.

An n-cochain assigns to each tuple (g1..gn) a unit of the corner
R·1_{g1}·1_{g1g2}···1_{g1..gn}; inverses are always corner inverses.
Two engines compute Z/B/H: an enumeration engine (depth-first kernel
search) and a structure engine (corner unit presentations, generator
matrices for delta, kernel and image lattices that carry their moduli).
The structure engine reads |H| off the ratio of the two covolumes, the
kernel's taken from its elimination, and only when |H| > 1 runs one
Smith form over Z/|H| on the at most log2|H| torsion columns of B's
basis in Z's basis for H's invariant factors and generators.  Its
representatives are lex-least by echelon descent over B's Hermite basis,
so it never lists B^n; the enumeration engine lists B^n as the subgroup
generated by the coboundaries of the corner-unit generators.  Both list
classes in value-table order, agree wherever both run, and tests insist.

Each cochain space C^n has one record (CochainSpace), built once per
(action, n): every position's corner and that corner's row in the ring's
corner-inverse table, and, when first read, the positions' unit lists,
unit presentations and coordinate layout.  The cochain checks, inverses
and identity cochains are gathers through it.  Tables that depend on the
ring alone (the corner-inverse table, each corner's unit presentation)
are kept in the ring's corner cache; the records, face plans, cocycle
lists and B^n closures in the action's own cache, so all of them are
freed with the object they describe.

The engines and the witness search evaluate delta^n on whole blocks of
value tables through a face plan, cached per (action, n): the flat index,
sign and inverse-table row of each face of every (n+1)-position and the
shift row g1, so one block costs n+2 gathers.  The scalar coboundary
stays the per-cochain path and the kernel's oracle.
"""
from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod

import numpy as np

from . import groups, intmat
from .errors import BudgetError, DefectError, PreconditionError
from .finring import FiniteRing, cached_on, corner_units
from .groups import FinAbPresentation
from .partial_action import PartialAction

BATCH_CELLS = 1 << 16           # output cells per _delta_batch call in scans


# ---------------------------------------------------------------- cochains

@cached_on("_corner_cache")
def _inverse_table(R: FiniteRing) -> np.ndarray:
    """inv[i, r]: the inverse of r in the corner at R.idempotent_set[i],
    or -1 when r is not a unit there."""
    inv = np.full((len(R.idempotent_set), R.order), -1, dtype=np.int64)
    for i, cu in enumerate(corner_units(R, e) for e in R.idempotent_set):
        inv[i, list(cu.inverse)] = list(cu.inverse.values())
    inv.flags.writeable = False
    return inv


@cached_on("_corner_cache")
def _unit_presentation(R: FiniteRing, e: int) -> FinAbPresentation:
    return groups.subgroup_structure(corner_units(R, e).elements, R.mul, e)


@dataclass(frozen=True, eq=False)
class CochainSpace:
    """C^n of an action, position by position over G^n in lexicographic
    order: each position's corner 1_{g1}·1_{g1g2}···1_{g1..gn} and its row
    in the ring's corner-inverse table; and, built when first read, each
    position's units, unit presentation and coordinate block."""
    ring: FiniteRing
    corners: np.ndarray      # read-only
    inv_row: np.ndarray      # read-only: each corner's index in idempotent_set

    @cached_property
    def units(self) -> list[tuple[int, ...]]:
        return [corner_units(self.ring, e).elements
                for e in self.corners.tolist()]

    @cached_property
    def presentations(self) -> list[FinAbPresentation]:
        return [_unit_presentation(self.ring, e)
                for e in self.corners.tolist()]

    @cached_property
    def moduli(self) -> list[int]:
        """Every position's invariant factors, one block per position."""
        return [d for p in self.presentations for d in p.invariant_factors]

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where each position's block starts in moduli."""
        sizes = [len(p.invariant_factors) for p in self.presentations]
        return np.cumsum([0] + sizes[:-1], dtype=np.int64)


@cached_on("_cache")
def _space(action: PartialAction, n: int) -> CochainSpace:
    """The record of C^n, its corners built one tuple entry at a time."""
    R, G = action.ring, action.group
    acc = np.array([G.identity])
    e = np.array([R.one], dtype=np.int64)
    for _ in range(n):
        acc = G.table[acc].ravel()
        e = R.mul[np.repeat(e, G.order), action.one_g[acc]]
    row = np.searchsorted(R.idempotent_set, e)
    e.flags.writeable = row.flags.writeable = False
    return CochainSpace(R, e, row)


def positions(action: PartialAction, n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(action.group.order), repeat=n))


def corner_idem(action: PartialAction, gs: tuple[int, ...]) -> int:
    """1_{g1}·1_{g1g2}···1_{g1..gn}; the empty tuple gives 1."""
    corners = _space(action, len(gs)).corners
    return int(corners[_flat_index(action.group.order, gs)])


@dataclass(frozen=True, eq=False)
class Cochain:
    action: PartialAction
    n: int
    values: np.ndarray  # flat over G^n, lexicographic

    def __post_init__(self):
        R, G = self.action.ring, self.action.group
        values = np.asarray(self.values)
        if values.ndim != 1 or values.dtype.kind not in "iu":
            raise PreconditionError(
                "cochain values must be a 1-D integer sequence")
        object.__setattr__(self, "values", values.astype(np.int64, copy=False))
        size = G.order ** self.n
        limit = self.action.budgets.cochain_size
        if size > limit:
            raise BudgetError("cochain-size", limit, size)
        if self.values.shape != (size,):
            raise ValueError(f"expected {size} values for arity {self.n}")

        def at(flat):
            return tuple(int(g) for g in
                         np.unravel_index(flat, (G.order,) * self.n))

        outside = (self.values < 0) | (self.values >= R.order)
        if outside.any():
            flat = int(outside.argmax())
            raise PreconditionError(
                f"value {int(self.values[flat])} at {at(flat)} is not an "
                f"element of the ring (0..{R.order - 1})")
        # one gather: each position's value in its corner's inverse row
        space = _space(self.action, self.n)
        bad = _inverse_table(R)[space.inv_row, self.values] < 0
        if bad.any():
            flat = int(bad.argmax())
            raise PreconditionError(
                f"value {R.names[int(self.values[flat])]} at {at(flat)} is not "
                f"a unit of the corner at {R.names[int(space.corners[flat])]}")

    def __getitem__(self, gs) -> int:
        return int(self.values[_flat_index(self.action.group.order, gs)])

    def value_tuple(self) -> tuple[int, ...]:
        return tuple(int(v) for v in self.values)

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.n == other.n
                and self.action is other.action
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.n, self.value_tuple()))

    def __repr__(self):
        R, G = self.action.ring, self.action.group
        entries = ", ".join(
            f"{tuple(G.names[g] for g in gs)}->{R.names[int(v)]}"
            for gs, v in zip(positions(self.action, self.n), self.values))
        return f"Cochain(n={self.n}: {entries})"


def _flat_index(nG: int, gs) -> int:
    flat = 0
    for g in gs:
        flat = flat * nG + int(g)
    return flat


def identity_cochain(action: PartialAction, n: int) -> Cochain:
    return Cochain(action, n, _space(action, n).corners.copy())


def cochain_from_map(action: PartialAction, n: int, mapping) -> Cochain:
    """Build a cochain from {(g1..gn): value}; n=0 accepts a bare unit."""
    if n == 0 and not isinstance(mapping, dict):
        return Cochain(action, 0, [int(mapping)])
    return Cochain(action, n, [mapping[gs] for gs in positions(action, n)])


def cochain_mul(f: Cochain, f2: Cochain) -> Cochain:
    if f.n != f2.n:
        raise PreconditionError("cochain arities differ")
    R = f.action.ring
    return Cochain(f.action, f.n, R.mul[f.values, f2.values])


def cochain_inv(f: Cochain) -> Cochain:
    inv = _inverse_table(f.action.ring)
    return Cochain(f.action, f.n,
                   inv[_space(f.action, f.n).inv_row, f.values])


# ---------------------------------------------------------------- delta

def _faces(action: PartialAction, n: int, gs: tuple[int, ...]):
    """Factor list of (delta^n f)(gs): (face index tuple, sign, shifted)."""
    G = action.group
    out = [(gs[1:], +1, True)]
    for i in range(1, n + 1):
        merged = gs[:i - 1] + (G.op(gs[i - 1], gs[i]),) + gs[i + 1:]
        out.append((merged, -1 if i % 2 else +1, False))
    out.append((gs[:n], +1 if (n + 1) % 2 == 0 else -1, False))
    return out


def _delta_value(action: PartialAction, n: int, gs, values) -> int:
    """Evaluate (delta^n f)(gs) where values is f's flat value table.

    Inverses are corner inverses; the mixed-corner product is taken in R.
    """
    R = action.ring
    inv = _inverse_table(R)
    inv_row = _space(action, n).inv_row
    acc = None
    for face, sign, shifted in _faces(action, n, gs):
        flat = _flat_index(action.group.order, face)
        v = int(values[flat])
        if sign < 0:
            v = int(inv[inv_row[flat], v])
            if v < 0:
                raise PreconditionError(
                    f"no corner inverse at {face}: input is not a cochain")
        if shifted:
            v = int(action.alpha_hat[gs[0], v])
        acc = v if acc is None else int(R.mul[acc, v])
    return acc


def coboundary(action: PartialAction, f: Cochain) -> Cochain:
    """delta^n f as an (n+1)-cochain; corner membership of every output
    value is asserted by the Cochain constructor."""
    if f.n > 3:
        raise PreconditionError("coboundary implemented for arity <= 3")
    vals = np.array([_delta_value(action, f.n, gs, f.values)
                     for gs in positions(action, f.n + 1)], dtype=np.int64)
    return Cochain(action, f.n + 1, vals)


@cached_on("_cache")
def _face_plan(action: PartialAction, n: int):
    """The faces of delta^n over every position of G^(n+1), as arrays.

    Returns (faces, g1, inv).  faces lists, in _faces order, each face's
    flat index into G^n, its sign and the face position's row in inv;
    g1 is the shift row; inv is the ring's corner-inverse table.
    """
    G = action.group
    nG = G.order
    gs = np.indices((nG,) * (n + 1)).reshape(n + 1, -1)
    cols = [gs[1:]]
    cols += [[*gs[:i - 1], G.table[gs[i - 1], gs[i]], *gs[i + 1:]]
             for i in range(1, n + 1)]
    cols.append(gs[:n])
    signs = [1] + [-1 if i % 2 else 1 for i in range(1, n + 2)]
    inv_row = _space(action, n).inv_row
    faces = []
    for face, sign in zip(cols, signs):
        idx = np.zeros(gs.shape[1], dtype=np.int64)
        for col in face:
            idx = idx * nG + col
        faces.append((idx, sign, inv_row[idx]))
    return tuple(faces), gs[0].copy(), _inverse_table(action.ring)


def _delta_batch(action: PartialAction, n: int, tables) -> np.ndarray:
    """delta^n of each row of a (B, |G|^n) block of value tables, as a
    (B, |G|^(n+1)) block: one gather per face, as in _delta_value."""
    faces, g1, inv = _face_plan(action, n)
    mul = action.ring.mul
    out = None
    for k, (idx, sign, corner) in enumerate(faces):
        v = tables[:, idx]
        if sign < 0:
            v = inv[corner, v]
            if (v < 0).any():
                face = positions(action, n)[idx[np.argwhere(v < 0)[0][1]]]
                raise PreconditionError(
                    f"no corner inverse at {face}: input is not a cochain")
        if k == 0:
            v = action.alpha_hat[g1, v]
        out = v if out is None else mul[out, v]
    return out


# ---------------------------------------------------------------- engines

def _position_data(action: PartialAction, n: int):
    space = _space(action, n)
    return positions(action, n), space.corners.tolist(), space.units


def cochain_space_size(action: PartialAction, n: int) -> int:
    return prod(len(u) for u in _space(action, n).units)


def _enumerate_cochains(action: PartialAction, n: int):
    """Iterate every n-cochain value table in lexicographic order."""
    total = cochain_space_size(action, n)
    limit = action.budgets.cochain_scan
    if total > limit:
        raise BudgetError("cochain-scan", limit, total)
    return itertools.product(*_space(action, n).units)


@cached_on("_cache")
def _kernel_dfs(action: PartialAction, n: int) -> list[tuple[int, ...]]:
    """All n-cocycles by depth-first search with constraint propagation.

    Positions are ordered greedily so cocycle constraints close early;
    each closed constraint prunes the branch immediately.  The node
    budget bounds work on adversarial inputs.
    """
    R = action.ring
    space = _space(action, n)
    units = space.units
    P = len(units)

    # constraints: one per (n+1)-tuple; factor slots refer to positions
    faces, g1, inv = _face_plan(action, n)
    inv_row = space.inv_row.tolist()
    faces = [(idx.tolist(), sign, k == 0)
             for k, (idx, sign, _) in enumerate(faces)]
    targets = _space(action, n + 1).corners.tolist()
    cons = [(g, [(idx[q], sign, shifted) for idx, sign, shifted in faces], e)
            for q, (g, e) in enumerate(zip(g1.tolist(), targets))]
    touching = [[] for _ in range(P)]
    for ci, (_, slots, _) in enumerate(cons):
        for p, _, _ in slots:
            touching[p].append(ci)

    # greedy ordering: maximize constraints closed at each step
    decided = [False] * P
    order = []
    for _ in range(P):
        best, best_closed = None, -1
        for p in range(P):
            if decided[p]:
                continue
            closed = sum(
                1 for ci in set(touching[p])
                if all(decided[q] or q == p for q, _, _ in cons[ci][1]))
            if closed > best_closed:
                best, best_closed = p, closed
        order.append(best)
        decided[best] = True
    rank = {p: d for d, p in enumerate(order)}
    closes = [[] for _ in range(P)]  # depth -> constraint ids newly closed
    for ci, (_, slots, _) in enumerate(cons):
        depth = max(rank[p] for p, _, _ in slots)
        closes[depth].append(ci)

    ahat = action.alpha_hat
    mul = R.mul
    limit = action.budgets.kernel_dfs_nodes
    assign = [-1] * P
    results = []
    nodes = 0

    def check(ci) -> bool:
        g1, slots, target = cons[ci]
        acc = None
        for p, sign, shifted in slots:
            v = assign[p]
            if sign < 0:
                v = int(inv[inv_row[p], v])
            if shifted:
                v = int(ahat[g1, v])
            acc = v if acc is None else int(mul[acc, v])
        return acc == target

    def dfs(depth):
        nonlocal nodes
        if depth == P:
            results.append(tuple(assign))
            return
        p = order[depth]
        for v in units[p]:
            nodes += 1
            if nodes > limit:
                raise BudgetError("kernel-dfs-nodes", limit, nodes)
            assign[p] = v
            if all(check(ci) for ci in closes[depth]):
                dfs(depth + 1)
        assign[p] = -1

    dfs(0)
    return sorted(results)


@cached_on("_cache")
def _image_rows(action: PartialAction, n: int) -> np.ndarray:
    """B^n for the enumeration engine, as the rows of a read-only array:
    the subgroup of C^n that the delta^(n-1) images of the corner-unit
    generators generate, closed under R.mul breadth first.  The closure
    costs |B^n| x #generators products, not a scan of C^(n-1)."""
    if n == 0:
        raise ValueError("B^0 is trivial by convention")
    R = action.ring
    gens, _, cod = _generator_images(action, n - 1)
    dtype = np.min_scalar_type(R.order - 1)
    width = len(cod.corners)
    key_type = np.dtype((np.void, width * dtype.itemsize))

    def keys(rows):
        return np.ascontiguousarray(rows, dtype=dtype).view(key_type).ravel().tolist()

    def rows_of(ks):
        return np.frombuffer(b"".join(ks), dtype=dtype).reshape(-1, width)

    limit = action.budgets.materialize
    found = keys(cod.corners[None, :])   # the identity cochain
    seen = set(found)
    frontier = rows_of(found)
    while len(frontier):
        fresh = []
        for g in gens:
            for key in dict.fromkeys(keys(R.mul[frontier, g])):
                if key not in seen:
                    seen.add(key)
                    fresh.append(key)
            if len(seen) > limit:
                raise BudgetError("materialize", limit, len(seen))
        found += fresh
        frontier = rows_of(fresh)
    out = rows_of(found)
    out.flags.writeable = False
    return out


def _canonical_cosets(z_tables, b_tables, ring):
    """Map each cocycle to the lexicographically least member of its
    B-coset; returns (reps in lex order, canon dict)."""
    canon = {}
    reps = []
    for f in z_tables:  # already sorted lexicographically
        if f in canon:
            continue
        orbit = sorted(
            tuple(int(ring.mul[a, b]) for a, b in zip(f, bt))
            for bt in b_tables)
        rep = orbit[0]
        assert rep == f, "iteration order should meet the least member first"
        for member in orbit:
            canon[member] = rep
        reps.append(rep)
    return reps, canon


@dataclass(frozen=True, eq=False)
class CohomologyGroup:
    n: int
    z_order: int
    b_order: int
    h_order: int
    invariant_factors: tuple[int, ...]
    representatives: tuple[Cochain, ...]
    engine: str
    lex_least: bool  # representatives minimized within cosets

    def __post_init__(self):
        assert self.z_order == self.b_order * self.h_order

    def summary(self) -> str:
        return (f"H^{self.n}: |Z|={self.z_order} |B|={self.b_order} "
                f"|H|={self.h_order} "
                f"invariants={list(self.invariant_factors)} [{self.engine}]")


def _enumeration_engine(action: PartialAction, n: int) -> CohomologyGroup:
    R = action.ring
    z_tables = _kernel_dfs(action, n)
    if n == 0:
        b_tables = [(R.one,)]
    else:
        b_tables = sorted(map(tuple, _image_rows(action, n).tolist()))
    zset = set(z_tables)
    for bt in b_tables:
        assert bt in zset, "B must sit inside Z"
    reps, canon = _canonical_cosets(z_tables, b_tables, R)
    h_order = len(reps)

    def op(a, b):
        return canon[tuple(int(R.mul[x, y]) for x, y in zip(a, b))]

    ident = canon[tuple(int(v) for v in identity_cochain(action, n).values)]
    pres = groups.abelian_structure(reps, op, ident)
    rep_cochains = tuple(Cochain(action, n, t) for t in reps)
    return CohomologyGroup(n=n, z_order=len(z_tables), b_order=len(b_tables),
                           h_order=h_order,
                           invariant_factors=pres.invariant_factors,
                           representatives=rep_cochains,
                           engine="enumerate", lex_least=True)


def _generator_images(action: PartialAction, n: int):
    """delta^n of each corner-unit generator cochain (the identity cochain
    with one position moved to a generator of its corner's unit group), as
    value tables, together with the records of C^n and C^(n+1)."""
    size = action.group.order ** (n + 1)
    limit = action.budgets.structure_positions
    if size > limit:
        raise BudgetError("structure-positions", limit, size)
    dom, cod = _space(action, n), _space(action, n + 1)
    pres = dom.presentations
    at = [i for i, p in enumerate(pres) for _ in p.generators]
    tables = np.tile(dom.corners, (len(at), 1))
    tables[np.arange(len(at)), at] = [g for p in pres for g in p.generators]
    return _delta_batch(action, n, tables), dom, cod


def _delta_matrix(action: PartialAction, n: int):
    """Generator matrix of delta^n : C^n -> C^(n+1) in corner-presentation
    coordinates, together with the records of C^n and C^(n+1)."""
    images, dom, cod = _generator_images(action, n)
    rows = np.zeros((len(images), len(cod.moduli)), dtype=np.int64)
    for e in np.unique(cod.corners).tolist():   # one gather per corner
        at = np.flatnonzero(cod.corners == e)
        table = _unit_presentation(action.ring, e).coord_table
        coords = table[images[:, at]]
        if (coords < 0).any():
            raise DefectError("delta image outside its corner's unit group")
        rows[:, cod.offsets[at][:, None] + np.arange(table.shape[1])] = coords
    return rows, dom, cod


REP_COSET_CAP = 4096  # list one representative per coset up to this |H|


def _structure_engine(action: PartialAction, n: int) -> CohomologyGroup:
    if n == 0:
        # Z^0 is a plain unit scan; no lattice work needed
        grp = _enumeration_engine(action, 0)
        return dataclasses.replace(grp, engine="structure")
    rows_n, dom_n, cod_n = _delta_matrix(action, n)
    mod_d = dom_n.moduli
    rows_prev, dom_prev, cod_prev = _delta_matrix(action, n - 1)
    assert cod_prev is dom_n, "space records must line up"
    # Z = kernel lattice of delta^n and B = image lattice of delta^(n-1),
    # both inside Z^kd and both containing the moduli lattice
    z_order, _, lam = groups.kernel_image_orders(rows_n, mod_d, cod_n.moduli)
    _, b_order, _ = groups.kernel_image_orders(rows_prev, dom_prev.moduli,
                                               mod_d)
    if intmat.images(rows_prev, rows_n, mod_d, cod_n.moduli).any():
        raise DefectError("image vector outside kernel lattice")
    b_lat = intmat.RowLattice(mod_d, rows_prev)
    h_order = b_lat.covolume() // lam.covolume()
    assert z_order == b_order * h_order, \
        "lattice quotient disagrees with order bookkeeping"

    # H = Z / B: in the coordinates of Z's basis K, B's basis is the upper
    # triangular C, and one Smith form over Z/|H| of the relations C leaves
    # on its torsion columns J gives H's invariant factors and its cyclic
    # generators, rows of Vinv taken back to cochains through K's J rows
    factors, gen_vecs = (), np.zeros((0, len(mod_d)), dtype=np.int64)
    if h_order > 1:
        K = lam.basis()
        J, rels = _torsion_relations(_solve_triangular(K, b_lat.basis()),
                                     h_order)
        diag, _, Vinv = intmat.smith_normal_form(rels, h_order)
        keep = [i for i, d in enumerate(diag) if d > 1]
        factors = tuple(diag[i] for i in keep)
        assert prod(factors) == h_order, "Smith form disagrees with covolumes"
        gen_vecs = intmat.images([Vinv[i] for i in keep], [K[j] for j in J],
                                 [h_order] * len(J), mod_d).astype(np.int64)

    # representatives: one cochain per coset when |H| is listable, in
    # lexicographic order as the enumeration engine lists them, otherwise
    # just the cyclic generators; each the least member of its coset, so
    # distinct cosets have distinct tables
    listed = h_order <= REP_COSET_CAP
    rep_tables = _lex_least(_grid(factors) @ gen_vecs if listed else gen_vecs,
                            b_lat.basis(), dom_n)
    if listed:
        rep_tables = rep_tables[np.lexsort(rep_tables.T[::-1])]
    assert len({t.tobytes() for t in rep_tables}) == len(rep_tables), \
        "quotient labels must be distinct"
    reps = tuple(Cochain(action, n, t) for t in rep_tables)
    return CohomologyGroup(n=n, z_order=z_order, b_order=b_order,
                           h_order=h_order, invariant_factors=factors,
                           representatives=reps, engine="structure",
                           lex_least=True)


def _lex_least(vecs, b_basis, space) -> np.ndarray:
    """The lexicographically least value table of each coset vec + B, by
    echelon descent over B's Hermite basis.  Value tables compare position
    by position, and the basis is ordered by position blocks: once the
    positions before p are fixed, only B's rows with their pivot in p's
    block can still move p's value, and their combinations (at most
    |U(e_p)|) reach every value the coset still allows there.  So take
    the combination whose value has the least ring index, add it as full
    rows, and go on to the next position."""
    R, corners, offsets = space.ring, space.corners, space.offsets
    pres = {e: _unit_presentation(R, e) for e in np.unique(corners).tolist()}
    # unit_at[e][c @ radix] is the unit of the corner at e with coordinates c
    unit_at = {e: np.array(p.elements, dtype=np.int64)[p.by_coords]
               for e, p in pres.items()}
    mods = np.array(space.moduli, dtype=np.int64)
    vecs = vecs % mods
    # the pivot row at column c moves it through m_c / pivot values
    steps = mods // np.array([row[c] for c, row in enumerate(b_basis)],
                             dtype=np.int64)
    owner = np.searchsorted(offsets, np.arange(len(mods)), side="right") - 1
    for i in np.unique(owner[steps > 1]).tolist():
        e = int(corners[i])
        radix = pres[e].radix
        lo, hi = offsets[i], offsets[i] + len(radix)
        moves = _grid(steps[lo:hi].tolist()) @ np.array(
            b_basis[lo:hi], dtype=np.int64) % mods
        cand = (vecs[:, None, lo:hi] + moves[None, :, lo:hi]) % mods[lo:hi]
        vecs = (vecs + moves[unit_at[e][cand @ radix].argmin(axis=1)]) % mods
    tables = np.empty((len(vecs), len(corners)), dtype=np.int64)
    for e, p in pres.items():   # one gather per corner
        at = np.flatnonzero(corners == e)
        cols = offsets[at][:, None] + np.arange(len(p.radix))
        tables[:, at] = unit_at[e][vecs[:, cols] @ p.radix]
    return tables


def _grid(sizes) -> np.ndarray:
    """Every integer vector below sizes, one row each, in lexicographic
    order."""
    return np.indices(sizes, dtype=np.int64).reshape(len(sizes), prod(sizes)).T


def _torsion_relations(C, h: int):
    """The columns J of an upper triangular C, Z^k / rows(C) of order h,
    with a diagonal entry above 1, and the |J| x |J| relations mod h left
    on them.  By row c each other column c is -sum_(j>c) C[c][j]·e_j, so
    bottom row first each is written in J, and so are the rows of J."""
    k = len(C)
    J = [c for c in range(k) if C[c][c] > 1]
    dtype = np.int64 if (k + 1) * h * h < 2 ** 62 else object
    C = (np.array(C, dtype=object) % h).astype(dtype)
    E = np.zeros((k, len(J)), dtype=dtype)   # column c in J's coordinates
    E[J, np.arange(len(J))] = 1
    for c in reversed(range(k)):
        if C[c, c] == 1:
            E[c] = -(C[c, c + 1:] @ E[c + 1:]) % h
    return J, (C[J] @ E % h).tolist()


def _solve_triangular(basis_rows, targets):
    """Integer coefficients expressing each target in a RowLattice basis,
    whose row c has its pivot in column c."""
    out = []
    for target in targets:
        v = list(target)
        coeffs = [0] * len(basis_rows)
        for c, r in enumerate(basis_rows):
            q, rem = divmod(v[c], r[c])
            if rem:
                raise DefectError("image vector outside kernel lattice")
            if q:
                coeffs[c] = q
                v[c:] = [a - q * b for a, b in zip(v[c:], r[c:])]
        out.append(coeffs)
    return out


def default_engine(action: PartialAction, n: int) -> str:
    """Enumeration while the scan spaces stay small; structure beyond."""
    if n == 0:
        return "enumerate"
    try:
        cn = cochain_space_size(action, n)
        cprev = cochain_space_size(action, n - 1)
    except BudgetError:
        return "structure"
    if n <= 1 and cn <= 100_000 and cprev <= 100_000:
        return "enumerate"
    return "structure"


@lru_cache(maxsize=128)
def cohomology_group(action: PartialAction, n: int,
                     engine: str = "auto") -> CohomologyGroup:
    if n not in (0, 1, 2, 3):
        raise PreconditionError("cohomology implemented for n in 0..3")
    if engine == "auto":
        engine = default_engine(action, n)
    if engine == "enumerate":
        return _enumeration_engine(action, n)
    if engine == "structure":
        return _structure_engine(action, n)
    if engine == "both":
        a = _enumeration_engine(action, n)
        b = _structure_engine(action, n)
        if (a.z_order, a.b_order, a.h_order) != (b.z_order, b.b_order, b.h_order):
            raise DefectError(
                f"engines disagree at n={n}: "
                f"enumerate {(a.z_order, a.b_order, a.h_order)} vs "
                f"structure {(b.z_order, b.b_order, b.h_order)}")
        if a.invariant_factors != b.invariant_factors:
            raise DefectError("engines disagree on H structure")
        return a
    raise ValueError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------- witnesses

def cohomologous(action: PartialAction, f: Cochain, f2: Cochain):
    """A witness eps in C^(n-1) with f = f2 · delta(eps), or None.

    The search is exhaustive over C^(n-1), so None is conclusive.
    """
    if f.n != f2.n or f.n not in (1, 2):
        raise PreconditionError("witness search supports arities 1 and 2")
    n = f.n
    target = cochain_mul(f, cochain_inv(f2)).values
    tables = _enumerate_cochains(action, n - 1)
    chunk = max(1, BATCH_CELLS // len(target))
    while block := list(itertools.islice(tables, chunk)):
        block = np.array(block, dtype=np.int64)
        hits = (_delta_batch(action, n - 1, block) == target).all(axis=1)
        if hits.any():
            return Cochain(action, n - 1, block[hits.argmax()].copy())
    return None


def is_cocycle(action: PartialAction, f: Cochain) -> bool:
    ident = identity_cochain(action, f.n + 1)
    return coboundary(action, f) == ident


def normalize_2cocycle(action: PartialAction, f: Cochain):
    """A normalized cocycle f~ and eps in C^1 with f = f~ · delta(eps).

    eps(g) = f(g,1) always works.  The cocycle identity at (x,1,1) gives
    f(x,1) = alpha_x(f(1,1)·1_{x^-1}), and at (1,1,z) it gives
    f(1,z) = f(1,1)·1_z.  So delta(eps)(x,1) = alpha_x(eps(1)·1_{x^-1})
    = f(x,1) and delta(eps)(1,y) = eps(1)·1_y = f(1,y): delta(eps) agrees
    with f at every (x,1) and (1,y), and f·delta(eps)^-1 is a normalized
    cocycle.  The candidate is checked all the same, and a failed check
    is a defect.
    """
    if f.n != 2:
        raise PreconditionError("expects a 2-cochain")
    if not is_cocycle(action, f):
        raise PreconditionError("input is not a 2-cocycle")
    G = action.group
    g = np.arange(G.order)
    # the positions (1, g) and (g, 1), and their corners
    at = np.concatenate([G.identity * G.order + g, g * G.order + G.identity])
    ident = _space(action, 2).corners[at]

    def normalized(c: Cochain) -> bool:
        return np.array_equal(c.values[at], ident)

    if normalized(f):
        return f, identity_cochain(action, 1)

    eps = Cochain(action, 1, f.values[g * G.order + G.identity])
    cand = cochain_mul(f, cochain_inv(coboundary(action, eps)))
    if normalized(cand) and is_cocycle(action, cand):
        return cand, eps
    raise DefectError("eps(g) = f(g,1) does not normalize f; this "
                      "contradicts the 2-cocycle identity")
