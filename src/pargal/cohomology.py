"""Partial group cohomology H^n(G, alpha, U(R)) for n <= 3.

An n-cochain assigns to each tuple (g1..gn) a unit of the corner
R·1_{g1}·1_{g1g2}···1_{g1..gn}; inverses are always corner inverses.
Two engines compute Z/B/H: an enumeration engine (depth-first kernel
search plus full coboundary scans) and a structure engine (corner unit
presentations, generator matrices for delta, integer normal forms).
They agree wherever both run, and tests insist on it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from . import groups, intmat
from .errors import BudgetError, DefectError, PreconditionError
from .finring import corner_units
from .groups import FinAbPresentation
from .partial_action import PartialAction

ENUM_SCAN_BUDGET = 10_000_000   # refuse full scans beyond this many cochains
DFS_NODE_BUDGET = 10_000_000    # kernel search node budget
MATERIALIZE_BUDGET = 1_000_000  # coset minimisation / presentation budget
COCHAIN_SIZE_BUDGET = 10_000_000


# ---------------------------------------------------------------- cochains

@lru_cache(maxsize=64)
def _machinery(action: PartialAction):
    """Per-action lookup tables shared by both engines."""
    R, G = action.ring, action.group
    inv_map = {}
    unit_lists = {}
    for e in R.idempotent_set:
        cu = corner_units(R, e)
        arr = np.full(R.order, -1, dtype=np.int64)
        for u, v in cu.inverse.items():
            arr[u] = v
        inv_map[e] = arr
        unit_lists[e] = cu.elements
    return inv_map, unit_lists


def positions(action: PartialAction, n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(action.group.order), repeat=n))


def corner_idem(action: PartialAction, gs: tuple[int, ...]) -> int:
    """1_{g1}·1_{g1g2}···1_{g1..gn}; the empty tuple gives 1."""
    R, G = action.ring, action.group
    e = R.one
    acc = G.identity
    for g in gs:
        acc = G.op(acc, g)
        e = int(R.mul[e, action.one(acc)])
    return e


@dataclass(frozen=True, eq=False)
class Cochain:
    action: PartialAction
    n: int
    values: np.ndarray  # flat over G^n, lexicographic

    def __post_init__(self):
        G = self.action.group
        size = G.order ** self.n
        if size > COCHAIN_SIZE_BUDGET:
            raise BudgetError("cochain-size", COCHAIN_SIZE_BUDGET, size)
        if self.values.shape != (size,):
            raise ValueError(f"expected {size} values for arity {self.n}")
        inv_map, _ = _machinery(self.action)
        for flat, gs in enumerate(positions(self.action, self.n)):
            e = corner_idem(self.action, gs)
            v = int(self.values[flat])
            if inv_map[e][v] < 0:
                raise PreconditionError(
                    f"value {self.action.ring.names[v]} at {gs} is not a unit "
                    f"of the corner at {self.action.ring.names[e]}")

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
    vals = np.array([corner_idem(action, gs) for gs in positions(action, n)],
                    dtype=np.int64)
    return Cochain(action, n, vals)


def cochain_from_map(action: PartialAction, n: int, mapping) -> Cochain:
    """Build a cochain from {(g1..gn): value}; n=0 accepts a bare unit."""
    if n == 0 and not isinstance(mapping, dict):
        return Cochain(action, 0, np.array([int(mapping)], dtype=np.int64))
    vals = np.empty(action.group.order ** n, dtype=np.int64)
    for flat, gs in enumerate(positions(action, n)):
        vals[flat] = mapping[gs]
    return Cochain(action, n, vals)


def cochain_mul(f: Cochain, f2: Cochain) -> Cochain:
    if f.n != f2.n:
        raise PreconditionError("cochain arities differ")
    R = f.action.ring
    return Cochain(f.action, f.n, R.mul[f.values, f2.values])


def cochain_inv(f: Cochain) -> Cochain:
    inv_map, _ = _machinery(f.action)
    out = np.empty_like(f.values)
    for flat, gs in enumerate(positions(f.action, f.n)):
        e = corner_idem(f.action, gs)
        out[flat] = inv_map[e][int(f.values[flat])]
    return Cochain(f.action, f.n, out)


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


def _delta_value(action: PartialAction, n: int, gs, lookup) -> int:
    """Evaluate (delta^n f)(gs) where lookup maps an n-tuple to f's value.

    Inverses are corner inverses; the mixed-corner product is taken in R.
    """
    R = action.ring
    inv_map, _ = _machinery(action)
    acc = None
    for face, sign, shifted in _faces(action, n, gs):
        v = lookup(face)
        if sign < 0:
            e = corner_idem(action, face)
            v = int(inv_map[e][v])
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
    nG = action.group.order

    def lookup(face):
        return int(f.values[_flat_index(nG, face)])

    vals = np.array([_delta_value(action, f.n, gs, lookup)
                     for gs in positions(action, f.n + 1)], dtype=np.int64)
    return Cochain(action, f.n + 1, vals)


# ---------------------------------------------------------------- engines

def _position_data(action: PartialAction, n: int):
    _, unit_lists = _machinery(action)
    pos = positions(action, n)
    corners = [corner_idem(action, gs) for gs in pos]
    units = [unit_lists[e] for e in corners]
    return pos, corners, units


def cochain_space_size(action: PartialAction, n: int) -> int:
    _, _, units = _position_data(action, n)
    return prod(len(u) for u in units)


def _enumerate_cochains(action: PartialAction, n: int):
    """Iterate every n-cochain value table in lexicographic order."""
    _, _, units = _position_data(action, n)
    total = cochain_space_size(action, n)
    if total > ENUM_SCAN_BUDGET:
        raise BudgetError("cochain-scan", ENUM_SCAN_BUDGET, total)
    return itertools.product(*units)


@lru_cache(maxsize=64)
def _kernel_dfs(action: PartialAction, n: int) -> list[tuple[int, ...]]:
    """All n-cocycles by depth-first search with constraint propagation.

    Positions are ordered greedily so cocycle constraints close early;
    each closed constraint prunes the branch immediately.  The node
    budget bounds work on adversarial inputs.
    """
    R, G = action.ring, action.group
    nG = G.order
    pos, corners, units = _position_data(action, n)
    P = len(pos)
    inv_map, _ = _machinery(action)

    # constraints: one per (n+1)-tuple; factor slots refer to positions
    cons = []
    for gs in positions(action, n + 1):
        target = corner_idem(action, gs)
        slots = []
        for face, sign, shifted in _faces(action, n, gs):
            slots.append((_flat_index(nG, face), sign, shifted))
        cons.append((gs[0], slots, target))
    touching = [[] for _ in range(P)]
    for ci, (_, slots, _) in enumerate(cons):
        for p, _, _ in slots:
            touching[p].append(ci)

    # greedy ordering: maximize constraints closed at each step
    remaining = [len({p for p, _, _ in cons[ci][1]}) for ci in range(len(cons))]
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
    assign = [-1] * P
    results = []
    nodes = 0

    def check(ci) -> bool:
        g1, slots, target = cons[ci]
        acc = None
        for p, sign, shifted in slots:
            v = assign[p]
            if sign < 0:
                v = int(inv_map[corners[p]][v])
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
            if nodes > DFS_NODE_BUDGET:
                raise BudgetError("kernel-dfs-nodes", DFS_NODE_BUDGET, nodes)
            assign[p] = v
            if all(check(ci) for ci in closes[depth]):
                dfs(depth + 1)
        assign[p] = -1

    dfs(0)
    return sorted(results)


@lru_cache(maxsize=64)
def _image_scan(action: PartialAction, n: int) -> set[tuple[int, ...]]:
    """All delta^(n-1) images as value tables (B^n), by full scan."""
    if n == 0:
        raise ValueError("B^0 is trivial by convention")
    nG = action.group.order
    pos_out = positions(action, n)
    out = set()
    for table in _enumerate_cochains(action, n - 1):
        def lookup(face, _t=table):
            return _t[_flat_index(nG, face)]
        img = tuple(_delta_value(action, n - 1, gs, lookup) for gs in pos_out)
        out.add(img)
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
    h_structure: FinAbPresentation | None
    representatives: tuple[Cochain, ...]
    engine: str
    lex_least: bool  # representatives minimized within cosets

    def __post_init__(self):
        assert self.z_order == self.b_order * self.h_order

    def summary(self) -> str:
        inv = (list(self.h_structure.invariant_factors)
               if self.h_structure is not None else "?")
        return (f"H^{self.n}: |Z|={self.z_order} |B|={self.b_order} "
                f"|H|={self.h_order} invariants={inv} [{self.engine}]")


def _enumeration_engine(action: PartialAction, n: int) -> CohomologyGroup:
    R = action.ring
    z_tables = _kernel_dfs(action, n)
    if n == 0:
        b_tables = [(R.one,) * 1]
        b_set = set(b_tables)
    else:
        b_set = _image_scan(action, n)
        b_tables = sorted(b_set)
    zset = set(z_tables)
    for bt in b_tables:
        assert bt in zset, "B must sit inside Z"
    reps, canon = _canonical_cosets(z_tables, b_tables, R)
    h_order = len(reps)

    def op(a, b):
        return canon[tuple(int(R.mul[x, y]) for x, y in zip(a, b))]

    ident = canon[tuple(int(v) for v in identity_cochain(action, n).values)]
    pres = groups.abelian_structure(reps, op, ident)
    rep_cochains = tuple(
        Cochain(action, n, np.array(t, dtype=np.int64)) for t in reps)
    return CohomologyGroup(n=n, z_order=len(z_tables), b_order=len(b_tables),
                           h_order=h_order, h_structure=pres,
                           representatives=rep_cochains,
                           engine="enumerate", lex_least=True)


@lru_cache(maxsize=64)
def _corner_presentation(action: PartialAction, e: int) -> FinAbPresentation:
    cu = corner_units(action.ring, e)
    return groups.abelian_structure(cu.elements, cu.op, e)


def _space_presentations(action: PartialAction, n: int):
    """Per-position corner presentations and the global moduli vector."""
    pos, corners, _ = _position_data(action, n)
    pres = [_corner_presentation(action, e) for e in corners]
    moduli = []
    offsets = []
    for p in pres:
        offsets.append(len(moduli))
        moduli.extend(p.invariant_factors)
    return pos, corners, pres, moduli, offsets


def _coords_of_table(table, pres, offsets, k):
    vec = [0] * k
    for i, p in enumerate(pres):
        c = p.coords_of(table[i])
        vec[offsets[i]:offsets[i] + len(c)] = list(c)
    return vec


def _table_from_coords(vec, pres, offsets):
    out = []
    for i, p in enumerate(pres):
        c = vec[offsets[i]:offsets[i] + len(p.invariant_factors)]
        out.append(p.from_coords(c))
    return tuple(out)


STRUCTURE_POSITION_BUDGET = 200_000


def _delta_matrix(action: PartialAction, n: int):
    """Generator matrix of delta^n : C^n -> C^(n+1) in corner-presentation
    coordinates, together with both spaces' descriptions."""
    nG = action.group.order
    if nG ** (n + 1) > STRUCTURE_POSITION_BUDGET:
        raise BudgetError("structure-positions", STRUCTURE_POSITION_BUDGET,
                          nG ** (n + 1))
    dom = _space_presentations(action, n)
    cod = _space_presentations(action, n + 1)
    pos_d, _, pres_d, mod_d, off_d = dom
    pos_c, _, pres_c, mod_c, off_c = cod
    ident_d = [corner_idem(action, gs) for gs in pos_d]
    rows = []
    for i, p in enumerate(pres_d):
        for j, g in enumerate(p.generators):
            table = list(ident_d)
            table[i] = g
            if n == 0:
                def lookup(face, _v=g):
                    return _v
            else:
                def lookup(face, _t=table):
                    return _t[_flat_index(nG, face)]
            img = [_delta_value(action, n, gs, lookup) for gs in pos_c]
            rows.append(_coords_of_table(img, pres_c, off_c, len(mod_c)))
    return rows, dom, cod


REP_COSET_CAP = 4096  # list one representative per coset up to this |H|


def _structure_engine(action: PartialAction, n: int) -> CohomologyGroup:
    R = action.ring
    if n == 0:
        # Z^0 is a plain unit scan; no lattice work needed
        grp = _enumeration_engine(action, 0)
        return CohomologyGroup(n=0, z_order=grp.z_order, b_order=grp.b_order,
                               h_order=grp.h_order,
                               h_structure=grp.h_structure,
                               representatives=grp.representatives,
                               engine="structure", lex_least=True)
    rows_n, dom_n, cod_n = _delta_matrix(action, n)
    pos_d, _, pres_d, mod_d, off_d = dom_n
    mod_c = cod_n[3]
    kd = len(mod_d)
    rows_prev, dom_prev, cod_prev = _delta_matrix(action, n - 1)
    assert cod_prev[3] == mod_d, "space descriptions must line up"
    if kd == 0:
        ident = identity_cochain(action, n)
        pres = groups.abelian_structure([0], lambda a, b: 0, 0)
        return CohomologyGroup(n=n, z_order=1, b_order=1, h_order=1,
                               h_structure=pres, representatives=(ident,),
                               engine="structure", lex_least=True)
    z_order, _, _ = groups.kernel_image_orders(rows_n, mod_d, mod_c)
    _, b_order, _ = groups.kernel_image_orders(
        rows_prev, dom_prev[3], mod_d)

    # kernel lattice of delta^n inside Z^kd (includes the moduli lattice)
    lam = intmat.RowLattice(kd)
    if len(mod_c):
        stacked = [list(r) for r in rows_n]
        for i, e in enumerate(mod_c):
            row = [0] * len(mod_c)
            row[i] = e
            stacked.append(row)
        for v in intmat.kernel_basis(intmat.transpose(stacked)):
            lam.add(v[:kd])
    else:
        for row in intmat.eye(kd):
            lam.add(row)
    for j, d in enumerate(mod_d):
        row = [0] * kd
        row[j] = d
        lam.add(row)

    # H = kernel lattice / (image lattice of delta^(n-1) + moduli lattice)
    b_lat = intmat.RowLattice(kd)
    for r in rows_prev:
        b_lat.add(list(r))
    for j, d in enumerate(mod_d):
        row = [0] * kd
        row[j] = d
        b_lat.add(row)
    K = lam.basis()
    coeffs = [_solve_triangular(K, list(b)) for b in b_lat.basis()]
    diag, U, V, Uinv, Vinv = intmat.smith_normal_form(coeffs)
    keep = [i for i, d in enumerate(diag) if d > 1]
    h_order = prod(diag[i] for i in keep) if keep else 1
    assert z_order == b_order * h_order, \
        "lattice quotient disagrees with order bookkeeping"

    # cyclic generators of H as coordinate vectors: kernel-basis
    # coefficients are the rows of Vinv
    gen_vecs = []
    for i in keep:
        vec = [0] * kd
        for c, krow in zip(Vinv[i], K):
            vec = [a + c * b for a, b in zip(vec, krow)]
        gen_vecs.append(vec)

    def residue_label(vec):
        return b_lat.residue(vec)

    def h_op(a, b):
        return residue_label([x + y for x, y in zip(a, b)])

    factors = [diag[i] for i in keep]
    h_elems = set()
    combos = []
    for combo in itertools.product(*[range(d) for d in factors]):
        vec = [0] * kd
        for c, g in zip(combo, gen_vecs):
            vec = [a + c * b for a, b in zip(vec, g)]
        h_elems.add(residue_label(vec))
        combos.append(vec)
    assert len(h_elems) == h_order, "quotient labels must be distinct"
    pres = groups.abelian_structure(sorted(h_elems), h_op,
                                    residue_label([0] * kd))

    # representatives: one cochain per coset when |H| is listable,
    # otherwise just the cyclic generators
    if h_order <= REP_COSET_CAP:
        rep_vecs = combos
    else:
        rep_vecs = gen_vecs
    rep_tables = [
        _table_from_coords([x % m for x, m in zip(v, mod_d)], pres_d, off_d)
        for v in rep_vecs]

    lex = False
    if z_order <= MATERIALIZE_BUDGET and b_order * len(rep_tables) \
            <= MATERIALIZE_BUDGET:
        b_tables = _materialize_image(action, n)
        if b_tables is not None:
            rep_tables = [
                min(tuple(int(R.mul[x, y]) for x, y in zip(t, bt))
                    for bt in b_tables)
                for t in rep_tables]
            lex = True
    reps = tuple(Cochain(action, n, np.array(t, dtype=np.int64))
                 for t in rep_tables)
    return CohomologyGroup(n=n, z_order=z_order, b_order=b_order,
                           h_order=h_order, h_structure=pres,
                           representatives=reps, engine="structure",
                           lex_least=lex)


def _solve_triangular(basis_rows, target):
    """Integer coefficients expressing target in a RowLattice basis."""
    coeff = []
    v = list(target)
    rows = {next(i for i, x in enumerate(r) if x): r for r in basis_rows}
    out = [0] * len(basis_rows)
    ordered = sorted(rows)
    for k, c in enumerate(ordered):
        r = rows[c]
        if v[c] % r[c]:
            raise DefectError("image vector outside kernel lattice")
        q = v[c] // r[c]
        out[k] = q
        v = [a - q * b for a, b in zip(v, r)]
    if any(v):
        raise DefectError("image vector outside kernel lattice")
    return out


def _materialize_image(action, n):
    """Sorted value tables of B^n when the scan fits the budget."""
    try:
        return sorted(_image_scan(action, n))
    except BudgetError:
        return None


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
        if (a.h_structure.invariant_factors
                != b.h_structure.invariant_factors):
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
    R = action.ring
    nG = action.group.order
    target = cochain_mul(f, cochain_inv(f2)).value_tuple()
    pos_out = positions(action, n)
    for table in _enumerate_cochains(action, n - 1):
        def lookup(face, _t=table):
            return _t[_flat_index(nG, face)]
        img = tuple(_delta_value(action, n - 1, gs, lookup) for gs in pos_out)
        if img == target:
            return Cochain(action, n - 1, np.array(table, dtype=np.int64))
    return None


def is_cocycle(action: PartialAction, f: Cochain) -> bool:
    ident = identity_cochain(action, f.n + 1)
    return coboundary(action, f) == ident


def normalize_1cocycle(action: PartialAction, f: Cochain) -> Cochain:
    """Every 1-cocycle is already normalized: f(1) = 1.  Asserted."""
    if not is_cocycle(action, f):
        raise PreconditionError("input is not a 1-cocycle")
    if f[(action.group.identity,)] != action.ring.one:
        raise DefectError("1-cocycle with f(1) != 1 should not exist")
    return f


def normalize_2cocycle(action: PartialAction, f: Cochain):
    """A normalized cocycle f~ and eps in C^1 with f = f~ · delta(eps).

    The closed-form candidate eps(g) = f(g,1) is tried first; exhaustive
    search over C^1 is the fallback.  Existence is guaranteed, so double
    failure raises a defect.
    """
    if f.n != 2:
        raise PreconditionError("expects a 2-cochain")
    if not is_cocycle(action, f):
        raise PreconditionError("input is not a 2-cocycle")
    G, R = action.group, action.ring
    one = G.identity

    def normalized(c: Cochain) -> bool:
        return all(
            c[(one, g)] == corner_idem(action, (one, g))
            and c[(g, one)] == corner_idem(action, (g, one))
            for g in range(G.order))

    if normalized(f):
        return f, identity_cochain(action, 1)

    eps_vals = np.array([f[(g, one)] for g in range(G.order)], dtype=np.int64)
    eps = Cochain(action, 1, eps_vals)
    cand = cochain_mul(f, cochain_inv(coboundary(action, eps)))
    if normalized(cand) and is_cocycle(action, cand):
        return cand, eps

    for table in _enumerate_cochains(action, 1):
        eps = Cochain(action, 1, np.array(table, dtype=np.int64))
        cand = cochain_mul(f, cochain_inv(coboundary(action, eps)))
        if normalized(cand) and is_cocycle(action, cand):
            return cand, eps
    raise DefectError("no normalizing witness found; this contradicts "
                      "the guaranteed existence of normalized forms")
