"""Partial Galois coordinates: verification, search, regular representation.

Coordinates are pairs (x_i, y_i) with, for every group element g,

    sum_i  x_i · alpha_g(y_i · 1_{g^-1})  =  (1 if g = identity else 0).

Existence is decidable outright.  Writing v_y for the vector
(alpha_g(y·1_{g^-1}))_g in prod_g D_g, the left sides sweep the additive
subgroup generated by {a·v_b : a, b additive generators of R} (the sum is
additive in each x_i and each y_i), so coordinates exist iff the Kronecker
vector lies in an integer lattice.  Membership is one modular kernel
lattice (`intmat.kernel_lattice`), and a solution of the lattice system
also produces an explicit certificate with one pair per additive generator.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod

import numpy as np

from . import intmat
from .errors import DefectError, PreconditionError
from .finring import (FiniteRing, _additive_span, cached_on,
                      primitive_idempotents)
from .groups import FinAbPresentation, kernel_image_orders, subgroup_structure
from .partial_action import PartialAction, _additive_generators, invariant_subring


@dataclass(frozen=True)
class GaloisCertificate:
    pairs: tuple[tuple[int, int], ...]
    strategy: str = "given"

    @property
    def m(self) -> int:
        return len(self.pairs)

    def __repr__(self):
        return f"GaloisCertificate(m={self.m}, strategy={self.strategy!r})"


@dataclass(frozen=True)
class NotFound:
    conclusive: bool
    reason: str


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    sums: tuple[int, ...]        # computed sum for each g, ring indices
    failing_g: int | None

    def __str__(self):
        if self.ok:
            return "certificate holds"
        return f"certificate fails at g={self.failing_g} (sum={self.sums[self.failing_g]})"


def galois_sums(action: PartialAction, pairs) -> tuple[int, ...]:
    """sum_i x_i·alpha_g(y_i·1_{g^-1}) for each g."""
    R = action.ring
    out = []
    for g in range(action.group.order):
        row = action.alpha_hat[g]
        acc = R.zero
        for x, y in pairs:
            acc = int(R.add[acc, R.mul[x, row[y]]])
        out.append(acc)
    return tuple(out)


def kronecker_vector(action: PartialAction) -> tuple[int, ...]:
    return tuple(action.ring.one if g == action.group.identity else action.ring.zero
                 for g in range(action.group.order))


def verify_certificate(action: PartialAction, cert) -> CertificateCheck:
    pairs = cert.pairs if isinstance(cert, GaloisCertificate) else tuple(cert)
    n = action.ring.order
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise PreconditionError(f"pair ({x},{y}) outside the ring")
    sums = galois_sums(action, pairs)
    target = kronecker_vector(action)
    failing = next((g for g in range(len(sums)) if sums[g] != target[g]), None)
    return CertificateCheck(failing is None, sums, failing)


# ------------------------------------------------------------------ lattice

@cached_on("_corner_cache")
def _additive_presentation(ring: FiniteRing) -> FinAbPresentation:
    return subgroup_structure(range(ring.order), ring.add, ring.zero)


def _add_multiple(ring: FiniteRing, c: int, a: int) -> int:
    """c·a in the additive group, c any integer."""
    pres = _additive_presentation(ring)
    exp = pres.invariant_factors[-1] if pres.invariant_factors else 1
    c %= exp
    acc, base = ring.zero, a
    while c:
        if c & 1:
            acc = int(ring.add[acc, base])
        base = int(ring.add[base, base])
        c >>= 1
    return acc


def _solve_row_system(rows, moduli, target):
    """Integer coefficients c with sum c_i·rows_i = target modulo the
    per-column moduli, or None.  Columns all share index space with target.

    The x in the kernel lattice of [-target, *rows] have x_0 ranging over
    an ideal of Z, which is all of Z exactly when target is in the span;
    then Hermite row 0 is (1, c)."""
    A = [[-t for t in target], *rows]
    lat = intmat.kernel_lattice(A, [lcm(*moduli)] * len(A), moduli)
    head = lat.basis()[0]
    return head[1:] if head[0] == 1 else None


def _span_certificate(action: PartialAction):
    """Solve the lattice membership; a coefficient vector converts into
    pairs (x_b, b), one per additive generator b."""
    R, nG = action.ring, action.group.order
    pres = _additive_presentation(R)
    gens = pres.generators
    k = len(gens)
    n_cols = k * nG
    if (k * k + n_cols) * n_cols * n_cols > action.budgets.galois_lattice:
        return None, False   # inconclusive: reduction too large
    rows, labels = [], []
    for a in gens:
        for b in gens:
            vec = [int(R.mul[a, action.alpha_hat[g][b]]) for g in range(nG)]
            rows.append([c for x in vec for c in pres.coords_of(x)])
            labels.append((a, b))
    moduli = [pres.invariant_factors[j % k] for j in range(n_cols)] if k else []
    target = [c for x in kronecker_vector(action) for c in pres.coords_of(x)]
    coeff = _solve_row_system(rows, moduli, target)
    if coeff is None:
        return None, True    # conclusive: no coordinates of any length
    # merge by generator: x_b = sum_a c_{(a,b)}·a, so m <= number of generators
    pairs = []
    for b in gens:
        xb = R.zero
        for (a, b2), c in zip(labels, coeff):
            if b2 == b and c:
                xb = int(R.add[xb, _add_multiple(R, c, a)])
        if xb != R.zero:
            pairs.append((xb, b))
    if not pairs:
        pairs = [(R.zero, R.zero)]
    cert = GaloisCertificate(tuple(pairs), strategy="linear-solve")
    if not verify_certificate(action, cert).ok:
        raise DefectError("lattice solution failed to verify")
    return cert, True


def _idempotent_candidate(action: PartialAction):
    prims = primitive_idempotents(action.ring)
    if not prims:
        return None
    pairs = tuple((e, e) for e in prims)
    cert = GaloisCertificate(pairs, strategy="idempotents")
    return cert if verify_certificate(action, cert).ok else None


def _generating_pool(action: PartialAction) -> tuple[int, ...]:
    R = action.ring
    pres = _additive_presentation(R)
    pool = set(pres.generators) | set(primitive_idempotents(R)) | {R.one}
    pool.discard(R.zero)
    return tuple(sorted(pool))


def _exhaustive_search(action: PartialAction, max_m: int):
    """Pairs drawn from a small generating pool, m <= max_m, lexicographic
    first-found.  Returns (certificate|None, searched_exhaustively)."""
    pool = _generating_pool(action)
    pair_pool = list(itertools.product(pool, repeat=2))
    total = 0
    for m in range(1, max_m + 1):
        count = 1
        for i in range(m):
            count = count * (len(pair_pool) + i) // (i + 1)
        total += count
    if total > action.budgets.galois_search:
        return None, False
    for m in range(1, max_m + 1):
        for combo in itertools.combinations_with_replacement(pair_pool, m):
            cert = GaloisCertificate(tuple(combo), strategy="exhaustive")
            if verify_certificate(action, cert).ok:
                return cert, True
    return None, True


def find_certificate(action: PartialAction, max_m: int = 4):
    """GaloisCertificate or NotFound.  NotFound is conclusive whenever the
    lattice membership test ran (it decides existence for every length m);
    otherwise the exhaustive bound is reported as inconclusive."""
    if max_m < 1:
        raise PreconditionError(f"max_m must be at least 1, got {max_m}")
    cert = _idempotent_candidate(action)
    if cert is not None:
        return cert
    cert, conclusive = _span_certificate(action)
    if cert is not None:
        if cert.m > max_m:
            small, done = _exhaustive_search(action, max_m)
            if small is not None:
                return small
        return cert
    if conclusive:
        return NotFound(True, "Kronecker vector lies outside the coordinate lattice")
    small, done = _exhaustive_search(action, max_m)
    if small is not None:
        return small
    if done:
        reason = f"lattice reduction over budget; bounded search exhausted m <= {max_m}"
    else:
        reason = "lattice reduction and bounded search both over budget"
    return NotFound(False, reason)


def is_galois(action: PartialAction) -> bool:
    return isinstance(find_certificate(action), GaloisCertificate)


# ------------------------------------------------- regular representation

@dataclass(frozen=True)
class RegularRepReport:
    is_homomorphism: bool        # proved on additive generators
    injective: bool              # decided by the kernel order of rho
    skew_order: int
    invariant_order: int
    free_rank: int | None        # rank of R over R^alpha when free
    basis: tuple[int, ...] | None
    endo_order: int | None       # |S|^(rank^2) when free
    bijective: bool | None
    cross_checked: bool          # endo_order re-derived as a kernel order

    def __str__(self):
        bij = {True: "bijective", False: "not bijective", None: "undecided"}[self.bijective]
        return (f"rho: hom={self.is_homomorphism} {bij}; |skew|={self.skew_order} "
                f"|End|={self.endo_order} rank={self.free_rank}")


def rho_monomial(action: PartialAction, g: int, r: int) -> np.ndarray:
    """The endomorphism x -> r·alpha_g(x·1_{g^-1}) as a value table."""
    return action.ring.mul[r, action.alpha_hat[g]]


def _module_span(ring: FiniteRing, s_arr: np.ndarray, vecs) -> np.ndarray:
    return _additive_span(ring, ring.mul[s_arr[:, None], vecs])


def _free_basis(ring: FiniteRing, s_members, rank: int, budget: int):
    """Ascending basis (b_1 < ... < b_rank) with |span| = |S|^k at every
    step, or None, also when the search passes budget nodes.  Exact
    stepwise growth forces unique representation, hence freeness."""
    s_arr = np.asarray(sorted(s_members), dtype=np.int64)
    s_order = len(s_members)
    nodes = 0

    def extend(basis, span):
        nonlocal nodes
        depth = len(basis)
        if depth == rank:
            return basis if len(span) == ring.order else None
        span_set = set(int(v) for v in span)
        start = basis[-1] + 1 if basis else 0
        for b in range(start, ring.order):
            if b in span_set:
                continue
            nodes += 1
            if nodes > budget:
                return None
            new_span = _module_span(ring, s_arr, basis + [b])
            if len(new_span) != s_order ** (depth + 1):
                continue
            got = extend(basis + [b], new_span)
            if got is not None:
                return got
        return None

    got = extend([], np.array([ring.zero], dtype=np.int64))
    return tuple(got) if got is not None else None


def _linear_endo_order(ring: FiniteRing, s_members) -> int:
    """|End_S(R)| as the kernel order of phi -> (phi(s·g_k) - s·phi(g_k)),
    s and g_k over the additive generators of S and R (both sides are
    additive in s and g_k, and the difference is additive in phi).  The
    additive maps phi form (+)_j R[d_j]: phi(g_j) is any element of the
    d_j-torsion, and R[d_j] = (+)_i Z/gcd(d_j, d_i), generated by
    (d_i / gcd)·g_i."""
    pres = _additive_presentation(ring)
    gens, facs = pres.generators, pres.invariant_factors
    s_gens = _additive_generators(ring, s_members)
    rows, dom_moduli = [], []
    for j, i in itertools.product(range(len(facs)), repeat=2):
        m = gcd(facs[j], facs[i])
        if m == 1:
            continue
        u = _add_multiple(ring, facs[i] // m, gens[i])   # phi(g_j) = u
        row = []
        for s in s_gens:
            su = pres.coords_of(int(ring.mul[s, u]))
            for k, g in enumerate(gens):
                c = pres.coords_of(int(ring.mul[s, g]))[j]
                row += [(c * x - (y if k == j else 0)) % f
                        for x, y, f in zip(pres.coords_of(u), su, facs)]
        rows.append(row)
        dom_moduli.append(m)
    cod_moduli = list(facs) * (len(s_gens) * len(gens))
    return kernel_image_orders(rows, dom_moduli, cod_moduli)[0]


def _ideal_presentation(ring: FiniteRing, e: int) -> FinAbPresentation:
    """Additive presentation of the ideal Re."""
    if e == ring.one:
        return _additive_presentation(ring)
    return subgroup_structure(ring.corner_members(e), ring.add, ring.zero)


def _rho_kernel_order(action: PartialAction) -> int:
    """Order of the kernel of rho on R*G = (+)_g D_g·delta_g.

    rho is additive there, and an additive endomorphism of R is fixed by
    its values at R's additive generators, so rho is the homomorphism
    sending each additive generator x of each D_g to the values of
    rho(x·delta_g) at those generators, in additive-presentation
    coordinates; its kernel order comes from lattice algebra."""
    R = action.ring
    pres = _additive_presentation(R)
    gens = list(pres.generators)
    ideals: dict[int, FinAbPresentation] = {}
    rows, dom_moduli = [], []
    for g in range(action.group.order):
        e = action.one(g)
        if e not in ideals:
            ideals[e] = _ideal_presentation(R, e)
        at_gens = action.alpha_hat[g][gens]
        for x, d in zip(ideals[e].generators, ideals[e].invariant_factors):
            rows.append([c for y in R.mul[x, at_gens].tolist()
                         for c in pres.coords_of(y)])
            dom_moduli.append(d)
    cod_moduli = list(pres.invariant_factors) * len(gens)
    return kernel_image_orders(rows, dom_moduli, cod_moduli)[0]


def skew_order(action: PartialAction) -> int:
    return prod(len(action.domain_members(g)) for g in range(action.group.order))


def _rho_multiplicative(action: PartialAction) -> bool:
    """rho(x·delta_g)·rho(y·delta_h) = rho(x·alpha_g(y)·delta_gh), both
    evaluated at z, for x, y, z additive generators of D_g, D_h and R.
    Both sides are additive in each of x, y and z, by distributivity and
    because every alpha_hat_g is additive (so on a valid action; checked
    here on generator shifts, as the reduction rests on it), so the
    generators decide the identity on all of R*G."""
    R, G = action.ring, action.group
    ahat = action.alpha_hat
    z = np.asarray(_additive_presentation(R).generators, dtype=np.int64)
    every = np.arange(R.order)[:, None]
    if (ahat[:, R.add[every, z]]
            != R.add[ahat[:, every], ahat[:, z][:, None, :]]).any():
        return False
    gens = [np.asarray(_additive_generators(R, action.domain_members(g)),
                       dtype=np.int64) for g in range(G.order)]
    for g, h in itertools.product(range(G.order), repeat=2):
        x, y = gens[g][:, None, None], gens[h][None, :, None]
        left = R.mul[x, ahat[g][R.mul[y, ahat[h][z]]]]
        right = R.mul[R.mul[x, ahat[g][y]], ahat[G.op(g, h)][z]]
        if (left != right).any():
            return False
    return True


def regular_representation(action: PartialAction) -> RegularRepReport:
    """rho: R*G -> additive endomorphisms of R, r·delta_g to the map
    x -> r·alpha_g(x·1_{g^-1}); reports homomorphism, injectivity, and
    whether the image is all of End_{R^alpha}(R)."""
    R, G = action.ring, action.group
    S = invariant_subring(action)
    s_members = S.members
    hom_ok = (np.array_equal(rho_monomial(action, G.identity, R.one),
                             np.arange(R.order))
              and _rho_multiplicative(action))

    order = skew_order(action)
    injective = _rho_kernel_order(action) == 1

    s_order = len(s_members)
    rank = None
    n = 1
    while s_order ** n < R.order:
        n += 1
    if s_order ** n == R.order:
        basis = _free_basis(R, s_members, n, action.budgets.basis_nodes)
        if basis is not None:
            rank = n
    else:
        basis = None
    endo_order = s_order ** (rank * rank) if rank is not None else None
    bijective = None
    if endo_order is not None:
        bijective = injective and order == endo_order and hom_ok
        count = _linear_endo_order(R, s_members)
        if count != endo_order:
            raise DefectError(f"endomorphism count mismatch: {count} vs {endo_order}")
    return RegularRepReport(
        is_homomorphism=hom_ok, injective=injective, skew_order=order,
        invariant_order=s_order, free_rank=rank, basis=basis,
        endo_order=endo_order, bijective=bijective,
        cross_checked=endo_order is not None)
