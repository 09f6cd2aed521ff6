"""Declarative instance configuration.

INI grammar::

    [ring]
    descriptor = GF(2)*GF(2)*GF(2)   ; make_ring syntax: Zn, GF(p), GF(q;poly), products

    [group]
    descriptor = C3                  ; make_group syntax: Cn or products C2*C4

    [action]
    kind = generator                 ; generator | trivial | tables
    ; generator: a global action of a cyclic group by one ring automorphism
    permutation = 1,2,0              ; destination slot for each product slot
    frobenius = 0,0,0                ; per-slot Frobenius power, optional
    idempotent = (1,1,0)             ; optional: restrict to this corner
    ; tables: explicit unital data
    one_g = 7,2,1                    ; 1_g per group element, ring indices
    alpha = 0,1,-1,-1                ; one row per g, -1 marks undefined;
        0,-1,1,-1                    ; later rows are indented continuations

The idempotent may be an element name exactly as the ring prints it, or a
bare element index.  A generator config with an idempotent e is built on
its corner: Re is the product of the corners R_j·e_j of the components,
1_g = e·sigma_g(e) and alpha_g = sigma_g on D_{g^-1} are computed slot by
slot (sigma sends slot j through frobenius^f_j into slot perm[j]), and
sigma is proved an automorphism slot by slot too.  The product ring is
never tabulated, though its order still counts against the ring-order
cap; the action equals restrict_global of the global action on it.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass
from math import prod

import numpy as np

from .finring import (FiniteRing, make_ring, product_corner, product_digits,
                      product_element_named, ring_components, slot_maps)
from .groups import FiniteGroup, make_group
from .partial_action import (Budgets, GlobalAction, PartialAction, as_partial,
                             check_automorphisms, restrict_sigma,
                             trivial_partial_action)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class InstanceConfig:
    ring_tag: str
    group_tag: str
    kind: str
    permutation: tuple[int, ...] | None = None
    frobenius: tuple[int, ...] | None = None
    idempotent: str | None = None
    one_g: tuple[int, ...] | None = None
    alpha_rows: tuple[tuple[int, ...], ...] | None = None

    @property
    def tag(self) -> str:
        return f"{self.ring_tag}/{self.group_tag}/{self.kind}"


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())


def parse_config(text: str) -> InstanceConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for section in ("ring", "group", "action"):
        if section not in parser:
            raise ConfigError(f"missing [{section}] section")
    try:
        ring_tag = parser["ring"]["descriptor"]
        group_tag = parser["group"]["descriptor"]
        kind = parser["action"].get("kind", "generator").strip()
    except KeyError as exc:
        raise ConfigError(f"missing key {exc} in config") from exc
    act = parser["action"]
    if kind not in ("generator", "trivial", "tables"):
        raise ConfigError(f"unknown action kind {kind!r}")
    perm = _int_list(act["permutation"]) if "permutation" in act else None
    frob = _int_list(act["frobenius"]) if "frobenius" in act else None
    idem = act["idempotent"].strip() if "idempotent" in act else None
    one_g = _int_list(act["one_g"]) if "one_g" in act else None
    alpha = None
    if "alpha" in act:
        alpha = tuple(_int_list(row) for row in act["alpha"].splitlines()
                      if row.strip())
    if kind == "generator" and perm is None:
        raise ConfigError("kind=generator needs a permutation")
    if kind == "tables" and (one_g is None or alpha is None):
        raise ConfigError("kind=tables needs one_g and alpha")
    return InstanceConfig(ring_tag=ring_tag, group_tag=group_tag, kind=kind,
                          permutation=perm, frobenius=frob, idempotent=idem,
                          one_g=one_g, alpha_rows=alpha)


def resolve_idempotent(ring, spec: str) -> int:
    """The idempotent that spec names, an element name or a bare index.
    ring may be the tuple of a product's components, which is then read
    without building the product."""
    if isinstance(ring, FiniteRing):
        ring = ring.components or (ring,)
    parts = tuple(ring)
    e = product_element_named(parts, spec)
    if e is None:
        try:
            e = int(spec)
        except ValueError:
            raise ConfigError(f"idempotent {spec!r} is neither an element name "
                              f"nor an index") from None
    if not (0 <= e < prod(r.order for r in parts)) or not all(
            r.is_idempotent(c) for r, c in zip(parts, product_digits(parts, e))):
        raise ConfigError(f"element {spec!r} is not an idempotent")
    return e


def _generator_slots(parts, group: FiniteGroup, cfg: InstanceConfig):
    """sigma of a generator config on product_ring(parts), one slot at a
    time: (perm, maps, powers), where slot j goes through maps[j] into slot
    perm[j], and slot d of sigma^g(x) is t[x_s] for (s, t) = powers[g][d],
    g = 0..n-1.  Refuses what cannot generate an action of the cyclic
    group Cn, the product itself never built."""
    perm = cfg.permutation
    if cfg.frobenius is not None and len(cfg.frobenius) != len(perm):
        raise ConfigError(f"frobenius needs {len(perm)} values, one per "
                          f"permutation slot, not {len(cfg.frobenius)}")
    frob = cfg.frobenius or tuple(0 for _ in perm)
    if len(perm) == 1:
        if perm != (0,):
            raise ConfigError("a single-component ring admits only the "
                              "identity permutation 0")
        if frob[0] and (len(parts) > 1 or parts[0].field_params is None):
            raise ConfigError("frobenius twist needs a field component")
        if len(parts) > 1:   # the whole product as one slot: the identity
            perm, frob = tuple(range(len(parts))), None
    elif len(parts) == 1:
        raise ValueError("not a product ring")
    maps = slot_maps(parts, perm, frob)
    n = group.order
    # group element i acts as the i-th power of the generator; require the
    # cyclic convention of make_group ("C<n>": index = exponent)
    if group.tag != f"C{n}":
        raise ConfigError("kind=generator needs a cyclic [group] descriptor Cn")
    powers = [[(d, np.arange(r.order, dtype=np.int64))
               for d, r in enumerate(parts)]]
    for _ in range(n):
        step = [None] * len(parts)
        for d, (s, t) in enumerate(powers[-1]):
            step[perm[d]] = (s, maps[d][t])
        powers.append(step)
    # sigma^n = id slot by slot: slot d reads itself unchanged, or is Z1
    if not all(r.order == 1 or (s == d and np.array_equal(t, np.arange(r.order)))
               for d, (r, (s, t)) in enumerate(zip(parts, powers.pop()))):
        raise ConfigError(f"automorphism order does not divide {n}")
    return perm, maps, powers


def _sigma_tables(parts, boxes, powers) -> np.ndarray:
    """sigma_g on the product of the member sets boxes[j] (sorted indices
    of parts[j]), one row per g, as mixed-radix indices into that product;
    -1 where sigma_g leaves it."""
    sizes = [len(b) for b in boxes]
    digits = np.unravel_index(np.arange(prod(sizes)), sizes)
    strides = [prod(sizes[j + 1:]) for j in range(len(sizes))]
    locs = []   # index of each element of parts[j] in boxes[j], or -1
    for r, b in zip(parts, boxes):
        loc = b   # a whole component indexes itself
        if len(b) < r.order:
            loc = np.full(r.order, -1, dtype=np.int64)
            loc[b] = np.arange(len(b))
        locs.append(loc)
    out = np.zeros((len(powers), prod(sizes)), dtype=np.int64)
    for row, slots in zip(out, powers):
        outside = np.zeros(row.shape, dtype=bool)
        for d, (s, t) in enumerate(slots):
            at = locs[d][t[boxes[s]]]    # per member of box s: tiny
            row += (strides[d] * at)[digits[s]]
            if (at < 0).any():
                outside |= (at < 0)[digits[s]]
        row[outside] = -1
    return out


def _generator_global(ring: FiniteRing, group: FiniteGroup,
                      cfg: InstanceConfig, tag: str = "",
                      budgets: Budgets = Budgets()) -> GlobalAction:
    parts = ring.components or (ring,)
    _, _, powers = _generator_slots(parts, group, cfg)
    boxes = [np.arange(r.order, dtype=np.int64) for r in parts]
    # sigma slot by slot (powers[0], the identity, when n = 1); on the
    # whole ring its powers are compositions
    step = _sigma_tables(parts, boxes, powers[1:2] or powers)[0]
    rows = [np.arange(ring.order, dtype=np.int64)]
    for _ in range(1, group.order):
        rows.append(step[rows[-1]])
    return GlobalAction(ring, group, np.stack(rows), tag=tag, budgets=budgets)


def _generator_corner(parts, group: FiniteGroup, cfg: InstanceConfig,
                      budgets: Budgets) -> PartialAction:
    """restrict_global of the config's global action at its idempotent e,
    built on Re = prod R_j·e_j from the components alone."""
    perm, maps, powers = _generator_slots(parts, group, cfg)
    # sigma is an automorphism of the product: each slot map (a Frobenius
    # power) is one of its component, and permuted slots hold identical
    # components
    for j, (r, t) in enumerate(zip(parts, maps)):
        if (t != np.arange(r.order)).any():
            check_automorphisms(r, [t], [f"sigma on slot {j}"])
        q = parts[perm[j]]
        if not (q is r or (np.array_equal(q.add, r.add)
                           and np.array_equal(q.mul, r.mul))):
            raise ValueError("permutation mixes non-identical components")
    e = product_digits(parts, resolve_idempotent(parts, cfg.idempotent))
    corner = product_corner(parts, e)
    boxes = [np.array(r.corner_members(c), dtype=np.int64)
             for r, c in zip(parts, e)]
    # 1_g = e·sigma_g(e), slot by slot, as an index of the corner
    one_g = [np.ravel_multi_index(
                 [np.searchsorted(b, r.mul[e[d], t[e[s]]])
                  for d, (r, b, (s, t)) in enumerate(zip(parts, boxes, slots))],
                 [len(b) for b in boxes])
             for slots in powers]
    return restrict_sigma(corner, group, one_g,
                          _sigma_tables(parts, boxes, powers),
                          tag=cfg.tag, budgets=budgets)


def build_global(cfg: InstanceConfig) -> GlobalAction | None:
    """The underlying global action, when the config describes one."""
    if cfg.kind != "generator":
        return None
    ring = make_ring(cfg.ring_tag)
    group = make_group(cfg.group_tag)
    return _generator_global(ring, group, cfg)


def build_tables(cfg: InstanceConfig, budgets: Budgets = Budgets()):
    """(ring, group, one_g, alpha, action) of an instance.

    For the generator and trivial kinds the tables come from an action
    built (and so validated) here, which is returned with the instance's
    tag and the given budgets.  For kind=tables the action is None: the
    raw tables may break the axioms, and the caller decides whether to
    construct the action or to run the validator on them."""
    if cfg.kind == "generator" and cfg.idempotent is not None:
        # the product's order counts against the cap, but it is never built
        parts = ring_components(cfg.ring_tag)
        group = make_group(cfg.group_tag)
        act = _generator_corner(parts, group, cfg, budgets)
        return act.ring, group, act.one_g, act.alpha, act
    ring = make_ring(cfg.ring_tag)
    group = make_group(cfg.group_tag)
    if cfg.kind == "trivial":
        act = trivial_partial_action(ring, group, tag=cfg.tag, budgets=budgets)
        return ring, group, act.one_g, act.alpha, act
    if cfg.kind == "generator":
        act = as_partial(_generator_global(ring, group, cfg, tag=cfg.tag,
                                           budgets=budgets))
        return ring, group, act.one_g, act.alpha, act
    if cfg.one_g is None or cfg.alpha_rows is None:
        raise ConfigError("kind=tables needs one_g and alpha")
    one_g = np.asarray(cfg.one_g, dtype=np.int64)
    alpha = np.asarray(cfg.alpha_rows, dtype=np.int64)
    if one_g.shape != (group.order,):
        raise ConfigError(f"one_g needs {group.order} entries")
    if alpha.shape != (group.order, ring.order):
        raise ConfigError(f"alpha needs {group.order} rows of {ring.order} entries")
    return ring, group, one_g, alpha, None


def build_action(cfg: InstanceConfig) -> PartialAction:
    ring, group, one_g, alpha, act = build_tables(cfg)
    if act is None:
        act = PartialAction(ring=ring, group=group, one_g=one_g, alpha=alpha,
                            tag=cfg.tag)
    return act
