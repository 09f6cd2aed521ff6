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
bare element index.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .finring import (FiniteRing, frobenius_table, make_ring,
                      product_automorphism)
from .groups import FiniteGroup, make_group
from .partial_action import (Budgets, GlobalAction, PartialAction, as_partial,
                             restrict_global, trivial_partial_action)


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


def resolve_idempotent(ring: FiniteRing, spec: str) -> int:
    if spec in ring.names:
        e = ring.names.index(spec)
    else:
        try:
            e = int(spec)
        except ValueError:
            raise ConfigError(f"idempotent {spec!r} is neither an element name "
                              f"nor an index") from None
    if not (0 <= e < ring.order) or not ring.is_idempotent(e):
        raise ConfigError(f"element {spec!r} is not an idempotent")
    return e


def _generator_global(ring: FiniteRing, group: FiniteGroup,
                      cfg: InstanceConfig, tag: str = "",
                      budgets: Budgets = Budgets()) -> GlobalAction:
    perm = cfg.permutation
    frob = cfg.frobenius or tuple(0 for _ in perm)
    if len(perm) == 1:
        if perm != (0,):
            raise ConfigError("a single-component ring admits only the "
                              "identity permutation 0")
        sigma1 = np.arange(ring.order, dtype=np.int64)
        if frob[0]:
            if ring.field_params is None:
                raise ConfigError("frobenius twist needs a field component")
            fr = frobenius_table(ring)
            for _ in range(frob[0] % ring.field_params[1]):
                sigma1 = fr[sigma1]
    else:
        sigma1 = product_automorphism(ring, perm, frob)
    n = group.order
    # group element i acts as the i-th power of the generator; require the
    # cyclic convention of make_group ("C<n>": index = exponent)
    if group.tag != f"C{n}":
        raise ConfigError("kind=generator needs a cyclic [group] descriptor Cn")
    rows = [np.arange(ring.order, dtype=np.int64)]
    for _ in range(1, n):
        rows.append(sigma1[rows[-1]])
    if not np.array_equal(sigma1[rows[-1]], rows[0]):
        raise ConfigError(f"automorphism order does not divide {n}")
    return GlobalAction(ring, group, np.stack(rows), tag=tag, budgets=budgets)


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
    ring = make_ring(cfg.ring_tag)
    group = make_group(cfg.group_tag)
    if cfg.kind == "trivial":
        act = trivial_partial_action(ring, group, tag=cfg.tag, budgets=budgets)
        return ring, group, act.one_g, act.alpha, act
    if cfg.kind == "generator":
        if cfg.idempotent is not None:
            glob = _generator_global(ring, group, cfg, budgets=budgets)
            e = resolve_idempotent(ring, cfg.idempotent)
            act = restrict_global(glob, e, tag=cfg.tag)
        else:
            act = as_partial(_generator_global(ring, group, cfg, tag=cfg.tag,
                                               budgets=budgets))
        return act.ring, group, act.one_g, act.alpha, act
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
