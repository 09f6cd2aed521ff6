"""A generator config with an idempotent is built on its corner Re.

The refusals below are pinned from the build that tabulated the whole
product ring and restricted its global action: each broken restricted
config exits 2 with the same first error.  The oracle tests compare the
corner build with `restrict_global` of the ambient global action, field
by field."""
import random
from pathlib import Path

import numpy as np
import pytest
from test_cli import E1_INI, F2C6G_INI, F8F9C6_INI, FROB_INI

from pargal import cli, finring, fixtures
from pargal.config import build_tables, parse_config
from pargal.finring import (element_from_components, frobenius_table,
                            idempotents, make_ring, product_automorphism)
from pargal.groups import make_group
from pargal.partial_action import Budgets, GlobalAction, restrict_global

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

GF4 = "GF(4;x^2+x+1)"
GF8 = "GF(8;x^3+x+1)"


def _ini(ring, group, perm, idem, frob=None):
    frob_line = f"frobenius = {frob}\n" if frob is not None else ""
    return (f"[ring]\ndescriptor = {ring}\n\n[group]\ndescriptor = {group}\n\n"
            f"[action]\nkind = generator\npermutation = {perm}\n{frob_line}"
            f"idempotent = {idem}\n")


REFUSALS = {
    "idempotent-name": (
        _ini("GF(2)*GF(2)*GF(2)", "C3", "1,2,0", "(9,9,9)"),
        "idempotent '(9,9,9)' is neither an element name nor an index"),
    "non-idempotent-index": (
        _ini(f"{GF4}*{GF4}*{GF4}", "C3", "1,2,0", "2"),
        "element '2' is not an idempotent"),
    "index-out-of-range": (
        _ini("GF(2)*GF(2)*GF(2)", "C3", "1,2,0", "8"),
        "element '8' is not an idempotent"),
    "four-cycle-under-c3": (
        _ini("GF(2)*GF(2)*GF(2)*GF(2)", "C3", "1,2,3,0", "(9,9,9,9)"),
        "automorphism order does not divide 3"),
    "mixed-components": (
        _ini(f"GF(2)*{GF4}", "C2", "1,0", "(9,9)"),
        "permutation mixes non-identical components"),
    "frobenius-on-zn": (
        _ini("Z4*Z4", "C2", "0,1", "(1,0)", frob="1,0"),
        "frobenius twist on a non-field component"),
    "frobenius-on-product-single-slot": (
        _ini("GF(2)*GF(2)", "C2", "0", "(1,0)", frob="1"),
        "frobenius twist needs a field component"),
    "ambient-over-cap": (
        _ini("*".join([GF8] * 5), "C2*C2", "1,2,3,4,0", "(1,1,0,0,0)"),
        "budget 'ring-order' exceeded: needs 32768, limit 4096"),
    "non-cyclic-group": (
        _ini("GF(2)*GF(2)", "C2*C2", "1,0", "(9,9)"),
        "kind=generator needs a cyclic [group] descriptor Cn"),
    "single-component-permutation": (
        _ini(GF4, "C2", "1", "1"),
        "a single-component ring admits only the identity permutation 0"),
    "not-a-product": (
        _ini(GF4, "C2", "1,0", "1"),
        "not a product ring"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_restricted_refusal_is_pinned(name, tmp_path, capsys):
    text, message = REFUSALS[name]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    code = cli.main(["validate", "--config", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


# ------------------------------------------------------------ oracle

def _ambient_global(cfg) -> GlobalAction:
    """The config's global action on the whole product ring, its generator
    tabulated on the product and its powers composed there."""
    ring = make_ring(cfg.ring_tag)
    if ring.components:
        step = product_automorphism(ring, cfg.permutation, cfg.frobenius)
    else:
        step = np.arange(ring.order)
        for _ in range((cfg.frobenius or (0,))[0] % ring.field_params[1]):
            step = frobenius_table(ring)[step]
    rows = [np.arange(ring.order)]
    group = make_group(cfg.group_tag)
    for _ in range(1, group.order):
        rows.append(step[rows[-1]])
    return GlobalAction(ring, group, np.stack(rows))


def assert_same_instance(got, want):
    a, b = got.ring, want.ring
    assert (a.names, a.tag, a.zero, a.one, a.components, a.field_params) == \
        (b.names, b.tag, b.zero, b.one, b.components, b.field_params)
    for x, y in ((a.add, b.add), (a.mul, b.mul), (got.one_g, want.one_g),
                 (got.alpha, want.alpha)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert (got.group.tag, got.tag, got.budgets) == \
        (want.group.tag, want.tag, want.budgets)


def _restricted_variants(text):
    """The config at each idempotent of its ring, once by name and once
    by index."""
    cfg = parse_config(text)
    ring = make_ring(cfg.ring_tag)
    for e in idempotents(ring):
        for spec in (ring.names[e], str(e)):
            yield f"{text.rstrip()}\nidempotent = {spec}\n", e


def _check_config(text, e, budgets=Budgets()):
    cfg = parse_config(text)
    *_, act = build_tables(cfg, budgets)
    glob = _ambient_global(cfg)
    glob = GlobalAction(glob.ring, glob.group, glob.sigma, budgets=budgets)
    assert_same_instance(act, restrict_global(glob, e, tag=cfg.tag))


@pytest.mark.parametrize("name", ["e1", "e2", "f4c4", "f8c3"])
def test_stress_configs_match_ambient_restriction(name):
    text = (CONFIGS / f"{name}.ini").read_text()
    cfg = parse_config(text)
    glob = _ambient_global(cfg)
    e = element_from_components(glob.ring, (1, 1, 1, 0)[-len(cfg.permutation):])
    _check_config(text, e, Budgets().capped(1000))


@pytest.mark.parametrize("text", [E1_INI.replace("idempotent = (1,1,0)\n", ""),
                                  FROB_INI, F8F9C6_INI, F2C6G_INI],
                         ids=["e1", "frob", "f8f9c6", "f2c6g"])
def test_cli_configs_match_ambient_restriction_at_every_idempotent(text):
    assert "idempotent" not in text
    for variant, e in _restricted_variants(text):
        _check_config(variant, e)


def _config_of(glob) -> str:
    """A generator config for a random_global_instance draw: the slot
    permutation and Frobenius powers are read back off sigma_1."""
    ring, step = glob.ring, glob.sigma[1 % glob.group.order]
    parts = ring.components or (ring,)
    perm, frob = [], []
    for j, r in enumerate(parts):
        p, k = r.field_params
        a = p if k > 1 else 1          # x generates GF(p^k) over F_p
        if len(parts) == 1:
            image = (int(step[a]),)
        else:
            comps = [0] * len(parts)
            comps[j] = a
            image = finring.component_indices(
                ring, int(step[element_from_components(ring, comps)]))
        d = next(i for i, c in enumerate(image) if c)
        t, cur = 0, a
        while cur != image[d]:
            cur, t = int(frobenius_table(r)[cur]), t + 1
        perm.append(d)
        frob.append(t)
    return (f"[ring]\ndescriptor = {glob.tag.removeprefix('random:')}\n\n"
            f"[group]\ndescriptor = {glob.group.tag}\n\n[action]\n"
            f"kind = generator\npermutation = {','.join(map(str, perm))}\n"
            f"frobenius = {','.join(map(str, frob))}\n")


@pytest.mark.parametrize("seed", range(20))
def test_random_instances_match_restriction_at_every_idempotent(seed):
    glob, _ = fixtures.random_global_instance(random.Random(seed),
                                              max_order=128)
    text = _config_of(glob)
    assert np.array_equal(_ambient_global(parse_config(text)).sigma,
                          glob.sigma)
    for e in idempotents(glob.ring):
        cfg = parse_config(f"{text}idempotent = {glob.ring.names[e]}\n")
        *_, act = build_tables(cfg)
        assert_same_instance(act, restrict_global(glob, e, tag=cfg.tag))


def test_f8c3_builds_no_ring_above_its_corner(monkeypatch):
    orders = []
    post_init = finring.FiniteRing.__post_init__

    def record(ring):
        orders.append(ring.order)
        post_init(ring)

    monkeypatch.setattr(finring.FiniteRing, "__post_init__", record)
    *_, act = build_tables(parse_config((CONFIGS / "f8c3.ini").read_text()))
    assert act.ring.order == 64
    assert orders and max(orders) == 64
