"""Workload `cochain-calls`: many small calls on a few long-lived actions.

E2, E1 and E0 are built once, from the INI configs, and kept warm.  The
calls are drawn by the seed from pools of random inputs:

* `dd`: coboundary of the coboundary of a random cochain of arity 0-2,
  which must be the identity cochain;
* `normalize`: `normalize_2cocycle` on a random 2-cocycle twisted by a
  random coboundary; the result must be normalized and cohomologous;
* `coiso`: `crossed_product` + `coiso_map` on a random twist pair; checked
  from the definitions, the map must be multiplicative and bijective and
  the product must multiply by the twisted rule;
* `validate`: the validator on a single-site mutant of E0-E2, which must be
  rejected with a witness.

The op list is a sequence of blocks.  Every block holds the same number of
calls of each kind on each action, in seeded order with seeded inputs, so
the share of each kind in a run does not depend on the seed.  The inputs
are valid by construction, so a refusal (PreconditionError, DefectError)
is a wrong answer, not a failed op.
"""
from __future__ import annotations

import random

import numpy as np

import pargal.cohomology as coh
import pargal.crossed as crossed
import pargal.partial_action as pa
from pargal.config import build_action, parse_config
from pargal.errors import DefectError, PreconditionError
from pargal.fixtures import single_site_mutations

from harness import Op, WrongAnswer
from wl_reports import CONFIGS

ACTIONS = ("e2", "e1", "e0")
# Calls per block, per kind and action.  One E2 coiso pair (about 0.5 s)
# per block keeps 35-60 of them in a 30 s run, so the eleven slowest ops,
# the tail, all fall inside that group; the small calls fill the rest.
BLOCK = {"dd": {"e2": 50, "e1": 25, "e0": 25},
         "normalize": {"e2": 30, "e1": 15, "e0": 15},
         "coiso": {"e2": 1},
         "validate": {"e2": 75, "e1": 38, "e0": 37}}
BLOCKS = 60    # op list length in blocks; a run cycles if it gets through
TRACE_BLOCKS = 20   # blocks in the list a traced run replays
POOL = 64      # random inputs kept per (kind, action, arity)
CHECK_SAMPLES = 500   # monomial pairs and triples checked per coiso call


def _random_cochain(rng, act, n):
    _, _, units = coh._position_data(act, n)
    vals = np.array([rng.choice(u) for u in units], dtype=np.int64)
    return coh.Cochain(act, n, vals)


def _no_refusal(k, kind, fn):
    """Every input is valid by construction, so a refusal is a wrong answer."""
    def call():
        try:
            return fn()
        except (PreconditionError, DefectError) as exc:
            raise WrongAnswer(f"{k} {kind}: refused a valid input: "
                              f"{exc}") from exc
    return call


def _mono(act, twist, g, a, h, b):
    """(a delta_g)(b delta_h) = a alpha_g(b 1_{g^-1}) twist(g, h) delta_gh."""
    R = act.ring
    coeff = int(R.mul[int(R.mul[a, act.alpha_hat[g][b]]), twist[(g, h)]])
    return act.group.op(g, h), coeff


def _check_coiso(act, f, f2, eps, iso, alg):
    """Check the answers of coiso_map and crossed_product from the
    definitions, on every component and on a seeded sample of monomials.

    iso sends a delta_g to a scale_g delta_g: it must be eps(g), map each
    D_g onto itself and be multiplicative from the f-twisted product to the
    f2-twisted one.  alg must multiply monomials by the f-twisted rule and
    claim to have checked associativity on the triples it should.
    """
    R, G = act.ring, act.group
    members = [act.domain_members(g) for g in range(G.order)]
    monos = [(g, int(d)) for g, mem in enumerate(members) for d in mem]
    if tuple(iso.scale) != tuple(eps[(g,)] for g in range(G.order)):
        raise WrongAnswer(f"coiso_map scale {iso.scale} is not eps")
    for g, mem in enumerate(members):
        if {int(R.mul[d, iso.scale[g]]) for d in mem} != set(map(int, mem)):
            raise WrongAnswer(f"coiso_map is not a bijection on D_{g}")
    n = len(monos)
    want = n ** 3 if n ** 3 <= crossed.ASSOC_TRIPLE_BUDGET else \
        crossed.SAMPLED_TRIPLES
    if not alg.assoc.ok or alg.assoc.triples != want:
        raise WrongAnswer(f"crossed_product reports {alg.assoc}, "
                          f"expected ok on {want} triples")
    rng = random.Random(str(f.value_tuple()))
    for _ in range(CHECK_SAMPLES):
        (g, a), (h, b), (l, c) = (rng.choice(monos) for _ in range(3))
        k, ab = _mono(act, f, g, a, h, b)
        if alg.mono_mul(g, a, h, b) != (k, ab):
            raise WrongAnswer(f"crossed_product: wrong product of "
                              f"({g},{a}) and ({h},{b})")
        fa, fb = int(R.mul[a, iso.scale[g]]), int(R.mul[b, iso.scale[h]])
        if _mono(act, f2, g, fa, h, fb) != (k, int(R.mul[ab, iso.scale[k]])):
            raise WrongAnswer(f"coiso_map is not multiplicative on "
                              f"({g},{a}) and ({h},{b})")
        if _mono(act, f, *_mono(act, f, g, a, h, b), l, c) != \
                _mono(act, f, g, a, *_mono(act, f, h, b, l, c)):
            raise WrongAnswer(f"f-twisted product not associative on "
                              f"({g},{a}), ({h},{b}), ({l},{c})")


class CochainCalls:
    name = "cochain-calls"
    whole_passes = False

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.acts = {k: build_action(parse_config((CONFIGS / f"{k}.ini")
                                                  .read_text()))
                     for k in ACTIONS}
        self.pools = {}
        for k, act in self.acts.items():
            z2 = [coh.Cochain(act, 2, np.asarray(t, dtype=np.int64))
                  for t in coh._kernel_dfs(act, 2)]
            self.pools["dd", k] = [_random_cochain(rng, act, n)
                                   for n in (0, 1, 2) for _ in range(POOL)]
            twisted = []
            for _ in range(POOL):
                f2 = rng.choice(z2)
                eps = _random_cochain(rng, act, 1)
                twisted.append((coh.cochain_mul(f2, coh.coboundary(act, eps)),
                                f2, eps))
            self.pools["normalize", k] = [f for f, _, _ in twisted]
            self.pools["coiso", k] = twisted
            self.pools["validate", k] = [
                (one_g, alpha)
                for _, one_g, alpha in single_site_mutations(act)]
        self.idents = {(k, n): coh.identity_cochain(act, n)
                       for k, act in self.acts.items() for n in (2, 3, 4)}
        block = [(kind, k) for kind, per in BLOCK.items()
                 for k, count in per.items() for _ in range(count)]
        self.ops = []
        for _ in range(BLOCKS):
            rng.shuffle(block)
            self.ops += [self._op(kind, k, rng.choice(self.pools[kind, k]))
                         for kind, k in block]
        for kind in BLOCK:   # one call of each kind, so lazy tables are built
            op = self._op(kind, "e2", self.pools[kind, "e2"][0])
            op.check(op.fn())

    def _op(self, kind, k, item) -> Op:
        act = self.acts[k]
        if kind == "dd":
            ident = self.idents[k, item.n + 2]

            def fn():
                return coh.coboundary(act, coh.coboundary(act, item))

            def check(out):
                if out != ident:
                    raise WrongAnswer(f"{k}: delta(delta f) != 1 for {item!r}")
        elif kind == "normalize":
            def fn():
                return coh.normalize_2cocycle(act, item)

            def check(out):
                fn_, eps = out
                one = act.group.identity
                for g in range(act.group.order):
                    for gs in ((one, g), (g, one)):
                        if fn_[gs] != coh.corner_idem(act, gs):
                            raise WrongAnswer(f"{k}: not normalized at {gs}")
                if coh.cochain_mul(fn_, coh.coboundary(act, eps)) != item:
                    raise WrongAnswer(f"{k}: f != f~ . delta(eps)")
        elif kind == "coiso":
            f, f2, eps = item

            def fn():
                return (crossed.coiso_map(act, f, f2, eps),
                        crossed.crossed_product(act, f))

            def check(out):
                _check_coiso(act, f, f2, eps, *out)
        else:
            one_g, alpha = item

            def fn():
                return pa.validate(act.ring, act.group, one_g, alpha)

            def check(rep):
                if rep.ok or not rep.violations:
                    raise WrongAnswer(f"{k}: mutant accepted by the validator")
        return Op(kind, _no_refusal(k, kind, fn), check)

    def trace_ops(self) -> list[Op]:
        per_block = sum(sum(v.values()) for v in BLOCK.values())
        return self.ops[:TRACE_BLOCKS * per_block]

    def input_line(self) -> str:
        per_block = sum(sum(v.values()) for v in BLOCK.values())
        mutants = sum(len(self.pools["validate", k]) for k in ACTIONS)
        return (f"{len(self.ops)} calls in blocks of {per_block} on E2, E1, "
                f"E0 (block: " + ", ".join(
                    f"{kind} {sum(v.values())}" for kind, v in BLOCK.items())
                + f"); pools of {POOL} inputs per kind, action and arity, "
                f"{mutants} mutants")

    def probe(self) -> str | None:
        return None
