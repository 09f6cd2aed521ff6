#!/usr/bin/env python3
"""Mutation kill-rate for the axiom validator.

Takes each built-in fixture, each action given by --config, plus a batch
of random restricted actions, corrupts one table entry at a time, and
checks that the validator rejects every corrupted instance.  Fixtures are
mutated at every site with every alternative; configs and random actions
get --per-site sampled alternatives per site.  A surviving mutant is
printed and counted; the expected survivor count is zero.

    python3 scripts/axiom_sweep.py --random 30 --seed 3
    python3 scripts/axiom_sweep.py --config perfbench/configs/f4c4.ini --random 0
"""
import argparse
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pargal.config import build_action, parse_config
from pargal.fixtures import (fixture, fixture_names, random_global_instance,
                             single_site_mutations)
from pargal.partial_action import restrict_global, validate


def sweep(action, rng, per_site, axiom_hits: Counter) -> tuple[int, int]:
    killed = mutants = 0
    for desc, one_g, alpha in single_site_mutations(action, rng=rng,
                                                    per_site=per_site):
        mutants += 1
        report = validate(action.ring, action.group, one_g, alpha)
        if report.ok:
            print(f"  SURVIVOR: {desc} on {action!r}")
        else:
            killed += 1
            for axiom in report.counts:
                axiom_hits[axiom] += 1
    return killed, mutants


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--random", type=int, default=20,
                    help="random restricted instances to mutate")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--config", action="append", default=[], metavar="PATH",
                    help="INI instance to sweep as well (repeatable)")
    ap.add_argument("--per-site", type=int, default=2,
                    help="sampled alternatives per table site (configs and "
                         "random phase)")
    ap.add_argument("--max-order", type=int, default=256)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    axiom_hits = Counter()
    killed = mutants = 0

    for name in fixture_names():
        act = fixture(name)
        k, m = sweep(act, None, None, axiom_hits)  # exhaustive on fixtures
        killed += k
        mutants += m
        print(f"fixture {name}: {k}/{m} mutants rejected", flush=True)

    for path in args.config:
        act = build_action(parse_config(Path(path).read_text()))
        k, m = sweep(act, rng, args.per_site, axiom_hits)
        killed += k
        mutants += m
        print(f"config {path}: {k}/{m} mutants rejected", flush=True)

    for i in range(args.random):
        glob, e = random_global_instance(rng, max_order=args.max_order)
        act = restrict_global(glob, e)
        k, m = sweep(act, rng, args.per_site, axiom_hits)
        killed += k
        mutants += m
        print(f"random {i + 1:3d}: {k}/{m} mutants rejected ({act!r})",
              flush=True)

    print()
    print(f"total: {killed}/{mutants} mutants rejected")
    print("axiom hit counts: "
          + ", ".join(f"{a}:{n}" for a, n in sorted(axiom_hits.items())))
    return 0 if killed == mutants else 1


if __name__ == "__main__":
    raise SystemExit(main())
