#!/usr/bin/env python3
"""Corner census over random global actions.

Draws random cyclic global actions on products of small finite fields,
restricts each at every idempotent, and tabulates how often the corner
is a partial Galois extension and which cohomology orders appear.  On
every corner it also computes Z^1(G, alpha*, PicS) and Pic(R), and it
exits 1 unless both are singletons, as the PicS collapse asserts.  It
also runs the CLI's orbit census on each action, which computes H^1 and
H^2 once per sigma-orbit of corners and transports them, and exits 1
unless its rows equal the per-corner ones computed here.  A corner whose
cohomology a budget refuses is reported with that budget's name, and its
action's orbit comparison is skipped and counted.

    python3 scripts/census_sweep.py --count 40 --seed 7 --max-order 512
"""
import argparse
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pargal.cli import corner_census
from pargal.cohomology import cohomology_group
from pargal.errors import BudgetError
from pargal.finring import idempotents
from pargal.fixtures import random_global_instance
from pargal.galois import GaloisCertificate, find_certificate
from pargal.partial_action import restrict_global
from pargal.picsemi import pics_monoid, star_action, z1_pics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=25, help="global actions drawn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-order", type=int, default=512)
    ap.add_argument("--engine", default="auto",
                    choices=("auto", "enumerate", "structure", "both"))
    args = ap.parse_args()

    rng = random.Random(args.seed)
    galois_votes = Counter()
    h1_orders = Counter()
    h2_orders = Counter()
    strategies = Counter()
    corners = 0
    collapse_breaks = []
    census_breaks = []
    refusals = []
    skipped = 0

    for i in range(args.count):
        glob, _ = random_global_instance(rng, max_order=args.max_order)
        rows = []
        refused = False
        for e in idempotents(glob.ring):
            act = restrict_global(glob, e)
            corners += 1
            res = find_certificate(act)
            if isinstance(res, GaloisCertificate):
                verdict = f"yes (m={res.m})"
                galois_votes["yes"] += 1
                strategies[res.strategy] += 1
            else:
                verdict = "no" if res.conclusive else "undecided"
                galois_votes[verdict] += 1
            try:
                h1 = cohomology_group(act, 1, engine=args.engine).h_order
                h2 = cohomology_group(act, 2, engine=args.engine).h_order
            except BudgetError as exc:
                refusals.append(f"{act!r}: budget '{exc.budget}'")
                refused = True
                h1 = h2 = None
            else:
                h1_orders[h1] += 1
                h2_orders[h2] += 1
            rows.append((glob.ring.names[e], act.ring.order,
                         tuple(int(x) for x in act.one_g), verdict, h1, h2))
            z1 = len(z1_pics(star_action(act)))
            pic = len(pics_monoid(act.ring).units())
            if (z1, pic) != (1, 1):
                collapse_breaks.append(f"{act!r}: |Z^1| = {z1}, |Pic R| = {pic}")
        if refused:
            skipped += 1
        elif (got := corner_census(glob, args.engine)) != rows:
            census_breaks.append(f"{glob!r}: orbit rows {got}, "
                                 f"per-corner rows {rows}")
        print(f"[{i + 1:3d}/{args.count}] {glob!r}: "
              f"{len(idempotents(glob.ring))} corners", flush=True)

    print()
    print(f"corners examined: {corners}")
    for verdict, n in sorted(galois_votes.items()):
        print(f"  galois {verdict}: {n}")
    for strat, n in sorted(strategies.items()):
        print(f"  certificate via {strat}: {n}")
    print("  |H^1| spectrum: "
          + ", ".join(f"{k}:{v}" for k, v in sorted(h1_orders.items())))
    print("  |H^2| spectrum: "
          + ", ".join(f"{k}:{v}" for k, v in sorted(h2_orders.items())))
    print(f"  |Z^1(G,alpha*,PicS)| = |Pic R| = 1 on "
          f"{corners - len(collapse_breaks)} of {corners} corners")
    for line in collapse_breaks:
        print(f"  collapse broken: {line}")
    print(f"  cohomology refused on {len(refusals)} corners")
    for line in refusals:
        print(f"  refused: {line}")
    print(f"  orbit census equals the per-corner rows on "
          f"{args.count - skipped - len(census_breaks)} of {args.count} "
          f"actions ({skipped} skipped for a refused corner)")
    for line in census_breaks:
        print(f"  orbit census differs: {line}")
    return 1 if collapse_breaks or census_breaks else 0


if __name__ == "__main__":
    raise SystemExit(main())
