"""Command line driver.

    pargal COMMAND (--fixture NAME | --config PATH) [options]

Commands: validate, invariants, galois, cohomology, crossed, delta-theta,
pics, sequence, census.  Reports go to standard output and are byte-stable
across runs; --out additionally writes one JSON document carrying every
table the text report contains.

Exit status: 0 when no defect or axiom violation was found (a conclusive
"not Galois" verdict is a clean answer, not a failure), 1 when the checked
object is invalid or inconsistent, 2 for usage, parse, precondition and
budget errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, fixtures
from .cohomology import Cochain, cohomology_group, identity_cochain
from .config import ConfigError, build_tables, parse_config
from .crossed import crossed_product
from .errors import BudgetError, DefectError, PreconditionError
from .finring import idempotents
from .galois import GaloisCertificate, find_certificate, verify_certificate
from .partial_action import (Budgets, GlobalAction, PartialAction,
                             check_transport, corner_transport,
                             invariant_subring, orbit_report, restrict_global,
                             validate)
from .picsemi import COLLAPSE_NOTE, pics_monoid, star_action, z1_pics
from .sequence import consequence_check, delta_theta_brauer_class

STRUCTURE_HEAD = 12  # structure-constant lines shown on stdout

@dataclass
class Instance:
    label: str
    ring: object
    group: object
    one_g: np.ndarray
    alpha: np.ndarray
    tag: str = ""
    budgets: Budgets = Budgets()
    _action: PartialAction | None = field(default=None, repr=False)

    @property
    def action(self) -> PartialAction:
        if self._action is None:
            self._action = PartialAction(self.ring, self.group, self.one_g,
                                         self.alpha, tag=self.tag,
                                         budgets=self.budgets)
        return self._action

    def doc(self) -> dict:
        return {"label": self.label,
                "ring": {"tag": self.ring.tag, "order": self.ring.order},
                "group": {"tag": self.group.tag, "order": self.group.order},
                "one_g": [self.ring.names[int(e)] for e in self.one_g]}


def _resolve(args) -> Instance:
    budgets = Budgets()
    if args.budget is not None:
        if args.budget < 1:
            raise ConfigError("--budget must be a positive integer")
        budgets = budgets.capped(args.budget)
    if (args.fixture is None) == (args.config is None):
        raise ConfigError("choose exactly one of --fixture or --config")
    if args.fixture is not None:
        act = fixtures.fixture(args.fixture)
        if budgets != act.budgets:
            # a fresh action, so no cache entry of the shared fixture
            # answers under budgets other than its own
            act = replace(act, budgets=budgets)
        return Instance(label=f"fixture {args.fixture.strip().upper()}",
                        ring=act.ring, group=act.group, one_g=act.one_g,
                        alpha=act.alpha, tag=act.tag, _action=act)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    cfg = parse_config(text)
    ring, group, one_g, alpha, act = build_tables(cfg, budgets)
    return Instance(label=f"config {args.config}", ring=ring, group=group,
                    one_g=one_g, alpha=alpha, tag=cfg.tag, budgets=budgets,
                    _action=act)


# ------------------------------------------------------------- commands

def cmd_validate(args, inst: Instance):
    report = validate(inst.ring, inst.group, inst.one_g, inst.alpha)
    lines = str(report).splitlines()
    doc = {"ok": report.ok,
           "counts": {k: int(v) for k, v in sorted(report.counts.items())},
           "violations": [{"axiom": v.axiom, "detail": v.detail,
                           "witness": {k: str(w) for k, w in v.witness.items()}}
                          for v in report.violations]}
    return lines, doc, 0 if report.ok else 1


def cmd_invariants(args, inst: Instance):
    act = inst.action
    sub = invariant_subring(act)
    orep = orbit_report(act)
    names = [act.ring.names[m] for m in sub.members]
    lines = [f"invariant subring order {sub.ring.order}",
             "members: " + " ".join(names)]
    lines += str(orep).splitlines()
    doc = {"invariant_order": sub.ring.order, "members": names,
           "domain_sizes": list(orep.domain_sizes),
           "one_g": list(orep.one_names),
           "one_heights": list(orep.one_heights),
           "idempotent_dynamics": [list(row) for row in orep.dynamics]}
    return lines, doc, 0


def cmd_galois(args, inst: Instance):
    act = inst.action
    names = act.ring.names
    res = find_certificate(act, max_m=args.max_m)
    if isinstance(res, GaloisCertificate):
        check = verify_certificate(act, res)
        lines = [f"galois: yes (m={res.m}, strategy {res.strategy})"]
        lines += [f"  pair {i}: x={names[x]} y={names[y]}"
                  for i, (x, y) in enumerate(res.pairs)]
        lines.append(str(check))
        doc = {"galois": True, "strategy": res.strategy,
               "pairs": [[names[x], names[y]] for x, y in res.pairs],
               "verified": check.ok}
        return lines, doc, 0
    verdict = "no (conclusive)" if res.conclusive else "undecided"
    lines = [f"galois: {verdict}", f"reason: {res.reason}"]
    doc = {"galois": False, "conclusive": res.conclusive, "reason": res.reason}
    return lines, doc, 0


def cmd_cohomology(args, inst: Instance):
    act = inst.action
    cg = cohomology_group(act, args.n, engine=args.engine)
    lines = [cg.summary()]
    shown = []
    if 1 < cg.h_order <= 8 and cg.representatives:
        for i, rep in enumerate(cg.representatives):
            vals = " ".join(act.ring.names[v] for v in rep.value_tuple())
            lines.append(f"class {i}: {vals}")
            shown.append(vals.split())
    doc = {"n": cg.n, "z_order": cg.z_order, "b_order": cg.b_order,
           "h_order": cg.h_order,
           "invariant_factors": list(cg.invariant_factors),
           "engine": cg.engine, "representatives_shown": shown}
    return lines, doc, 0


def _parse_twist(act: PartialAction, spec: str) -> Cochain:
    spec = (spec or "identity").strip()
    if spec == "identity":
        return identity_cochain(act, 2)
    try:
        vals = [int(tok) for tok in spec.split(",")]
    except ValueError:
        raise ConfigError("--twist must be 'identity' or comma-separated "
                          "ring element indices") from None
    size = act.group.order ** 2
    if len(vals) != size:
        raise ConfigError(f"--twist needs {size} values, one per pair of "
                          "group elements in lexicographic order")
    return Cochain(act, 2, vals)


_ASSOC_PROOF = "proved on additive generators of a bi-additive table"


def cmd_crossed(args, inst: Instance):
    act = inst.action
    f = _parse_twist(act, args.twist)
    alg = crossed_product(act, f)
    R, G = act.ring, act.group
    twist_txt = ("identity cochain" if args.twist in (None, "identity")
                 else " ".join(R.names[v] for v in f.value_tuple()))
    unit_txt = " + ".join(f"{R.names[c]}·d_{G.names[g]}"
                          for g, c in enumerate(alg.unit) if c != R.zero)
    assoc = {"triples": alg.assoc.triples, "sampled": alg.assoc.sampled,
             "ok": alg.assoc.ok}
    how = f"{alg.assoc.triples} monomial triples, exhaustive"
    if alg.assoc.on_generators:
        assoc["proof"] = _ASSOC_PROOF
        how = f"{alg.assoc.triples} generator triples, {_ASSOC_PROOF}"
    text = alg.structure_text()
    lines = [f"twist: {twist_txt}",
             f"unit: {unit_txt}",
             f"associativity: ok ({how})"]
    n_lines = text.count("\n")   # every line ends in one
    end = -1   # the head is cut off the text; the rest is never copied
    for _ in range(min(1 + STRUCTURE_HEAD, n_lines)):
        end = text.index("\n", end + 1)
    lines += text[:end].split("\n")
    more = n_lines - 1 - STRUCTURE_HEAD
    if more > 0:
        lines.append(f"... {more} more structure lines (full table in --out "
                     "document)")
    doc = {"tag": alg.tag, "order": alg.order,
           "twist": [R.names[v] for v in f.value_tuple()],
           "unit": [R.names[c] for c in alg.unit],
           "assoc": assoc,
           "structure": text}
    return lines, doc, 0


_PICS_COLLAPSE_LINE = ("note: Z^1(G,alpha*,PicS) is the singleton g -> [R·1_g], "
                       "so every Pic-twisted product over Theta collapses to "
                       "Delta(Theta)")


def cmd_delta_theta(args, inst: Instance):
    act = inst.action
    verdict = delta_theta_brauer_class(act)
    lines = [str(verdict),
             f"regular representation bijective: {verdict.rho_bijective}",
             f"kappa multiplicative: {verdict.kappa_multiplicative}",
             _PICS_COLLAPSE_LINE]
    doc = {"matrix_size": verdict.matrix_size, "base_order": verdict.base_order,
           "base_label": verdict.base_label, "order": verdict.order,
           "rho_bijective": verdict.rho_bijective,
           "kappa_multiplicative": verdict.kappa_multiplicative,
           "pic_twist_collapse": True}
    return lines, doc, 0


def cmd_pics(args, inst: Instance):
    act = inst.action
    R, G = act.ring, act.group
    mon = pics_monoid(R)
    star = star_action(act)
    z1 = z1_pics(star)
    pic_order = len(mon.units())
    lines = [f"PicS(R): {len(mon.classes)} classes, neutral {mon.neutral!r}",
             "classes: " + " ".join(repr(c) for c in mon.classes),
             f"invertible classes (Pic R): {pic_order}"]
    for g in range(G.order):
        pairs = " ".join(f"{R.names[e]}->{R.names[star.star[g][e]]}"
                         for e in star.domain(g))
        lines.append(f"star_{G.names[g]}: {pairs}")
    lines.append(f"Z^1(G, alpha*, PicS): {len(z1)} cocycle(s)")
    for i, coc in enumerate(z1):
        if i >= 4:
            lines.append(f"... {len(z1) - 4} more")
            break
        lines.append(f"  cocycle {i}: " + " ".join(repr(c) for c in coc))
    lines.append("note: " + COLLAPSE_NOTE)
    lines.append(_PICS_COLLAPSE_LINE)
    doc = {"classes": [repr(c) for c in mon.classes],
           "neutral": repr(mon.neutral),
           "pic_order": pic_order,
           "star": [{R.names[e]: R.names[star.star[g][e]]
                     for e in star.domain(g)} for g in range(G.order)],
           "z1_cocycles": [[repr(c) for c in coc] for coc in z1],
           "collapse_note": COLLAPSE_NOTE}
    return lines, doc, 0


def cmd_sequence(args, inst: Instance):
    rep = consequence_check(inst.action, engine=args.engine)
    lines = rep.text_table().splitlines()
    return lines, rep.as_dict(), 0 if rep.consistent else 1


def corner_census(glob: GlobalAction, engine: str = "auto") -> list[tuple]:
    """One row (name of e, |Re|, 1_g on Re, Galois verdict, |H^1|, |H^2|)
    per idempotent e of the ring, in idempotent order.  Every corner is
    restricted, validated and given its own Galois verdict.  H^1 and H^2
    are computed on the first corner of each sigma-orbit only; a later
    corner e' = sigma_k(e) reuses them once check_transport has verified
    that sigma_k carries the action on Re onto the one on Re'."""
    R = glob.ring
    rows = []
    orbit = {}      # sigma_k(e) -> (e, k), first k, for each computed e
    computed = {}   # e -> (restriction to Re, |H^1|, |H^2|)
    for e in idempotents(R):
        sub = restrict_global(glob, e, tag=f"corner {R.names[e]}")
        res = find_certificate(sub)
        if isinstance(res, GaloisCertificate):
            verdict = f"yes (m={res.m})"
        else:
            verdict = "no" if res.conclusive else "undecided"
        if e in orbit:
            rep, k = orbit[e]
            src, h1o, h2o = computed[rep]
            check_transport(src, sub, *corner_transport(glob, rep, k))
        else:
            h1o = cohomology_group(sub, 1, engine=engine).h_order
            h2o = cohomology_group(sub, 2, engine=engine).h_order
            computed[e] = (sub, h1o, h2o)
            for k, image in enumerate(glob.sigma[:, e].tolist()):
                orbit.setdefault(image, (e, k))
        rows.append((R.names[e], sub.ring.order,
                     tuple(int(x) for x in sub.one_g), verdict, h1o, h2o))
    return rows


def cmd_census(args, inst: Instance):
    act = inst.action
    if not act.is_global():
        raise PreconditionError(
            "census needs a global action: a global fixture (E0, E3) or a "
            "generator config without an idempotent restriction")
    glob = GlobalAction(act.ring, act.group, act.alpha.copy(), tag=act.tag,
                        budgets=act.budgets)
    rows = corner_census(glob, args.engine)
    w = max(len(r[0]) for r in rows)
    lines = [f"census of {len(rows)} restriction corners",
             f"{'e':<{w}}  |Re|  galois        |H1|  |H2|"]
    for name, order, _, verdict, h1o, h2o in rows:
        lines.append(f"{name:<{w}}  {order:<4}  {verdict:<12}  {h1o:<4}  {h2o}")
    galois_count = sum(1 for r in rows if r[3].startswith("yes"))
    lines.append(f"galois corners: {galois_count} of {len(rows)}")
    doc = {"corners": [{"e": name, "order": order, "galois": verdict,
                        "h1": h1o, "h2": h2o}
                       for name, order, _, verdict, h1o, h2o in rows],
           "galois_count": galois_count}
    return lines, doc, 0


# ------------------------------------------------------------- plumbing

def _coerce(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    return repr(obj)


_COMMANDS = (
    ("validate", cmd_validate, "check the partial action axioms"),
    ("invariants", cmd_invariants, "invariant subring and idempotent orbits"),
    ("galois", cmd_galois, "search for partial Galois coordinates"),
    ("cohomology", cmd_cohomology, "H^n(G, alpha, U(R))"),
    ("crossed", cmd_crossed, "twisted crossed product R*_{alpha,f}G"),
    ("delta-theta", cmd_delta_theta,
     "Delta(Theta) and its matrix-algebra identification"),
    ("pics", cmd_pics, "Picard semilattice and the induced alpha*"),
    ("sequence", cmd_sequence, "low-degree consequence checks"),
    ("census", cmd_census, "sweep every restriction corner of a global action"),
)


def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only the subcommand `command`, or with all of them
    when `command` names none (help, --version, a typo, no command), so
    that help and usage text read the same either way."""
    p = argparse.ArgumentParser(
        prog="pargal",
        description="partial group actions on finite rings: validation, "
                    "Galois coordinates, cohomology, crossed products")
    p.add_argument("--version", action="version",
                   version=f"pargal {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")
    wanted = [row for row in _COMMANDS if row[0] == command] or _COMMANDS
    for name, fn, help_txt in wanted:
        sp = sub.add_parser(name, help=help_txt)
        sp.set_defaults(handler=fn)
        sp.add_argument("--fixture", metavar="NAME",
                        help="built-in instance: "
                             + ", ".join(fixtures.fixture_names()))
        sp.add_argument("--config", metavar="PATH",
                        help="INI instance description (see README)")
        sp.add_argument("--out", metavar="PATH",
                        help="also write a JSON report here")
        sp.add_argument("--engine", default="auto",
                        choices=("auto", "enumerate", "structure", "both"),
                        help="cohomology engine (default auto)")
        sp.add_argument("--budget", type=int, metavar="N",
                        help="cap every internal size budget at N")
        if name == "cohomology":
            sp.add_argument("--n", type=int, required=True,
                            choices=(0, 1, 2, 3), help="cochain arity")
        if name == "galois":
            sp.add_argument("--max-m", type=int, default=4, metavar="M",
                            help="exhaustive-search bound on the number of "
                                 "coordinate pairs (default 4)")
        if name == "crossed":
            sp.add_argument("--twist", default="identity", metavar="F",
                            help="'identity' or group-order^2 ring element "
                                 "indices, comma separated, lexicographic")
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser has only -h and --version, so a command comes
    # first or the call ends in help, a version line or a usage error
    args = _parser(argv[0] if argv else None).parse_args(argv)
    try:
        inst = _resolve(args)
        lines, doc, code = args.handler(args, inst)
        header = [f"command: {args.command}", f"instance: {inst.label}"]
        sys.stdout.write("\n".join(header + lines) + "\n")
        if args.out:
            document = {"tool": "pargal", "version": __version__,
                        "command": args.command, "exit": code,
                        "instance": inst.doc(), "report": doc}
            # streamed: the document is never also held as one string
            with open(args.out, "w") as fh:
                json.dump(document, fh, sort_keys=True, indent=2,
                          default=_coerce)
                fh.write("\n")
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DefectError as exc:
        print(f"defect: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
