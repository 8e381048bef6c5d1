"""Command-line front end for generating and certifying graphs.

Subcommands: ``gen`` writes a family member, ``verify`` certifies
graph6 input, ``petersen`` emits the forbidden minors, ``bounds-table``
prints exact edge-count bookkeeping, ``export`` converts formats.
Graphs travel as graph6, one per line, so commands compose in a shell
pipeline. Exit codes: 0 success, 1 property violation, 2 usage or
input errors, 3 undecided within budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from .errors import ConfigurationError, Graph6Error, GraphError, UndecidedError
from .families import (
    bounds_table,
    family_3n5,
    fig7_family,
    h_k,
    jorgensen_family,
    k5_sum_example,
    q13_3,
    q_extension,
    theorem_main_graph,
)
from .formats import dot_export, graph6_decode, graph6_encode
from .graph import Graph
from .linking import (
    is_intrinsically_linked,
    is_maximal_k6_minor_free,
    is_maxnil,
    petersen_family,
)

# maxnil certification cost grows with the augmentation count, so hosts
# past this edge count need the explicit --slow opt-in
_SLOW_EDGE_THRESHOLD = 40

_FAMILIES = {
    "jorgensen": ("i", lambda v: jorgensen_family(v), 0),
    "g3n5": ("i", lambda v: family_3n5(v), 0),
    "q13-3": (None, lambda v: q13_3(), None),
    "q-extension": ("n", lambda v: q_extension(v), None),
    "h-k": ("k", lambda v: h_k(v), None),
    "theorem-main": ("n", lambda v: theorem_main_graph(v), None),
    "fig6": (None, lambda v: k5_sum_example(), None),
    "fig7": ("n", lambda v: fig7_family(v), 11),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxnil",
        description="build and certify maximal linklessly embeddable graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a family graph")
    gen.add_argument("family", choices=sorted(_FAMILIES))
    gen.add_argument("--i", type=int, help="subdivision count")
    gen.add_argument("--n", type=int, help="target vertex count")
    gen.add_argument("--k", type=int, help="copy count")
    gen.add_argument("--format", choices=("graph6", "dot"), default="graph6")
    gen.add_argument("-o", "--output", help="output path (default stdout)")

    ver = sub.add_parser("verify", help="certify graph6 input")
    ver.add_argument("input", nargs="?", default="-",
                     help="graph6 file, one graph per line (default stdin)")
    ver.add_argument("--maxnil", action="store_true",
                     help="certify maximality, not just the IL status")
    ver.add_argument("--k6-maximal", action="store_true",
                     help="certify maximality without a K6 minor")
    ver.add_argument("--json", action="store_true", help="JSON-lines reports")
    ver.add_argument("--threads", type=int, default=None,
                     help="worker processes (default MAXNIL_LAB_THREADS or 1)")
    ver.add_argument("--budget", type=int, default=None,
                     help="search node budget per minor test")
    ver.add_argument("--slow", action="store_true",
                     help="allow certification of hosts past "
                          f"{_SLOW_EDGE_THRESHOLD} edges")

    pet = sub.add_parser("petersen", help="emit the seven forbidden minors")
    pet.add_argument("--count", action="store_true", help="print the count only")
    pet.add_argument("--format", choices=("graph6", "dot"), default="graph6")

    bt = sub.add_parser("bounds-table", help="exact edge-count table")
    bt.add_argument("family", choices=sorted(_FAMILIES))
    bt.add_argument("--i", help="index or range, e.g. 2 or 0..5")
    bt.add_argument("--n", help="order or range, e.g. 13..50")
    bt.add_argument("--k", help="copy count or range")
    bt.add_argument("--json", action="store_true", help="JSON-lines rows")

    exp = sub.add_parser("export", help="convert graph6 input")
    exp.add_argument("input", nargs="?", default="-",
                     help="graph6 file (default stdin)")
    exp.add_argument("--format", choices=("graph6", "dot", "json"),
                     default="graph6")
    return parser


def _parse_range(text: str) -> Tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _family_values(args) -> Tuple[str, Optional[str]]:
    """Pick the parameter the family needs; reject the ones it does not."""
    spec = _FAMILIES[args.family]
    needed = spec[0]
    given = {flag: getattr(args, flag) for flag in ("i", "n", "k")
             if getattr(args, flag, None) is not None}
    for flag in given:
        if flag != needed:
            raise ConfigurationError(
                f"family {args.family} does not take --{flag}")
    if needed is None:
        return needed, None
    if needed in given:
        return needed, given[needed]
    if spec[2] is not None:
        return needed, spec[2]
    raise ConfigurationError(f"family {args.family} requires --{needed}")


def _read_graphs(path: str) -> List[Tuple[int, Graph]]:
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    graphs = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            graphs.append((lineno, graph6_decode(line)))
        except Graph6Error as exc:
            raise Graph6Error(
                f"line {lineno}: {exc} (byte offset {exc.offset})",
                offset=exc.offset) from exc
    if not graphs:
        raise Graph6Error("no graph6 records in input", offset=0)
    return graphs


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    _, value = _family_values(args)
    g = _FAMILIES[args.family][1](value)
    text = dot_export(g) if args.format == "dot" else graph6_encode(g) + "\n"
    _emit(text, args.output)
    return 0


def _report_lines(g: Graph, args) -> Tuple[dict, bool]:
    """One report dict per input graph plus its pass/fail verdict."""
    report = {"n": g.n, "m": g.m}
    ok = True
    if args.maxnil or args.k6_maximal:
        if args.maxnil:
            rep = is_maxnil(g, threads=args.threads, budget=args.budget)
            report["il"] = rep.il_status
            report["maxnil"] = "yes" if rep.maxnil_status == "maxnil" else "no"
            if rep.maxnil_failing_edge:
                report["failing_edge"] = list(rep.maxnil_failing_edge)
            ok = ok and rep.il_status == "nIL" and rep.maxnil_status == "maxnil"
        if args.k6_maximal:
            rep = is_maximal_k6_minor_free(g, threads=args.threads,
                                           budget=args.budget)
            report["k6_minor"] = "yes" if rep.k6_has_minor else "no"
            report["k6_maximal"] = (
                "yes" if rep.k6_maximal_status == "maximal" else "no")
            if rep.k6_failing_edge:
                report["k6_failing_edge"] = list(rep.k6_failing_edge)
            ok = ok and rep.k6_maximal_status == "maximal"
    else:
        il, _ = is_intrinsically_linked(g, budget=args.budget)
        report["il"] = "IL" if il else "nIL"
        ok = not il
    return report, ok


def _cmd_verify(args) -> int:
    graphs = _read_graphs(args.input)
    if args.maxnil and not args.slow:
        big = [g for _, g in graphs if g.m > _SLOW_EDGE_THRESHOLD]
        if big:
            print(f"input has {big[0].m} edges; certification this size "
                  "needs --slow", file=sys.stderr)
            return 2
    all_ok = True
    for _, g in graphs:
        report, ok = _report_lines(g, args)
        all_ok = all_ok and ok
        if args.json:
            print(json.dumps(report, sort_keys=True))
        else:
            print(", ".join(f"{k}: {v}" for k, v in report.items()))
    return 0 if all_ok else 1


def _cmd_petersen(args) -> int:
    members = petersen_family()
    if args.count:
        print(len(members))
        return 0
    for g in members:
        if args.format == "dot":
            sys.stdout.write(dot_export(g))
        else:
            print(graph6_encode(g))
    return 0


def _cmd_bounds_table(args) -> int:
    needed, raw = _family_values(args)
    lo, hi = _parse_range(str(raw)) if needed else (0, 0)
    build = _FAMILIES[args.family][1]
    graphs = [build(v if needed else None) for v in range(lo, hi + 1)]
    for row in bounds_table(graphs):
        if args.json:
            print(json.dumps({
                "n": row.n, "m": row.m, "ratio": str(row.ratio),
                "aires": row.aires, "mader": row.mader,
                "target": str(row.target),
                "within_bounds": row.within_bounds,
                "below_target": row.below_target,
            }, sort_keys=True))
        else:
            print(f"n={row.n} m={row.m} ratio={row.ratio} "
                  f"2n={row.aires} 4n-10={row.mader} "
                  f"25n/12-1/4={row.target} "
                  f"below target: {'yes' if row.below_target else 'no'}")
    return 0


def _cmd_export(args) -> int:
    graphs = _read_graphs(args.input)
    for _, g in graphs:
        if args.format == "dot":
            sys.stdout.write(dot_export(g))
        elif args.format == "json":
            print(json.dumps(
                {"n": g.n, "edges": [list(e) for e in g.edges]},
                sort_keys=True))
        else:
            print(graph6_encode(g))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "verify": _cmd_verify,
        "petersen": _cmd_petersen,
        "bounds-table": _cmd_bounds_table,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except Graph6Error as exc:
        print(f"graph6 error: {exc}", file=sys.stderr)
        return 2
    except (ConfigurationError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
