"""Command-line front end.

Subcommands: solve, tree, approx, verify, gen, bench.  Exit codes: 0 on
success, 1 verification failure, 2 budget exceeded (result not proven
optimal), 3 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import bench as benchmod
from .approx import approx_cover
from .families import FAMILIES, SOURCE_FAMILIES, gen_family
from .graphs import GraphValidationError, InvalidPointError, Point, point_distance
from .io import (
    FileFormatError,
    format_rational,
    parse_graph_file,
    parse_rational,
    read_cover,
    write_cover,
    write_graph_file,
)
from .matching import NotAForestError, tree_cover, unit_fraction_cover
from .solver import Budget, build_set_cover, solve_exact, solve_greedy
from .verify import InternalConsistencyError, InvalidCoverError, is_delta_cover, require_output

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _budget(args) -> Budget:
    # The flags default to None, so that a command can tell whether they were given.
    nodes, secs = args.budget_nodes, args.budget_secs
    return Budget(max_nodes=Budget.max_nodes if nodes is None else nodes,
                  max_seconds=Budget.max_seconds if secs is None else secs)


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int)
    p.add_argument("--budget-secs", type=float)


def build_parser() -> _Parser:
    parser = _Parser(prog="cover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="minimum cover, exact or greedy")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    radius = p.add_mutually_exclusive_group(required=True)
    radius.add_argument("--delta", help="covering radius a/b")
    radius.add_argument("--unit-fraction", type=int, metavar="B",
                        help="solve at delta = 1/B exactly, from the 1-cover or 1/2-cover")
    p.add_argument("--greedy", action="store_true")
    _add_budget_flags(p)

    p = sub.add_parser("tree", help="exact cover of a forest")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--delta", required=True)

    p = sub.add_parser("approx", help="range-dispatched approximation")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--delta", required=True)
    p.add_argument("--report", help="write a JSON report here")
    _add_budget_flags(p)

    p = sub.add_parser("verify", help="check a cover file against a graph")
    p.add_argument("--input", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--probes", type=int, default=0,
                   help="also cross-check with random point probes")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="emit a generated instance")
    p.add_argument("--family", required=True,
                   choices=FAMILIES)
    p.add_argument("--k", type=int)
    p.add_argument("--x", type=int)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--variant")
    p.add_argument("--path-len", type=int, default=3)
    p.add_argument("--source", help="input graph for reduction families")
    p.add_argument("--output", required=True)
    p.add_argument("--metadata", help="write family metadata JSON here")

    p = sub.add_parser("bench", help="run a benchmark suite from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--summary")
    p.add_argument("--jobs", type=int, default=1)
    return parser


def _cmd_solve(args) -> int:
    # The unit-fraction route is exact and the greedy is one pass: neither searches.
    budgeted = args.budget_nodes is not None or args.budget_secs is not None
    if args.unit_fraction is not None and (args.greedy or budgeted):
        raise _UsageError("--unit-fraction takes no --greedy, --budget-nodes or --budget-secs")
    if args.greedy and budgeted:
        raise _UsageError("--greedy takes no --budget-nodes or --budget-secs")
    g = parse_graph_file(args.input)
    if args.unit_fraction is not None:
        report = unit_fraction_cover(g, args.unit_fraction)
        if args.output:
            write_cover(args.output, report.cover)
        print(f"size {len(report.cover)} optimal {report.proven}")
        return EXIT_OK
    inst = build_set_cover(g, parse_rational(args.delta))
    result = solve_greedy(inst) if args.greedy else solve_exact(inst, _budget(args))
    require_output(g, result.cover, "greedy cover" if args.greedy else "exact solver output")
    if args.output:
        write_cover(args.output, result.cover)
    print(f"size {len(result.cover)} optimal {result.optimal} "
          f"nodes {result.nodes_explored} elapsed {result.elapsed:.3f}s")
    if not args.greedy and not result.optimal:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_tree(args) -> int:
    g = parse_graph_file(args.input)
    report = tree_cover(g, parse_rational(args.delta))
    if args.output:
        write_cover(args.output, report.cover)
    print(f"size {len(report.cover)} optimal {report.proven}")
    return EXIT_OK


def _cmd_approx(args) -> int:
    g = parse_graph_file(args.input)
    delta = parse_rational(args.delta)
    report = approx_cover(g, delta, _budget(args))
    if args.output:
        write_cover(args.output, report.cover)
    payload = {
        "delta": format_rational(delta),
        "regime": report.regime,
        "param": report.param,
        "claimed_factor": format_rational(report.claimed_factor),
        "epsilon": None if report.epsilon is None else format_rational(report.epsilon),
        "proven": report.proven,
        "avg_degree": format_rational(Fraction(2 * g.m, g.n) if g.n else Fraction(0)),
        "size": len(report.cover),
        "verified": True,
    }
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(f"regime {report.regime} size {len(report.cover)} "
          f"claimed {format_rational(report.claimed_factor)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = parse_graph_file(args.input)
    delta = parse_rational(args.delta)
    cover = read_cover(args.cover, g, delta)
    report = is_delta_cover(g, cover)
    if not report.is_cover:
        w = report.witness
        where = (f"vertex {w.u + 1}" if w.is_vertex
                 else f"edge {w.u + 1}-{w.v + 1} at {format_rational(w.t)}")
        print(f"NOT a {format_rational(delta)}-cover: uncovered at {where}")
        return EXIT_VERIFY
    # Probes sit on edges, so an edgeless graph has nothing to probe.
    if args.probes and g.m:
        rng = random.Random(args.seed)
        for _ in range(args.probes):
            u, v = g.edges[rng.randrange(g.m)]
            p = Point.on_edge(u, v, Fraction(rng.randrange(10**6 + 1), 10**6))
            # Cover points in other components are at no distance (None).
            near = min(d for q in cover.points
                       if (d := point_distance(g, p, q)) is not None)
            if near > delta:
                print(f"probe disagreement at {p}", file=sys.stderr)
                return EXIT_VERIFY
    print(f"cover of size {len(cover)} verified at delta {format_rational(delta)}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    src = parse_graph_file(args.source) if args.source else None
    inst = gen_family(args.family, k=args.k, x=args.x, ell=args.ell, variant=args.variant,
                      path_len=args.path_len, source=src)
    g = inst.graph
    if args.family in SOURCE_FAMILIES:
        extra = {"source_n": src.n, "source_m": src.m, "variant": inst.param("variant")}
    else:
        extra = {
            "params": dict(inst.params),
            "known_values": [
                {"delta": format_rational(kv.delta), "label": kv.label,
                 "size": kv.size, "provenance": kv.provenance}
                for kv in inst.known_values
            ],
        }
    write_graph_file(args.output, g, comments=(f"family {args.family}",))
    if args.metadata:
        with open(args.metadata, "w") as fh:
            json.dump({"family": args.family, "n": g.n, "m": g.m, **extra}, fh, indent=2)
            fh.write("\n")
    print(f"wrote {args.output}: n={g.n} m={g.m}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = benchmod.load_config(args.config)
    rows, summary = benchmod.run_bench(config, jobs=args.jobs)
    benchmod.write_csv(args.csv, rows)
    if args.summary:
        benchmod.write_summary(args.summary, summary)
    incomplete = sum(1 for r in rows if not r.oracle_optimal)
    print(f"{len(rows)} rows, {incomplete} without proven oracle optimum")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "solve": _cmd_solve,
            "tree": _cmd_tree,
            "approx": _cmd_approx,
            "verify": _cmd_verify,
            "gen": _cmd_gen,
            "bench": _cmd_bench,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidCoverError, InternalConsistencyError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (FileFormatError, GraphValidationError, InvalidPointError,
            NotAForestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # console script hook
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
