#!/usr/bin/env python3
"""Print one JSON line per exact solve: the search's answer and its node count.

Each row is ``solve_exact(build_set_cover(g, delta), Budget(max_nodes=N,
max_seconds=1e9))``, bounded by nodes only, so the output does not depend
on the machine.  A row records the graph, delta, the cover's size and its
points (sorted ``"u v t"`` strings), ``optimal`` and ``nodes_explored``.
Two sets of rows:

* ``atlas``: the 142 connected graphs on 2..6 vertices of the networkx
  graph atlas, at every a/b in (0, 3] with b <= ``--max-den`` (8 by
  default: 66 radii);
* ``grids``: the 4x5 and 5x5 grids at 2/5, the 5x5 grid at 4/5, the 6x6
  grid at 1/3 and the 8x8 grid at 2/5.

Two commits walk the same search tree when their outputs are identical, so
this checks a solver change that must keep every answer and node count:

  PYTHONPATH=src python scripts/solver_rows.py --out rows.jsonl

Usage: solver_rows.py [--rows atlas|grids|all] [--max-nodes 1000]
                      [--max-den 8] [--out FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction as F

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from deltacover import Budget, Graph
from deltacover.solver import build_set_cover, solve_exact

GRID_ROWS = (((4, 5), F(2, 5)), ((5, 5), F(2, 5)), ((5, 5), F(4, 5)), ((6, 6), F(1, 3)),
             ((8, 8), F(2, 5)))


def atlas_graphs() -> list[tuple[str, Graph]]:
    out = []
    for i, h in enumerate(graph_atlas_g()):
        if 2 <= h.number_of_nodes() <= 6 and nx.is_connected(h):
            edges = sorted(tuple(sorted(e)) for e in h.edges())
            out.append((f"atlas{i}", Graph(edges, n=h.number_of_nodes())))
    return out


def grid(rows: int, cols: int) -> Graph:
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(right + down, n=rows * cols)


def radii(max_den: int) -> list[F]:
    return sorted({F(a, b) for b in range(1, max_den + 1) for a in range(1, 3 * b + 1)})


def cases(rows: str, max_den: int):
    if rows in ("atlas", "all"):
        graphs = atlas_graphs()
        for delta in radii(max_den):
            for name, g in graphs:
                yield "atlas", name, g, delta
    if rows in ("grids", "all"):
        for (r, c), delta in GRID_ROWS:
            yield "grids", f"grid{r}x{c}", grid(r, c), delta


def row(kind: str, name: str, g: Graph, delta: F, budget: Budget) -> dict:
    res = solve_exact(build_set_cover(g, delta), budget)
    points = sorted(f"{p.u} {p.v} {p.t}" for p in res.cover.points)
    return {"rows": kind, "graph": name, "delta": str(delta), "size": len(points),
            "optimal": res.optimal, "nodes": res.nodes_explored, "cover": points}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rows", choices=("atlas", "grids", "all"), default="all")
    ap.add_argument("--max-nodes", type=int, default=1000)
    ap.add_argument("--max-den", type=int, default=8)
    ap.add_argument("--out", help="write here instead of standard output")
    args = ap.parse_args(argv)
    budget = Budget(max_nodes=args.max_nodes, max_seconds=1e9)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        for case in cases(args.rows, args.max_den):
            print(json.dumps(row(*case, budget)), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
