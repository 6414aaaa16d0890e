#!/usr/bin/env python3
"""Measure how ``approx_cover`` scales with n, and write ``SCALING.json``.

The graphs are random cubic graphs (networkx ``random_regular_graph(3, n,
seed=1)``), random recursive trees (vertex v joins a parent drawn from
0..v-1 by ``random.Random(1)``), and cycles with their ids in order and
permuted by ``random.Random(1).shuffle``, at n = 200, 400, ..., 3,200.
Each cell is one cold ``approx_cover`` call: every library cache is
emptied before it, as ``tests/conftest.py`` does, and the CPU time
(``time.process_time``) is the best of three such calls.  Per cell the
file records the CPU seconds, the regime and size of the answer, the
Edmonds forest searches (counted by a wrapper this script puts around
``matching._forest_search``) and the verifier searches
(``require_output.cache_info().misses``).  The counters do not depend on
the machine.  Per (family, delta) it records the least-squares slope of
log CPU seconds against log n.

Usage: PYTHONPATH=src python scripts/scaling.py [--max-n 3200] [--out SCALING.json]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import networkx as nx

from deltacover import Graph, approx_cover, matching
from deltacover.verify import require_output

ROOT = Path(__file__).resolve().parent.parent
SIZES = (200, 400, 800, 1600, 3200)
DELTAS = (F(1, 3), F(2, 5), F(3, 5), F(5, 4))
REPEATS = 3
SEED = 1


def cubic(n: int) -> Graph:
    return Graph(nx.random_regular_graph(3, n, seed=SEED).edges(), n=n)


def tree(n: int) -> Graph:
    rng = random.Random(SEED)
    return Graph([(rng.randrange(v), v) for v in range(1, n)], n=n)


def cycle(n: int) -> Graph:
    return Graph([(v, (v + 1) % n) for v in range(n)], n=n)


def cycle_shuffled(n: int) -> Graph:
    ids = list(range(n))
    random.Random(SEED).shuffle(ids)
    return Graph([(ids[v], ids[(v + 1) % n]) for v in range(n)], n=n)


FAMILIES = {"cubic": cubic, "tree": tree, "cycle": cycle, "cycle_shuffled": cycle_shuffled}


def clear_library_caches() -> None:
    """Empty every cache in the library, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "deltacover" or name.startswith("deltacover.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1e-9)) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def measure(g: Graph, delta: F, searches: list[int]) -> dict:
    best = math.inf
    for _ in range(REPEATS):
        clear_library_caches()
        searches[0] = 0
        start = time.process_time()
        report = approx_cover(g, delta)
        best = min(best, time.process_time() - start)
    return {"regime": report.regime, "size": len(report.cover), "proven": report.proven,
            "cpu_s": round(best, 6), "forest_searches": searches[0],
            "verifier_searches": require_output.cache_info().misses}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-n", type=int, default=SIZES[-1], help="largest n measured")
    ap.add_argument("--out", type=Path, default=ROOT / "SCALING.json")
    args = ap.parse_args(argv)
    sizes = [n for n in SIZES if n <= args.max_n]

    searches = [0]
    real = matching._forest_search

    def counted(adj, mate):
        searches[0] += 1
        return real(adj, mate)

    rows = []
    matching._forest_search = counted
    try:
        for family, make in FAMILIES.items():
            for n in sizes:
                g = make(n)
                for delta in DELTAS:
                    rows.append({"family": family, "n": n, "m": g.m, "delta": str(delta),
                                 **measure(g, delta, searches)})
                    print(json.dumps(rows[-1]), flush=True)
    finally:
        matching._forest_search = real

    slopes = [{"family": family, "delta": str(delta),
               "slope": round(slope([(r["n"], r["cpu_s"]) for r in rows
                                     if r["family"] == family and r["delta"] == str(delta)]), 3)}
              for family in FAMILIES for delta in DELTAS] if len(sizes) > 1 else []
    report = {
        "command": "PYTHONPATH=src python scripts/scaling.py"
                   + (f" --max-n {args.max_n}" if args.max_n != SIZES[-1] else ""),
        "method": __doc__.split("\n\n")[1].replace("\n", " "),
        "machine": {"python": platform.python_version(), "system": platform.system(),
                    "machine": platform.machine(), "cpus": os.cpu_count()},
        "rows": rows,
        "slopes": slopes,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
