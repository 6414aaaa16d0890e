#!/usr/bin/env python3
"""Sweep the approximation ratio of the tight families across covering radii.

Runs the range-dispatched approximation against the exact oracle on the
triangle-hub families and subdivided stars, then prints a per-regime table
of worst empirical ratios next to the claimed factors.  Every exact solve is
bounded by branch-and-bound nodes only, so which rows are proven does not
depend on the machine.

Usage: python scripts/ratio_sweep.py [--kmax 6] [--budget-nodes N] [--csv out.csv]
"""

import argparse
import sys
from fractions import Fraction

from deltacover.bench import build_instance, run_row, summarize, write_csv
from deltacover.io import format_rational
from deltacover.solver import Budget

BUDGET_NODES = 300_000
DELTAS = ["2/5", "4/7", "3/5", "2/3", "5/7", "3/4", "4/5", "1", "9/8", "7/6", "5/4", "4/3", "3/2"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=6)
    ap.add_argument("--budget-nodes", type=int, default=BUDGET_NODES)
    ap.add_argument("--csv", default="ratio_sweep.csv")
    args = ap.parse_args()

    # The seconds limit is far beyond any run; only nodes stop a search.
    budget = Budget(max_nodes=args.budget_nodes, max_seconds=1e9)
    specs = [{"id": f"hub_k{k}", "family": "triangles_center", "k": k}
             for k in range(3, args.kmax + 1)]
    specs += [{"id": "paths_k3", "family": "triangles_paths", "k": 3, "variant": "per_vertex"},
              {"id": "connector_k3", "family": "triangles_paths", "k": 3,
               "variant": "per_triangle"}]
    specs += [{"id": f"star_x{x}_k{k}", "family": "star_subdivision", "x": x, "k": k}
              for x, k in ((2, 3), (3, 3))]
    instances = [build_instance(spec) for spec in specs]

    rows = []
    for iid, family, g in instances:
        for d in DELTAS:
            delta = Fraction(d)
            row = run_row(iid, family, g, delta, budget)
            rows.append(row)
            ratio = "-" if row.ratio is None else format_rational(row.ratio)
            print(f"{iid:>14} n={row.n:<3} delta={d:<4} regime={row.regime:<15} "
                  f"size={row.cover_size:<3} oracle={row.oracle_size if row.oracle_optimal else '?':<3} "
                  f"ratio={ratio:<7} claimed={format_rational(row.claimed_factor)}")
    write_csv(args.csv, rows)
    print(f"\nwrote {args.csv}")
    print("\nper-regime summary:")
    for regime, agg in sorted(summarize(rows)["regimes"].items()):
        print(f"  {regime:<15} rows={agg['rows']:<4} max_ratio={agg['max_ratio']} "
              f"violations={agg['violations']} unproven_claims={agg['unproven_claims']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
