"""Benchmark harness: algorithms against oracle optima, ratio tables out.

A suite configuration lists instances (graph files or generator specs) and
a grid of rationals.  Every (instance, delta) row runs the
range-dispatched approximation and attempts the exact oracle within
budget, and records the empirical ratio whenever the oracle finished.
Both return a ``RatioReport``: the oracle's claims factor 1 and is proven
when its search closed (``oracle_optimal``).  Each checks its own cover
once (a failure raises InternalConsistencyError).  The approximation
checks through ``verify.require_output``, whose proof memo, keyed by the
graph and the point set and bounded by ``graphs.MEMO_CELLS`` cells like
the route memos, is not emptied between rows: points already proved on a
graph at a radius no larger, such as a 1-cover reused across the radii of
one instance, are not searched again.  The oracle runs the same check
without the memo, since each of its solves builds a new point set.
``claim_proven`` says whether the claimed factor rests only on sub-solves
that proved optimality (``RatioReport.proven``), and the summary counts
the rows without it per regime.  Rationals are serialized as "a/b"
strings; float columns are marked lossy and exist only for plotting.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

from .approx import approx_cover
from .families import gen_family
from .graphs import Graph
from .io import format_rational, parse_graph_file, parse_rational
from .solver import Budget, min_cover_exact

CSV_COLUMNS = [
    "instance",
    "family",
    "n",
    "m",
    "delta",
    "regime",
    "cover_size",
    "oracle_size",
    "oracle_optimal",
    "ratio",
    "ratio_float_lossy",
    "claimed_factor",
    "claim_proven",
    "verify",
    "runtime_ms",
]


@dataclass(frozen=True)
class BenchRow:
    instance: str
    family: str
    n: int
    m: int
    delta: Fraction
    regime: str
    cover_size: int
    oracle_size: int | None
    oracle_optimal: bool
    ratio: Fraction | None
    claimed_factor: Fraction
    claim_proven: bool
    verify: str
    runtime_ms: int

    def as_record(self) -> dict[str, Any]:
        return {
            "instance": self.instance,
            "family": self.family,
            "n": self.n,
            "m": self.m,
            "delta": format_rational(self.delta),
            "regime": self.regime,
            "cover_size": self.cover_size,
            "oracle_size": "" if self.oracle_size is None else self.oracle_size,
            "oracle_optimal": int(self.oracle_optimal),
            "ratio": "" if self.ratio is None else format_rational(self.ratio),
            "ratio_float_lossy": "" if self.ratio is None else float(self.ratio),
            "claimed_factor": format_rational(self.claimed_factor),
            "claim_proven": int(self.claim_proven),
            "verify": self.verify,
            "runtime_ms": self.runtime_ms,
        }


def build_instance(spec: dict[str, Any], base_dir: Path | None = None) -> tuple[str, str, Graph]:
    """Resolve one instance spec into (id, family label, graph)."""
    iid = spec.get("id")
    if "file" in spec:
        path = Path(spec["file"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return iid or path.stem, "file", parse_graph_file(path)
    family = spec.get("family")
    if family is None:
        raise ValueError(f"instance spec needs 'file' or a known 'family': {spec}")
    src = None
    if "source" in spec:
        src = parse_graph_file(spec["source"] if base_dir is None else base_dir / spec["source"])
    ints = {key: int(spec[key]) for key in ("k", "x", "ell", "path_len") if key in spec}
    inst = gen_family(family, source=src, variant=spec.get("variant"), **ints)
    default = "{}_{}".format(family, "_".join(str(v) for _, v in inst.params))
    return iid or default, family, inst.graph


def run_row(instance: str, family: str, g: Graph, delta: Fraction,
            budget: Budget) -> BenchRow:
    t0 = time.monotonic()
    report = approx_cover(g, delta, budget)
    oracle = min_cover_exact(g, delta, budget)
    ratio = None
    if oracle.proven:
        # Only the empty graph has an empty optimum, and both covers are empty.
        ratio = Fraction(len(report.cover), len(oracle.cover)) if oracle.cover else Fraction(1)
    return BenchRow(
        instance=instance,
        family=family,
        n=g.n,
        m=g.m,
        delta=delta,
        regime=report.regime,
        cover_size=len(report.cover),
        oracle_size=len(oracle.cover) if oracle.proven else None,
        oracle_optimal=oracle.proven,
        ratio=ratio,
        claimed_factor=report.claimed_factor,
        claim_proven=report.proven,
        verify="pass",
        runtime_ms=int(1000 * (time.monotonic() - t0)),
    )


def _row_task(args: tuple[str, str, Graph, Fraction, Budget]) -> BenchRow:
    return run_row(*args)


def load_config(path: str | Path) -> dict[str, Any]:
    path = Path(path)
    config = json.loads(path.read_text())
    config["_base_dir"] = str(path.parent)
    return config


def run_bench(config: dict[str, Any], jobs: int = 1) -> tuple[list[BenchRow], dict[str, Any]]:
    base_dir = Path(config.get("_base_dir", "."))
    budget_cfg = config.get("budget", {})
    budget = Budget(
        max_nodes=int(budget_cfg.get("nodes", Budget.max_nodes)),
        max_seconds=float(budget_cfg.get("seconds", Budget.max_seconds)),
    )
    deltas = [parse_rational(d) for d in config.get("deltas", [])]
    tasks = []
    for spec in config.get("instances", []):
        iid, family, g = build_instance(spec, base_dir)
        for delta in deltas:
            tasks.append((iid, family, g, delta, budget))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_row_task, tasks))
    else:
        rows = [run_row(*t) for t in tasks]
    rows.sort(key=lambda r: (r.instance, r.delta))
    return rows, summarize(rows)


def summarize(rows: list[BenchRow]) -> dict[str, Any]:
    per_regime: dict[str, dict[str, Any]] = {}
    for row in rows:
        agg = per_regime.setdefault(
            row.regime,
            {"rows": 0, "oracle_complete": 0, "max_ratio": None, "violations": 0,
             "unproven_claims": 0},
        )
        agg["rows"] += 1
        agg["unproven_claims"] += not row.claim_proven
        if row.ratio is not None:
            agg["oracle_complete"] += 1
            if agg["max_ratio"] is None or row.ratio > parse_rational(agg["max_ratio"]):
                agg["max_ratio"] = format_rational(row.ratio)
            if row.ratio > row.claimed_factor:
                agg["violations"] += 1
    return {
        "rows": len(rows),
        "regimes": per_regime,
        "all_verified": all(r.verify == "pass" for r in rows),
    }


def write_csv(path: str | Path, rows: list[BenchRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row.as_record())


def write_summary(path: str | Path, summary: dict[str, Any]) -> None:
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
