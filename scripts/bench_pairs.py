#!/usr/bin/env python3
"""Run the benchmark on two commits in alternating pairs and summarize them.

Each commit is unpacked with ``git archive`` into its own fresh directory,
and ``perfbench/run.py`` runs there, once per side for every (workload,
seed) pair, for the run length that script sets itself.  The side that
runs first alternates: the parent on odd seeds, the change on even ones.  The summary has the schema of the committed
``BENCH_<n>.json`` files: per end-to-end metric the medians and quartiles of
each side, the change's wins, ties and ratio of medians; the medians of the
traced layer metrics; whether the outputs matched; and the claim, if one is
named, with whether it was met.  A claim is met when the ratio of medians
reaches ``--claim``'s ratio, the change wins at least nine pairs in ten, and
the gap between the medians exceeds the parent's interquartile range.

Usage:
  python scripts/bench_pairs.py --parent 37e4a8a --change HEAD \\
      --pairs ladder_approx:1801-1810 --pairs atlas_exact:1801-1803 \\
      --traced ladder_approx:1811-1812 --claim ladder_approx:calls_per_s:1.15 \\
      --out BENCH_18.json

Runs go one at a time, so a pair sees the same machine load as far as
possible; the raw details JSON of every run is kept under ``"parent"`` and
``"change"``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def seed_range(spec: str) -> tuple[str, list[int]]:
    """``workload:first-last`` (or ``workload:seed``) as a workload and its seeds."""
    workload, _, seeds = spec.partition(":")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def unpack(commit: str, into: Path) -> str:
    """Unpack ``commit`` into the directory ``into``; return its short hash."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", commit],
                          check=True, capture_output=True, text=True).stdout.strip()


def run_one(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    stem = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((checkout / "perfbench" / "out" / f"{stem}.json").read_text())


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def metric(run: dict, name: str) -> float:
    return run["result"]["metrics"][name]["value"]


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: both sides' quartiles and the change's wins."""
    out = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        values = {side: [metric(run, name) for run in runs]
                  for side, runs in zip(SIDES, zip(*pairs))}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        ties = sum(p == c for p, c in zip(values["parent"], values["change"]))
        stats = {side: quartiles(values[side]) for side in SIDES}
        parent_median = stats["parent"]["median"]
        out[name] = {**stats, "change_wins": wins, "ties": ties, "pairs": len(pairs),
                     "ratio_of_medians": (stats["change"]["median"] / parent_median
                                          if parent_median else None)}
    return out


def judge(summary: dict, workload: str, name: str, min_ratio: float, higher: bool) -> dict:
    row = summary[workload][name]
    parent, change = row["parent"], row["change"]
    gain = change["median"] - parent["median"] if higher else parent["median"] - change["median"]
    ratio = row["ratio_of_medians"] if higher else 1 / row["ratio_of_medians"]
    iqr = parent["q3"] - parent["q1"]
    met = ratio >= min_ratio and 10 * row["change_wins"] >= 9 * row["pairs"] and gain > iqr
    return {"workload": workload, "metric": name, "min_ratio": min_ratio,
            "ratio_of_medians": row["ratio_of_medians"], "change_wins": row["change_wins"],
            "pairs": row["pairs"], "parent_iqr": iqr, "median_gain": gain, "met": met}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--change", required=True, help="the commit that makes the change")
    ap.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD:SEEDS",
                    help="untraced pairs, e.g. ladder_approx:1801-1810 (repeatable)")
    ap.add_argument("--traced", action="append", default=[], metavar="WORKLOAD:SEEDS",
                    help="traced pairs, whose layer metrics are summarized by median")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC:RATIO",
                    help="the claimed gain, e.g. ladder_approx:calls_per_s:1.15")
    ap.add_argument("--note", default="", help="appended to the method text (the machine)")
    ap.add_argument("--workdir", type=Path, help="where the checkouts go (default: a temp dir)")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    commits = {side: unpack(rev, workdir / side)
               for side, rev in zip(SIDES, (args.parent, args.change))}
    config = json.loads((workdir / "change" / "BENCHMARK.json").read_text())

    plan = []
    for trace, specs in ((0, args.pairs), (1, args.traced)):
        for spec in specs:
            workload, seeds = seed_range(spec)
            plan += [(workload, seed, trace) for seed in seeds]
    runs: dict[str, dict] = {side: {} for side in SIDES}
    order = []
    for workload, seed, trace in plan:
        for side in (SIDES if seed % 2 else SIDES[::-1]):
            key = f"{workload}/seed{seed}/trace{trace}"
            print(f"{key} {side}", flush=True)
            runs[side][key] = run_one(workdir / side, workload, seed, trace)
            order.append([workload, str(seed), str(trace), side])

    untraced: dict[str, list[tuple[dict, dict]]] = {}
    traced: dict[str, list[tuple[dict, dict]]] = {}
    for workload, seed, trace in plan:
        key = f"{workload}/seed{seed}/trace{trace}"
        (traced if trace else untraced).setdefault(workload, []).append(
            (runs["parent"][key], runs["change"][key]))
    summary = {w: summarize(pairs, config["end_to_end"]) for w, pairs in untraced.items()}
    trace_medians = {
        w: {name: {side: statistics.median(metric(run, name) for run in side_runs)
                   for side, side_runs in zip(SIDES, zip(*pairs))}
            for name in pairs[0][0]["result"]["metrics"]}
        for w, pairs in traced.items()}
    outputs_identical = {
        w: all(p["outputs_sha256"] == c["outputs_sha256"] for p, c in pairs)
        for w, pairs in {**traced, **untraced}.items()}

    claim = None
    if args.claim:
        workload, name, ratio = args.claim.split(":")
        better = {m["name"]: m["better"] for m in config["end_to_end"]}[name]
        claim = judge(summary, workload, name, float(ratio), better == "higher")

    seconds = " or ".join(f"{s:g} s" for s in sorted(
        {run["seconds"] for side in SIDES for run in runs[side].values()}))

    def described(specs: list[str]) -> str:
        return "; ".join(spec.replace(":", " seeds ") for spec in specs) or "none"

    method = (f"Untraced pairs: {described(args.pairs)}. Traced pairs: {described(args.traced)}. "
              "One seed per pair; parent and change run back to back in fresh checkouts "
              "(git archive of each commit), the parent first on odd seeds. Quartiles are "
              "statistics.quantiles(n=4, method='inclusive'); trace_medians are the medians "
              "of the traced runs per side. Each run's file is the details JSON that "
              "perfbench/run.py writes to perfbench/out/. Runs go one at a time.")
    if args.note:
        method += " " + args.note
    report = {
        "claim": claim,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> --trace <0|1>"
                   f" (run length {seconds}, run.py's default)",
        "method": method,
        "order": order,
        "outputs_identical": outputs_identical,
        "summary_untraced": summary,
        "trace_medians": trace_medians,
        "parent": {"runs": runs["parent"]},
        "change": {"runs": runs["change"]},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if claim is not None:
        print(json.dumps(claim))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
