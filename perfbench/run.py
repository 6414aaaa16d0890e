#!/usr/bin/env python3
"""Layered benchmark of deltacover: end-to-end metrics and per-layer traces.

One workload, one fresh single-threaded process:

    python3 perfbench/run.py --workload atlas_exact --seed 1 --seconds 20 --trace 0

Every workload, each in its own process, untraced and traced, with a table
of every metric and ``perfbench/out/results.json``:

    python3 perfbench/run.py --seed 1 --seconds 20

A run sets its graphs up repeatedly for a second (``setup_s`` is the
median), runs one traced audit pass whose outputs are checked, then repeats
whole passes over the workload's calls, in their fixed order, until
``--seconds`` have passed.  Every pass starts with the library's function
caches empty, as a fresh process would, and must return exactly the audit
pass's outputs.
With ``--trace 0`` the timed passes run the library untouched and give the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and give the per-layer metrics.  The last line of standard output is the
run's result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("atlas_exact", "ladder_approx", "matching_routes")
SETUP_MIN_REPS = 7
SETUP_MIN_SECONDS = 1.0
MIN_CALLS = 100
# Every time is the thread's CPU time: the library runs on one thread and
# does no I/O, so that is its latency on an idle machine, without the time
# the process waits for a core on a shared host.  The speed of the core
# still drifts: on a 2-vCPU 2.1 GHz Xeon VM the same fixed loop took from 8
# to 30 ms within one 20-second window, with no steal time, and whole runs
# differed by 20-30% in speed.  So every end-to-end time is rescaled to a
# reference speed: the measured seconds times REFERENCE_S over the mean time
# of the reference probes run just before and just after.  REFERENCE_S is
# the probe's usual time on that VM.  The unscaled times go into the details
# file.
REFERENCE_S = 0.002

END_TO_END = [
    ("setup_s", "s"), ("call_ms_p50", "ms"), ("call_ms_p90", "ms"), ("calls_per_s", "1/s"),
    ("ok_frac", "frac"), ("proven_frac", "frac"), ("cover_points", "count"),
    ("peak_rss_mb", "MB"),
]


def per_layer_metrics() -> list[tuple[str, str]]:
    from layers import COUNTERS, SELF_METRICS

    return ([(m, "s") for m in SELF_METRICS]
            + [("graphs.build_in_calls_s", "s")]
            + [(c, "count") for c in COUNTERS]
            + [("failed_frac", "frac"), ("unproven_frac", "frac"),
               ("trace.call_s", "s"), ("trace.spans", "count"), ("trace.overhead_frac", "frac")])


def clear_caches() -> None:
    """Empty every functools cache in the library, as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "deltacover" or name.startswith("deltacover.")):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def reference_seconds() -> float:
    """Time a fixed piece of plain Python, with the garbage collector off.

    Integer arithmetic, then rationals, tuples, sets and dicts, the kinds of
    object the library works with: a noisy neighbour slows the two halves
    differently, and the mix tracks the library's own slow-downs better than
    either half alone.  It calls nothing in the library, so a change to the
    library cannot move it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = thread_time()
        x, acc = 0x9E3779B97F4A7C15, 0
        for i in range(3000):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            acc ^= x >> (i & 31)
        for _ in range(3):
            total, seen, sets, buckets = Fraction(0), {}, set(), {}
            for i in range(1, 60):
                total += Fraction(i % 7 + 1, i % 11 + 2)
                seen[(i, total.denominator % 13)] = total
                sets.add(frozenset((i % 5, i % 9, i)))
            sorted(seen.items(), key=lambda kv: (kv[0][1], kv[1]))
            for i in range(300):
                k = (i * 7919) % 1009
                buckets.setdefault(k & 63, []).append((k, i))
            frozenset(v for vs in buckets.values() for v in vs if v[0] & 1)
        return thread_time() - t0
    finally:
        if was_enabled:
            gc.enable()


def rescale(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * REFERENCE_S / (before + after)


def run_pass(calls, graphs, tracer=None):
    """One pass over the calls.

    Returns the outcomes, the per-call seconds, the same rescaled to the
    reference speed, and the reference loop times.
    """
    from workloads import Outcome

    clear_caches()
    gc.collect()
    outcomes, latencies, scaled = [], [], []
    refs = [reference_seconds()]
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = i
        t0 = thread_time()
        try:
            result = call.run(graphs)
        except Exception as exc:  # a failed call is counted, and the run goes on
            result = exc
        latencies.append(thread_time() - t0)
        refs.append(reference_seconds())
        scaled.append(rescale(latencies[-1], refs[-2], refs[-1]))
        outcomes.append(Outcome.failed(result) if isinstance(result, Exception)
                        else Outcome.of(result))
    return outcomes, latencies, scaled, refs


def hd_quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile.

    A mean of every order statistic, weighted by the Beta(q(n+1), (1-q)(n+1))
    probability of its share of [0, 1].  The calls differ widely in cost, so
    when one call's time crosses the quantile, the nearest-rank value jumps a
    whole gap between neighbours; this estimate moves by part of it.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 200 * n
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((k + 0.5) / steps for k in range(steps))]
    top = max(logs)
    weights = [0.0] * n
    for k, log_density in enumerate(logs):
        weights[k * n // steps] += math.exp(log_density - top)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def per_call_ms(passes: list[list[float]]) -> list[float]:
    """Each call's time in ms: the median of its times over the passes."""
    return [1e3 * statistics.median(times) for times in zip(*passes)]


def outputs_hash(outcomes) -> str:
    h = hashlib.sha256()
    for out in outcomes:
        points = sorted(out.points) if out.points is not None else None
        h.update(repr((points, out.optimal, out.regime, out.factor, out.error)).encode())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    import workloads
    from layers import Tracer

    tracer = Tracer()
    problems: list[str] = []

    setup_times, setup_scaled, hashes = [], [], set()
    before = reference_seconds()
    while len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_SECONDS:
        t0 = thread_time()
        instances = workloads.generate(workload, seed, tiny)
        graphs = workloads.parse(instances)
        setup_times.append(thread_time() - t0)
        after = reference_seconds()
        setup_scaled.append(rescale(setup_times[-1], before, after))
        before = after
        hashes.add(workloads.text_hash(instances))
    if len(hashes) != 1:
        problems.append("the same seed gave different graph texts")
    if not workloads.round_trips(instances, graphs):
        problems.append("a parsed graph does not serialize back to its text")
    setup_rec = None
    if trace:
        with tracer.installed():
            setup_rec = tracer.begin()
            workloads.parse(workloads.generate(workload, seed, tiny))

    calls = workloads.calls(workload, len(graphs), tiny)
    with tracer.installed():
        audit_rec = tracer.begin()
        audit = run_pass(calls, graphs, tracer)[0]

    failures: Counter = Counter()
    failed_ids, unproven_ids = set(), set(audit_rec.unproven) - {None}
    for i, (call, out) in enumerate(zip(calls, audit)):
        why = out.error
        if why is None:
            why = workloads.check(call, graphs[call.graph], out, i in unproven_ids,
                                  instances[call.graph].known)
            if why is not None:
                problems.append(f"call {i} ({call.fn} on {instances[call.graph].name} "
                                f"at {call.delta}): {why}")
                why = "check:" + why
        if why is not None:
            failures[why] += 1
            failed_ids.add(i)
    if audit_rec.counts["solver.deadline_hits"]:
        problems.append("a sub-solve stopped on its seconds limit, not its node budget")

    untraced, traced = [], []  # run_pass timings of each timed pass
    recordings = []
    start = perf_counter()
    while (not untraced or (trace and not traced) or perf_counter() - start < seconds
           or (len(untraced) + len(traced)) * len(calls) < MIN_CALLS):
        use_trace = trace and len(traced) < len(untraced)
        if use_trace:
            with tracer.installed():
                recordings.append(tracer.begin())
                outs, *timing = run_pass(calls, graphs, tracer)
            traced.append(timing)
        else:
            outs, *timing = run_pass(calls, graphs)
            untraced.append(timing)
        if outs != audit:
            problems.append("a pass returned other outputs than the audit pass")

    n = len(calls)
    passes = len(untraced) + len(traced)
    samples, unscaled = {}, {}
    if trace:
        metrics = layer_metrics(setup_rec, audit_rec, recordings, untraced, traced, problems)
        metrics["failed_frac"] = len(failed_ids) / n
        metrics["unproven_frac"] = len(unproven_ids) / n
        units = dict(per_layer_metrics())
        samples = {m: len(recordings) for m in units}
    else:
        units = dict(END_TO_END)
        latencies = per_call_ms([scaled for _, scaled, _ in untraced])
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "call_ms_p50": hd_quantile(latencies, 0.50),
            "call_ms_p90": hd_quantile(latencies, 0.90),
            "calls_per_s": 1e3 * len(latencies) / sum(latencies),
            "ok_frac": 1 - len(failed_ids) / n,
            "proven_frac": 1 - len(unproven_ids) / n,
            "cover_points": sum(len(out.points) for out in audit if out.points is not None),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {m: len(latencies) for m in units}
        samples.update(setup_s=len(setup_times), ok_frac=n, proven_frac=n, cover_points=n,
                       peak_rss_mb=1)
        raw = per_call_ms([lat for lat, _, _ in untraced])
        unscaled = {"setup_s": statistics.median(setup_times),
                    "call_ms_p50": hd_quantile(raw, 0.50),
                    "call_ms_p90": hd_quantile(raw, 0.90),
                    "calls_per_s": 1e3 * len(raw) / sum(raw),
                    "reference_ms": 1e3 * statistics.median(
                        [r for _, _, refs in untraced for r in refs])}

    result = {
        "correct": not problems,
        "attempted": n * passes,
        "failed": len(failed_ids) * passes,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "graphs": len(graphs), "calls_per_pass": n, "passes": passes,
        "graphs_sha256": hashes.pop(), "outputs_sha256": outputs_hash(audit),
        "failures": dict(failures), "problems": problems[:20], "samples": samples,
        "unscaled": unscaled, "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if trace:
        write_spans(OUT / f"{stem}-spans.jsonl", [setup_rec, audit_rec, *recordings])
    return details


def layer_metrics(setup_rec, audit_rec, recordings, untraced, traced, problems) -> dict:
    """Per-layer metrics: one setup plus the mean over the traced passes."""
    from layers import COUNTERS, SELF_METRICS, self_times

    k = len(recordings)
    setup_self, _ = self_times(setup_rec.spans)
    call_self, call_s = Counter(), 0.0
    for rec in recordings:
        s, roots = self_times(rec.spans)
        call_self.update(s)
        call_s += roots
    if abs(sum(call_self.values()) - call_s) > 1e-6 * max(call_s, 1.0):
        problems.append("span self times do not add up to the traced call time")
    counts = audit_rec.counts
    if any(rec.counts != counts for rec in recordings):
        problems.append("traced passes counted different work")
    out = {m: setup_self[m] + call_self[m] / k for m in SELF_METRICS}
    out.update({m: setup_rec.counts[m] + counts[m] for m in COUNTERS})
    out.update({
        "graphs.build_in_calls_s": call_self["graphs.build_s"] / k,
        "trace.call_s": call_s / k,
        "trace.spans": len(setup_rec.spans) + sum(len(r.spans) for r in recordings) // k,
        "trace.overhead_frac": (statistics.median([sum(s) for _, s, _ in traced])
                                / statistics.median([sum(s) for _, s, _ in untraced]) - 1),
    })
    return out


def write_spans(path: Path, recordings) -> None:
    with path.open("w") as f:
        for phase, rec in enumerate(recordings):
            for name, start, end, parent, call in rec.spans:
                f.write(json.dumps({"phase": phase, "name": name, "start": start, "end": end,
                                    "parent": parent, "call": call}) + "\n")


def print_table(workload: str, details: dict) -> None:
    print(f"# {workload}  seed={details['seed']}  trace={details['trace']}  "
          f"graphs={details['graphs']}  calls/pass={details['calls_per_pass']}  "
          f"passes={details['passes']}  graphs_sha256={details['graphs_sha256'][:16]}")
    for name, m in details["result"]["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']:6s} n={details['samples'][name]}")
    if details["unscaled"]:
        print("  unscaled: " + "  ".join(f"{k}={v:.6g}" for k, v in details["unscaled"].items()))
    if details["failures"]:
        print(f"  failures by type: {details['failures']}")
    for problem in details["problems"]:
        print(f"  PROBLEM: {problem}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            stem = f"{workload}-seed{args.seed}-trace{trace}"
            results[f"{workload}/trace{trace}"] = json.loads((OUT / f"{stem}.json").read_text())
    summary = {"claim": None, "seed": args.seed, "seconds": args.seconds,
               "predictions": (HERE / "PREDICTIONS.md").read_text(), "runs": results}
    (OUT / "results.json").write_text(json.dumps(summary, indent=1) + "\n")
    ok = all(r["result"]["correct"] for r in results.values())
    print(f"wrote {OUT / 'results.json'}; all outputs correct: {ok}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few graphs per workload, for the smoke test")
    args = parser.parse_args()
    if not (ROOT / "src" / "deltacover" / "__init__.py").is_file():
        print(f"deltacover sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)
    details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print_table(args.workload, details)
    print(json.dumps(details["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
