"""Spans and counters at the library's layer boundaries, installed from outside.

``Tracer.installed()`` replaces each traced function at every module
attribute that refers to it, so a call from another layer (for example
``approx.require_cover`` or ``solver.is_delta_cover``) goes through the
wrapper; ``Graph.__init__`` is replaced on the class.  Leaving the block
puts the originals back, so untraced passes run the library unchanged.

A wrapper records a span ``(name, start, end, parent, call)`` in memory, in
seconds of the thread's CPU time, and updates counters from the arguments
and result.  Self times are derived from the spans afterwards: a span's
duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import thread_time

from deltacover import approx, families, graphs, io, matching, solver, verify

# (holder, attribute, self-time metric).  Spans are named "<holder>.<attr>".
SPANS = [
    (graphs.Graph, "__init__", "graphs.build_s"),
    (graphs, "subdivide", "graphs.subdivide_s"),
    (io, "parse_graph_text", "io.parse_s"),
    (families, "gen_triangles_center", "families.gen_s"),
    (families, "gen_triangles_paths", "families.gen_s"),
    (families, "gen_star_subdivision", "families.gen_s"),
    (verify, "is_delta_cover", "verify.self_s"),
    (verify, "require_cover", "verify.self_s"),
    (solver, "build_set_cover", "solver.build_set_cover_s"),
    (solver, "solve_exact", "solver.solve_exact_self_s"),
    (solver, "solve_greedy", "solver.greedy_s"),
    (solver, "min_cover_exact", "solver.min_cover_exact_self_s"),
    (matching, "max_matching", "matching.max_matching_s"),
    # gallai_edmonds runs its blossom matchings through the private _nu.
    (matching, "_nu", "matching.max_matching_s"),
    (matching, "gallai_edmonds", "matching.gallai_edmonds_s"),
    (matching, "one_cover_min", "matching.one_cover_self_s"),
    (matching, "unit_fraction_cover", "matching.unit_fraction_self_s"),
    (matching, "tree_cover", "matching.tree_cover_self_s"),
    (approx, "approx_cover", "approx.dispatch_self_s"),
    (approx, "cover_via_one_cover", "approx.dispatch_self_s"),
    (approx, "cover_vertex_set", "approx.dispatch_self_s"),
    (approx, "cover_leaf_level", "approx.dispatch_self_s"),
    (approx, "cover_small_delta_even", "approx.dispatch_self_s"),
    (approx, "cover_small_delta_odd", "approx.dispatch_self_s"),
]

SELF_METRICS = list(dict.fromkeys(metric for _, _, metric in SPANS))

REGIMES = ["exact", "large_delta", "one_cover_3_2", "one_cover_5_3", "one_cover_2",
           "vertex_set_34_1", "leaf_level", "vertex_set_x", "small_even", "small_odd", "other"]

COUNTERS = [
    "graphs.build_calls", "graphs.dist_cells", "graphs.subdivide_calls",
    "verify.calls", "verify.edge_point_pairs", "verify.rejects",
    "solver.universe", "solver.candidates", "solver.bnb_nodes", "solver.budget_hits",
    "solver.deadline_hits",
    "matching.max_matching_calls", "matching.gallai_edmonds_calls",
    *(f"approx.regime_calls.{r}" for r in REGIMES),
    "approx.unproven_claims",
]


def _name(holder, attr: str) -> str:
    return f"{holder.__name__.rsplit('.', 1)[-1]}.{attr}"


def _budget(args, kwargs) -> solver.Budget:
    return args[1] if len(args) > 1 else kwargs.get("budget", solver.DEFAULT_BUDGET)


def _count_build(tr, args, kwargs, result):
    n = args[0].n
    tr.rec.counts["graphs.build_calls"] += 1
    tr.rec.counts["graphs.dist_cells"] += n * n


def _count_subdivide(tr, args, kwargs, result):
    tr.rec.counts["graphs.subdivide_calls"] += 1


def _count_verify(tr, args, kwargs, result):
    g, s = args[0], args[1]
    tr.rec.counts["verify.calls"] += 1
    tr.rec.counts["verify.edge_point_pairs"] += g.m * len(s)
    tr.rec.counts["verify.rejects"] += not result.is_cover


def _count_build_set_cover(tr, args, kwargs, result):
    tr.rec.counts["solver.universe"] += len(result.universe)
    tr.rec.counts["solver.candidates"] += len(result.candidates)


def _count_solve_exact(tr, args, kwargs, result):
    counts = tr.rec.counts
    counts["solver.bnb_nodes"] += result.nodes_explored
    if not result.optimal:
        counts["solver.budget_hits"] += 1
        # Running out of nodes leaves nodes_explored = max_nodes + 1; fewer
        # nodes mean the seconds limit stopped the search.
        counts["solver.deadline_hits"] += result.nodes_explored <= _budget(args, kwargs).max_nodes
        tr.rec.unproven.add(tr.call_id)


def _count_matching(tr, args, kwargs, result):
    tr.rec.counts["matching.max_matching_calls"] += 1


def _count_gallai_edmonds(tr, args, kwargs, result):
    tr.rec.counts["matching.gallai_edmonds_calls"] += 1


def _count_approx(tr, args, kwargs, result):
    regime = result.regime if result.regime in REGIMES else "other"
    tr.rec.counts[f"approx.regime_calls.{regime}"] += 1
    # Every report claims a factor; the claim is unproven when a sub-solve
    # under this call ran out of budget.
    tr.rec.counts["approx.unproven_claims"] += tr.call_id in tr.rec.unproven


COUNT = {
    "Graph.__init__": _count_build,
    "graphs.subdivide": _count_subdivide,
    "verify.is_delta_cover": _count_verify,
    "solver.build_set_cover": _count_build_set_cover,
    "solver.solve_exact": _count_solve_exact,
    "matching.max_matching": _count_matching,
    "matching._nu": _count_matching,
    "matching.gallai_edmonds": _count_gallai_edmonds,
    "approx.approx_cover": _count_approx,
}


class Recording:
    """Spans, counters and unproven call ids of one traced phase."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int | None] | None] = []
        self.counts: Counter = Counter()
        self.unproven: set[int | None] = set()


class Tracer:
    def __init__(self):
        self.rec = Recording()
        self.stack: list[int] = []
        self.call_id: int | None = None

    def begin(self) -> Recording:
        """Start a fresh recording; later spans and counts go into it."""
        self.rec = Recording()
        self.call_id = None
        return self.rec

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, stack = tracer.rec, tracer.stack
            idx = len(rec.spans)
            rec.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = thread_time()
                stack.pop()
                rec.spans[idx] = (name, start, end, parent, tracer.call_id)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "deltacover" or name.startswith("deltacover."))]
        patches = []
        for holder, attr, _ in SPANS:
            orig = getattr(holder, attr)
            name = _name(holder, attr)
            wrapper = self._wrap(name, orig, COUNT.get(name))
            patches.append((holder, attr, orig, wrapper))
            for mod in modules:
                if mod is not holder:
                    patches += [(mod, a, orig, wrapper) for a, v in vars(mod).items() if v is orig]
        for holder, attr, _, wrapper in patches:
            setattr(holder, attr, wrapper)
        try:
            yield self
        finally:
            for holder, attr, orig, _ in reversed(patches):
                setattr(holder, attr, orig)


def self_times(spans) -> tuple[Counter, float]:
    """Self time per metric, and the summed duration of the root spans."""
    metric = {_name(holder, attr): m for holder, attr, m in SPANS}
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    roots = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        out[metric[name]] += (end - start) - child[i]
        if parent < 0:
            roots += end - start
    return out, roots
