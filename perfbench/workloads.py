"""The benchmark's three workloads: their graphs, their calls, their checks.

A workload is built in two steps.  ``generate`` makes the graphs from the
seed and serializes them to graph-file text; ``parse`` reads that text back
with ``io.parse_graph_text``.  The program only ever sees the parsed graphs.
``calls`` lists the public calls in the fixed order every pass runs them.

Every exact sub-solve is bounded by nodes only (``BUDGET``); its seconds
limit is far beyond any run, so results never depend on machine speed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction as F

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from deltacover import approx, families, io, matching, solver
from deltacover.families import KnownValue
from deltacover.graphs import Cover, Graph
# Bound at import, before any tracing wraps the module attribute.
from deltacover.verify import is_delta_cover

BUDGET = solver.Budget(max_nodes=1000, max_seconds=1e9)

ATLAS_DELTAS = (F(1, 3), F(2, 5), F(3, 5), F(2, 3), F(5, 4))
LADDER_DELTAS = (F(2, 7), F(4, 7), F(3, 5), F(2, 3), F(4, 5), F(5, 2))
# F(1, 2) is run as unit_fraction_cover(g, 2), the route through the
# 2-subdivision; the other radii go through approx_cover.
MATCHING_DELTAS = (F(1, 3), F(1, 2), F(1), F(9, 8), F(7, 6), F(5, 4), F(7, 5), F(2, 5))


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    known: tuple[KnownValue, ...] = ()


@dataclass(frozen=True)
class Call:
    """One public call: ``fn`` on graph ``graph`` at radius ``delta``."""

    fn: str  # "min_cover_exact", "approx_cover" or "unit_fraction_cover"
    graph: int
    delta: F

    def run(self, graphs: list[Graph]):
        # Looked up at call time, so that a traced pass calls the wrappers.
        g = graphs[self.graph]
        if self.fn == "min_cover_exact":
            return solver.min_cover_exact(g, self.delta, BUDGET)
        if self.fn == "approx_cover":
            return approx.approx_cover(g, self.delta, BUDGET)
        return matching.unit_fraction_cover(g, self.delta.denominator, BUDGET)


@dataclass(frozen=True)
class Outcome:
    """What a call returned, reduced to what the checks and metrics need."""

    points: frozenset | None
    optimal: bool | None  # SolveResult.optimal; None for approx reports
    regime: str | None
    factor: F | None
    error: str | None

    @staticmethod
    def of(result) -> "Outcome":
        if isinstance(result, approx.RatioReport):
            return Outcome(result.cover.points, None, result.regime, result.claimed_factor, None)
        return Outcome(result.cover.points, result.optimal, None, None, None)

    @staticmethod
    def failed(exc: BaseException) -> "Outcome":
        return Outcome(None, None, None, None, type(exc).__name__)


def _text(g: Graph, name: str) -> str:
    return io.graph_to_text(g, comments=(name,))


def _from_nx(h: nx.Graph) -> Graph:
    h = nx.convert_node_labels_to_integers(h, ordering="sorted")
    return Graph(sorted(tuple(sorted(e)) for e in h.edges()), n=h.number_of_nodes())


def _cubic(n: int, rng: random.Random) -> Graph:
    while True:
        h = nx.random_regular_graph(3, n, seed=rng.randrange(2**32))
        if nx.is_connected(h):
            return _from_nx(h)


def _tree(n: int, rng: random.Random) -> Graph:
    return _from_nx(nx.random_labeled_tree(n, seed=rng.randrange(2**32)))


def _grid(rows: int, cols: int) -> Graph:
    return _from_nx(nx.grid_2d_graph(rows, cols))


def _atlas(seed: int, tiny: bool) -> list[Instance]:
    out = []
    for i, h in enumerate(graph_atlas_g()):
        if 2 <= h.number_of_nodes() <= 6 and nx.is_connected(h):
            out.append(Instance(f"atlas{i}", _text(_from_nx(h), f"atlas{i}")))
    if len(out) != 142:
        raise RuntimeError(f"expected 142 connected atlas graphs, found {len(out)}")
    return out[:12] if tiny else out


def _ladder(seed: int, tiny: bool) -> list[Instance]:
    rng = random.Random(f"ladder_approx:{seed}")
    # Rungs of about 42, 30 and 20 vertices, largest first, each with a grid,
    # two random cubic graphs and three random trees: 108 calls.  Several
    # small random graphs per rung, rather than one large one, keep a pass
    # short enough to repeat and the timings from hanging on one seed's
    # graphs.  The first grid at 5/2 has |U| = 539, past harmonic_number's
    # recursion limit in a fresh process.
    rungs = [[(f"{kind}{n}{tag}", make(n, rng))
              for kind, make, tags in (("cubic", _cubic, "ab"), ("tree", _tree, "abc"))
              for tag in tags] for n in (42, 30, 20)]
    for rung, (rows, cols) in zip(rungs, ((6, 7), (5, 6), (4, 5))):
        rung.insert(0, (f"grid{rows}x{cols}", _grid(rows, cols)))
    if tiny:
        rungs = [[("grid3x4", _grid(3, 4)), ("cubic8", _cubic(8, rng)), ("tree8", _tree(8, rng))]]
    return [Instance(name, _text(g, name)) for rung in rungs for name, g in rung]


def _matching(seed: int, tiny: bool) -> list[Instance]:
    rng = random.Random(f"matching_routes:{seed}")
    fams = [families.gen_triangles_center(3), families.gen_triangles_center(4),
            families.gen_triangles_paths(3, "per_vertex"),
            families.gen_triangles_paths(3, "per_triangle"),
            families.gen_triangles_paths(4, "per_triangle"),
            families.gen_star_subdivision(2, 3)]
    out = []
    for fam in fams:
        name = fam.family + "_" + "_".join(f"{k}{v}" for k, v in fam.params)
        out.append(Instance(name, _text(fam.graph, name), fam.known_values))
    plain = [("grid3x3", _grid(3, 3)), ("grid3x4", _grid(3, 4)), ("grid4x4", _grid(4, 4)),
             ("grid2x5", _grid(2, 5)), ("cubic8", _cubic(8, rng)), ("cubic10", _cubic(10, rng)),
             ("cubic12", _cubic(12, rng))]
    out += [Instance(name, _text(g, name)) for name, g in plain]
    return [out[0], out[6]] if tiny else out


def _atlas_calls(n: int, tiny: bool) -> list[Call]:
    deltas = ATLAS_DELTAS[:2] if tiny else ATLAS_DELTAS
    return [Call("min_cover_exact", i, d) for d in deltas for i in range(n)]


def _ladder_calls(n: int, tiny: bool) -> list[Call]:
    return [Call("approx_cover", i, d) for i in range(n) for d in LADDER_DELTAS]


def _matching_calls(n: int, tiny: bool) -> list[Call]:
    return [Call("unit_fraction_cover" if d == F(1, 2) else "approx_cover", i, d)
            for i in range(n) for d in MATCHING_DELTAS]


WORKLOADS = {
    "atlas_exact": (_atlas, _atlas_calls),
    "ladder_approx": (_ladder, _ladder_calls),
    "matching_routes": (_matching, _matching_calls),
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Instance]:
    return WORKLOADS[workload][0](seed, tiny)


def calls(workload: str, n_graphs: int, tiny: bool = False) -> list[Call]:
    return WORKLOADS[workload][1](n_graphs, tiny)


def parse(instances: list[Instance]) -> list[Graph]:
    return [io.parse_graph_text(inst.text, source=inst.name) for inst in instances]


def round_trips(instances: list[Instance], graphs: list[Graph]) -> bool:
    """Whether every parsed graph serializes back to its text byte for byte."""
    return all(_text(g, inst.name) == inst.text for inst, g in zip(instances, graphs))


def text_hash(instances: list[Instance]) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.text.encode())
    return h.hexdigest()


def check(call: Call, g: Graph, out: Outcome, unproven: bool,
          known: tuple[KnownValue, ...]) -> str | None:
    """Why a returned output is wrong, or None when it passes every check.

    ``unproven`` says whether a solve_exact sub-solve under the call ran out
    of budget; only fully proven results are held to known optima and to
    their claimed factors.  Every cover is held to known lower bounds.
    """
    if not is_delta_cover(g, Cover(out.points, call.delta), call.delta).is_cover:
        return "not_a_cover"
    size = len(out.points)
    proven = not unproven and (out.optimal if out.regime is None else out.regime == "exact")
    for kv in known:
        if kv.delta != call.delta:
            continue
        if kv.label == "optimal":
            if size < kv.size:
                return "below_known_optimum"
            if proven and size != kv.size:
                return "proven_optimum_mismatch"
            if not unproven and out.factor is not None and size > out.factor * kv.size:
                return "claimed_factor_violated"
        elif proven and size > kv.size:
            return "proven_optimum_above_construction"
    return None
