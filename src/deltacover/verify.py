"""Exact decision procedure for "is S a delta-cover?".

Coverage is decided per edge from nearest-point distances: one
multi-source search gives each vertex its distance to the nearest cover
point, and an edge is covered exactly when the reach through its two
endpoints and the intervals of the cover points inside it together make up
its [0, 1] coordinate; one sweep over each edge's sorted offsets decides
it and finds its gaps.  All lengths are scaled to integers.  Closed-ball
semantics throughout, so touching pieces leave no gap and exactly-tight
packings verify.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from . import graphs
from .graphs import Cover, Edge, Graph, Point, ZERO

Interval = tuple[Fraction, Fraction]


class InvalidCoverError(ValueError):
    """Raised when a cover supplied by the caller is no delta-cover."""

    def __init__(self, message: str, witness: Point | None = None):
        super().__init__(message)
        self.witness = witness


class InternalConsistencyError(RuntimeError):
    """The library produced something its own verifier rejects: a bug."""


@dataclass(frozen=True)
class VerifyReport:
    is_cover: bool
    witness: Point | None
    per_edge_gaps: tuple[tuple[Edge, Interval], ...]


def _check_points(g: Graph, s: Cover) -> None:
    """Raise InvalidPointError for the first point of ``s`` not on g."""
    for q in s.points:
        g.check_point(q)


def nearest_distances(g: Graph, s: Cover, delta: Fraction
                      ) -> tuple[int, int, dict[Edge, list[int]], list[int]]:
    """The scaled search of ``is_delta_cover``: scale, reach, offsets and reaches.

    ``scale`` is the lcm of the denominators of delta and of every offset,
    the length of an edge; ``reach`` is delta times ``scale``.  The dict
    lists, per edge (u, v) with u < v, the offsets from u of the points
    inside it, in ``scale`` units.  ``left[w]`` is reach - D(w), where D(w)
    is the distance from w to its nearest point of ``s``, or -1 when D(w)
    exceeds ``reach``.  A point on no edge of g, or a vertex outside
    [0, n), raises InvalidPointError from ``Graph.check_point``; the
    edges are checked once each, as one comparison of key sets.  The
    search is proved in ``is_delta_cover``.
    """
    if delta.numerator <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    n = g.n
    seeds: list[tuple[int, int]] = []
    inner: list[tuple[int, int, int, int]] = []
    for q in s.points:
        u, v, t = q
        if u == v:
            if not 0 <= u < n:
                _check_points(g, s)
            seeds.append((0, u))
        else:
            try:  # the slot read of Point.__hash__
                inner.append((u, v, t._numerator, t._denominator))
            except AttributeError:
                inner.append((u, v, *t.as_integer_ratio()))
    scale = lcm(delta.denominator, *{den for _, _, _, den in inner})
    reach = delta.numerator * (scale // delta.denominator)
    far = scale - reach
    on_edge: dict[Edge, list[int]] = {}
    for u, v, num, den in inner:
        a = num * (scale // den)
        on_edge.setdefault((u, v), []).append(a)
        if a <= reach:
            seeds.append((a, u))
        if a >= far:
            seeds.append((scale - a, v))
    if not on_edge.keys() <= g.edge_index.keys():
        _check_points(g, s)
    queue = sorted(seeds)
    adj = g.adj
    left = [-1] * n
    for d, w in queue:
        if left[w] < 0:
            left[w] = reach - d
            d += scale
            if d <= reach:
                for x in adj[w]:
                    if left[x] < 0:
                        queue.append((d, x))
    return scale, reach, on_edge, left


def is_delta_cover(g: Graph, s: Cover, delta: Fraction | None = None) -> VerifyReport:
    """Decide exactly whether ``s`` covers every point of the graph at ``s.delta``.

    ``delta``, when given, overrides the cover's own radius; the library
    never passes it.  ``per_edge_gaps`` lists the maximal uncovered
    stretches (lo, hi) of each edge in canonical edge order, then
    ((w, w), (0, 0)) for each uncovered isolated vertex w.  The witness,
    when coverage fails, is the midpoint of the first gap (deterministic
    output).  A point on no edge of g, or a vertex outside [0, n), raises
    InvalidPointError from ``Graph.check_point``.

    Method: one multi-source search from the cover points gives, for each
    vertex w, the distance D(w) to the nearest cover point.  Write x in
    [0, 1] for the point at offset x on edge uv.  Then x is covered iff

        x <= delta - D(u),  or  1 - x <= delta - D(v),  or
        |x - a| <= delta for the offset a of a cover point inside uv.

    Proof.  A shortest path from a cover point q to x either stays inside
    uv, which needs q inside uv and has length |x - a|, or enters uv through
    u or v, with length d(q, u) + x or d(q, v) + 1 - x.  A point not inside
    uv has only the last two routes; the minimum of d(q, u) over all q,
    including points inside uv (whose routes through u and v are among the
    anchors that seed the search), is D(u), and likewise for v.  So the
    covered part of uv is the union of the closed pieces
    [0, delta - D(u)], [1 - (delta - D(v)), 1] and [a - delta, a + delta],
    and the edge is covered iff they cover [0, 1].  When the endpoint
    reaches delta - D(u) and delta - D(v) sum to at least 1, their two
    pieces cover the edge (if one reach is negative, the other exceeds 1).
    A vertex farther than delta from every cover point adds no piece, so
    the search stops at the radius.  An isolated vertex w is reached only
    by a point at w, so it is covered iff D(w) <= delta.

    The gaps of an edge are the maximal open stretches of (0, 1) outside
    every piece, and one sweep over the pieces in order of their left ends
    finds them, as for any union of intervals: it keeps f, the furthest
    right end so far, and a piece that starts after f leaves the gap
    (f, its left end).  Every piece ends at or after its left end, so the
    gaps come out from left to right.  The order is u's piece, then the
    point pieces by offset, then v's piece: a point at a is a from u and
    1 - a from v, so D(u) <= a and D(v) <= 1 - a, and its left end
    a - delta lies between those of u's and v's pieces.  An endpoint out
    of reach has no piece; the sweep starts at f = 0 and ends at 1 as if
    it had an empty one there, which changes no open gap.  So f starts as
    max(delta - D(u), 0), and the last gap is (f, 1 - (delta - D(v))), or
    (f, 1) when v is out of reach, if f is below it.  Touching pieces
    leave no gap, so exactly-tight packings verify.

    All lengths are multiplied by ``scale``, the lcm of the denominators
    of delta and of every offset, so an edge is ``scale`` long, the radius
    is ``reach`` and every quantity is an integer.  An endpoint's reach is
    ``reach - D``, or -1 when D exceeds the radius, as the search returns
    it.

    The search is Dijkstra's with a first-in, first-out queue in place of
    a heap.  Every seed lies below ``scale``: a vertex point seeds 0, an
    interior point its offsets from the two ends.  Every edge is ``scale``
    long, so a vertex settled at d offers its neighbours d + scale, at
    least ``scale``.  The queue starts as the sorted seeds, and offers join
    at its end.  By induction the queue stays sorted: the offers come after
    every seed, and in the order of the distances they were made from.  So
    entries leave the queue in non-decreasing distance, and the first
    entry for a vertex carries its distance D, as in Dijkstra's algorithm.

    Cost: one pass over the points, with a range check per vertex point
    and, per interior point, a read of its offset's numerator and
    denominator from the ``Fraction``'s slots (see ``Point``), with no
    Python-level call; ``scale`` from the distinct denominators; one pass
    over the interior points, which groups their offsets by edge and seeds
    their endpoints within the radius; one check that every such edge is
    in g; the search in O(n + m + |S| log |S|) integer operations; one
    pass over the edges that drops those covered through their two ends;
    and one sweep per edge left, over its offsets, sorted when it has two
    or more.  No hop distance between vertices is computed, and a Fraction
    is built only for a reported gap and the witness.
    """
    if delta is None:
        delta = s.delta
    scale, reach, on_edge, left = nearest_distances(g, s, delta)
    witness: Point | None = None
    gaps: list[tuple[Edge, Interval]] = []
    for e in g.edges:
        ru, rv = left[e[0]], left[e[1]]
        if ru + rv >= scale:
            continue
        f = ru if ru > 0 else 0
        end = scale - rv if rv > 0 else scale
        at = on_edge.get(e, ())
        if len(at) > 1:
            at.sort()
        for a in at:
            lo = a - reach
            if lo > f:
                gaps.append((e, (Fraction(f, scale), Fraction(lo, scale))))
            if a + reach > f:
                f = a + reach
        if f < end:
            gaps.append((e, (Fraction(f, scale), Fraction(end, scale))))
    if gaps:
        (u, v), (lo, hi) = gaps[0]
        witness = Point.on_edge(u, v, (lo + hi) / 2)
    adj = g.adj
    if not all(adj):  # isolated vertices
        for w in range(g.n):
            if not adj[w] and left[w] < 0:
                gaps.append(((w, w), (ZERO, ZERO)))
                if witness is None:
                    witness = Point.vertex(w)
    return VerifyReport(witness is None, witness, tuple(gaps))


def require_cover(g: Graph, s: Cover, what: str) -> None:
    """Check a cover the caller supplied, at its own radius.

    InvalidCoverError, carrying the witness, if it is no cover.
    """
    report = is_delta_cover(g, s)
    if not report.is_cover:
        raise InvalidCoverError(
            f"{what}: not a {s.delta}-cover, uncovered near {report.witness}",
            witness=report.witness,
        )


class ProofInfo(NamedTuple):
    hits: int
    misses: int
    currsize: int


def _proof_memo(check):
    """Memoize ``check(g, cover, what)``, which raises unless the cover is
    one, on the proofs it makes; ``require_output`` documents the memo."""
    proved: dict[tuple[Graph, frozenset[Point]], Fraction] = {}
    cells = hits = misses = 0

    def memoized(g: Graph, cover: Cover, what: str) -> None:
        nonlocal cells, hits, misses
        key = (g, cover.points)
        radius = proved.get(key)
        if radius is not None:
            delta = cover.delta
            try:  # radius <= delta in integers, by the slot read of Point.__hash__
                hit = (radius._numerator * delta._denominator
                       <= delta._numerator * radius._denominator)
            except AttributeError:
                hit = radius <= delta
            if hit:
                hits += 1
                return
        misses += 1
        check(g, cover, what)
        if radius is None:
            cost = g.n + g.m + len(cover.points)
            if cells + cost > graphs.MEMO_CELLS:
                proved.clear()
                cells = 0
            cells += cost
        proved[key] = cover.delta

    def cache_clear() -> None:
        nonlocal cells, hits, misses
        proved.clear()
        cells = hits = misses = 0

    def cache_info() -> ProofInfo:
        return ProofInfo(hits, misses, len(proved))

    memoized.cache_clear = cache_clear
    memoized.cache_info = cache_info
    return functools.update_wrapper(memoized, check)


@_proof_memo
def require_output(g: Graph, cover: Cover, what: str) -> None:
    """Check a cover the library built, at its own radius.

    Every public entry point checks its answer here once; a non-cover is a
    bug and raises InternalConsistencyError.  ``is_delta_cover`` and
    ``require_cover`` keep no memo, but this check does: it maps
    (g, cover.points) to the smallest radius at which the search accepted
    exactly those points on exactly that graph.  A call whose radius is at
    least the stored one returns at once; the two radii are compared as
    one integer cross-product of the ``Fraction`` slots (see ``Point``),
    with ``<=`` for a radius that has none, an int.  Any other call
    searches, and when the search accepts, the memo keeps the smaller of
    the stored radius and the call's.  A call that raises records nothing.  So a
    radius sweep that reuses one cover searches it once.

    A hit is a proof.  The key compares by value: ``Graph`` equality reads
    (n, edges), and a graph never changes; a ``Point`` is an immutable
    (u, v, t) tuple, and a frozenset of points equals only a set of equal
    tuples.  So a hit asks about exactly the graph and points that the
    search accepted at the stored radius r, at a radius delta >= r.  The
    library builds its points in canonical form, a vertex or 0 < t < 1 on
    an edge (u, v) of g with u < v, so equal tuples are equal locations,
    and the search decides their coverage exactly.  A closed ball of
    radius delta contains the ball of radius r about the same point, so
    points that cover g at r cover it at delta, and the search would
    accept them again.

    The memo is bounded like a ``graphs.graph_memo``: each entry costs
    g.n + g.m + |S| cells against ``graphs.MEMO_CELLS``, and the memo is
    emptied when a new entry would take it past the bound.  It holds its
    graphs and point sets, which the route memos often hold as well.
    Measured with ``tracemalloc``, what the memo alone keeps alive at the
    bound is 6.3 MB for six 3,200-vertex random cubic graphs with their
    1-covers, and 8.3 MB for 16,384 one-point covers of a single edge,
    where the dict and its keys dominate.  A route that reads a matching
    memo returns the same frozenset at every radius, so a hit costs one
    tuple, the graph's cached hash, the set's cached hash and one dict
    lookup.  ``require_output.cache_clear()`` empties the memo and its
    counts, as ``perfbench`` does before every pass and the tests before
    every test, and ``require_output.cache_info()`` gives the hits, the
    misses (searches) and the entries since then.
    """
    report = is_delta_cover(g, cover)
    if not report.is_cover:
        raise InternalConsistencyError(
            f"{what}: not a {cover.delta}-cover, uncovered near {report.witness}"
        )
