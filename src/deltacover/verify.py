"""Exact decision procedure for "is S a delta-cover?".

Coverage is decided per edge from nearest-point distances: one
multi-source search gives each vertex its distance to the nearest cover
point, and an edge is covered exactly when the reach through its two
endpoints and the intervals of the cover points inside it together make up
its [0, 1] coordinate.  All lengths are scaled to integers.  Closed-ball
semantics throughout, so touching intervals merge and exactly-tight
packings verify.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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


def _merge(intervals: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Union of closed intervals as sorted maximal pieces; touching ones merge."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def nearest_distances(g: Graph, s: Cover, delta: Fraction
                      ) -> tuple[int, int, dict[Edge, list[int]], list[int | None]]:
    """The scaled search of ``is_delta_cover``: scale, reach, offsets and D.

    ``scale`` is the lcm of the denominators of delta and of every offset,
    the length of an edge; ``reach`` is delta times ``scale``.  The dict
    lists, per edge (u, v) with u < v, the offsets from u of the points
    inside it, in ``scale`` units.  ``dist[w]`` is D(w), the distance from
    w to its nearest point of ``s``, or None when that exceeds ``reach``.
    Every point is checked with ``Graph.check_point``.  The search is
    proved in ``is_delta_cover``.
    """
    if delta <= ZERO:
        raise ValueError(f"delta must be positive, got {delta}")
    scale = delta.denominator
    for q in s.points:
        g.check_point(q)
        scale = lcm(scale, q.t.denominator)
    reach = delta.numerator * (scale // delta.denominator)
    on_edge: dict[Edge, list[int]] = {}
    seeds: list[tuple[int, int]] = []
    for q in s.points:
        u, v = q.u, q.v
        if u == v:
            seeds.append((0, u))
            continue
        a = q.t.numerator * (scale // q.t.denominator)
        on_edge.setdefault((u, v), []).append(a)
        if a <= reach:
            seeds.append((a, u))
        if scale - a <= reach:
            seeds.append((scale - a, v))
    queue = sorted(seeds)
    adj = g.adj
    dist: list[int | None] = [None] * g.n
    for d, w in queue:
        if dist[w] is not None:
            continue
        dist[w] = d
        nd = d + scale
        if nd <= reach:
            for x in adj[w]:
                if dist[x] is None:
                    queue.append((nd, x))
    return scale, reach, on_edge, dist


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
    the search stops at the radius.  The gaps of an edge lie between its
    merged, sorted pieces [lo1, hi1], ..., [lok, hik]: they are the pairs
    (0, lo1), (hi1, lo2), ..., (hik, 1) with lo < hi.  An isolated
    vertex w is reached only by a point at w, so it is covered iff
    D(w) <= delta.

    All lengths are multiplied by ``scale``, the lcm of the denominators
    of delta and of every offset, so an edge is ``scale`` long, the radius
    is ``reach`` and every quantity is an integer.  An endpoint's reach is
    ``reach - D``, or -1 when D exceeds the radius.  An edge with exactly
    one interior point, at a, is covered when ``ru >= a - reach`` and
    ``a + reach >= scale - rv``: its three pieces then touch or overlap
    in turn.  That test is sufficient, not necessary; an edge it does not
    settle has its pieces sorted and merged.

    The search is Dijkstra's with a first-in, first-out queue in place of
    a heap.  Every seed lies below ``scale``: a vertex point seeds 0, an
    interior point its offsets from the two ends.  Every edge is ``scale``
    long, so a vertex settled at d offers its neighbours d + scale, at
    least ``scale``.  The queue starts as the sorted seeds, and offers join
    at its end.  By induction the queue stays sorted: the offers come after
    every seed, and in the order of the distances they were made from.  So
    entries leave the queue in non-decreasing distance, and the first
    entry for a vertex carries its distance D, as in Dijkstra's algorithm.

    Cost: two passes over the points (check each and find ``scale``, then
    seed the search: a vertex point at 0, an interior point's endpoints
    when within the radius), then O(n + m + |S| log |S|) integer
    operations; no hop distance between vertices is computed, and a
    Fraction is built only for a reported gap and the witness.
    """
    if delta is None:
        delta = s.delta
    scale, reach, on_edge, dist = nearest_distances(g, s, delta)
    n, adj = g.n, g.adj
    witness: Point | None = None
    gaps: list[tuple[Edge, Interval]] = []
    for e in g.edges:
        u, v = e
        du, dv = dist[u], dist[v]
        ru = -1 if du is None else reach - du
        rv = -1 if dv is None else reach - dv
        if ru + rv >= scale:
            continue
        at = on_edge.get(e, ())
        if len(at) == 1:
            a = at[0]
            if ru >= a - reach and a + reach >= scale - rv:
                continue
        pieces = [(max(a - reach, 0), min(a + reach, scale)) for a in at]
        if ru >= 0:
            pieces.append((0, min(ru, scale)))
        if rv >= 0:
            pieces.append((max(scale - rv, 0), scale))
        ends = [0]
        for piece in _merge(pieces):
            ends.extend(piece)
        ends.append(scale)
        for lo, hi in zip(ends[::2], ends[1::2]):
            if lo < hi:
                gaps.append((e, (Fraction(lo, scale), Fraction(hi, scale))))
                if witness is None:
                    witness = Point.on_edge(u, v, Fraction(lo + hi, 2 * scale))
    for w in range(n):
        if not adj[w] and dist[w] is None:
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


def require_output(g: Graph, cover: Cover, what: str) -> None:
    """Check a cover the library built, at its own radius.

    Every public entry point checks its answer here once; a non-cover is a
    bug and raises InternalConsistencyError.
    """
    report = is_delta_cover(g, cover)
    if not report.is_cover:
        raise InternalConsistencyError(
            f"{what}: not a {cover.delta}-cover, uncovered near {report.witness}"
        )


def normalize_neat(g: Graph, s: Cover) -> Cover:
    """Replace multi-point edges by their endpoints (valid for s.delta >= 1/2).

    An edge is eligible when it carries an interior cover point and at
    least two cover points in all, counting its endpoints.  An eligible
    edge gets its interior points swapped for its two endpoints, until no
    edge is eligible; the result is never larger and remains a cover.

    The points are grouped by edge once.  Swapping only removes interior
    points and adds vertices, so an edge, once eligible, stays eligible
    until it is swapped, and the swapped edges are the least set closed
    under "eligible given the vertices so far": the result does not depend
    on the order edges are swapped in.  An edge with an interior point
    becomes eligible when one of its endpoints joins the cover, so each
    new vertex queues the edges at it; the work is O(|S| + n) set and
    dictionary operations.
    """
    if s.delta < Fraction(1, 2):
        raise ValueError(f"neat normalization requires delta >= 1/2, got {s.delta}")
    require_cover(g, s, "normalize_neat input")
    vertices: set[int] = set()
    inside: dict[Edge, list[Point]] = {}
    for p in s.points:
        if p.is_vertex:
            vertices.add(p.u)
        else:
            inside.setdefault((p.u, p.v), []).append(p)
    at: dict[int, list[Edge]] = {}
    for e in inside:
        for w in e:
            at.setdefault(w, []).append(e)
    todo = [e for e, ps in inside.items()
            if len(ps) >= 2 or e[0] in vertices or e[1] in vertices]
    while todo:
        e = todo.pop()
        if inside.pop(e, None) is None:
            continue
        for w in e:
            if w not in vertices:
                vertices.add(w)
                todo.extend(f for f in at[w] if f in inside)
    points = {Point.vertex(w) for w in vertices}
    points.update(p for ps in inside.values() for p in ps)
    out = Cover(frozenset(points), s.delta)
    require_output(g, out, "normalize_neat output")
    if len(out) > len(s):
        raise AssertionError("neat normalization must not grow the cover")
    return out
