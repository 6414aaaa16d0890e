"""Exact decision procedure for "is S a delta-cover?".

Coverage is decided per edge from nearest-point distances: one
multi-source Dijkstra gives each vertex its distance to the nearest cover
point, and an edge is covered exactly when the reach through its two
endpoints and the intervals of the cover points inside it together make up
its [0, 1] coordinate.  All lengths are scaled to integers.  Closed-ball
semantics throughout, so touching intervals merge and exactly-tight
packings verify.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

from .graphs import Cover, Edge, Graph, ONE, Point, ZERO

Interval = tuple[Fraction, Fraction]


class InvalidCoverError(ValueError):
    """Raised when a cover supplied by the caller is no delta-cover."""

    def __init__(self, message: str, witness: Point | None = None):
        super().__init__(message)
        self.witness = witness


class InternalConsistencyError(RuntimeError):
    """The library produced something its own verifier rejects: a bug."""


@dataclass(frozen=True)
class IntervalSet:
    """Sorted, disjoint closed intervals within [0, 1] of one edge."""

    edge: Edge
    intervals: tuple[Interval, ...]

    def gaps(self) -> list[Interval]:
        """Maximal uncovered stretches, as (lo, hi) pairs."""
        out: list[Interval] = []
        prev = ZERO
        first = True
        for lo, hi in self.intervals:
            if first and lo > ZERO:
                out.append((ZERO, lo))
            elif not first and lo > prev:
                out.append((prev, lo))
            prev = hi
            first = False
        if first:
            out.append((ZERO, ONE))
        elif prev < ONE:
            out.append((prev, ONE))
        return out


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


class _Nearest:
    """Integer-scaled distances from every vertex to its nearest cover point.

    Lengths are multiplied by ``scale`` = lcm of the denominators of delta
    and of every offset, so an edge is ``scale`` long, the radius is
    ``reach = delta * scale`` and every quantity below is an integer.
    ``dist[w]`` is the scaled distance from vertex ``w`` to the nearest
    point of the cover, or None when that exceeds ``reach`` (such a vertex
    brings no coverage into its edges).  ``on_edge`` lists the scaled
    offsets of the interior cover points of each edge.
    """

    __slots__ = ("scale", "reach", "dist", "on_edge")

    def __init__(self, g: Graph, s: Cover, delta: Fraction):
        if delta <= ZERO:
            raise ValueError(f"delta must be positive, got {delta}")
        for q in s.points:
            g.check_point(q)
        scale = lcm(delta.denominator, *(q.t.denominator for q in s.points))
        reach = delta.numerator * (scale // delta.denominator)
        on_edge: dict[Edge, list[int]] = {}
        heap: list[tuple[int, int]] = []
        for q in s.points:
            if q.is_vertex:
                heap.append((0, q.u))
                continue
            a = q.t.numerator * (scale // q.t.denominator)
            on_edge.setdefault((q.u, q.v), []).append(a)
            heap.append((a, q.u))
            heap.append((scale - a, q.v))
        heapify(heap)
        dist: list[int | None] = [None] * g.n
        while heap:
            d, w = heappop(heap)
            if d > reach:
                break
            if dist[w] is not None:
                continue
            dist[w] = d
            nd = d + scale
            if nd <= reach:
                for x in g.adj[w]:
                    if dist[x] is None:
                        heappush(heap, (nd, x))
        self.scale = scale
        self.reach = reach
        self.dist = dist
        self.on_edge = on_edge

    def edge_pieces(self, u: int, v: int) -> list[tuple[int, int]] | None:
        """Covered part of edge (u, v), u < v, as merged scaled intervals.

        Returns None when the whole edge is covered; when the reach through
        the endpoints alone spans it, nothing is sorted.
        """
        scale, reach = self.scale, self.reach
        du, dv = self.dist[u], self.dist[v]
        ru = -1 if du is None else reach - du
        rv = -1 if dv is None else reach - dv
        if ru + rv >= scale:
            return None
        pieces = [(max(a - reach, 0), min(a + reach, scale))
                  for a in self.on_edge.get((u, v), ())]
        if ru >= 0:
            pieces.append((0, min(ru, scale)))
        if rv >= 0:
            pieces.append((max(scale - rv, 0), scale))
        merged = _merge(pieces)
        return None if merged == [(0, scale)] else merged

    def as_intervals(self, pieces: list[tuple[int, int]] | None) -> tuple[Interval, ...]:
        if pieces is None:
            return ((ZERO, ONE),)
        scale = self.scale
        return tuple((Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in pieces)


def edge_coverage_intervals(g: Graph, e: Edge, s: Cover, delta: Fraction) -> IntervalSet:
    """The subset of edge ``e`` within ``delta`` of some point of ``s``."""
    u, v = e if e[0] < e[1] else (e[1], e[0])
    if (u, v) not in g.edge_index:
        raise InvalidCoverError(f"edge ({u}, {v}) not in graph")
    near = _Nearest(g, s, delta)
    return IntervalSet((u, v), near.as_intervals(near.edge_pieces(u, v)))


def is_delta_cover(g: Graph, s: Cover, delta: Fraction | None = None) -> VerifyReport:
    """Decide exactly whether ``s`` covers every point of the graph.

    The witness, when coverage fails, is the midpoint of the first maximal
    uncovered gap in canonical edge order (deterministic output).

    Method: one multi-source Dijkstra from the cover points gives, for each
    vertex w, the distance D(w) to the nearest cover point (see
    ``_Nearest``).  Write x in [0, 1] for the point at offset x on edge
    uv.  Then x is covered iff

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
    the search stops at the radius.  An isolated
    vertex w is reached only by a point at w, so it is covered iff
    D(w) <= delta.

    Cost: O((n + m) log n + |S| log |S|) integer operations; no hop
    distance between vertices is computed.
    """
    if delta is None:
        delta = s.delta
    near = _Nearest(g, s, delta)
    witness: Point | None = None
    gap_records: list[tuple[Edge, Interval]] = []
    for e in g.edges:
        pieces = near.edge_pieces(*e)
        if pieces is None:
            continue
        for gap in IntervalSet(e, near.as_intervals(pieces)).gaps():
            gap_records.append((e, gap))
            if witness is None:
                mid = (gap[0] + gap[1]) / 2
                witness = Point.on_edge(e[0], e[1], mid)
    for w in range(g.n):
        if g.degree(w) == 0 and near.dist[w] is None:
            gap_records.append(((w, w), (ZERO, ZERO)))
            if witness is None:
                witness = Point.vertex(w)
    return VerifyReport(witness is None, witness, tuple(gap_records))


def require_cover(g: Graph, s: Cover, delta: Fraction, what: str) -> None:
    """Check a cover the caller supplied; InvalidCoverError if it is none."""
    report = is_delta_cover(g, s, delta)
    if not report.is_cover:
        raise InvalidCoverError(
            f"{what}: not a {delta}-cover, uncovered near {report.witness}",
            witness=report.witness,
        )


def require_output(g: Graph, cover: Cover, what: str) -> None:
    """Check a cover the library built, at its own radius.

    Every public entry point checks its answer here once; a non-cover is a
    bug and raises InternalConsistencyError.
    """
    report = is_delta_cover(g, cover, cover.delta)
    if not report.is_cover:
        raise InternalConsistencyError(
            f"{what}: not a {cover.delta}-cover, uncovered near {report.witness}"
        )


def discretized_universe(g: Graph, b: int) -> list[Point]:
    """The finite verification grid: every edge sampled at steps of 1/(4b).

    Any cover whose points sit on the half-grid (steps of 1/(2b)) covers the
    whole graph if and only if it covers these points, so they form the
    universe of the finite set-cover formulation.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    return grid_points(g, 4 * b)


def grid_points(g: Graph, step: int) -> list[Point]:
    """Every vertex and every edge point at offsets k/step, in sorted order.

    Points sort by (u, v, t): vertex u first, then the interior points of
    each edge (u, v) with v > u, by offset.
    """
    offsets = [Fraction(k, step) for k in range(1, step)]
    points: list[Point] = []
    for u in range(g.n):
        points.append(Point.vertex(u))
        for v in g.adj[u]:
            if v > u:
                points.extend(Point(u, v, t) for t in offsets)
    return points


class GridPoints(Sequence[Point]):
    """``grid_points(g, step)`` as a sequence that builds a point only when read.

    The points fall in blocks: vertex u (one point), then the step - 1
    interior points of each edge (u, v), v > u.  ``starts`` holds the index
    of each block's first point, ascending, and ``blocks`` its (u, v), with
    u == v for a vertex; an index finds its block by bisection.
    """

    __slots__ = ("step", "starts", "blocks", "_len")

    def __init__(self, g: Graph, step: int):
        self.step = step
        self.starts: list[int] = []
        self.blocks: list[Edge] = []
        index = 0
        for u in range(g.n):
            self.starts.append(index)
            self.blocks.append((u, u))
            index += 1
            for v in g.adj[u]:
                if v > u:
                    self.starts.append(index)
                    self.blocks.append((u, v))
                    index += step - 1
        self._len = index

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> Point:
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(f"grid index {i} out of range")
        k = bisect_right(self.starts, i) - 1
        u, v = self.blocks[k]
        if u == v:
            return Point(u, u, ZERO)
        return Point(u, v, Fraction(i - self.starts[k] + 1, self.step))


def normalize_neat(g: Graph, s: Cover, delta: Fraction | None = None) -> Cover:
    """Replace multi-point edges by their endpoints (valid for delta >= 1/2).

    Any edge carrying two or more cover points other than exactly its two
    endpoints gets those points swapped for the endpoints; the result is
    never larger and remains a cover.
    """
    if delta is None:
        delta = s.delta
    if delta < Fraction(1, 2):
        raise ValueError(f"neat normalization requires delta >= 1/2, got {delta}")
    require_cover(g, s, delta, "normalize_neat input")
    points = set(s.points)
    changed = True
    while changed:
        changed = False
        for u, v in g.edges:
            on_edge = {p for p in points if not p.is_vertex and p.edge() == (u, v)}
            endpoints = {p for p in (Point.vertex(u), Point.vertex(v)) if p in points}
            if len(on_edge) + len(endpoints) >= 2 and on_edge:
                points -= on_edge
                points.add(Point.vertex(u))
                points.add(Point.vertex(v))
                changed = True
    out = Cover(frozenset(points), delta)
    require_output(g, out, "normalize_neat output")
    if len(out) > len(s):
        raise AssertionError("neat normalization must not grow the cover")
    return out
