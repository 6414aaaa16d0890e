"""Independent brute-force oracles for the test suite.

Each oracle reimplements the quantity it checks from first principles,
sharing no code path with the library: distances by BFS on a fine grid,
matchings by bitmask dynamic programming, set cover by subset enumeration,
coverage by random point probing, and coverage per edge by the reach of
every cover point separately.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations

from deltacover import Cover, Graph, Point, VerifyReport


def grid_distance(edges: list[tuple[int, int]], n: int,
                  p: tuple, q: tuple, scale: int) -> Fraction | None:
    """Distance between two points via BFS on a scale-refined grid.

    Points are (u,) for a vertex or (u, v, num) with offset num/scale from
    u; scale must clear both denominators.
    """
    node: dict[tuple, int] = {}

    def intern(key) -> int:
        if key not in node:
            node[key] = len(node)
        return node[key]

    adj: dict[int, list[int]] = {}

    def link(a, b):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    for u, v in edges:
        prev = intern(("v", u))
        for step in range(1, scale):
            cur = intern(("e", u, v, step))
            link(prev, cur)
            prev = cur
        link(prev, intern(("v", v)))
    for w in range(n):
        intern(("v", w))

    def locate(p) -> int:
        if len(p) == 1:
            return node[("v", p[0])]
        u, v, num = p
        if num == 0:
            return node[("v", u)]
        if num == scale:
            return node[("v", v)]
        if ("e", u, v, num) in node:
            return node[("e", u, v, num)]
        return node[("e", v, u, scale - num)]

    start, goal = locate(p), locate(q)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        a = queue.popleft()
        if a == goal:
            return Fraction(dist[a], scale)
        for b in adj.get(a, []):
            if b not in dist:
                dist[b] = dist[a] + 1
                queue.append(b)
    return None


def brute_max_matching(g: Graph) -> int:
    """Maximum matching size by DP over vertex subsets (n <= ~16)."""
    adj_mask = [0] * g.n
    for u, v in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        low = mask & -mask
        v = low.bit_length() - 1
        result = best(mask ^ low)
        partners = adj_mask[v] & mask
        while partners:
            pl = partners & -partners
            result = max(result, 1 + best(mask ^ low ^ pl))
            partners ^= pl
        memo[mask] = result
        return result

    return best((1 << g.n) - 1)


def brute_set_cover_size(masks: list[int], full: int, upper: int) -> int:
    """Smallest covering subset size by enumeration (use only when small)."""
    for size in range(1, upper):
        for combo in combinations(range(len(masks)), size):
            acc = 0
            for i in combo:
                acc |= masks[i]
            if acc == full:
                return size
    return upper


def sample_points(g: Graph, count: int, rng: random.Random,
                  denominator: int = 10**6) -> list[Point]:
    points = []
    for _ in range(count):
        u, v = g.edges[rng.randrange(g.m)]
        points.append(Point.on_edge(u, v, Fraction(rng.randrange(denominator + 1),
                                                   denominator)))
    return points


def covered_by_sampling(g: Graph, cover: Cover, delta: Fraction, p: Point) -> bool:
    from deltacover import point_distance

    best = None
    for q in cover.points:
        d = point_distance(g, p, q)
        if d is not None and (best is None or d < best):
            best = d
    return best is not None and best <= delta


def _hops_from(g: Graph, source: int) -> list[int | None]:
    hops: list[int | None] = [None] * g.n
    hops[source] = 0
    queue = deque([source])
    while queue:
        a = queue.popleft()
        for b in g.adj[a]:
            if hops[b] is None:
                hops[b] = hops[a] + 1
                queue.append(b)
    return hops


def interval_edge_coverage(g: Graph, e: tuple[int, int], cover: Cover,
                           delta: Fraction, hops=None) -> tuple:
    """Covered part of edge e as merged closed intervals, point by point.

    Every cover point q contributes [0, delta - d(q, u)] and
    [1 - (delta - d(q, v)), 1] when it reaches u or v, and [t - delta,
    t + delta] when it lies inside e; O(|S|) Fraction work per edge.
    """
    if hops is None:
        hops = [_hops_from(g, w) for w in range(g.n)]
    u, v = e

    def reach(q: Point, w: int) -> Fraction | None:
        anchors = [(q.u, Fraction(0))] if q.is_vertex else [(q.u, q.t), (q.v, 1 - q.t)]
        found = [da + hops[a][w] for a, da in anchors if hops[a][w] is not None]
        return min(found, default=None)

    pieces = []
    for q in cover.points:
        du, dv = reach(q, u), reach(q, v)
        if du is not None and du <= delta:
            pieces.append((Fraction(0), min(delta - du, Fraction(1))))
        if dv is not None and dv <= delta:
            pieces.append((max(1 - (delta - dv), Fraction(0)), Fraction(1)))
        if not q.is_vertex and (q.u, q.v) == (u, v):
            pieces.append((max(q.t - delta, Fraction(0)), min(q.t + delta, Fraction(1))))
    merged = []
    for lo, hi in sorted(pieces):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def interval_verify(g: Graph, cover: Cover, delta: Fraction) -> VerifyReport:
    """The report of ``is_delta_cover``, from per-point intervals.

    Gaps are the maximal uncovered stretches of each edge in canonical edge
    order, then ((w, w), (0, 0)) for each uncovered isolated vertex w; the
    witness is the midpoint of the first gap.
    """
    hops = [_hops_from(g, w) for w in range(g.n)]
    gaps = []
    for e in g.edges:
        # Gaps lie between consecutive pieces: (0, lo1), (hi1, lo2), ..., (hik, 1).
        ends = [Fraction(0)]
        for piece in interval_edge_coverage(g, e, cover, delta, hops):
            ends.extend(piece)
        ends.append(Fraction(1))
        gaps.extend((e, (lo, hi)) for lo, hi in zip(ends[::2], ends[1::2]) if lo < hi)
    for w in range(g.n):
        if not g.adj[w] and Point.vertex(w) not in cover.points:
            gaps.append(((w, w), (Fraction(0), Fraction(0))))
    witness = None
    if gaps:
        (u, v), (lo, hi) = gaps[0]
        witness = Point.vertex(u) if u == v else Point.on_edge(u, v, (lo + hi) / 2)
    return VerifyReport(not gaps, witness, tuple(gaps))
