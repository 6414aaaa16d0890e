"""Independent brute-force oracles for the test suite.

Each oracle reimplements the quantity it checks from first principles,
sharing no code path with the library: distances by BFS on a fine grid,
matchings and the Gallai-Edmonds split by bitmask dynamic programming, set
cover by subset enumeration, coverage by random point probing, coverage
per edge by the reach of every cover point separately, set-cover masks by
one distance per candidate and universe point (over the cell midpoints and
over the 1/(4b) grid the library used before them), leaf levels and forests
by BFS, the vertex paths of a subdivision by walking it, and the moves of
a point into a subdivision and back along those paths in Fractions.
Others keep a library routine as it was before it moved to integer
arithmetic (tree climb, point distance, small-delta even points,
``approx_cover``'s regime chain and its factors), the unit-fraction route
as it was before it translated g's own 1-cover or 1/2-cover down (a
subdivided ``Graph``, then a pull-back of its 1-cover), and the root core
of set cover by its subset definition.
"""

from __future__ import annotations

import math
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


def _brute_nu(g: Graph):
    """nu(mask): maximum matching size of the subgraph induced on a vertex mask."""
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

    return best


def brute_max_matching(g: Graph) -> int:
    """Maximum matching size by DP over vertex subsets (n <= ~16)."""
    return _brute_nu(g)((1 << g.n) - 1)


def gallai_edmonds_by_definition(g: Graph) -> tuple:
    """(D, A, C, components of D ordered by least vertex), by the definition.

    D is the set of vertices some maximum matching misses, A = N(D) - D and
    C the rest; checks that every D-component on 3 or more vertices is
    factor-critical and that C has a perfect matching.
    """
    nu = _brute_nu(g)
    full = (1 << g.n) - 1
    top = nu(full)
    D = {v for v in range(g.n) if nu(full ^ (1 << v)) == top}
    A = {w for v in D for w in g.adj[v]} - D
    C = set(range(g.n)) - D - A
    comps = []
    left = set(D)
    for s in sorted(D):
        if s not in left:
            continue
        left.discard(s)
        comp, queue = {s}, deque([s])
        while queue:
            for w in g.adj[queue.popleft()]:
                if w in left:
                    left.discard(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    for comp in comps:
        mask = sum(1 << v for v in comp)
        for v in comp:
            assert nu(mask ^ (1 << v)) == (len(comp) - 1) // 2, f"{sorted(comp)} not factor-critical"
    assert 2 * nu(sum(1 << v for v in C)) == len(C), "C lacks a perfect matching"
    return frozenset(D), frozenset(A), frozenset(C), tuple(comps)


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


def greedy_picks_by_scan(masks: list[int], size: int) -> list[int]:
    """The greedy's picks, one candidate at a time in a Python loop.

    Each pick rescans every candidate for its gain against the covered
    elements and keeps the first with the largest; this is how
    ``solve_greedy`` made its picks before it scanned with ``map``.
    """
    full = (1 << size) - 1
    covered = 0
    chosen: list[int] = []
    while covered != full:
        best, best_gain = -1, 0
        for i, m in enumerate(masks):
            gain = (m & ~covered).bit_count()
            if gain > best_gain:
                best, best_gain = i, gain
        if best < 0:
            raise ValueError("no candidate covers an uncovered element")
        chosen.append(best)
        covered |= masks[best]
    return chosen


def grid(g: Graph, step: int) -> tuple[Point, ...]:
    """Every vertex and every edge point at offsets k/step, in sorted point order."""
    points = [Point.vertex(w) for w in range(g.n)]
    points += [Point(u, v, Fraction(k, step)) for u, v in g.edges for k in range(1, step)]
    return tuple(sorted(points))


def cell_midpoints(g: Graph, cells: int) -> tuple[Point, ...]:
    """Every isolated vertex and the midpoints (2j + 1)/(2 cells) of the
    ``cells`` equal cells of every edge, in sorted point order."""
    points = [Point.vertex(w) for w in range(g.n) if not g.adj[w]]
    points += [Point(u, v, Fraction(2 * j + 1, 2 * cells)) for u, v in g.edges
               for j in range(cells)]
    return tuple(sorted(points))


def _masks_by_distance(g: Graph, delta: Fraction, universe: tuple, candidates: tuple) -> tuple:
    """Bit j of mask i is set when ``point_distance`` puts universe point j
    within delta of candidate i.  O(|C| |U|) Fraction distances."""
    from deltacover import point_distance

    masks = []
    for c in candidates:
        mask = 0
        for j, p in enumerate(universe):
            d = point_distance(g, c, p)
            if d is not None and d <= delta:
                mask |= 1 << j
        masks.append(mask)
    return tuple(masks)


def coverage_by_distance(g: Graph, delta: Fraction) -> tuple[tuple, tuple, tuple]:
    """(universe, candidates, masks) of the discretized set cover, pair by pair.

    The universe is ``cell_midpoints(g, 2b)``, the candidates
    ``grid(g, 2b)``, and the masks come from one distance per pair.
    """
    b = delta.denominator
    universe, candidates = cell_midpoints(g, 2 * b), grid(g, 2 * b)
    return universe, candidates, _masks_by_distance(g, delta, universe, candidates)


def quarter_grid_coverage_by_distance(g: Graph, delta: Fraction) -> tuple[tuple, tuple, tuple]:
    """``coverage_by_distance`` over the 1/(4b) grid, every vertex included.

    The universe the library used before it kept only the cell midpoints:
    a 1/(2b)-grid cover covers the graph iff it covers this grid, since the
    grid holds every cell's ends and midpoint.
    """
    b = delta.denominator
    universe, candidates = grid(g, 4 * b), grid(g, 2 * b)
    return universe, candidates, _masks_by_distance(g, delta, universe, candidates)


def leaf_levels_by_distance(g: Graph) -> tuple[frozenset, frozenset, frozenset]:
    """(L0, L1, L2): the leaves, and the vertices at hop distance 1 or 2 from one."""
    leaves = [w for w in range(g.n) if len(g.adj[w]) == 1]
    hops = [hops_from(g, u) for u in leaves]
    return (frozenset(leaves),
            frozenset(v for v in range(g.n) if any(h[v] == 1 for h in hops)),
            frozenset(v for v in range(g.n) if any(h[v] == 2 for h in hops)))


def is_forest_by_components(g: Graph) -> bool:
    """Each component, found by BFS, has exactly one edge fewer than vertices."""
    comp: list[int | None] = [None] * g.n
    sizes: list[int] = []
    for s in range(g.n):
        if comp[s] is None:
            comp[s] = len(sizes)
            queue = [s]
            for u in queue:
                for w in g.adj[u]:
                    if comp[w] is None:
                        comp[w] = len(sizes)
                        queue.append(w)
            sizes.append(len(queue))
    within = [0] * len(sizes)
    for u, _ in g.edges:
        within[comp[u]] += 1
    return all(m == size - 1 for m, size in zip(within, sizes))


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


def hops_from(g: Graph, source: int) -> list[int | None]:
    """Hop distances from ``source`` by BFS; None in other components."""
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
        hops = [hops_from(g, w) for w in range(g.n)]
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
    hops = [hops_from(g, w) for w in range(g.n)]
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


def tree_cover_by_fractions(g: Graph, delta: Fraction) -> frozenset[Point]:
    """The greedy bottom-up tree cover, climbing in Fraction arithmetic.

    The library's ``tree_cover`` before it climbed on integers scaled by
    delta's denominator: per component rooted at its least vertex, each
    vertex holds ``need`` (distance to the farthest uncovered point below
    it) and ``reach`` (leftover radius from placed points); a point goes
    down the moment the need would reach delta, on the vertex when that
    happens exactly there.  Isolated vertices get a point each.
    """
    zero, one = Fraction(0), Fraction(1)
    placed: set[Point] = set()
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        parent = {root: -1}
        order = [root]
        for u in order:
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    order.append(w)
        if len(order) == 1:
            placed.add(Point.vertex(root))
            continue
        state: dict[int, tuple] = {}

        def climb(child, top, need, reach):
            pos = zero
            while True:
                remaining = one - pos
                if need is not None:
                    trigger = delta - need
                elif reach is not None and reach < remaining:
                    trigger = reach + delta
                else:
                    trigger = None
                if trigger is not None and trigger <= remaining:
                    if pos + trigger == one:
                        return delta, None
                    pos += trigger
                    placed.add(Point.on_edge(child, top, pos))
                    need, reach = None, delta
                    continue
                if need is not None:
                    need = need + remaining
                elif reach is not None and reach < remaining:
                    need = remaining - reach
                reach = reach - remaining if reach is not None and reach >= remaining else None
                return need, reach

        for v in reversed(order):
            need = reach = None
            for c in g.adj[v]:
                if parent.get(c) != v:
                    continue
                cn, cr = climb(c, v, *state[c])
                if cn is not None and (need is None or cn > need):
                    need = cn
                if cr is not None and (reach is None or cr > reach):
                    reach = cr
            if reach is None and (need is None or need < zero):
                need = zero
            if need is not None and reach is not None and need <= reach:
                need = None
            if need == delta:
                placed.add(Point.vertex(v))
                need, reach = None, delta
            state[v] = (need, reach)
        if state[root][0] is not None:
            placed.add(Point.vertex(root))
    return frozenset(placed)


def point_distance_by_fractions(g: Graph, p: Point, q: Point) -> Fraction | None:
    """``point_distance`` summed in Fraction arithmetic, as the library did.

    The minimum over the four anchor routes (hop counts by BFS) and, for
    two points inside the same edge, the direct along-edge distance.
    """
    def anchors(r: Point) -> list[tuple[int, Fraction]]:
        return [(r.u, Fraction(0))] if r.is_vertex else [(r.u, r.t), (r.v, 1 - r.t)]

    best: Fraction | None = None
    if not p.is_vertex and not q.is_vertex and (p.u, p.v) == (q.u, q.v):
        best = abs(p.t - q.t)
    for a, da in anchors(p):
        row = hops_from(g, a)
        for b, db in anchors(q):
            if row[b] is not None and (best is None or da + row[b] + db < best):
                best = da + row[b] + db
    return best


def subdivision_paths(g: Graph, sub: Graph) -> list[tuple[int, ...]]:
    """The vertex path replacing each edge (u, v) of g in its subdivision sub.

    Found by walking sub from u through the new vertices (ids >= g.n, each
    of degree 2) until a vertex of g is reached; the walk that ends at v is
    the path of (u, v).  The edge itself when sub adds no vertices.
    """
    paths = []
    for u, v in g.edges:
        if v in sub.adj[u]:
            paths.append((u, v))
            continue
        for first in sub.adj[u]:
            walk = [u, first]
            while walk[-1] >= g.n:
                walk.append(next(w for w in sub.adj[walk[-1]] if w != walk[-2]))
            if walk[-1] == v:
                paths.append(tuple(walk))
                break
    return paths


def lift_point_by_fractions(g: Graph, paths: list[tuple[int, ...]], factor: int,
                            p: Point) -> Point:
    """A point of g moved into its subdivision, in Fractions.

    The inverse of ``project_point_by_fractions``: a vertex stays put, and
    a point at offset t on edge i sits t*factor steps along ``paths[i]``,
    on a path vertex when that is whole, else inside the segment after
    path vertex floor(t*factor).
    """
    if p.is_vertex:
        return p
    path = paths[g.edges.index(p.edge())]
    s = p.t * factor
    j = math.floor(s)
    if s == j:
        return Point.vertex(path[j])
    return Point.on_edge(path[j], path[j + 1], s - j)


def project_point_by_fractions(g: Graph, paths: list[tuple[int, ...]], factor: int,
                               p: Point) -> Point:
    """A point of a subdivision of g pulled back onto g, in Fractions.

    ``paths[i]`` lists the vertices replacing edge i of g from its lesser
    endpoint (see ``subdivision_paths``).  A vertex at index j of a path
    sits at j/factor; a point at offset t on segment (path[j], path[j+1]),
    read from the segment's lesser end, sits at (j + t)/factor or
    (j + 1 - t)/factor.  Points on no path (isolated vertices) map to
    themselves.
    """
    for (u, v), path in zip(g.edges, paths):
        for j, w in enumerate(path):
            if p.is_vertex and p.u == w:
                return Point.on_edge(u, v, Fraction(j, factor))
        for j, (a, b) in enumerate(zip(path, path[1:])):
            if not p.is_vertex and {a, b} == {p.u, p.v}:
                t = p.t if a < b else 1 - p.t
                return Point.on_edge(u, v, (j + t) / factor)
    return p


def core_by_subsets(masks: list[int], size: int) -> list[tuple[int, list[int]]]:
    """The kept set-cover elements with their candidate lists, by definition.

    Element e is dropped iff some other element's candidate set is a proper
    subset of e's, or equals it and belongs to a lower element; everything
    covering the harder element then covers e for free.
    """
    cands = [frozenset(i for i, m in enumerate(masks) if m >> e & 1) for e in range(size)]
    return [(e, sorted(ce)) for e, ce in enumerate(cands)
            if not any(cf < ce or (cf == ce and f < e) for f, cf in enumerate(cands))]


def small_even_points_by_fractions(g: Graph, delta: Fraction, k: int) -> frozenset[Point]:
    """The points of the small-delta even route, one ``Point.on_edge`` each.

    The library's loop before it built the k offsets once per call: every
    vertex, and on every edge (u, v) the points at 1/2 + (2j - k - 1)delta
    from u for j = 1..k, each offset computed and normalized per edge.
    """
    points = {Point.vertex(w) for w in range(g.n)}
    for u, v in g.edges:
        for j in range(1, k + 1):
            points.add(Point.on_edge(u, v, Fraction(1, 2) + (2 * j - k - 1) * delta))
    return frozenset(points)


def unit_fraction_cover_via_subdivided_graph(g: Graph, b: int) -> Cover:
    """A minimum (1/b)-cover of g by the subdivision route: build the
    b-subdivision as a ``Graph``, take its minimum 1-cover, and pull every
    point back onto g with ``project_point_by_fractions``."""
    from deltacover.matching import _one_cover, gallai_edmonds
    from deltacover.graphs import subdivide

    sub = subdivide(g, b)
    paths = subdivision_paths(g, sub)
    inner = _one_cover(sub, gallai_edmonds(sub))
    return Cover.of((project_point_by_fractions(g, paths, b, p) for p in inner.points),
                    Fraction(1, b))


def small_factors_by_fractions(g: Graph, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """(small-even factor, small-odd factor, small-odd epsilon) for k on g.

    The library's formulas as they were before they moved to integers:
    1 + 1/(k*avg + 1) (1 on a graph without edges), and with N = n + c_ge3
    from the Gallai-Edmonds split, eps = N/(N - 1) - 1 (1 when N <= 1) and
    min(1 + 1/(2k) + eps, 1 + 4/(3k*avg)) (the first when avg = 0).
    """
    from deltacover.matching import _split_and_one_cover

    avg = Fraction(2 * g.m, g.n) if g.n else Fraction(0)
    even = 1 + Fraction(1, k * avg + 1) if g.m else Fraction(1)
    big_n = g.n + _split_and_one_cover(g)[0].c_ge3
    eps = Fraction(big_n, big_n - 1) - 1 if big_n > 1 else Fraction(1)
    odd = 1 + Fraction(1, 2 * k) + eps
    if avg > 0:
        odd = min(odd, 1 + Fraction(4, 3 * k) / avg)
    return even, odd, eps


def approx_by_fraction_chain(g: Graph, delta: Fraction) -> tuple:
    """``approx_cover``'s (points, regime, param, epsilon, claimed factor,
    average degree), by its dispatch as it was before it routed on delta's
    integer numerator and denominator.

    Each component (found by BFS) goes down a chain of ``Fraction``
    comparisons with the regime boundaries; the interval parameters and
    every factor and epsilon are ``Fraction`` arithmetic.  The points come
    from the library's unverified cores, except on trees
    (``tree_cover_by_fractions``) and in the small-delta even case
    (``small_even_points_by_fractions``).  The union claims the largest
    factor and the regime, param and epsilon of the last part that is not
    exact.
    """
    from deltacover import build_set_cover, harmonic_number, induced_subgraph, solve_greedy
    from deltacover.approx import _leaf_level_part, _vertex_set_part, _vertices
    from deltacover.matching import _split_and_one_cover, _unit_fraction_cover
    from deltacover.solver import DEFAULT_BUDGET

    half, one, two = Fraction(1, 2), Fraction(1), Fraction(2)

    def part(h: Graph) -> tuple:
        if h.m == h.n - 1:
            return tree_cover_by_fractions(h, delta), one, "exact", None, None
        if delta.numerator == 1:
            return _unit_fraction_cover(h, delta.denominator).points, one, "exact", None, None
        if delta >= Fraction(3, 2):
            inst = build_set_cover(h, delta)
            d = max(bin(m).count("1") for m in inst.masks)
            return solve_greedy(inst).cover.points, harmonic_number(d), "large_delta", None, None
        if delta > one:
            points = _split_and_one_cover(h)[1].points
            if delta < Fraction(7, 6):
                return points, Fraction(3, 2), "one_cover_3_2", None, None
            if delta < Fraction(5, 4):
                return points, Fraction(5, 3), "one_cover_5_3", None, None
            return points, two, "one_cover_2", None, None
        if delta >= Fraction(3, 4):
            return _vertices(h), two, "vertex_set_34_1", None, None
        if delta >= Fraction(2, 3):
            return _leaf_level_part(h, delta).points, Fraction(3, 2), "leaf_level", None, None
        if delta > half:
            x = math.ceil((1 - delta) / (2 * delta - 1))
            assert Fraction(x + 1, 2 * x + 1) <= delta < Fraction(x, 2 * x - 1)
            points = _vertex_set_part(h, delta, x, DEFAULT_BUDGET).points
            return points, Fraction(x + 1, x), "vertex_set_x", x, None
        m = math.floor(1 / delta)
        if m % 2:
            k = (m - 1) // 2
            factor = small_factors_by_fractions(h, k)[0]
            return small_even_points_by_fractions(h, delta, k), factor, "small_even", k, None
        k = m // 2
        _, factor, eps = small_factors_by_fractions(h, k)
        return _unit_fraction_cover(h, 2 * k + 1).points, factor, "small_odd", k, eps

    seen: set[int] = set()
    points: set[Point] = set()
    claimed, regime, param, epsilon = Fraction(1), "exact", None, None
    for root in range(g.n):
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        for u in comp:
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        sub, old = induced_subgraph(g, comp)
        pts, factor, reg, par, eps = part(sub)
        points |= {Point.vertex(old[p.u]) if p.is_vertex else Point(old[p.u], old[p.v], p.t)
                   for p in pts}
        claimed = max(claimed, factor)
        if reg != "exact":
            regime, param = reg, par
            epsilon = eps if eps is not None else epsilon
    avg = Fraction(2 * g.m, g.n) if g.n else Fraction(0)
    return frozenset(points), regime, param, epsilon, claimed, avg
