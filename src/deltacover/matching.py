"""Matching machinery and the polynomial exact covering routes.

Maximum matching and the Gallai-Edmonds vertex partition from one Edmonds
blossom search, minimum 1-covers and unit-fraction covers built from
them, the exact bottom-up tree solver, and the matching-based
2-approximate vertex cover.  Everything here is polynomial and iterative:
no branch and bound and no recursion.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import (
    Cover,
    Edge,
    Graph,
    ONE,
    Point,
    ZERO,
    _traversal,
    is_forest,
    subdivide,
)
from .solver import Budget, DEFAULT_BUDGET, SolveResult
from .verify import InternalConsistencyError, require_output

HALF = Fraction(1, 2)

# Labels of the alternating forest: unreached, even (outer), odd (inner).
_FREE, _EVEN, _ODD = 0, 1, 2


class NotAForestError(ValueError):
    """Tree solver got a graph with a cycle; the caller must dispatch."""


@dataclass(frozen=True)
class Matching:
    edges: frozenset[Edge]

    @property
    def size(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class GEDecomposition:
    """Gallai-Edmonds split: D (exposable), A = N(D) - D, C = the rest.

    ``d_components`` are the components of the subgraph induced on D;
    components of size >= 3 are factor-critical and their count drives the
    1-cover size bounds.  ``matching`` is the maximum matching the split was
    read from.
    """

    D: frozenset[int]
    A: frozenset[int]
    C: frozenset[int]
    d_components: tuple[frozenset[int], ...]
    c_ge3: int
    matching: Matching


def _greedy_mates(adj: Sequence[Sequence[int]]) -> list[int]:
    """A maximal matching, lowest-degree vertices first (mate[v], -1 if exposed)."""
    mate = [-1] * len(adj)
    for v in sorted(range(len(adj)), key=lambda v: len(adj[v])):
        if mate[v] < 0:
            for w in adj[v]:
                if mate[w] < 0:
                    mate[v], mate[w] = w, v
                    break
    return mate


def _flip(mate: list[int], parent: list[int], x: int) -> None:
    """Re-match the path from x back to its root: x to parent[x], and so on."""
    while x >= 0:
        px = parent[x]
        nxt = mate[px]
        mate[x], mate[px] = px, x
        x = nxt


def _forest_search(adj: Sequence[Sequence[int]],
                   mate: list[int]) -> tuple[list[int], list[int]] | None:
    """One alternating-forest search rooted at every exposed vertex.

    Grows all trees at once, breadth first, shrinking each blossom into its
    base.  An edge between even vertices of two trees closes an augmenting
    path: ``mate`` is augmented along it in place and None is returned.
    When no such edge exists the matching is maximum and the final labels
    and blossom bases are returned: even vertices form D, odd vertices A
    and unreached vertices C of the Gallai-Edmonds split, and the even
    vertices sharing a base form one component of G[D].

    ``parent[y]`` of an odd vertex y is the even vertex that reached it;
    shrinking a blossom also points the even vertices on its two sides
    across the closing edge, so that from any vertex x with a parent the
    alternating path to the root is x, parent[x], mate[parent[x]], ...
    """
    n = len(adj)
    label = [_FREE] * n
    parent = [-1] * n
    base = list(range(n))
    root = list(range(n))
    queue = [v for v in range(n) if mate[v] < 0]
    forest = list(queue)
    for v in queue:
        label[v] = _EVEN
    seen = [0] * n  # lca marks, one stamp per blossom
    stamp = 0

    def lca(a: int, b: int) -> int:
        nonlocal stamp
        stamp += 1
        while True:
            a = base[a]
            seen[a] = stamp
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen[b] == stamp:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, top: int, child: int, blossom: set[int]) -> None:
        while base[v] != top:
            blossom.add(base[v])
            blossom.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]

    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in adj[v]:
            if base[v] == base[w] or mate[v] == w or label[w] == _ODD:
                continue
            if label[w] == _FREE:
                x = mate[w]  # every exposed vertex is a root, so w is matched
                label[w], label[x] = _ODD, _EVEN
                parent[w] = v
                root[w] = root[x] = root[v]
                forest += (w, x)
                queue.append(x)
            elif root[v] != root[w]:
                mv, mw = mate[v], mate[w]
                mate[v], mate[w] = w, v
                _flip(mate, parent, mv)
                _flip(mate, parent, mw)
                return None
            else:
                top = lca(v, w)
                blossom: set[int] = set()
                mark_path(v, top, w, blossom)
                mark_path(w, top, v, blossom)
                for x in forest:
                    if base[x] in blossom:
                        base[x] = top
                        if label[x] == _ODD:
                            label[x] = _EVEN
                            queue.append(x)
    return label, base


def _edmonds(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """Mates of a maximum matching and the final forest's labels and bases.

    A greedy matching is augmented one path per search; the search that
    finds no augmenting path labels the Gallai-Edmonds split.
    """
    mate = _greedy_mates(g.adj)
    while True:
        found = _forest_search(g.adj, mate)
        if found is not None:
            return mate, *found


def _matching_of(mate: list[int]) -> Matching:
    return Matching(frozenset((v, w) for v, w in enumerate(mate) if v < w))


def max_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching by the Edmonds blossom search."""
    return _matching_of(_edmonds(g)[0])


def _nu(g: Graph) -> int:
    """The matching number; perfbench/layers.py traces it by name."""
    return max_matching(g).size


def gallai_edmonds(g: Graph) -> GEDecomposition:
    """Compute (D, A, C) and the components of G[D] from the final Edmonds forest.

    With a maximum matching, the alternating forest rooted at every exposed
    vertex labels exactly the vertices some maximum matching misses as even
    (D) and their other neighbours as odd (A).  The components of G[D] are
    the forest's blossoms: every even vertex has been scanned, and an edge
    between even vertices of different bases would have closed a blossom
    (same tree) or an augmenting path (two trees), while a blossom is
    connected through its cycle, whose vertices are all even.  The split is
    checked against Tutte-Berge: 2 nu = n - c(D) + |A|.
    """
    mate, label, base = _edmonds(g)
    D = [v for v in range(g.n) if label[v] == _EVEN]
    A = frozenset(v for v in range(g.n) if label[v] == _ODD)
    C = frozenset(v for v in range(g.n) if label[v] == _FREE)
    by_base: dict[int, list[int]] = {}
    for v in D:
        by_base.setdefault(base[v], []).append(v)
    comps = [frozenset(c) for c in by_base.values()]
    matching = _matching_of(mate)
    if 2 * matching.size != g.n - len(comps) + len(A):
        raise InternalConsistencyError(
            f"Gallai-Edmonds split breaks Tutte-Berge: nu={matching.size}, n={g.n}, "
            f"c(D)={len(comps)}, |A|={len(A)}"
        )
    return GEDecomposition(frozenset(D), A, C, tuple(comps),
                           sum(len(c) >= 3 for c in comps), matching)


def _deficient_set(adj: Sequence[Sequence[int]],
                   singles: list[int]) -> tuple[set[int], set[int]]:
    """T maximising |T| - |N(T)| over the singletons, and N(T).

    A maximum matching of the bipartite graph B between the singletons and
    their neighbours is grown one augmenting path at a time; T is then the
    set of singletons reachable by alternating paths from those it leaves
    exposed (Konig), so |T| - |N(T)| = def(B).
    """
    mate: dict[int, int] = {}  # both ways; singletons and their neighbours are disjoint
    for s in singles:
        came: dict[int, int] = {}
        frontier = [s]
        end = None
        for x in frontier:
            for a in adj[x]:
                if a in came:
                    continue
                came[a] = x
                if a not in mate:
                    end = a
                    break
                frontier.append(mate[a])
            if end is not None:
                break
        while end is not None:
            x = came[end]
            nxt = mate.get(x)
            mate[end], mate[x] = x, end
            end = None if x == s else nxt
    T = [s for s in singles if s not in mate]
    X: set[int] = set()
    for x in T:
        for a in adj[x]:
            if a not in X:
                X.add(a)
                T.append(mate[a])  # matched, or the matching would not be maximum
    return set(T), X


def _one_cover(g: Graph, ge: GEDecomposition) -> Cover:
    """The minimum 1-cover of ``one_cover_min``, unverified.

    ``ge`` is the Gallai-Edmonds split of g.  Callers reach it through the
    memoized ``_split_and_one_cover`` or ``_unit_fraction_cover``.
    """
    singles = [v for comp in ge.d_components if len(comp) == 1
               for v in comp if g.adj[v]]
    T, X = _deficient_set(g.adj, singles)
    points = {Point.vertex(v) for v in X}
    points |= {Point.vertex(v) for v in range(g.n) if not g.adj[v]}
    touched = set(X)
    for u, v in ge.matching.edges:
        if u not in X and v not in X:
            points.add(Point(min(u, v), max(u, v), HALF))
            touched.update((u, v))
    for v in range(g.n):
        if v not in touched:
            w = next((w for w in g.adj[v] if w not in X), None)
            if w is not None:
                points.add(Point(min(v, w), max(v, w), HALF))
    cover = Cover(frozenset(points), ONE)
    expected = g.n - ge.matching.size - (len(T) - len(X))
    if len(cover) != expected:
        raise InternalConsistencyError(
            f"1-cover has {len(cover)} points, the formula gives {expected}"
        )
    if all(g.adj) and 3 * len(cover) > 2 * g.n:
        raise InternalConsistencyError(
            f"1-cover of size {len(cover)} exceeds 2/3 of {g.n} vertices"
        )
    return cover


# The two memos below hold a graph's radius-independent results, keyed by
# its value (n, edges), so that a sweep over radii on one graph runs each
# Edmonds search once.  They are module-level lru_caches, which
# ``cache_clear`` empties.  Eight slots suffice: one graph needs at most
# three keys, (g, 1), (g, 2) and (g, 3), and the sweeps that reuse them go
# graph by graph.  Covers are frozensets, safe to share.


@functools.lru_cache(maxsize=8)
def _split_and_one_cover(g: Graph) -> tuple[GEDecomposition, Cover]:
    """The Gallai-Edmonds split of g and its minimum 1-cover, unverified."""
    ge = gallai_edmonds(g)
    return ge, _one_cover(g, ge)


def one_cover_min(g: Graph) -> SolveResult:
    """Exact minimum 1-cover in polynomial time: cov1(G) = n - nu(G) - def(B).

    B is the bipartite graph between the Gallai-Edmonds set A and the
    D-singletons that have a neighbour; def(B) = #singletons - nu(B).  The
    cover is verified here once per call, memo hit or not; library code
    calls the unverified, memoized ``_split_and_one_cover``.

    *Neat covers.*  In a 1-cover S keep the vertex points as X and replace
    the points inside each edge by its midpoint (edge set M).  An edge xy
    with no point of S on it is covered iff d(x, S) + d(y, S) <= 1 with both
    distances positive, so both are below 1, which only a point inside an
    edge at x (at y) achieves: x and y both touch M.  Hence X plus the
    midpoints of M is a 1-cover no larger than S, and edge uv is covered by
    such a cover iff u in X, v in X, uv in M, or u and v both touch M.

    *Cost of X.*  M must touch every vertex of G - X that has a neighbour
    outside X; the fewest edges doing so number those vertices minus
    nu(G - X).  With
    no degree-0 vertex, cost(X) = n - iso(G - X) - nu(G - X); a degree-0
    vertex costs one point whatever X is, and n - nu - def(B) counts it.

    *No X does better.*  The isolated vertices I of G - X meet only X, so a
    maximum matching of G - X and one of the bipartite graph H between I and
    X are disjoint: nu(G) >= nu(G - X) + nu(H).  By Konig nu(H) = |I| - max
    (|U| - |N(U)|) over U in I, and such a U is isolated in G - N(U).  A
    fractional matching gives each vertex of S weight at most 1 and the
    vertices isolated in G - S meet only S, so iso(G - S) - |S| <= n -
    2 nu_f(G) for every S.  Gallai-Edmonds gives a fractional matching
    exposing exactly def(B) vertices: every nonempty part of A meets more
    D-components than its size, so (Mendelsohn-Dulmage) A matches into
    distinct D-components covering the singletons of a maximum matching of
    B; each entered component minus its entry vertex, and C, have perfect
    matchings; every other component on 3 or more vertices is
    factor-critical, hence has a perfect fractional matching.  So
    iso(G - X) + nu(G - X) <= nu(G) + def(B) for every X.

    *X = N(T) attains it.*  For X in A, Tutte-Berge with barrier A - X gives
    nu(G - X) = nu(G) - |X|, and the isolated vertices of G - X include T
    when X = N(T), T the Konig deficient set of B (|T| - |X| = def(B)).
    The cover is X, the maximum matching of G minus its |X| edges at X (a
    maximum matching of G - X), one edge of G - X at each vertex it leaves
    exposed that has one, and a vertex point at each degree-0 vertex.

    Hartmann, Lendl and Woeginger (Math. Program. 2022) prove delta-Covering
    polynomial for every unit fraction; the tests cross-check this route
    against the branch and bound.
    """
    t0 = time.monotonic()
    cover = _split_and_one_cover(g)[1]
    require_output(g, cover, "1-cover")
    return SolveResult(cover, len(cover), True, 0, time.monotonic() - t0)


@functools.lru_cache(maxsize=8)
def _unit_fraction_cover(g: Graph, b: int) -> Cover:
    """The minimum (1/b)-cover of ``unit_fraction_cover``, unverified.

    Memoized on (g, b).  b = 1 is the memoized 1-cover of g itself; a
    subdivision is solved here directly, so it never takes a slot in the
    per-graph memo.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if b == 1:
        return _split_and_one_cover(g)[1]
    sub, smap = subdivide(g, b)
    inner = _one_cover(sub, gallai_edmonds(sub))
    cover = smap.project_cover(g, inner)
    if len(cover) != len(inner):
        raise InternalConsistencyError("subdivision pull-back changed the cover size")
    return cover


def unit_fraction_cover(g: Graph, b: int, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Exact minimum (1/b)-cover via the subdivision route.

    Covers of g at radius 1/b correspond bijectively to covers of the
    b-subdivision at radius 1, where ``one_cover_min`` solves the problem
    in polynomial time.  ``budget`` is not read; ``perfbench``
    still passes it positionally.  Only the pulled-back cover is verified,
    once per call, on g, memo hit or not; library code calls the
    unverified, memoized ``_unit_fraction_cover``.
    """
    t0 = time.monotonic()
    cover = _unit_fraction_cover(g, b)
    require_output(g, cover, "unit-fraction cover")
    return SolveResult(cover, len(cover), True, 0, time.monotonic() - t0)


def vc_2approx(g: Graph) -> frozenset[int]:
    """Endpoints of a greedy maximal matching: a 2-approximate vertex cover."""
    used: set[int] = set()
    for u, v in g.edges:
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
    return frozenset(used)


def _cover_tree_component(g: Graph, root: int, order: Sequence[int], parent: Sequence[int],
                          p: int, q: int) -> set[Point]:
    """Bottom-up greedy placement on one rooted tree component.

    Lengths are scaled by q, the denominator of delta = p/q: an edge is q
    long and the radius is p, so every position, need and reach is an
    integer, and a Fraction is built only for a placed point.  State per
    processed vertex: ``need`` = distance to the farthest point below it
    still uncovered (None if everything is), ``reach`` = leftover covering
    radius extending upward from placed points (None if none reaches).
    Climbing an edge, a point is placed the moment the need would hit
    exactly delta; deferred placements land on vertices.
    """
    placed: set[Point] = set()
    need_at: list[int | None] = [None] * g.n
    reach_at: list[int | None] = [None] * g.n

    def climb(child: int, top: int, need: int | None, reach: int | None):
        pos = 0
        while True:
            remaining = q - pos
            if need is not None:
                trigger = p - need
            elif reach is not None and reach < remaining:
                trigger = reach + p
            else:
                trigger = None
            if trigger is not None and trigger <= remaining:
                if trigger == remaining:
                    return p, None  # defer: need hits delta exactly at the vertex
                pos += trigger
                if child < top:
                    placed.add(Point(child, top, Fraction(pos, q)))
                else:
                    placed.add(Point(top, child, Fraction(q - pos, q)))
                need, reach = None, p
                continue
            if need is not None:
                need = need + remaining
            elif reach is not None and reach < remaining:
                need = remaining - reach
            reach = reach - remaining if reach is not None and reach >= remaining else None
            if need is None and reach is None:
                raise InternalConsistencyError("tree climb lost track of coverage")
            return need, reach

    for v in reversed(order):
        need: int | None = None
        reach: int | None = None
        up = parent[v]
        for c in g.adj[v]:
            if c == up:
                continue
            cn, cr = climb(c, v, need_at[c], reach_at[c])
            if cn is not None and (need is None or cn > need):
                need = cn
            if cr is not None and (reach is None or cr > reach):
                reach = cr
        if reach is None and (need is None or need < 0):
            need = 0  # the vertex itself is uncovered
        if need is not None and reach is not None and need <= reach:
            need = None
        if need == p:
            placed.add(Point.vertex(v))
            need, reach = None, p
        need_at[v], reach_at[v] = need, reach
    if need_at[root] is not None:
        placed.add(Point.vertex(root))
    return placed


def _tree_points(g: Graph, delta: Fraction) -> set[Point]:
    """The minimum delta-cover of the forest g, unverified.

    Each component is climbed in the order of the memoized BFS from its
    least vertex, which also gives the parents.
    """
    p, q = delta.numerator, delta.denominator
    walk = _traversal(g)
    points: set[Point] = set()
    for order in walk.orders:
        if len(order) == 1:
            points.add(Point.vertex(order[0]))
        else:
            points |= _cover_tree_component(g, order[0], order, walk.parent, p, q)
    return points


def tree_cover(g: Graph, delta: Fraction) -> SolveResult:
    """Exact minimum delta-cover of a forest, one greedy pass per component.

    The cover is verified once here; library code calls the unverified
    ``_tree_points``.
    """
    if delta <= ZERO:
        raise ValueError(f"delta must be positive, got {delta}")
    if not is_forest(g):
        raise NotAForestError("input has a cycle; dispatch non-trees elsewhere")
    t0 = time.monotonic()
    cover = Cover(frozenset(_tree_points(g, delta)), delta)
    require_output(g, cover, "tree cover")
    return SolveResult(cover, len(cover), True, 0, time.monotonic() - t0)
