"""Matching machinery and the polynomial exact covering routes.

Maximum matching and the Gallai-Edmonds vertex partition from one Edmonds
blossom search, minimum 1-covers built from them, the translation of a
cover down to a smaller radius that takes a 1-cover or 1/2-cover to every
unit fraction, and the exact bottom-up tree solver.  Everything here is
polynomial and iterative: no branch and bound and no recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import (
    Cover,
    Edge,
    Graph,
    HALF,
    ONE,
    Point,
    RatioReport,
    ZERO,
    _make_point,
    _traversal,
    graph_memo,
    is_forest,
)
from .solver import Budget, DEFAULT_BUDGET
from .verify import InternalConsistencyError, nearest_distances, require_cover, require_output

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
    """A maximal matching by the Karp-Sipser rule (mate[v], -1 if exposed).

    While some unmatched vertex has exactly one unmatched neighbour, match
    the two: some maximum matching contains that edge.  Otherwise match the
    next unmatched vertex in order of static degree to its first unmatched
    neighbour.  Matching a pair lowers the degree of their unmatched
    neighbours, which can make new degree-1 vertices.  On graphs of maximum
    degree 2, paths and cycles, the result is maximum, so ``_edmonds`` runs
    one search whatever the vertex ids.  O(n log n + m).
    """
    n = len(adj)
    mate = [-1] * n
    degree = list(map(len, adj))  # unmatched neighbours of an unmatched vertex
    ones = [v for v in range(n) if degree[v] == 1]
    by_degree = iter(sorted(range(n), key=degree.__getitem__))
    while True:
        if ones:
            v = ones.pop()
            if mate[v] >= 0 or degree[v] != 1:
                continue
        else:
            v = next(by_degree, -1)
            if v < 0:
                return mate
            if mate[v] >= 0:
                continue
        for w in adj[v]:
            if mate[w] < 0:
                mate[v], mate[w] = w, v
                for x in (*adj[v], *adj[w]):
                    if mate[x] < 0:
                        degree[x] -= 1
                        if degree[x] == 1:
                            ones.append(x)
                break


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

    A Karp-Sipser matching is augmented one path per search; the search that
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

    A search that finds no augmenting path leaves a Hungarian tree: each of
    its singletons has all its neighbours in the tree, matched to
    singletons of the tree.  No later augmenting path can enter such a
    tree, so its neighbour vertices are skipped from then on, and each
    failed search costs only the vertices no earlier one reached.  B's
    maximum matching size, and so T and N(T), do not change.
    """
    mate: dict[int, int] = {}  # both ways; singletons and their neighbours are disjoint
    dead: set[int] = set()  # the neighbour vertices of every Hungarian tree so far
    for s in singles:
        came: dict[int, int] = {}
        frontier = [s]
        end = None
        for x in frontier:
            for a in adj[x]:
                if a in came or a in dead:
                    continue
                came[a] = x
                if a not in mate:
                    end = a
                    break
                frontier.append(mate[a])
            if end is not None:
                break
        if end is None:
            dead.update(came)
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
    memoized ``_split_and_one_cover``.
    """
    singles = [v for comp in ge.d_components if len(comp) == 1
               for v in comp if g.adj[v]]
    T, X = _deficient_set(g.adj, singles)
    points = {Point.vertex(s) for s in X}
    points |= {Point.vertex(s) for s in range(g.n) if not g.adj[s]}
    touched = set(X)
    for a, c in ge.matching.edges:
        if a not in X and c not in X:
            points.add(_make_point((a, c, HALF)))
            touched.update((a, c))
    for s in range(g.n):
        if s not in touched:
            w = next((w for w in g.adj[s] if w not in X), None)
            if w is not None:
                points.add(_make_point((s, w, HALF) if s < w else (w, s, HALF)))
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
# Edmonds search once.  They are module-level ``graph_memo``s, bounded by
# the size of the graphs they hold, which ``cache_clear`` empties.  Covers
# are frozensets, safe to share.


@graph_memo
def _split_and_one_cover(g: Graph) -> tuple[GEDecomposition, Cover]:
    """The Gallai-Edmonds split of g and its minimum 1-cover, unverified."""
    ge = gallai_edmonds(g)
    return ge, _one_cover(g, ge)


def one_cover_min(g: Graph) -> RatioReport:
    """Exact minimum 1-cover in polynomial time: cov1(G) = n - nu(G) - def(B).

    B is the bipartite graph between the Gallai-Edmonds set A and the
    D-singletons that have a neighbour; def(B) = #singletons - nu(B).  The
    report claims factor 1 in the ``"exact"`` regime and is always proven:
    no search runs that could stop short.  The cover goes through
    ``require_output`` on every call.  The memoized
    cover is the same frozenset each time, so once it is proved at radius 1
    later calls find the proof in ``require_output``'s memo without a
    search.  Library code calls the unverified, memoized
    ``_split_and_one_cover``.

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
    cover = _split_and_one_cover(g)[1]
    require_output(g, cover, "1-cover")
    return RatioReport(cover, ONE, "exact")


def _half_cover(g: Graph) -> Cover:
    """A minimum 1/2-cover of g, unverified, each component taken whole.

    An isolated vertex gets its vertex point, a tree on n >= 2 vertices the
    midpoints of its n - 1 edges, and any other component its n vertices.
    A midpoint covers its edge at radius 1/2 and a vertex point the half
    of each edge at it, so this is a 1/2-cover.

    It is minimum.  At radius 1/2, an edge uv with no point of a cover S
    inside needs both ends in S: the points of uv just past its midpoint
    seen from u are farther than 1/2 from u, so they are covered through
    v, and those nearest the midpoint only by a point at v itself;
    likewise at u.  On a component with n vertices let F be its edges
    with a point of S inside and W its vertices that meet only edges of
    F; the other n - |W| vertices are in S.  Each
    component of the subgraph formed by the edges at W has at least as
    many edges as it has vertices in W, unless all its vertices are in W:
    then it is the whole component, with at least n edges, or n - 1 on a
    tree.  So |S| >= |F| + n - |W| >= n, or n - 1 on a tree.
    """
    points: set[Point] = set()
    adj = g.adj
    for comp in _traversal(g).components:
        degrees = sum(len(adj[u]) for u in comp)
        if degrees >= 2 * len(comp) or degrees == 0:
            points.update(map(Point.vertex, comp))
        else:
            points.update(map(_make_point, [(u, w, HALF) for u in comp for w in adj[u] if w > u]))
    return Cover(frozenset(points), HALF)


def _translated(g: Graph, s: Cover, k: int) -> Cover:
    """The cover of ``translate_cover_down``, unverified.

    ``s`` must be a delta-cover of g with delta <= 1; an edge it leaves
    uncovered through both ends raises InternalConsistencyError.
    """
    scale, reach, on_edge, left = nearest_distances(g, s, s.delta)
    if reach > scale:
        raise ValueError(f"translation down needs delta <= 1, got {s.delta}")
    step = 2 * reach
    length = scale + k * step
    points = [p for p in s.points if p.is_vertex]
    at: dict[int, Fraction] = {}  # few distinct offsets recur on every edge
    for e in g.edges:
        u, v = e
        offsets = on_edge.get(e)
        if offsets:
            c = max(offsets)
            offsets = offsets + list(range(c + step, c + k * step + 1, step))
        else:
            p, rv = left[u], left[v]
            if p < 0 or rv < 0 or p + rv < scale:
                raise InternalConsistencyError(f"edge {e} is not covered at {s.delta}")
            offsets = range(p + reach, p + k * step, step)
        for a in offsets:
            t = at.get(a)
            if t is None:
                t = at[a] = Fraction(a, length)
            points.append(_make_point((u, v, t)))
    cover = Cover(frozenset(points), Fraction(reach, length))
    if len(cover) != len(s) + k * g.m:
        raise InternalConsistencyError(
            f"translated cover has {len(cover)} points, not {len(s)} + {k}*{g.m}"
        )
    return cover


def translate_cover_down(g: Graph, s: Cover, k: int) -> Cover:
    """Translate a delta-cover with delta <= 1 down to radius delta/(1 + 2k delta).

    The answer has |S| + k|E| points.  By cov_{d/(2d+1)}(G) = cov_d(G) + |E|
    (Hartmann, Lendl and Woeginger, Math. Program. 2022), applied k times,
    it is minimum when S is.  The input is checked with ``require_cover``
    and the output with ``require_output``; library code calls the
    unverified ``_translated``.

    *Construction.*  Scale lengths so that the radius is 1: an edge is
    L = 1/delta >= 1 long, and at the new radius it is L + 2k long.  One
    search from S, as in ``is_delta_cover``, gives each vertex w the
    distance D(w) to its nearest point of S.  Each edge uv, u < v, is cut at
    one point, where a stretch 2k long is inserted:

    (a) If S has points inside uv, cut at the last of them, c.  Every point
        of S on uv stays where it is, and copies of c go at c + 2, c + 4,
        ..., c + 2k.
    (b) Otherwise uv is covered through its ends alone, so both reaches
        r = 1 - D are >= 0 and r_u + r_v >= L.  Cut at p = r_u (<= 1 <= L)
        and add points at p + 1, p + 3, ..., p + 2k - 1.

    Either way uv gains k points strictly inside it; vertex points stay.

    *Proof.*  First, D does not grow at a vertex w with D(w) <= 1.  Since
    L >= 1, a path of length at most 1 from a point of S to w crosses no
    whole edge, except when delta = 1, the source is a vertex point u and
    D(w) = 1 along the edge uw.  Otherwise the path runs inside one edge at
    w from a point of S there; in case (a) a point at offset a from u keeps
    its offset, and from v the copy at c + 2k is L - c <= L - a away.  In
    the exception, uw has no point inside, which would be nearer than 1 to
    w, so case (b) applies with r_u = 1 and its last new point is 1 from w.
    Second, every point of each new edge is covered.  In case (a), [0, c]
    is the old [0, c]: a point x there was covered from a point of S at an
    offset of at most c, which is still there, or through u, whose reach
    did not shrink, or from c or beyond, when c itself is at least as near.
    The copies cover [c, c + 2k].  [c + 2k, L + 2k] is the old [c, L]
    moved by 2k: each of its points was covered through v, whose reach did
    not shrink, or through c, whose copy at c + 2k is as near.  In case
    (b), [0, p] is covered through u, the new points cover [p, p + 2k], and
    [p + 2k, L + 2k] is covered through v, as r_v >= L - p.

    In integers: with ``scale`` and ``reach`` of ``nearest_distances``, an
    edge is ``scale`` long and the radius ``reach``, so the new edge is
    scale + 2k*reach long and every offset above is an integer.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    require_cover(g, s, "translation input")
    cover = _translated(g, s, k)
    require_output(g, cover, "translated cover")
    return cover


@graph_memo
def _unit_fraction_cover(g: Graph, b: int) -> Cover:
    """The minimum (1/b)-cover of ``unit_fraction_cover``, unverified.

    Memoized on (g, b).  b = 2k + 1 translates the memoized 1-cover of g
    down by k, and b = 2k + 2 the 1/2-cover of ``_half_cover``, so the
    only Edmonds search is g's own and no subdivision is built.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    base = _split_and_one_cover(g)[1] if b % 2 else _half_cover(g)
    k = (b - 1) // 2
    return _translated(g, base, k) if k else base


def unit_fraction_cover(g: Graph, b: int, budget: Budget = DEFAULT_BUDGET) -> RatioReport:
    """Exact minimum (1/b)-cover in polynomial time, on g itself.

    1/(2k + 1) = 1/(1 + 2k) and 1/(2k + 2) = (1/2)/(1 + 2k/2), so the
    construction of ``translate_cover_down`` takes a minimum 1-cover
    (``one_cover_min``) or 1/2-cover down to a minimum (1/b)-cover with
    k|E| more points.  No subdivision is solved.  ``budget`` is not read;
    ``perfbench`` still passes it positionally.  The report claims factor 1
    in the ``"exact"`` regime and is always proven.  The cover goes through
    ``require_output`` on g on every call; its proof memo searches a
    memoized cover once at radius 1/b and answers later calls, and the
    small-delta odd route's radii above 1/b, by lookup.  Library code calls
    the unverified, memoized ``_unit_fraction_cover``.
    """
    cover = _unit_fraction_cover(g, b)
    require_output(g, cover, "unit-fraction cover")
    return RatioReport(cover, ONE, "exact")


def _matched_ends(edges: Sequence[Edge]) -> set[int]:
    """Endpoints of the greedy maximal matching that takes ``edges`` in order."""
    used: set[int] = set()
    for u, v in edges:
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
    return used


def _cover_tree_component(g: Graph, root: int, order: Sequence[int], parent: Sequence[int],
                          p: int, q: int) -> set[Point]:
    """Bottom-up greedy placement on one rooted tree component.

    Lengths are scaled by q, the denominator of delta = p/q: an edge is q
    long and the radius is p, so every position, need and reach is an
    integer, and a Fraction is built once per distinct offset of a placed
    point, so at most q - 1 times per call.  State per
    processed vertex: ``need`` = distance to the farthest point below it
    still uncovered, ``reach`` = leftover covering radius extending upward
    from placed points; each is >= 0, or -1 for "none" (everything below
    is covered, or no placed point reaches up).  The climb runs inline,
    edge by edge.  Climbing an edge, a point is placed the moment the need
    would hit exactly delta inside the edge; a need that hits delta
    exactly at the top is carried up, and its point is placed on that
    vertex.
    """
    placed: set[Point] = set()
    at: dict[int, Fraction] = {}  # few distinct offsets recur on every edge
    need_at = [-1] * g.n
    reach_at = [-1] * g.n
    adj = g.adj
    for v in reversed(order):
        need = reach = -1
        up = parent[v]
        for c in adj[v]:
            if c == up:
                continue
            # Climb edge cv from c; rem is the length still to climb.
            cn, cr, rem = need_at[c], reach_at[c], q
            trig = p - cn if cn >= 0 else p + cr  # distance to the next point
            while trig < rem:
                rem -= trig
                a = q - rem if c < v else rem
                t = at.get(a)
                if t is None:
                    t = at[a] = Fraction(a, q)
                placed.add(_make_point((c, v, t) if c < v else (v, c, t)))
                cn, cr, trig = -1, p, 2 * p
            if cn >= 0:
                cn += rem
            elif 0 <= cr < rem:
                cn = rem - cr
            cr = cr - rem if cr >= rem else -1
            if cn < 0 and cr < 0:
                raise InternalConsistencyError("tree climb lost track of coverage")
            if cn > need:
                need = cn
            if cr > reach:
                reach = cr
        if need < 0 and reach < 0:
            need = 0  # the vertex itself is uncovered
        if 0 <= need <= reach:
            need = -1
        if need == p:
            placed.add(Point.vertex(v))
            need, reach = -1, p
        need_at[v], reach_at[v] = need, reach
    if need_at[root] >= 0:
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


def tree_cover(g: Graph, delta: Fraction) -> RatioReport:
    """Exact minimum delta-cover of a forest, one greedy pass per component.

    The report claims factor 1 in the ``"exact"`` regime and is always
    proven.  The cover goes through ``require_output`` once here.  The climb builds
    a new point set on every call, so the proof memo hits only when the
    same points were proved on this forest at a radius no larger.  Library
    code calls the unverified ``_tree_points``.
    """
    if delta <= ZERO:
        raise ValueError(f"delta must be positive, got {delta}")
    if not is_forest(g):
        raise NotAForestError("input has a cycle; dispatch non-trees elsewhere")
    cover = Cover(frozenset(_tree_points(g, delta)), delta)
    require_output(g, cover, "tree cover")
    return RatioReport(cover, ONE, "exact")
