"""Unit-edge graphs and the continuum of points living on their edges.

A graph here is simple and undirected, every edge has length 1.  Locations
are either vertices or interior positions on an edge; all coordinates are
exact rationals (``fractions.Fraction``), so distance computations and set
semantics never touch floating point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

Edge = tuple[int, int]

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


class GraphValidationError(ValueError):
    """Raised for loops, duplicate edges, out-of-range vertex ids, or n < 0."""


class InvalidPointError(ValueError):
    """Raised when a point refers to an edge the graph does not have."""


class Point(NamedTuple):
    """A location on a graph: a vertex, or an interior position on an edge.

    Interior points store the offset ``t`` from the lesser endpoint ``u``
    with ``0 < t < 1``; the same location written from the other end,
    ``(v, u, 1 - t)``, normalizes to this form.  Vertex points use
    ``u == v`` and ``t == 0``, so equality is structural.  A point is an
    immutable (u, v, t) tuple: it unpacks, orders and compares as one, and
    compares in C.  ``Point(u, v, t)`` is the public constructor; the
    library builds its points with ``_make_point((u, v, t))``, which skips
    the Python-level ``__new__``.  The hash reads ``t`` as its integer
    ratio.
    """

    u: int
    v: int
    t: Fraction

    @staticmethod
    def vertex(u: int) -> "Point":
        return _make_point((u, u, ZERO))

    @staticmethod
    def on_edge(u: int, v: int, t: Fraction | int) -> "Point":
        """The point at distance ``t`` from ``u`` along edge ``{u, v}``."""
        t = Fraction(t)
        if not ZERO <= t <= ONE:
            raise InvalidPointError(f"offset {t} outside [0, 1] on edge ({u}, {v})")
        if t == ZERO:
            return Point(u, u, ZERO)
        if t == ONE:
            return Point(v, v, ZERO)
        if u == v:
            raise InvalidPointError(f"interior point on loop ({u}, {u})")
        if u > v:
            u, v, t = v, u, ONE - t
        return Point(u, v, t)

    def __hash__(self) -> int:
        # A Fraction is in lowest terms and an int has denominator 1, so
        # equal points give equal tuples; Fraction.__hash__ would compute a
        # modular inverse on every set insertion.  ``_make_point``, the
        # library's construction path, skips ``__new__`` but not this hash.
        u, v, t = self
        return hash((u, v, *t.as_integer_ratio()))

    @property
    def is_vertex(self) -> bool:
        return self.u == self.v

    def edge(self) -> Edge:
        if self.is_vertex:
            raise InvalidPointError(f"vertex point {self} lies on no single edge")
        return (self.u, self.v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_vertex:
            return f"Point.vertex({self.u})"
        return f"Point.on_edge({self.u}, {self.v}, {self.t})"


# Point's own __new__ is a Python function; this builds the same tuple in C.
_make_point = functools.partial(tuple.__new__, Point)


class Graph:
    """Simple undirected graph with unit edges, stored as sorted adjacency.

    The edges never change after construction, which costs O(n + m).
    Equality and the hash read (n, edges) only; the memos, keyed by a
    graph's value, rely on the edges never changing, and the hash is
    computed once.  No distance table is built: ``point_distance`` reads
    the memoized hop row of each source vertex it routes through.
    """

    __slots__ = ("n", "edges", "edge_index", "adj", "_hash")

    def __init__(self, edges: Iterable[Edge], n: int | None = None):
        raw = list(edges)
        if n is None:
            n = 1 + max((max(u, v) for u, v in raw), default=-1)
        if n < 0:
            raise GraphValidationError(f"negative vertex count {n}")
        canon: list[Edge] = []
        for i, (u, v) in enumerate(raw):
            if not (0 <= u < n and 0 <= v < n):
                raise GraphValidationError(f"edge {i}: vertex outside [0, {n}) in ({u}, {v})")
            if u == v:
                raise GraphValidationError(f"edge {i}: loop ({u}, {v})")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        self.edge_index = {e: i for i, e in enumerate(canon)}
        if len(self.edge_index) < len(canon):
            dup = next(a for a, b in zip(canon, canon[1:]) if a == b)
            i = [j for j, (u, v) in enumerate(raw) if (min(u, v), max(u, v)) == dup][1]
            u, v = raw[i]
            raise GraphValidationError(f"edge {i}: duplicate ({u}, {v})")
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(canon)
        # Read off the sorted edge list, each list comes out ascending: the
        # neighbours w < u of u, from edges (w, u), precede all its (u, v).
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self._hash: int | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def check_point(self, p: Point) -> None:
        if p.is_vertex:
            if not 0 <= p.u < self.n:
                raise InvalidPointError(f"vertex {p.u} outside [0, {self.n})")
        elif (p.u, p.v) not in self.edge_index:
            raise InvalidPointError(f"edge ({p.u}, {p.v}) not in graph")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.edges))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Cover:
    """A finite set of points proposed as a delta-cover."""

    points: frozenset[Point]
    delta: Fraction

    @staticmethod
    def of(points: Iterable[Point], delta: Fraction | int) -> "Cover":
        return Cover(frozenset(points), Fraction(delta))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)


@dataclass(frozen=True)
class RatioReport:
    """What every graph-level call returns: a cover and the claim made for it.

    The cover is within ``claimed_factor`` of a minimum ``cover.delta``-cover.
    ``regime`` names the route: an exact route reports ``"exact"`` with
    factor 1, the others their interval's ``param`` and, where the factor
    has one, its ``epsilon``.  ``proven`` means the claimed factor rests
    only on sub-solves that proved optimality; it is False when an exact
    sub-solve ran out of its budget.
    """

    cover: Cover
    claimed_factor: Fraction
    regime: str
    param: int | None = None
    epsilon: Fraction | None = None
    proven: bool = True


def point_distance(g: Graph, p: Point, q: Point) -> Fraction | None:
    """Shortest-path distance between two points; None if disconnected.

    The minimum runs over the four endpoint routes and, for two points on
    the same edge, the direct along-edge distance.  Hop counts come from
    ``_hop_row``, one BFS per anchor of ``p`` the first time it is asked.
    Every route is an integer over the common denominator of the two
    offsets, and one Fraction is built for the result.
    """
    g.check_point(p)
    g.check_point(q)
    pn, pd = p.t.numerator, p.t.denominator
    qn, qd = q.t.numerator, q.t.denominator
    den = pd * qd
    p_anchors = ((p.u, 0),) if p.u == p.v else ((p.u, pn * qd), (p.v, (pd - pn) * qd))
    q_anchors = ((q.u, 0),) if q.u == q.v else ((q.u, qn * pd), (q.v, (qd - qn) * pd))
    best: int | None = None
    if p.u != p.v and (p.u, p.v) == (q.u, q.v):
        best = abs(pn * qd - qn * pd)
    for a, da in p_anchors:
        row = _hop_row(g, a)
        for b, db in q_anchors:
            hops = row[b]
            if hops is None:
                continue
            d = da + hops * den + db
            if best is None or d < best:
                best = d
    return None if best is None else Fraction(best, den)


# The bound of each per-graph memo: the graphs its entries are keyed by
# total at most this many vertices plus edges.
MEMO_CELLS = 1 << 16


def graph_memo(fn):
    """Memoize ``fn(g, ...)`` on the value of the graph g, bounded by size.

    A ``functools.lru_cache`` without a count limit, so a hit costs what an
    ``lru_cache`` hit costs, that is emptied whenever a new entry would take
    the graphs of its entries past ``MEMO_CELLS`` vertices plus edges; a
    graph larger than that alone is the only entry.  Each entry holds its
    graph and a result of O(n + m) objects (O(n + b*m) for a 1/b cover),
    so a memo holds O(MEMO_CELLS) objects whatever the graphs look like:
    8 to 14 MB per memo at the bound, measured with ``tracemalloc`` on
    eight 3,200-vertex cubic graphs, most of it the graphs themselves.
    The components of a graph together are no larger than the graph, so a
    sweep over radii on any graph of up to ``MEMO_CELLS / 2`` cells keeps
    the graph and every component that ``approx_cover`` splits off warm
    after the first radius, however many components there are.
    ``cache_clear`` empties the memo, and ``cache_info`` counts hits and
    misses since it was last emptied.
    """
    cells = 0

    def fill(g: Graph, *args, **kwargs):
        nonlocal cells
        value = fn(g, *args, **kwargs)
        if cells + g.n + g.m > MEMO_CELLS:
            cache_clear()
        cells += g.n + g.m
        return value

    memo = functools.lru_cache(maxsize=None)(fill)
    empty = memo.cache_clear

    def cache_clear() -> None:
        nonlocal cells
        empty()
        cells = 0

    memo.cache_clear = cache_clear
    return functools.update_wrapper(memo, fn)


@graph_memo
def _hop_row(g: Graph, source: int) -> list[int | None]:
    """Hop distance from ``source`` to every vertex (None in other components).

    Computed on first use, by BFS, and memoized on (g, source).
    """
    row = [None] * g.n
    row[source] = 0
    queue = [source]
    for u in queue:
        for w in g.adj[u]:
            if row[w] is None:
                row[w] = row[u] + 1
                queue.append(w)
    return row


@dataclass(frozen=True)
class _Traversal:
    """One BFS per connected component, each from its least vertex.

    ``orders[i]`` lists component i's vertices in BFS order, its root
    first; ``components[i]`` lists them ascending.  ``parent[w]`` is the
    vertex w was reached from, -1 for a root.
    """

    orders: tuple[tuple[int, ...], ...]
    components: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]


@graph_memo
def _traversal(g: Graph) -> _Traversal:
    """The BFS forest of g, memoized on its value.

    ``approx_cover``'s split, ``is_forest`` and the tree climb all read
    it, so a sweep over radii on one graph searches it once.  Like the matching
    memos, it is a module-level ``graph_memo`` that ``cache_clear`` empties.
    """
    parent = [-1] * g.n
    seen = [False] * g.n
    orders = []
    for root in range(g.n):
        if seen[root]:
            continue
        order = [root]
        seen[root] = True
        for u in order:
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    order.append(w)
        orders.append(tuple(order))
    return _Traversal(tuple(orders), tuple(tuple(sorted(o)) for o in orders), tuple(parent))


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on ``vertices`` plus the new-id -> old-id table.

    Built from the adjacency of ``vertices`` alone, so copying every
    component of a graph costs O(n + m) in all.
    """
    old = sorted(vertices)
    to_new = {u: i for i, u in enumerate(old)}
    edges = [(i, to_new[w]) for i, u in enumerate(old)
             for w in g.adj[u] if w > u and w in to_new]
    return Graph(edges, n=len(old)), old


def relabel_points(points: Iterable[Point], old_ids: Sequence[int]) -> frozenset[Point]:
    """Map points of an induced subgraph back to the parent graph's ids.

    The id table is increasing, so canonical edge orientation is preserved,
    and a vertex point (u, u, 0) maps to a vertex point.
    """
    return frozenset(map(_make_point, [(old_ids[u], old_ids[v], t) for u, v, t in points]))


def is_forest(g: Graph) -> bool:
    """Acyclic iff m = n - c: each of the c components is a tree on its vertices."""
    return g.m == g.n - len(_traversal(g).components)


def subdivide(g: Graph, x: int) -> Graph:
    """Replace every edge by a path of ``x`` unit edges.

    Base vertices keep their ids.  Edge i = (u, v), u < v, becomes the path
    u, then new vertices j = 1 .. x-1 counted from u, then v; new vertex j
    of edge i has id ``n + i*(x-1) + j - 1``.
    """
    if x < 1:
        raise ValueError(f"subdivision factor must be >= 1, got {x}")
    edges: list[Edge] = []
    s = g.n
    for u, v in g.edges:
        path = [u, *range(s, s + x - 1), v]
        edges.extend(zip(path, path[1:]))
        s += x - 1
    return Graph(edges, n=s)


def wreath_k2(g: Graph) -> Graph:
    """Double the graph: two copies, all cross pairs of each edge, plus rungs.

    Vertex ``(v, side)`` becomes id ``side * n + v``.
    """
    if g.n == 0:
        raise GraphValidationError("wreath product of an empty graph")
    n = g.n
    edges: list[Edge] = []
    for u, v in g.edges:
        for i in (0, 1):
            for j in (0, 1):
                edges.append((i * n + u, j * n + v))
    for v in range(n):
        edges.append((v, n + v))
    return Graph(edges, n=2 * n)
