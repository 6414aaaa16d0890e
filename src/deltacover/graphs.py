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
    """Raised for loops, duplicate edges, or out-of-range vertex ids."""


class InvalidPointError(ValueError):
    """Raised when a point refers to an edge the graph does not have."""


@dataclass(frozen=True, order=True)
class Point:
    """A location on a graph: a vertex, or an interior position on an edge.

    Interior points store the offset ``t`` from the lesser endpoint ``u``
    with ``0 < t < 1``; the same location written from the other end,
    ``(v, u, 1 - t)``, normalizes to this form.  Vertex points use
    ``u == v`` and ``t == 0``, so equality and hashing are structural;
    the hash reads ``t`` as its integer numerator and denominator.
    """

    u: int
    v: int
    t: Fraction

    @staticmethod
    def vertex(u: int) -> "Point":
        return Point(u, u, ZERO)

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
        # modular inverse on every set insertion.
        t = self.t
        return hash((self.u, self.v, t.numerator, t.denominator))

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


class Graph:
    """Simple undirected graph with unit edges, stored as sorted adjacency.

    The edges never change after construction, which costs O(n + m).
    Equality and the hash read (n, edges) only; the memos, keyed by a
    graph's value, rely on the edges never changing, and the hash is
    computed once.  No distance table is built: ``hop_layers`` runs a BFS
    bounded by a hop count, and ``point_distance`` caches on the graph the
    hop row of each source vertex it routes through.
    """

    __slots__ = ("n", "edges", "edge_index", "adj", "_hop_rows", "_hash")

    def __init__(self, edges: Iterable[Edge], n: int | None = None):
        raw = list(edges)
        if n is None:
            n = 1 + max((max(u, v) for u, v in raw), default=-1)
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
        self._hop_rows: dict[int, list[int | None]] = {}
        self._hash: int | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def average_degree(self) -> Fraction:
        return Fraction(2 * self.m, self.n) if self.n else ZERO

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


class Adjacency(NamedTuple):
    """A graph as bare ascending adjacency lists, like ``Graph.adj``.

    ``SubdivisionMap.adjacency`` builds a subdivision this way, without the
    edge list, the edge dict or the validation of a ``Graph``.
    """

    n: int
    adj: Sequence[Sequence[int]]


def hop_layers(g: Graph, source: int, max_hops: int) -> list[list[int]]:
    """BFS layers: ``layers[h]`` lists the vertices h hops from ``source``.

    The search stops after ``max_hops`` hops, or sooner once it has
    reached the whole component of ``source``.
    """
    seen = {source}
    layers = [[source]]
    while len(layers) <= max_hops:
        layer = []
        for u in layers[-1]:
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    layer.append(w)
        if not layer:
            break
        layers.append(layer)
    return layers


def _hop_row(g: Graph, source: int) -> list[int | None]:
    """Hop distance from ``source`` to every vertex (None in other components).

    Computed on first use and cached on the graph.
    """
    row = g._hop_rows.get(source)
    if row is None:
        row = [None] * g.n
        for h, layer in enumerate(hop_layers(g, source, g.n)):
            for w in layer:
                row[w] = h
        g._hop_rows[source] = row
    return row


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

    The components, ``is_forest`` and the tree climb all read it, so a
    sweep over radii on one graph searches it once.  Like the matching
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


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the connected components, ordered by smallest member."""
    return [list(c) for c in _traversal(g).components]


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


def relabel_points(points: Iterable[Point], old_ids: Sequence[int] | None) -> frozenset[Point]:
    """Map points of an induced subgraph back to the parent graph's ids.

    The id table is increasing, so canonical edge orientation is preserved;
    ``None`` is the identity table of a graph that was not copied.
    """
    if old_ids is None:
        return frozenset(points)
    out = set()
    for p in points:
        if p.is_vertex:
            out.add(Point.vertex(old_ids[p.u]))
        else:
            out.add(Point(old_ids[p.u], old_ids[p.v], p.t))
    return frozenset(out)


def is_forest(g: Graph) -> bool:
    """Acyclic iff m = n - c: each of the c components is a tree on its vertices."""
    return g.m == g.n - len(_traversal(g).components)


@dataclass(frozen=True)
class SubdivisionMap:
    """The numbering of an x-subdivision of a graph with ``base_n`` vertices.

    Edge i = (u, v), u < v, of the base graph becomes the path u, then new
    vertices j = 1 .. x-1 counted from u, then v.  Base vertices keep their
    ids and new vertex j of edge i has id ``n + i*(x-1) + j - 1``
    (``new_vertex``), so its edge and position are one ``divmod`` away
    (``locate``).  ``subdivide`` and ``adjacency`` build the subdivision in
    this numbering; ``locate`` and ``segment`` pull it back in integers for
    ``project_point``.  The library's unit-fraction route solves no
    subdivision; the tests use this map as its independent oracle.
    """

    factor: int
    base_n: int

    def new_vertex(self, i: int, j: int) -> int:
        """Id of new vertex j (1 <= j < x) on edge i."""
        return self.base_n + i * (self.factor - 1) + j - 1

    def locate(self, g: Graph, s: int) -> tuple[int, int, int]:
        """The edge (u, v) of g that new vertex s lies on, and its position.

        The position is s's distance from u in steps of 1/x, in 1 .. x-1.
        """
        i, j = divmod(s - self.base_n, self.factor - 1)
        u, v = g.edges[i]
        return u, v, j + 1

    def segment(self, g: Graph, a: int, c: int) -> tuple[int, int, int, int]:
        """Edge (u, v) of g holding subdivision edge a < c, c new, and the
        positions of a and c on it in steps of 1/x from u.

        Every new id exceeds every base id, so c is the new end; a is u
        (first segment), v (last segment, read from v) or new vertex c - 1.
        """
        u, v, pc = self.locate(g, c)
        pa = 0 if a == u else self.factor if a == v else pc - 1
        return u, v, pa, pc

    def adjacency(self, g: Graph) -> Adjacency:
        """The x-subdivision of g as ascending adjacency lists, in O(n + x*m).

        A base vertex meets new vertex 1 of each edge it starts and new
        vertex x-1 of each edge it ends, in edge order, which is ascending
        since the new ids of edge i precede those of edge i+1.  A new
        vertex meets its path neighbours, the base endpoint first.
        """
        x = self.factor
        if x == 1:
            return Adjacency(g.n, g.adj)
        adj: list[Sequence[int]] = [[] for _ in range(g.n)]
        for i, (u, v) in enumerate(g.edges):
            first = self.new_vertex(i, 1)
            last = first + x - 2
            adj[u].append(first)
            adj[v].append(last)
            if x == 2:
                adj.append((u, v))
            else:
                adj.append((u, first + 1))
                adj.extend((s - 1, s + 1) for s in range(first + 1, last))
                adj.append((v, last - 1))
        return Adjacency(len(adj), adj)

    def lift_point(self, g: Graph, p: Point) -> Point:
        """Position bijection from the base graph into the subdivision."""
        if p.is_vertex:
            return p
        x = self.factor
        i = g.edge_index[p.edge()]

        def path_vertex(j: int) -> int:
            return p.u if j == 0 else p.v if j == x else self.new_vertex(i, j)

        s = p.t * x
        seg = int(s)
        frac = s - seg
        if frac == 0:
            return Point.vertex(path_vertex(seg))
        return Point.on_edge(path_vertex(seg), path_vertex(seg + 1), frac)

    def project_point(self, g: Graph, p: Point) -> Point:
        """Inverse bijection: a subdivision point back onto the base graph.

        Integer arithmetic only.  A point at offset t from a on segment
        a < c sits at pa + t*(pc - pa) steps of 1/x from u, with pa and pc
        from ``segment``.  The offset is strictly inside edge (u, v), and
        u < v holds in ``g.edges``, so the point is built already
        normalized.
        """
        x, n = self.factor, self.base_n
        if p.is_vertex:
            if p.u < n:
                return p
            u, v, pos = self.locate(g, p.u)
            return Point(u, v, Fraction(pos, x))
        if p.v < n:  # x == 1: the subdivision is g itself
            return p
        tn, td = p.t.numerator, p.t.denominator
        u, v, pa, pc = self.segment(g, p.u, p.v)
        return Point(u, v, Fraction(pa * td + (pc - pa) * tn, x * td))

    def project_cover(self, g: Graph, s_x: Cover) -> Cover:
        """Pull a cover of the subdivision back onto ``g`` (radius divides by the factor)."""
        points = frozenset(self.project_point(g, p) for p in s_x.points)
        return Cover(points, s_x.delta / self.factor)


def subdivide(g: Graph, x: int) -> tuple[Graph, SubdivisionMap]:
    """Replace every edge by a path of ``x`` unit edges, numbered as in ``SubdivisionMap``.

    The graph is built from ``SubdivisionMap.adjacency``.
    """
    if x < 1:
        raise ValueError(f"subdivision factor must be >= 1, got {x}")
    smap = SubdivisionMap(x, g.n)
    sub = smap.adjacency(g)
    edges = [(a, c) for a, row in enumerate(sub.adj) for c in row if a < c]
    return Graph(edges, n=sub.n), smap


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
