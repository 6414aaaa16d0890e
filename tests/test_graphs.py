import random
from fractions import Fraction as F

import pytest

from deltacover import (
    Cover,
    Graph,
    GraphValidationError,
    InvalidPointError,
    Point,
    induced_subgraph,
    is_delta_cover,
    is_forest,
    point_distance,
    subdivide,
    wreath_k2,
)
from deltacover.graphs import _make_point
from conftest import cycle, k_n, path
from oracles import (
    grid_distance,
    is_forest_by_components,
    lift_point_by_fractions,
    point_distance_by_fractions,
    project_point_by_fractions,
    subdivision_paths,
)


def vertex_distance(g, u, v):
    return point_distance(g, Point.vertex(u), Point.vertex(v))


def test_build_single_edge():
    g = Graph([(0, 1)])
    assert g.n == 2 and g.m == 1
    assert vertex_distance(g, 0, 1) == 1


def test_build_triangle_distances():
    g = k_n(3)
    assert all(vertex_distance(g, u, v) == 1 for u in range(3) for v in range(3) if u != v)


def test_build_c4_distance_two():
    g = cycle(4)
    assert vertex_distance(g, 0, 2) == 2
    assert vertex_distance(g, 1, 3) == 2


def test_built_graph_has_no_distance_table():
    g = cycle(4)
    assert not hasattr(g, "dist")
    point_distance(g, Point.vertex(0), Point.vertex(2))
    assert not hasattr(g, "dist")


def test_point_distance_across_components_is_none():
    g = Graph([(0, 1), (2, 3)], n=5)
    assert vertex_distance(g, 0, 3) is None
    assert point_distance(g, Point.on_edge(0, 1, F(1, 2)), Point.vertex(4)) is None
    assert vertex_distance(g, 3, 2) == 1


def test_build_rejections():
    with pytest.raises(GraphValidationError, match="loop"):
        Graph([(1, 1)])
    with pytest.raises(GraphValidationError, match="duplicate"):
        Graph([(0, 1), (1, 0)])
    with pytest.raises(GraphValidationError, match="outside"):
        Graph([(0, 5)], n=3)
    with pytest.raises(GraphValidationError, match="negative vertex count -2"):
        Graph([], n=-2)


def test_adjacency_is_ascending_whatever_the_edge_order():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randrange(1, 30)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [(v, u) if rng.random() < 0.5 else (u, v)
                 for u, v in rng.sample(pairs, rng.randrange(len(pairs) + 1))]
        g = Graph(edges, n=n)
        for u in range(n):
            assert all(a < b for a, b in zip(g.adj[u], g.adj[u][1:])), (edges, u)
            assert list(g.adj[u]) == sorted(w for e in g.edges if u in e for w in e if w != u)


def test_point_normalization():
    assert Point.on_edge(0, 1, F(0)) == Point.vertex(0)
    assert Point.on_edge(0, 1, F(1)) == Point.vertex(1)
    assert Point.on_edge(1, 0, F(1, 4)) == Point.on_edge(0, 1, F(3, 4))
    with pytest.raises(InvalidPointError):
        Point.on_edge(0, 1, F(5, 4))
    assert tuple(Point.on_edge(3, 1, F(1, 3))) == (1, 3, F(2, 3))
    assert Point.on_edge(2, 2, F(0)) == Point.vertex(2) == (2, 2, 0)
    with pytest.raises(InvalidPointError, match=r"interior point on loop \(2, 2\)"):
        Point.on_edge(2, 2, F(1, 2))


def test_point_is_an_immutable_u_v_t_tuple():
    p = Point.on_edge(4, 1, F(1, 4))
    u, v, t = p
    assert (u, v, t) == (p.u, p.v, p.t) == (1, 4, F(3, 4))
    for field in ("u", "v", "t"):
        with pytest.raises(AttributeError):
            setattr(p, field, 0)
    # Equal points hash alike, an int offset as its Fraction.
    assert hash(Point(0, 0, 0)) == hash(Point.vertex(0))
    assert hash(Point(1, 4, F(6, 8))) == hash(p)
    rng = random.Random(5)
    points = [Point.vertex(rng.randrange(4)) for _ in range(10)]
    points += [Point.on_edge(*rng.sample(range(4), 2), F(rng.randrange(1, 7), 7))
               for _ in range(20)]
    assert sorted(points) == sorted(points, key=lambda q: (q.u, q.v, q.t))


def test_a_fraction_keeps_its_lowest_terms_in_slots():
    # The point hash, the verifier's offset parse and the proof memo read
    # these slots; without them they would fall back, slower, in silence.
    assert F(6, 8)._numerator == 3 and F(6, 8)._denominator == 4


def test_the_library_constructor_builds_the_public_point():
    rng = random.Random(25)
    fields = [(2, 2, 0), (3, 3, F(0))]
    for _ in range(20):
        u, v = sorted(rng.sample(range(6), 2))
        fields += [(u, v, F(rng.randrange(1, 9), 9)), (v, v, F(0))]
    made = [_make_point(f) for f in fields]
    built = [Point(*f) for f in fields]
    for p, q in zip(made, built):
        assert type(p) is Point
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        u, v, t = p
        assert (u, v, t) == (q.u, q.v, q.t)
    assert hash(_make_point((2, 2, 0))) == hash(Point.vertex(2))
    order = sorted(range(len(fields)), key=lambda i: made[i])
    assert order == sorted(range(len(fields)), key=lambda i: built[i])


def test_invalid_points_keep_their_messages_in_the_verifier():
    g = path(2)
    for bad, message in ((Point.vertex(3), "vertex 3 outside [0, 3)"),
                         (Point.vertex(-1), "vertex -1 outside [0, 3)"),
                         (Point(0, 2, F(1, 2)), "edge (0, 2) not in graph")):
        with pytest.raises(InvalidPointError) as err:
            is_delta_cover(g, Cover.of([Point.vertex(1), bad], F(1)))
        assert str(err.value) == message


def test_point_distance_triangle_midpoint():
    g = k_n(3)
    d = point_distance(g, Point.on_edge(0, 1, F(1, 2)), Point.vertex(2))
    assert d == F(3, 2)


def test_point_distance_same_edge_direct():
    g = Graph([(0, 1)])
    d = point_distance(g, Point.on_edge(0, 1, F(1, 4)), Point.on_edge(0, 1, F(3, 4)))
    assert d == F(1, 2)


def test_point_distance_c4_opposite_midpoints():
    g = cycle(4)
    d = point_distance(g, Point.on_edge(0, 1, F(1, 2)), Point.on_edge(2, 3, F(1, 2)))
    assert d == 2


def test_point_distance_matches_grid_bfs():
    g = cycle(5)
    pts = [Point.vertex(0), Point.on_edge(0, 1, F(1, 3)), Point.on_edge(2, 3, F(5, 6)),
           Point.on_edge(3, 4, F(1, 2))]
    for p in pts:
        for q in pts:
            got = point_distance(g, p, q)
            key_p = (p.u,) if p.is_vertex else (p.u, p.v, int(p.t * 6))
            key_q = (q.u,) if q.is_vertex else (q.u, q.v, int(q.t * 6))
            want = grid_distance(list(g.edges), g.n, key_p, key_q, 6)
            assert got == want


def random_graph(rng, n):
    """A seeded random graph on n vertices; it may be disconnected."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(rng.sample(pairs, rng.randint(1, len(pairs))), n=n)


def random_point(rng, g):
    if rng.random() < 0.3:
        return Point.vertex(rng.randrange(g.n))
    u, v = rng.choice(g.edges)
    den = rng.randint(1, 40)
    return Point.on_edge(u, v, F(rng.randint(0, den), den))


def test_integer_point_distance_equals_fraction_sums():
    rng = random.Random(20261018)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8))
        pts = [random_point(rng, g) for _ in range(8)]
        # Points on one shared edge exercise the along-edge route.
        u, v = g.edges[0]
        pts += [Point.on_edge(u, v, F(1, 3)), Point.on_edge(u, v, F(5, 7))]
        for p in pts:
            for q in pts:
                got = point_distance(g, p, q)
                assert got == point_distance_by_fractions(g, p, q), (g.edges, p, q)
                assert got is None or type(got) is F


def test_project_point_equals_the_fraction_formula():
    # Every point of a subdivision, pulled back by the Fraction formula, sits
    # 1/x as far from each vertex of g as it does in the subdivided graph.
    rng = random.Random(9)
    graphs = [random_graph(rng, n) for n in (2, 3, 5, 6)]
    graphs.append(Graph([(0, 2), (2, 3), (1, 3)], n=5))  # vertex 4 is isolated
    flipped = 0
    for g in graphs:
        for x in range(1, 6):
            sub = subdivide(g, x)
            probes = [Point.vertex(w) for w in range(sub.n)]
            for a, b in sub.edges:
                den = rng.randint(2, 30)
                probes += [Point(a, b, F(1, 2)), Point(a, b, F(rng.randrange(1, den), den))]
            paths = subdivision_paths(g, sub)
            assert len(paths) == g.m and all(len(path) == x + 1 for path in paths)
            flipped += sum(path[j] > path[j + 1] for path in paths for j in range(x))
            for p in probes:
                q = project_point_by_fractions(g, paths, x, p)
                w = Point.vertex(rng.randrange(g.n))
                want = point_distance(g, w, q)
                got = point_distance(sub, w, p)
                assert got == (None if want is None else x * want), (g.edges, x, p)
    assert flipped > 0  # last segments run from a new vertex down to v


def test_point_distance_rejects_foreign_edge():
    g = path(2)
    with pytest.raises(InvalidPointError):
        point_distance(g, Point.on_edge(0, 2, F(1, 2)), Point.vertex(0))


def test_subdivide_counts():
    g2 = subdivide(Graph([(0, 1)]), 3)
    assert (g2.n, g2.m) == (4, 3)
    g3 = subdivide(k_n(3), 2)
    assert (g3.n, g3.m) == (6, 6)
    assert all(g3.degree(v) == 2 for v in range(6))
    g4 = subdivide(cycle(4), 3)
    assert (g4.n, g4.m) == (12, 12)


def test_subdivision_scales_distances():
    g = cycle(4)
    for x in (2, 3):
        gx = subdivide(g, x)
        paths = subdivision_paths(g, gx)
        pts = [Point.vertex(1), Point.on_edge(0, 1, F(1, 2)), Point.on_edge(2, 3, F(1, 4))]
        for p in pts:
            for q in pts:
                lifted = point_distance(gx, lift_point_by_fractions(g, paths, x, p),
                                        lift_point_by_fractions(g, paths, x, q))
                assert lifted == x * point_distance(g, p, q)


def lift_cover(g, x, cover):
    paths = subdivision_paths(g, subdivide(g, x))
    return Cover.of((lift_point_by_fractions(g, paths, x, p) for p in cover.points),
                    cover.delta * x)


def project_cover(g, x, cover):
    paths = subdivision_paths(g, subdivide(g, x))
    return Cover.of((project_point_by_fractions(g, paths, x, p) for p in cover.points),
                    cover.delta / x)


def test_map_cover_from_subdivision_examples():
    k2 = Graph([(0, 1)])
    mid = Cover.of([Point.vertex(2)], F(1))  # middle vertex of the 2-subdivision
    assert project_cover(k2, 2, mid).points == {Point.on_edge(0, 1, F(1, 2))}

    inner = Point.on_edge(2, 3, F(1, 2))  # the middle segment of the path 0, 2, 3, 1
    got = project_cover(k2, 3, Cover.of([inner], F(1)))
    assert got.points == {Point.on_edge(0, 1, F(1, 2))}
    assert got.delta == F(1, 3)

    verts = Cover.of([Point.vertex(0), Point.vertex(1)], F(1))
    assert project_cover(k2, 3, verts).points == verts.points


def test_lift_cover_examples():
    k2 = Graph([(0, 1)])
    assert lift_cover(k2, 2, Cover.of([Point.on_edge(0, 1, F(1, 2))], F(1))
                      ).points == {Point.vertex(2)}
    assert lift_cover(k2, 5, Cover.of([Point.vertex(0)], F(1))
                      ).points == {Point.vertex(0)}
    got = lift_cover(k2, 3, Cover.of([Point.on_edge(0, 1, F(1, 3))], F(1)))
    assert got.points == {Point.vertex(2)}  # first inner vertex sits at offset 1/3


def test_lift_map_round_trip():
    g = cycle(4)
    cover = Cover.of(
        [Point.vertex(0), Point.on_edge(1, 2, F(2, 5)), Point.on_edge(0, 3, F(1, 7))],
        F(1, 2),
    )
    for x in (2, 3, 4):
        back = project_cover(g, x, lift_cover(g, x, cover))
        assert back.points == cover.points and back.delta == cover.delta


def test_wreath_k2_examples():
    k4 = wreath_k2(Graph([(0, 1)]))
    assert (k4.n, k4.m) == (4, 6)  # complete graph on 4 vertices
    k2 = wreath_k2(Graph([], n=1))
    assert (k2.n, k2.m) == (2, 1)
    doubled = wreath_k2(cycle(4))
    assert (doubled.n, doubled.m) == (8, 20)


def test_induced_subgraph_equals_the_edge_scan_definition():
    from deltacover.graphs import _traversal

    rng = random.Random(31)
    for _ in range(60):
        # A few random pieces side by side, with isolated vertices among them.
        edges, n = [], 0
        for _ in range(rng.randrange(1, 6)):
            size = rng.randrange(1, 8)
            pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
            edges += [(u + n, v + n) for u, v in rng.sample(pairs, rng.randrange(len(pairs) + 1))]
            n += size
        ids = list(range(n))
        rng.shuffle(ids)
        g = Graph([(ids[u], ids[v]) for u, v in edges], n=n)
        subsets = [*_traversal(g).components, rng.sample(range(n), rng.randrange(n + 1))]
        for vertices in subsets:
            sub, old = induced_subgraph(g, vertices)
            to_new = {u: i for i, u in enumerate(sorted(vertices))}
            scanned = [(to_new[u], to_new[v]) for u, v in g.edges if u in to_new and v in to_new]
            assert old == sorted(vertices)
            assert sub == Graph(scanned, n=len(vertices))


def test_is_forest_equals_the_per_component_definition():
    rng = random.Random(17)
    verdicts = set()
    for _ in range(80):
        # Random trees side by side, isolated vertices among them, and
        # sometimes one extra edge inside a piece, which closes a cycle.
        edges, n = [], 0
        for _ in range(rng.randrange(1, 6)):
            size = rng.randrange(1, 8)
            tree = [(rng.randrange(v), v) for v in range(1, size)]
            if size >= 3 and rng.random() < 0.3:
                pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
                tree.append(rng.choice([e for e in pairs if e not in tree]))
            edges += [(u + n, v + n) for u, v in tree]
            n += size
        g = Graph(edges, n=n)
        verdicts.add(is_forest(g))
        assert is_forest(g) == is_forest_by_components(g)
    assert verdicts == {True, False}


def test_the_traversal_memo_equals_a_cold_search_and_is_immutable():
    from dataclasses import FrozenInstanceError

    from deltacover.graphs import _traversal

    # Two components, an isolated vertex, ids out of BFS order.
    g = Graph([(0, 4), (4, 2), (2, 0), (1, 5), (5, 6)], n=8)
    warm = _traversal(g)
    assert _traversal(Graph(g.edges, n=g.n)) is warm  # keyed by value
    _traversal.cache_clear()
    assert _traversal.cache_info().currsize == 0
    cold = _traversal(g)
    assert cold == warm and cold is not warm
    assert cold.orders == ((0, 2, 4), (1, 5, 6), (3,), (7,))
    assert cold.components == ((0, 2, 4), (1, 5, 6), (3,), (7,))
    assert cold.parent == (-1, -1, 0, -1, 0, 1, 5, -1)
    for fields in (cold.orders, cold.components):
        assert isinstance(fields, tuple) and all(isinstance(c, tuple) for c in fields)
    assert isinstance(cold.parent, tuple)
    with pytest.raises(FrozenInstanceError):
        cold.parent = ()


def test_a_graph_memo_is_bounded_by_the_cells_of_its_graphs(monkeypatch):
    import deltacover.graphs
    from deltacover.graphs import _traversal

    monkeypatch.setattr(deltacover.graphs, "MEMO_CELLS", 20)
    p3, p4, p5 = path(3), path(4), path(5)  # 7, 9 and 11 vertices plus edges
    _traversal(p3)
    _traversal(p4)
    _traversal(p3)
    info = _traversal.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
    _traversal(p5)  # 27 cells: the memo is emptied first and then holds p5
    assert _traversal.cache_info().currsize == 1
    assert _traversal(p5) is _traversal(p5)
    _traversal(p3)  # 18 cells
    assert _traversal.cache_info().currsize == 2
    big = path(30)  # 61 cells, over the bound alone: it is the only entry
    _traversal(big)
    assert _traversal(big) is _traversal(big)
    assert _traversal.cache_info().currsize == 1
    _traversal.cache_clear()
    assert _traversal.cache_info().currsize == 0
