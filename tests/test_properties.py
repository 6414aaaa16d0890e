from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from deltacover import (
    Cover,
    Point,
    build_graph,
    build_set_cover,
    discretized_universe,
    edge_coverage_intervals,
    harmonic_number,
    is_delta_cover,
    lift_cover_to_subdivision,
    map_cover_from_subdivision,
    normalize_neat,
    point_distance,
    solve_exact,
    solve_greedy,
    subdivide,
)
from oracles import interval_edge_coverage, interval_verify


@st.composite
def connected_graphs(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.add((u, v))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(all_pairs), max_size=6))
    edges.update(extra)
    return build_graph(sorted(edges), n=n)


@st.composite
def graph_points(draw, g):
    u, v = draw(st.sampled_from(list(g.edges)))
    num = draw(st.integers(0, 12))
    return Point.on_edge(u, v, F(num, 12))


@st.composite
def graphs_with_points(draw, count):
    g = draw(connected_graphs())
    pts = [draw(graph_points(g)) for _ in range(count)]
    return g, pts


@given(graphs_with_points(3))
@settings(max_examples=150, deadline=None)
def test_point_distance_is_a_metric(case):
    g, (p, q, r) = case
    dpq = point_distance(g, p, q)
    assert dpq >= 0
    assert dpq == point_distance(g, q, p)
    assert (dpq == 0) == (p == q)
    assert dpq <= point_distance(g, p, r) + point_distance(g, r, q)


@given(graphs_with_points(2), st.sampled_from([2, 3]))
@settings(max_examples=80, deadline=None)
def test_subdivision_scales_distance(case, x):
    g, (p, q) = case
    gx, smap = subdivide(g, x)
    lifted = point_distance(gx, smap.lift_point(g, p), smap.lift_point(g, q))
    assert lifted == x * point_distance(g, p, q)


@given(graphs_with_points(4), st.sampled_from([2, 3, 5]))
@settings(max_examples=80, deadline=None)
def test_subdivision_round_trip(case, x):
    g, pts = case
    cover = Cover.of(pts, F(1, 2))
    lifted = lift_cover_to_subdivision(g, x, cover)
    assert len(lifted) == len(cover)
    back = map_cover_from_subdivision(g, x, lifted)
    assert back.points == cover.points


VERIFY_RADII = [F(1, 3), F(2, 5), F(1, 2), F(3, 4), F(1), F(7, 6), F(3, 2), F(5, 2)]


@st.composite
def verify_cases(draw):
    """A graph (maybe disconnected, maybe with isolated vertices), a radius
    and a cover (maybe empty) whose offsets sit on the radius's half-grid,
    where touching balls are common, or on denominators coprime to it."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9)) if pairs else []
    g = build_graph(edges, n=n)
    delta = draw(st.sampled_from(VERIFY_RADII))
    b = delta.denominator
    points = []
    for _ in range(draw(st.integers(0, 5))):
        if not g.edges or draw(st.booleans()):
            points.append(Point.vertex(draw(st.integers(0, n - 1))))
            continue
        u, v = draw(st.sampled_from(g.edges))
        den = draw(st.sampled_from([2 * b, 4 * b, 7, 11, 13]))
        points.append(Point.on_edge(u, v, F(draw(st.integers(1, den - 1)), den)))
    return g, Cover.of(points, delta), delta


@given(verify_cases())
@settings(max_examples=400, deadline=None)
def test_verifier_report_equals_interval_oracle(case):
    g, cover, delta = case
    assert is_delta_cover(g, cover, delta) == interval_verify(g, cover, delta)
    for e in g.edges:
        iset = edge_coverage_intervals(g, e, cover, delta)
        assert iset.intervals == interval_edge_coverage(g, e, cover, delta)


@given(graphs_with_points(3), st.sampled_from([F(1, 2), F(2, 3), F(1), F(3, 2)]))
@settings(max_examples=60, deadline=None)
def test_verifier_agrees_with_distance_probes(case, delta):
    g, pts = case
    cover = Cover.of(pts[:2], delta)
    probe = pts[2]
    near = min(point_distance(g, probe, q) for q in cover.points)
    report = is_delta_cover(g, cover, delta)
    if near > delta:
        assert not report.is_cover
    if report.is_cover:
        assert near <= delta


@given(graphs_with_points(3), st.sampled_from([F(1, 2), F(1), F(3, 2)]))
@settings(max_examples=60, deadline=None)
def test_monotone_in_the_point_set(case, delta):
    g, pts = case
    small = Cover.of(pts[:1], delta)
    big = Cover.of(pts, delta)
    if is_delta_cover(g, small, delta).is_cover:
        assert is_delta_cover(g, big, delta).is_cover
    if not is_delta_cover(g, big, delta).is_cover:
        assert not is_delta_cover(g, small, delta).is_cover


@given(connected_graphs(max_n=5), st.sampled_from([F(1, 2), F(2, 3), F(1), F(4, 3)]),
       st.data())
@settings(max_examples=50, deadline=None)
def test_half_grid_covers_decided_by_the_quarter_grid(g, delta, data):
    b = delta.denominator
    candidates = sorted(
        {Point.on_edge(u, v, F(x, 2 * b)) for u, v in g.edges for x in range(2 * b + 1)}
    )
    subset = data.draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=6))
    cover = Cover.of(subset, delta)
    grid_ok = all(
        any(point_distance(g, p, q) <= delta for q in cover.points)
        for p in discretized_universe(g, b)
    )
    assert grid_ok == is_delta_cover(g, cover, delta).is_cover


@given(connected_graphs(max_n=5), st.sampled_from([F(1, 2), F(2, 3), F(1)]))
@settings(max_examples=40, deadline=None)
def test_normalize_neat_preserves_covering(g, delta):
    cover = Cover.of([Point.vertex(v) for v in range(g.n)], delta)
    extra = Cover.of(
        set(cover.points) | {Point.on_edge(*g.edges[0], F(1, 3)),
                             Point.on_edge(*g.edges[0], F(2, 3))},
        delta,
    )
    out = normalize_neat(g, extra, delta)
    assert len(out) <= len(extra)
    assert is_delta_cover(g, out, delta).is_cover
    for u, v in g.edges:
        interior = [p for p in out.points if not p.is_vertex and p.edge() == (u, v)]
        endpoints = [p for p in (Point.vertex(u), Point.vertex(v)) if p in out.points]
        if len(interior) + len(endpoints) >= 2:
            assert not interior


@given(connected_graphs(max_n=5), st.sampled_from([F(1, 2), F(2, 3), F(1), F(3, 2)]))
@settings(max_examples=30, deadline=None)
def test_greedy_dominates_exact_within_harmonic(g, delta):
    inst = build_set_cover(g, delta)
    exact = solve_exact(inst)
    greedy = solve_greedy(inst)
    assert exact.optimal
    assert greedy.size >= exact.size
    assert greedy.size <= harmonic_number(len(inst.universe)) * exact.size
