from fractions import Fraction as F

from hypothesis import assume, given, settings, strategies as st

from deltacover import (
    Budget,
    Cover,
    Graph,
    InternalConsistencyError,
    Point,
    approx_cover,
    build_set_cover,
    gallai_edmonds,
    harmonic_number,
    is_delta_cover,
    min_cover_exact,
    one_cover_min,
    point_distance,
    solve_exact,
    solve_greedy,
    subdivide,
    translate_cover_down,
)
from deltacover.matching import _nu, _tree_points, _unit_fraction_cover
from deltacover.solver import CellMidpoints, GridPoints, SetCoverInstance
from deltacover.verify import require_output
from oracles import (
    brute_max_matching,
    brute_set_cover_size,
    coverage_by_distance,
    gallai_edmonds_by_definition,
    greedy_picks_by_scan,
    interval_verify,
    lift_point_by_fractions,
    project_point_by_fractions,
    quarter_grid_coverage_by_distance,
    subdivision_paths,
    tree_cover_by_fractions,
    unit_fraction_cover_via_subdivided_graph,
)


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
    return Graph(sorted(edges), n=n)


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


@given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_equal_points_hash_equal(u, v, den, data):
    num = data.draw(st.integers(0, den))
    k = data.draw(st.integers(2, 6))
    p = Point(u, v, F(num, den))
    same = [Point(u, v, F(num * k, den * k))]
    if num % den == 0:
        same.append(Point(u, v, num // den))  # an int offset, as in Point(u, u, 0)
    for q in same:
        assert q == p and hash(q) == hash(p) and len({p, q}) == 1


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
    gx = subdivide(g, x)
    paths = subdivision_paths(g, gx)
    lifted = point_distance(gx, lift_point_by_fractions(g, paths, x, p),
                            lift_point_by_fractions(g, paths, x, q))
    assert lifted == x * point_distance(g, p, q)


@given(graphs_with_points(4), st.sampled_from([2, 3, 5]))
@settings(max_examples=80, deadline=None)
def test_subdivision_round_trip(case, x):
    g, pts = case
    cover = Cover.of(pts, F(1, 2))
    paths = subdivision_paths(g, subdivide(g, x))
    lifted = {lift_point_by_fractions(g, paths, x, p) for p in cover.points}
    assert len(lifted) == len(cover)
    assert {project_point_by_fractions(g, paths, x, p) for p in lifted} == cover.points


VERIFY_RADII = [F(1, 3), F(2, 5), F(1, 2), F(3, 4), F(1), F(7, 6), F(3, 2), F(5, 2)]


@st.composite
def verify_cases(draw, kinds=("grid",)):
    """A graph (maybe disconnected, maybe with isolated vertices), a radius
    and a cover (maybe empty) whose offsets sit on the radius's half-grid,
    where touching balls are common, or on denominators coprime to it.

    ``kinds`` names the ways an interior point is drawn.  "grid" is the
    draw above.  "at_reach" puts it at offset delta mod 1 from an endpoint,
    so a seed lies exactly at the radius or the search reaches a vertex
    exactly at it.  "tie" repeats an earlier point's distance from its
    lesser endpoint on another edge there, so two seeds of one vertex tie."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9)) if pairs else []
    g = Graph(edges, n=n)
    delta = draw(st.sampled_from(VERIFY_RADII))
    b = delta.denominator
    points = []
    for _ in range(draw(st.integers(0, 5))):
        if not g.edges or draw(st.booleans()):
            points.append(Point.vertex(draw(st.integers(0, n - 1))))
            continue
        u, v = draw(st.sampled_from(g.edges))
        kind = draw(st.sampled_from(kinds))
        inside = [p for p in points if not p.is_vertex]
        if kind == "tie" and inside:
            p = draw(st.sampled_from(inside))
            w = draw(st.sampled_from(g.adj[p.u]))
            points.append(Point.on_edge(p.u, w, p.t))
        elif kind == "at_reach":
            t = delta - delta.numerator // delta.denominator
            points.append(Point.on_edge(u, v, draw(st.sampled_from([t, 1 - t]))))
        else:
            den = draw(st.sampled_from([2 * b, 4 * b, 7, 11, 13]))
            points.append(Point.on_edge(u, v, F(draw(st.integers(1, den - 1)), den)))
    return g, Cover.of(points, delta), delta


@given(verify_cases())
@settings(max_examples=400, deadline=None)
def test_verifier_report_equals_interval_oracle(case):
    g, cover, delta = case
    assert is_delta_cover(g, cover, delta) == interval_verify(g, cover, delta)


@given(verify_cases(kinds=("grid", "at_reach", "tie")))
@settings(max_examples=200, deadline=None)
def test_verifier_report_equals_interval_oracle_at_ties_and_reach(case):
    g, cover, delta = case
    assert is_delta_cover(g, cover, delta) == interval_verify(g, cover, delta)


def _endpoint_side(draw, reach):
    """(D, the nearest edge point's distance) for one endpoint of uv.

    Either in reach, at distance D from a point at the endpoint (D = 0) or
    on its outer edge, with D + (the distance to it of the nearest point
    inside uv) - 2 reach in {-1, 0, 1}, so the two balls miss by one,
    touch or overlap by one; or out of reach (D = None), with every point
    farther than reach from it and the edge's own ball ending one or two
    short of it.
    """
    if draw(st.booleans()):
        # At dist = reach, c = -1 would put the edge's own point nearer.
        c = draw(st.sampled_from([-1, 0, 1]))
        dist = draw(st.integers(0, reach - (c < 0)))
        return dist, 2 * reach - dist + c
    return None, reach + draw(st.sampled_from([1, 2]))


@st.composite
def multi_point_edges(draw, counts=(1,)):
    """A path s_u - u - v - s_v at radius reach/scale, in scaled integers.

    Edge uv carries k interior points, k drawn from ``counts``, whose
    consecutive balls miss by one, touch or overlap by one.  Each endpoint
    is drawn by ``_endpoint_side``, the first point a from u and the last
    b from v.  Vertex ids are shuffled, so u may be the greater endpoint.
    """
    reach = draw(st.integers(1, 6))
    (du, a), (dv, b) = _endpoint_side(draw, reach), _endpoint_side(draw, reach)
    offsets = [a]
    for _ in range(draw(st.sampled_from(counts)) - 1):
        offsets.append(offsets[-1] + 2 * reach + draw(st.sampled_from([-1, 0, 1])))
    scale = offsets[-1] + b
    assume(a > 0 and b > 0)
    u, v, su, sv = draw(st.permutations(range(4)))
    points = [Point.on_edge(u, v, F(x, scale)) for x in offsets]
    for x, s, dist in ((u, su, du), (v, sv, dv)):
        if dist == 0:
            points.append(Point.vertex(x))
        elif dist is not None:
            assume(dist < scale)
            points.append(Point.on_edge(x, s, F(dist, scale)))
        elif reach + 1 < scale:
            points.append(Point.on_edge(x, s, F(draw(st.integers(reach + 1, scale - 1)), scale)))
    g = Graph([(su, u), (u, v), (v, sv)], n=4)
    return g, Cover.of(points, F(reach, scale))


@given(multi_point_edges())
@settings(max_examples=400, deadline=None)
def test_one_point_edges_report_equals_interval_oracle(case):
    g, cover = case
    assert is_delta_cover(g, cover) == interval_verify(g, cover, cover.delta)


@given(multi_point_edges(counts=(2, 3, 4)))
@settings(max_examples=400, deadline=None)
def test_multi_point_edges_report_equals_interval_oracle(case):
    g, cover = case
    assert is_delta_cover(g, cover) == interval_verify(g, cover, cover.delta)


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


@given(connected_graphs(max_n=4), st.data())
@settings(max_examples=200, deadline=None)
def test_require_output_raises_iff_the_verifier_rejects(g, data):
    # The proof memo is not emptied between examples, so every call meets
    # the memo as the earlier draws left it: small graphs recur, and each
    # example asks about two point sets at radii in a random order.
    sets = [frozenset(data.draw(st.lists(graph_points(g), max_size=4))) for _ in range(2)]
    for _ in range(data.draw(st.integers(1, 8))):
        cover = Cover(data.draw(st.sampled_from(sets)),
                      data.draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2)])))
        try:
            require_output(g, cover, "property")
        except InternalConsistencyError:
            raised = True
        else:
            raised = False
        assert raised is not is_delta_cover(g, cover).is_cover


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
        for p in GridPoints(g, 4 * b)
    )
    assert grid_ok == is_delta_cover(g, cover, delta).is_cover
    # The cell midpoints alone decide it too: the universe of build_set_cover.
    midpoints_ok = all(
        any(point_distance(g, p, q) <= delta for q in cover.points)
        for p in CellMidpoints(g, 2 * b)
    )
    assert midpoints_ok == grid_ok


@st.composite
def set_systems(draw, max_elems=10, max_cands=12):
    """Masks over 1..max_elems elements, at most max_cands of them, covering all."""
    n = draw(st.integers(1, max_elems))
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(1, full), min_size=1, max_size=max_cands))
    missed = full
    for m in masks:
        missed &= ~m
    if missed:
        i = draw(st.integers(0, len(masks) - 1))
        masks[i] |= missed
    return n, masks


@st.composite
def nested_set_systems(draw):
    """Masks of three or four of 10-13 elements, plus copies and subsets.

    Masks this small against this many elements leave a gap between the
    root's bounds and the optimum, so the search branches, and the nested
    and equal masks, at random places, are what its sibling skip acts on.
    """
    n = draw(st.integers(10, 13))
    small = st.sets(st.integers(0, n - 1), min_size=3, max_size=4)
    masks = [sum(1 << e for e in es) for es in draw(st.lists(small, min_size=n, max_size=16))]
    for e in range(n):
        if not any(m >> e & 1 for m in masks):
            masks[draw(st.integers(0, len(masks) - 1))] |= 1 << e
    for _ in range(draw(st.integers(2, 6))):
        m = draw(st.sampled_from(masks))
        if draw(st.booleans()):
            m &= draw(st.integers(1, (1 << n) - 1))
        if m:
            masks.insert(draw(st.integers(0, len(masks))), m)
    return n, masks


@given(st.one_of(set_systems(), nested_set_systems()))
@settings(max_examples=400, deadline=None)
def test_exact_set_cover_is_optimal_and_its_incumbent_covers(case):
    n, masks = case
    points = tuple(Point.vertex(i) for i in range(max(n, len(masks))))
    inst = SetCoverInstance(F(1), points[:n], points[:len(masks)], tuple(masks))
    full = (1 << n) - 1
    for budget, optimal in ((Budget(max_nodes=0, max_seconds=1e9), False), (Budget(), True)):
        res = solve_exact(inst, budget)
        covered = 0
        for p in res.cover.points:
            covered |= masks[p.u]
        assert covered == full
        assert res.optimal == optimal
    assert len(res.cover) == brute_set_cover_size(masks, full, len(masks) + 1)


@given(connected_graphs(max_n=5), st.sampled_from([F(1, 2), F(2, 3), F(1), F(3, 2)]))
@settings(max_examples=30, deadline=None)
def test_greedy_dominates_exact_within_harmonic(g, delta):
    inst = build_set_cover(g, delta)
    exact = solve_exact(inst)
    greedy = solve_greedy(inst)
    assert exact.optimal
    assert len(greedy.cover) >= len(exact.cover)
    assert len(greedy.cover) <= harmonic_number(len(inst.universe)) * len(exact.cover)


@st.composite
def long_paths_and_cycles(draw):
    """Paths and cycles on 6 or 7 vertices, in shuffled ids: at delta >= 2 an
    anchor reaches radius // scale >= 2 hop layers, with whole stars in
    the first and a partial run in the last."""
    n = draw(st.integers(6, 7))
    edges = [(i, i + 1) for i in range(n - 1)]
    if draw(st.booleans()):
        edges.append((n - 1, 0))
    ids = draw(st.permutations(range(n)))
    return Graph([(ids[u], ids[v]) for u, v in edges], n=n)


@given(st.one_of(set_systems(), nested_set_systems()))
@settings(max_examples=200, deadline=None)
def test_greedy_picks_equal_the_per_candidate_scan_on_set_systems(case):
    n, masks = case
    points = tuple(Point.vertex(i) for i in range(max(n, len(masks))))
    inst = SetCoverInstance(F(1), points[:n], points[:len(masks)], tuple(masks))
    picks = greedy_picks_by_scan(masks, n)
    assert solve_greedy(inst).cover.points == {points[i] for i in picks}


@given(st.one_of(connected_graphs(max_n=7), long_paths_and_cycles()),
       st.sampled_from([F(3, 2), F(2), F(5, 2), F(3)]))
@settings(max_examples=80, deadline=None)
def test_greedy_picks_equal_the_per_candidate_scan_on_instances(g, delta):
    inst = build_set_cover(g, delta)
    picks = greedy_picks_by_scan(list(inst.masks), len(inst.universe))
    assert solve_greedy(inst).cover.points == {inst.candidates[i] for i in picks}


@st.composite
def any_graphs(draw, max_n=10):
    """Graphs on 1..max_n vertices, maybe disconnected, maybe with isolated vertices."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=18)) if pairs else []
    return Graph(edges, n=n)


# Radii in (0, 1/2), (1/2, 3/2) and from 3/2 up, unit and non-unit fractions,
# and two far above every drawn diameter, where the hop balls stop growing
# before radius // scale rounds.
COVERAGE_DELTAS = [F(1, 4), F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(2, 3), F(1), F(5, 4),
                   F(4, 3), F(3, 2), F(5, 3), F(2), F(5, 2), F(3), F(33, 4), F(10)]


@given(st.one_of(any_graphs(max_n=5), long_paths_and_cycles()), st.sampled_from(COVERAGE_DELTAS))
@settings(max_examples=150, deadline=None)
def test_set_cover_masks_equal_pairwise_distances(g, delta):
    inst = build_set_cover(g, delta)
    got = (tuple(inst.universe), tuple(inst.candidates), inst.masks)
    assert got == coverage_by_distance(g, delta)


def test_set_cover_masks_at_radii_far_above_the_diameter():
    # A 5-vertex path (diameter 4) at 33/4, with an isolated vertex and a
    # triangle beside it, and the path alone at radii from just below its
    # diameter to far above it.
    path5 = [(0, 1), (1, 2), (2, 3), (3, 4)]
    cases = [(Graph(path5), F(33, 4)),
             (Graph(path5 + [(6, 7), (7, 8), (6, 8)], n=9), F(33, 4)),
             *((Graph(path5), d) for d in (F(7, 2), F(4), F(9, 2), F(17, 2), F(101, 7)))]
    for g, delta in cases:
        inst = build_set_cover(g, delta)
        got = (tuple(inst.universe), tuple(inst.candidates), inst.masks)
        assert got == coverage_by_distance(g, delta), (g.edges, str(delta))
        # Each candidate on the path reaches all of it.
        path_cells = sum(1 << i for i, p in enumerate(inst.universe) if p.u < 5 and not p.is_vertex)
        for i, c in enumerate(inst.candidates):
            if c.u < 5 and delta >= 4:
                assert inst.masks[i] & path_cells == path_cells


# Radii with b <= 7 below and above 1 and 3/2.
EXACTNESS_DELTAS = [F(3, 4), F(6, 7), F(1), F(8, 7), F(4, 3), F(7, 5), F(3, 2), F(11, 7),
                    F(5, 3), F(2)]


@given(any_graphs(max_n=7), st.sampled_from(EXACTNESS_DELTAS))
@settings(max_examples=150, deadline=None)
def test_cell_midpoints_give_the_optimum_of_the_quarter_grid(g, delta):
    # The cell-midpoint universe proves the same optimum as the 1/(4b) grid,
    # built pair by pair, and its cover verifies.
    assume(g.m <= 9)
    inst = build_set_cover(g, delta)
    grid_inst = SetCoverInstance(delta, *quarter_grid_coverage_by_distance(g, delta))
    assert grid_inst.candidates == tuple(inst.candidates)
    new, old = solve_exact(inst), solve_exact(grid_inst)
    assert new.optimal and old.optimal
    assert len(new.cover) == len(old.cover)
    assert is_delta_cover(g, new.cover, delta).is_cover


@given(any_graphs())
@settings(max_examples=300, deadline=None)
def test_gallai_edmonds_split_equals_definition(g):
    ge = gallai_edmonds(g)
    assert (ge.D, ge.A, ge.C, ge.d_components) == gallai_edmonds_by_definition(g)
    assert ge.c_ge3 == sum(len(c) >= 3 for c in ge.d_components)
    nu = brute_max_matching(g)
    assert _nu(g) == ge.matching.size == nu
    used = [v for e in ge.matching.edges for v in e]
    assert len(used) == len(set(used)) and all(e in g.edge_index for e in ge.matching.edges)


@given(any_graphs())
@settings(max_examples=200, deadline=None)
def test_one_cover_equals_branch_and_bound(g):
    exact = min_cover_exact(g, F(1), Budget(max_seconds=20))
    assert exact.proven
    fast = one_cover_min(g)
    assert fast.proven
    assert len(fast.cover) == len(exact.cover)
    assert is_delta_cover(g, fast.cover, F(1)).is_cover


@st.composite
def forests(draw, max_n=14):
    """Forests on 1..max_n vertices in shuffled ids; some vertices stay isolated."""
    n = draw(st.integers(1, max_n))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(-1, v - 1))  # -1: v starts a new tree
        if u >= 0:
            edges.append((u, v))
    ids = draw(st.permutations(range(n)))
    return Graph([(ids[u], ids[v]) for u, v in edges], n=n)


# Unit fractions, non-unit radii below 1, and radii above 1.
TREE_RADII = [F(1, 3), F(1, 2), F(1), F(2, 5), F(3, 5), F(2, 3), F(4, 7), F(3, 4),
              F(5, 4), F(3, 2), F(7, 3), F(5, 2)]


@given(forests(), st.sampled_from(TREE_RADII))
@settings(max_examples=400, deadline=None)
def test_integer_tree_climb_equals_fraction_climb(g, delta):
    assert _tree_points(g, delta) == tree_cover_by_fractions(g, delta)


@given(st.one_of(any_graphs(), forests()), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_subdivision_adjacency_equals_the_subdivided_graph(g, x):
    # New vertex j of edge i is n + i(x-1) + j - 1: the oracle lift and
    # pull-back rely on this numbering.
    sub = subdivide(g, x)
    assert (sub.n, sub.m) == (g.n + g.m * (x - 1), g.m * x)
    paths = [(u, *(g.n + i * (x - 1) + j - 1 for j in range(1, x)), v)
             for i, (u, v) in enumerate(g.edges)]
    assert subdivision_paths(g, sub) == paths
    adj = [set() for _ in range(sub.n)]
    for path in paths:
        for a, b in zip(path, path[1:]):
            adj[a].add(b)
            adj[b].add(a)
    assert [set(nbrs) for nbrs in sub.adj] == adj


@given(st.one_of(any_graphs(), forests()), st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_unit_fraction_route_equals_the_subdivided_graph_route(g, b):
    # The translated cover places its points elsewhere, but it is a cover of
    # the same, minimum, size.
    _unit_fraction_cover.cache_clear()
    got = _unit_fraction_cover(g, b)
    want = unit_fraction_cover_via_subdivided_graph(g, b)
    assert len(got) == len(want) and got.delta == want.delta == F(1, b)
    assert interval_verify(g, got, F(1, b)).is_cover


# Radii at which the property below draws its input covers, all <= 1.
TRANSLATION_RADII = [F(1), F(4, 5), F(3, 4), F(2, 3), F(1, 2), F(1, 3)]


@st.composite
def covers_to_translate(draw):
    """A graph and a cover of it at a radius <= 1: ``approx_cover``'s answer
    plus a few more points at offsets j/12 or at vertices."""
    g = draw(any_graphs(max_n=8))
    delta = draw(st.sampled_from(TRANSLATION_RADII))
    points = set(approx_cover(g, delta).cover.points)
    for _ in range(draw(st.integers(0, 4))):
        if g.edges and draw(st.booleans()):
            points.add(draw(graph_points(g)))
        else:
            points.add(Point.vertex(draw(st.integers(0, g.n - 1))))
    return g, Cover(frozenset(points), delta)


@given(covers_to_translate(), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_translate_cover_down_gives_a_cover_with_k_more_points_per_edge(case, k):
    g, s = case
    out = translate_cover_down(g, s, k)
    assert out.delta == s.delta / (1 + 2 * k * s.delta)
    assert len(out) == len(s) + k * g.m
    assert interval_verify(g, out, out.delta).is_cover


@given(st.integers(0, 9), st.integers(0, 9),
       st.one_of(st.fractions(0, 1), st.integers(0, 1), st.floats(0, 1)))
@settings(max_examples=300, deadline=None)
def test_a_point_hashes_as_its_offset_integer_ratio(u, v, t):
    # The slot read and the as_integer_ratio() fallback give one hash, so
    # set order, and with it every output, cannot depend on the path taken.
    p = Point(u, v, t)
    assert hash(p) == hash((p.u, p.v, *p.t.as_integer_ratio()))
    assert hash(p) == hash(Point(u, v, F(t)))
