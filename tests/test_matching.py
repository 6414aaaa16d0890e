import dataclasses
import random
from collections import Counter
from fractions import Fraction as F

import pytest

import deltacover.approx
import deltacover.graphs
import deltacover.matching
import deltacover.solver
from deltacover import (
    Budget,
    Cover,
    Graph,
    InternalConsistencyError,
    InvalidCoverError,
    NotAForestError,
    approx_cover,
    cover_small_delta_odd,
    cover_via_one_cover,
    gallai_edmonds,
    is_delta_cover,
    max_matching,
    min_cover_exact,
    one_cover_min,
    subdivide,
    translate_cover_down,
    tree_cover,
    unit_fraction_cover,
)
from deltacover.families import gen_triangles_center
from deltacover.io import graph_to_text, parse_graph_text
from deltacover.matching import (
    _one_cover,
    _split_and_one_cover,
    _tree_points,
    _unit_fraction_cover,
)
from conftest import clear_library_caches, cycle, grid, k_n, path, star
from oracles import (
    brute_max_matching,
    project_point_by_fractions,
    subdivision_paths,
    tree_cover_by_fractions,
)

PETERSEN = [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
]


def test_matching_sizes():
    assert max_matching(k_n(3)).size == 1
    assert max_matching(cycle(4)).size == 2
    m = max_matching(Graph(PETERSEN))
    assert m.size == 5
    used = [v for e in m.edges for v in e]
    assert len(used) == len(set(used))


def test_matching_equals_brute_force_small():
    graphs = [k_n(3), k_n(4), cycle(5), cycle(7), path(6), star(5),
              Graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])]
    for g in graphs:
        assert max_matching(g).size == brute_max_matching(g)


def test_gallai_edmonds_triangle():
    ge = gallai_edmonds(k_n(3))
    assert ge.D == {0, 1, 2} and not ge.A and not ge.C
    assert ge.c_ge3 == 1


def test_gallai_edmonds_c4():
    ge = gallai_edmonds(cycle(4))
    assert not ge.D and not ge.A and ge.C == {0, 1, 2, 3}
    assert ge.c_ge3 == 0


def test_gallai_edmonds_p3():
    ge = gallai_edmonds(path(2))
    assert ge.D == {0, 2} and ge.A == {1} and not ge.C
    assert ge.c_ge3 == 0


def test_one_cover_examples(oracle):
    assert len(one_cover_min(path(2)).cover) == 1
    assert len(one_cover_min(cycle(4)).cover) == 2
    g3 = gen_triangles_center(3).graph
    assert len(one_cover_min(g3).cover) == 6


def test_one_cover_bounds_on_suite(atlas_suite):
    for _, g in atlas_suite:
        res = one_cover_min(g)
        ge = gallai_edmonds(g)
        assert len(res.cover) <= F(g.n + ge.c_ge3, 2) <= F(2 * g.n, 3)


def test_unit_fraction_examples():
    assert len(unit_fraction_cover(Graph([(0, 1)]), 2).cover) == 1
    assert len(unit_fraction_cover(cycle(4), 2).cover) == 4
    assert len(unit_fraction_cover(cycle(4), 3).cover) == 6  # one extra point per edge


def test_unit_fraction_matches_direct_oracle(oracle):
    graphs = [k_n(3), cycle(4), cycle(5), path(4), star(4),
              Graph([(0, 1), (1, 2), (2, 0), (0, 3)])]
    for g in graphs:
        for b in (1, 2, 3, 4):
            via_subdivision = unit_fraction_cover(g, b)
            assert via_subdivision.proven
            direct = oracle.opt(g, F(1, b))
            assert direct == len(via_subdivision.cover)


def test_unit_fraction_cover_reads_no_budget():
    res = unit_fraction_cover(grid(8, 8), 3, Budget(max_nodes=1))
    assert res.proven
    assert len(res.cover) == 144


def test_one_cover_on_long_path_and_cycle():
    long_path = path(1199)
    res = one_cover_min(long_path)
    assert res.proven and len(res.cover) == 600 == len(tree_cover(long_path, F(1)).cover)
    long_cycle = cycle(1200)
    assert len(one_cover_min(long_cycle).cover) == 600
    assert gallai_edmonds(long_cycle).C == frozenset(range(1200))


def test_tree_cover_examples():
    assert len(tree_cover(Graph([(0, 1)]), F(1, 2)).cover) == 1
    assert len(tree_cover(path(6), F(3, 5)).cover) == 5
    assert len(tree_cover(star(3), F(1)).cover) == 1


def test_tree_cover_rejects_cycles():
    with pytest.raises(NotAForestError):
        tree_cover(cycle(3), F(1))


def test_tree_cover_verifies_and_is_minimal(oracle, small_trees):
    deltas = [F(1, 4), F(2, 5), F(1, 2), F(3, 5), F(2, 3), F(1), F(7, 6), F(3, 2)]
    for name, g in small_trees:
        if g.n > 6:
            continue  # the full-range sweep lives in the acceptance suite
        for d in deltas:
            res = tree_cover(g, d)
            assert is_delta_cover(g, res.cover, d).is_cover
            assert len(res.cover) == oracle.opt(g, d), (name, str(d))


def test_tree_climb_equals_the_fraction_climb_on_shuffled_trees():
    # Paths, stars and caterpillars up to 12 vertices, three numberings
    # each.  The radii put two or more points on an edge, and at 2/7 and
    # 2/9 a need reaches delta exactly at a vertex.
    shapes = []
    for n in range(2, 13):
        shapes.append([(i, i + 1) for i in range(n - 1)])
        shapes.append([(0, i) for i in range(1, n)])
    for spine in range(2, 7):
        for legs in range(1, (12 - spine) // spine + 1):
            edges = [(i, i + 1) for i in range(spine - 1)]
            edges += [(i, spine + legs * i + j) for i in range(spine) for j in range(legs)]
            shapes.append(edges)
    rng = random.Random(25)
    most_on_an_edge, vertex_points = 0, 0
    for edges in shapes:
        n = len(edges) + 1
        for _ in range(3):
            ids = list(range(n))
            rng.shuffle(ids)
            g = Graph([(ids[a], ids[b]) for a, b in edges], n=n)
            for d in (F(1, 4), F(2, 7), F(3, 8), F(2, 9), F(3, 4)):
                points = _tree_points(g, d)
                assert points == tree_cover_by_fractions(g, d), (edges, ids, d)
                per_edge = Counter(p.edge() for p in points if not p.is_vertex)
                most_on_an_edge = max([most_on_an_edge, *per_edge.values()])
                vertex_points += sum(p.is_vertex for p in points)
    assert most_on_an_edge >= 2 and vertex_points


def test_public_entry_points_verify_once(verifier_calls):
    forest = Graph([(0, 1), (1, 2), (3, 4)], n=6)
    calls = [
        (tree_cover, forest, F(3, 5)),
        (tree_cover, path(7), F(5, 2)),
        (one_cover_min, grid(3, 3)),
        (one_cover_min, forest),
        (unit_fraction_cover, cycle(5), 3),
        (unit_fraction_cover, forest, 2),
        (min_cover_exact, k_n(4), F(2, 3)),
        (min_cover_exact, forest, F(1, 2)),
    ]
    for fn, g, *args in calls:
        clear_library_caches()  # cold, as in a fresh process
        verifier_calls.clear()
        fn(g, *args)
        assert verifier_calls == [g], (fn.__name__, g.edges)


def _without_a_needed_point(g, points, delta):
    for p in sorted(points):
        rest = frozenset(points) - {p}
        if not is_delta_cover(g, Cover(rest, delta), delta).is_cover:
            return rest
    raise AssertionError("every point is redundant")


def test_a_core_that_drops_a_point_raises_internal_consistency_error(monkeypatch):
    # Each entry point's unverified core loses a point its answer needs; the
    # output check must report a library bug, not a bad caller cover.
    g, forest = grid(3, 3), path(7)
    real_one = deltacover.matching._one_cover
    real_unit = deltacover.matching._unit_fraction_cover
    real_tree = deltacover.matching._tree_points
    real_exact = deltacover.solver.solve_exact
    real_part = deltacover.approx._component_part

    def one_cover(h, ge):
        return Cover(_without_a_needed_point(h, real_one(h, ge).points, F(1)), F(1))

    def unit_fraction(h, b):
        return Cover(_without_a_needed_point(h, real_unit(h, b).points, F(1, b)), F(1, b))

    def tree_points(h, delta):
        return set(_without_a_needed_point(h, real_tree(h, delta), delta))

    def solve_exact(inst, budget):
        res = real_exact(inst, budget)
        rest = _without_a_needed_point(g, res.cover.points, inst.delta)
        return dataclasses.replace(res, cover=Cover(rest, inst.delta))

    def component_part(h, delta, budget):
        part = real_part(h, delta, budget)
        rest = _without_a_needed_point(h, part.cover.points, delta)
        return dataclasses.replace(part, cover=Cover(rest, delta))

    monkeypatch.setattr(deltacover.matching, "_one_cover", one_cover)
    monkeypatch.setattr(deltacover.matching, "_unit_fraction_cover", unit_fraction)
    monkeypatch.setattr(deltacover.matching, "_tree_points", tree_points)
    monkeypatch.setattr(deltacover.solver, "solve_exact", solve_exact)
    monkeypatch.setattr(deltacover.approx, "_component_part", component_part)
    calls = [
        (one_cover_min, g),
        (unit_fraction_cover, g, 3),
        (tree_cover, forest, F(3, 5)),
        (min_cover_exact, g, F(2, 3)),
        (approx_cover, g, F(4, 5)),
    ]
    for fn, h, *args in calls:
        with pytest.raises(InternalConsistencyError):
            fn(h, *args)
    # One class, whichever module a caller imports it from.
    assert deltacover.solver.InternalConsistencyError is InternalConsistencyError


def test_one_cover_of_a_subdivision_covers_it(atlas_suite):
    # unit_fraction_cover verifies only the pulled-back cover on g.
    for _, g in atlas_suite[::5]:
        for b in (1, 2, 3, 4):
            sub = subdivide(g, b)
            paths = subdivision_paths(g, sub)
            inner = _one_cover(sub, gallai_edmonds(sub))
            assert is_delta_cover(sub, inner, F(1)).is_cover
            back = {project_point_by_fractions(g, paths, b, p) for p in inner.points}
            assert len(back) == len(inner) == len(unit_fraction_cover(g, b).cover)


def count_builds_and_subdivisions(monkeypatch) -> tuple[list, list]:
    """Record the arguments of every ``Graph`` built and every ``subdivide``
    call made through the ``deltacover.graphs`` module."""
    built, subdivided = [], []
    real_init, real_subdivide = Graph.__init__, deltacover.graphs.subdivide

    def init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def subdivide_counted(h, x):
        subdivided.append(x)
        return real_subdivide(h, x)

    monkeypatch.setattr(Graph, "__init__", init)
    monkeypatch.setattr(deltacover.graphs, "subdivide", subdivide_counted)
    return built, subdivided


def test_the_unit_fraction_route_builds_no_graph_and_pulls_nothing_back(monkeypatch):
    # The route translates g's own 1-cover down: it builds no graph and
    # subdivides none, so there is no subdivision to pull a point back from.
    g = gen_triangles_center(3).graph
    built, subdivided = count_builds_and_subdivisions(monkeypatch)
    cover = _unit_fraction_cover(g, 3)
    assert built == [] and subdivided == []
    monkeypatch.undo()
    assert is_delta_cover(g, cover, F(1, 3)).is_cover
    assert len(cover) == len(min_cover_exact(g, F(1, 3)).cover)


def test_a_unit_fraction_sweep_runs_one_edmonds_search_and_no_subdivision(monkeypatch):
    g = grid(3, 4)
    searched = []
    real_ge = deltacover.matching.gallai_edmonds

    def gallai_edmonds_counted(h):
        searched.append(h)
        return real_ge(h)

    monkeypatch.setattr(deltacover.matching, "gallai_edmonds", gallai_edmonds_counted)
    built, subdivided = count_builds_and_subdivisions(monkeypatch)
    sizes = [len(unit_fraction_cover(g, b).cover) for b in range(1, 7)]
    assert searched == [g] and built == [] and subdivided == []
    # Each step of two in b adds one point per edge: 1/(2k+1) from the
    # 1-cover, 1/(2k+2) from the 1/2-cover (all 12 vertices).
    assert sizes == [6, 12, 6 + 17, 12 + 17, 6 + 34, 12 + 34]


def test_unit_fraction_covers_are_minimum_on_the_atlas(atlas_suite, oracle):
    for name, g in atlas_suite:
        for b in range(1, 6):
            assert len(unit_fraction_cover(g, b).cover) == oracle.opt(g, F(1, b)), (name, b)


def test_translate_cover_down_rejects_a_non_cover():
    g = cycle(4)
    half = unit_fraction_cover(g, 2).cover
    missing = Cover(half.points - {min(half.points)}, F(1, 2))
    with pytest.raises(InvalidCoverError):
        translate_cover_down(g, missing, 1)
    with pytest.raises(ValueError):
        translate_cover_down(g, Cover(half.points, F(5, 4)), 1)
    assert translate_cover_down(g, half, 1) == unit_fraction_cover(g, 4).cover


# Radii whose route reads a matching result: unit fractions (b = 1, 3, 4),
# the 1-cover on (1, 3/2) and the small-delta odd case (k = 1, 2).
MATCHING_ROUTE_DELTAS = (F(1), F(1, 3), F(1, 4), F(9, 8), F(7, 6), F(5, 4), F(7, 5),
                         F(2, 5), F(2, 9))


@pytest.fixture
def edmonds_runs(monkeypatch) -> list[Graph]:
    """The graph of every Edmonds search the library runs."""
    real = deltacover.matching._edmonds
    runs: list[Graph] = []

    def counted(g):
        runs.append(g)
        return real(g)

    monkeypatch.setattr(deltacover.matching, "_edmonds", counted)
    return runs


def _clear_matching_memos():
    _split_and_one_cover.cache_clear()
    _unit_fraction_cover.cache_clear()


def test_a_radius_sweep_runs_one_edmonds_search_per_distinct_graph(edmonds_runs):
    for g in (grid(3, 4), gen_triangles_center(3).graph):
        edmonds_runs.clear()
        for delta in (F(1, 3), F(1), F(9, 8), F(7, 6), F(5, 4), F(7, 5), F(2, 5)):
            approx_cover(g, delta)
        unit_fraction_cover(g, 2)
        # g alone: every unit-fraction cover is translated from g's own.
        assert edmonds_runs == [g]


def test_memoized_answers_equal_fresh_ones(atlas_suite):
    two_triangles_and_a_path = Graph(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8)], n=9)
    for g in [g for _, g in atlas_suite[::5]] + [two_triangles_and_a_path]:
        cold = {}
        for delta in MATCHING_ROUTE_DELTAS:
            _clear_matching_memos()
            cold[delta] = approx_cover(g, delta)
        for delta in MATCHING_ROUTE_DELTAS:
            assert approx_cover(g, delta) == cold[delta], (g.edges, delta)


def test_the_memo_is_keyed_by_the_graph_value(edmonds_runs):
    g = grid(3, 4)
    first = one_cover_min(g)
    reparsed = parse_graph_text(graph_to_text(g))
    assert reparsed is not g and reparsed == g
    edmonds_runs.clear()
    assert one_cover_min(reparsed).cover == first.cover
    assert edmonds_runs == []
    one_more_edge = Graph(g.edges + ((0, 11),), n=g.n)
    one_cover_min(one_more_edge)
    assert edmonds_runs == [one_more_edge]


def test_a_proof_is_reused_only_at_an_equal_or_larger_radius(verifier_calls, monkeypatch):
    g = grid(3, 4)

    def searches(fn, *args):
        verifier_calls.clear()
        fn(g, *args)
        return len(verifier_calls)

    # The 1-cover routes return the memoized 1-cover at every radius.
    assert searches(cover_via_one_cover, F(7, 6)) == 1  # first proof
    assert searches(cover_via_one_cover, F(7, 6)) == 0  # same points, same radius
    assert searches(cover_via_one_cover, F(5, 4)) == 0  # larger radius
    assert searches(approx_cover, F(4, 3)) == 0
    assert searches(one_cover_min) == 1  # radius 1 is smaller: searched again
    assert searches(cover_via_one_cover, F(9, 8)) == 0
    assert searches(one_cover_min) == 0
    # The 1/3-cover is proved at 1/3 and reused at 2/5 by the small-delta route.
    assert searches(unit_fraction_cover, 3) == 1
    assert searches(cover_small_delta_odd, 1, F(2, 5)) == 0
    assert searches(unit_fraction_cover, 3) == 0
    # A core that, on a route-memo hit, returns other points that are no
    # cover is searched, rejected, and its points are never recorded.
    real = deltacover.approx._split_and_one_cover

    def broken(h):
        ge, cover = real(h)
        return ge, Cover(_without_a_needed_point(h, cover.points, F(7, 6)), F(1))

    monkeypatch.setattr(deltacover.approx, "_split_and_one_cover", broken)
    for _ in range(2):
        verifier_calls.clear()
        with pytest.raises(InternalConsistencyError):
            cover_via_one_cover(g, F(7, 6))
        assert verifier_calls == [g]
