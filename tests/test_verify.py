import random
from collections import Counter
from fractions import Fraction as F

import pytest

from deltacover import (
    Cover,
    Graph,
    InvalidCoverError,
    InvalidPointError,
    Point,
    VerifyReport,
    approx_cover,
    cover_small_delta_even,
    is_delta_cover,
    unit_fraction_cover,
    verify,
)
from deltacover.graphs import _hop_row
from deltacover.solver import CellMidpoints, GridPoints
from deltacover.verify import require_cover, require_output
from conftest import cycle, grid, k_n, path
from oracles import (
    cell_midpoints,
    covered_by_sampling,
    grid as oracle_grid,
    interval_edge_coverage,
    interval_verify,
    sample_points,
)


def test_intervals_midpoint_reaches_both_ends():
    g = Graph([(0, 1)])
    s = Cover.of([Point.on_edge(0, 1, F(1, 2))], F(1, 2))
    assert is_delta_cover(g, s).per_edge_gaps == ()


def test_intervals_single_vertex():
    g = Graph([(0, 1)])
    s = Cover.of([Point.vertex(0)], F(1, 3))
    report = is_delta_cover(g, s)
    assert report.per_edge_gaps == (((0, 1), (F(1, 3), F(1))),)
    assert report.witness == Point.on_edge(0, 1, F(2, 3))


def test_intervals_far_vertex_touches_endpoints_only():
    g = k_n(3)
    s = Cover.of([Point.vertex(0)], F(1))
    assert interval_edge_coverage(g, (1, 2), s, F(1)) == ((F(0), F(0)), (F(1), F(1)))
    # Touching both ends leaves the whole open edge uncovered.
    assert is_delta_cover(g, s).per_edge_gaps == (((1, 2), (F(0), F(1))),)


def test_is_cover_triangle():
    g = k_n(3)
    good = Cover.of([Point.vertex(0), Point.on_edge(1, 2, F(1, 2))], F(1))
    assert is_delta_cover(g, good).is_cover

    bad = Cover.of([Point.vertex(0)], F(1))
    report = is_delta_cover(g, bad)
    assert not report.is_cover
    assert report.witness == Point.on_edge(1, 2, F(1, 2))
    assert report.per_edge_gaps


def test_vertices_always_cover_at_one():
    for g in (k_n(4), cycle(5), path(3)):
        s = Cover.of([Point.vertex(v) for v in range(g.n)], F(1))
        assert is_delta_cover(g, s).is_cover


def test_exactly_tight_packing_is_a_cover():
    # touching closed balls: two points at distance exactly 2*delta
    g = path(2)
    s = Cover.of([Point.on_edge(0, 1, F(1, 2)), Point.on_edge(1, 2, F(1, 2))], F(1, 2))
    assert is_delta_cover(g, s).is_cover


def test_isolated_vertex_handling():
    g = Graph([(0, 1)], n=3)
    s = Cover.of([Point.on_edge(0, 1, F(1, 2))], F(1))
    report = is_delta_cover(g, s)
    assert not report.is_cover and report.witness == Point.vertex(2)
    s2 = Cover.of([Point.on_edge(0, 1, F(1, 2)), Point.vertex(2)], F(1))
    assert is_delta_cover(g, s2).is_cover


def test_isolated_vertices_are_reported_after_the_edges_in_vertex_order():
    # Isolated vertices 0, 3 and 7: 3 is covered, 0 and 7 are not.
    g = Graph([(1, 2), (2, 4), (5, 6)], n=8)
    zero = (F(0), F(0))
    s = Cover.of([Point.vertex(2), Point.vertex(3), Point.on_edge(5, 6, F(1, 2))], F(1))
    assert is_delta_cover(g, s) == VerifyReport(
        False, Point.vertex(0), (((0, 0), zero), ((7, 7), zero)))
    # With a gap on an edge, that gap comes first and gives the witness.
    s = Cover.of([Point.vertex(2), Point.vertex(3), Point.on_edge(5, 6, F(1, 4))], F(1, 2))
    assert is_delta_cover(g, s) == VerifyReport(False, Point.on_edge(1, 2, F(1, 4)), (
        ((1, 2), (F(0), F(1, 2))), ((2, 4), (F(1, 2), F(1))), ((5, 6), (F(3, 4), F(1))),
        ((0, 0), zero), ((7, 7), zero)))
    s = Cover.of([*s.points, Point.vertex(0), Point.vertex(7)], F(1))
    assert is_delta_cover(g, s) == VerifyReport(True, None, ())


def test_a_radius_that_is_not_positive_raises():
    g = cycle(4)
    for delta in (F(0), F(-1, 2)):
        cover = Cover.of([Point.vertex(0)], delta)
        with pytest.raises(ValueError, match="must be positive"):
            approx_cover(g, delta)
        with pytest.raises(ValueError, match="must be positive"):
            is_delta_cover(g, cover)
        with pytest.raises(ValueError, match="must be positive"):
            is_delta_cover(g, Cover.of([Point.vertex(0)], 1), delta)
        with pytest.raises(ValueError, match="must be positive"):
            verify.nearest_distances(g, cover, delta)


def test_verifier_never_reads_the_distance_table():
    grid = [(r * 4 + c, r * 4 + c + 1) for r in range(3) for c in range(3)]
    grid += [(r * 4 + c, r * 4 + c + 4) for r in range(2) for c in range(4)]
    cases = [
        (grid, 12, Cover.of([Point.vertex(5), Point.on_edge(2, 6, F(1, 3)),
                             Point.vertex(8)], F(3, 2))),
        (grid, 12, Cover.of([Point.vertex(5), Point.vertex(6)], F(2))),
        ([(0, 1), (1, 2), (3, 4)], 6,
         Cover.of([Point.on_edge(0, 1, F(2, 7)), Point.on_edge(3, 4, F(1, 2)),
                   Point.vertex(5)], F(4, 5))),
        ([(0, 1), (1, 2), (3, 4)], 6,
         Cover.of([Point.on_edge(0, 1, F(1, 2)), Point.on_edge(1, 2, F(1, 2)),
                   Point.on_edge(3, 4, F(1, 2)), Point.vertex(5)], F(1, 2))),
    ]
    verdicts = []
    for edges, n, cover in cases:
        g = Graph(edges, n=n)
        report = is_delta_cover(g, cover)
        verdicts.append(report.is_cover)
        if report.is_cover:
            require_cover(g, cover, "table-free")
        else:
            with pytest.raises(InvalidCoverError) as err:
                require_cover(g, cover, "table-free")
            assert err.value.witness == report.witness
        # No hop row was computed in point_distance's memo.
        assert _hop_row.cache_info().currsize == 0
        assert report == interval_verify(g, cover, cover.delta)
    assert verdicts == [False, True, False, True]


def test_universe_sizes():
    # 2b cells per edge, and one element per isolated vertex.
    assert len(CellMidpoints(Graph([(0, 1)]), 2)) == 2
    assert len(CellMidpoints(k_n(3), 2)) == 6
    assert len(CellMidpoints(Graph([(0, 1)]), 6)) == 6
    assert len(CellMidpoints(Graph([(0, 1)], n=4), 2)) == 4
    assert len(CellMidpoints(Graph([], n=3), 8)) == 3


def test_grid_points_decoder_matches_the_list():
    rng = random.Random(8)
    for _ in range(4):
        # Nine vertices, of which the two highest and any a draw misses
        # are isolated.
        pairs = [(u, v) for u in range(7) for v in range(u + 1, 7)]
        g = Graph(rng.sample(pairs, rng.randint(3, 10)), n=9)
        for b in (1, 2, 3, 5):
            for listed, lazy in ((list(oracle_grid(g, 2 * b)), GridPoints(g, 2 * b)),
                                 (list(oracle_grid(g, 4 * b)), GridPoints(g, 4 * b)),
                                 (list(cell_midpoints(g, 2 * b)), CellMidpoints(g, 2 * b))):
                assert len(lazy) == len(listed)
                assert list(lazy) == listed
                assert [lazy[i] for i in range(-len(listed), 0)] == listed
                for i in rng.sample(range(len(listed)), 6):
                    assert lazy.index(listed[i]) == i
                with pytest.raises(IndexError):
                    lazy[len(listed)]


def test_monotonicity_adding_points():
    g = cycle(5)
    base = Cover.of(
        [Point.vertex(0), Point.on_edge(1, 2, F(1, 2)), Point.on_edge(3, 4, F(1, 2))],
        F(1),
    )
    assert is_delta_cover(g, base).is_cover
    for extra in (Point.vertex(4), Point.on_edge(1, 2, F(1, 3))):
        bigger = Cover.of(set(base.points) | {extra}, F(1))
        assert is_delta_cover(g, bigger).is_cover


def test_sampling_agreement():
    rng = random.Random(7)
    cases = [
        (k_n(4), Cover.of([Point.vertex(0), Point.on_edge(1, 2, F(1, 3))], F(1)), F(1)),
        (cycle(5), Cover.of([Point.vertex(0), Point.on_edge(2, 3, F(1, 2))], F(1)), F(1)),
        (path(4), Cover.of([Point.on_edge(1, 2, F(3, 4))], F(2)), F(2)),
    ]
    for g, cover, delta in cases:
        gaps = is_delta_cover(g, cover).per_edge_gaps
        for p in sample_points(g, 300, rng):
            by_sampling = covered_by_sampling(g, cover, delta, p)
            by_gaps = not any(e == p.edge() and lo < p.t < hi for e, (lo, hi) in gaps)
            assert by_sampling == by_gaps


def test_invalid_points_raise():
    g = path(2)
    for bad in (Point.vertex(3), Point.vertex(-1), Point(0, 2, F(1, 2))):
        with pytest.raises(InvalidPointError):
            is_delta_cover(g, Cover.of([Point.vertex(1), bad], F(1)))


def test_edges_whose_pieces_touch_are_settled_without_building_a_gap(monkeypatch):
    # Vertices plus midpoints at 1/4: on every edge the pieces [0, 1/4],
    # [1/4, 3/4] and [3/4, 1] touch.  The small-even cover at 2/7 has one
    # point per edge.  The translated 1/3 cover of the cycle has two points
    # on each edge that carried an interior point of its 1-cover, each ball
    # touching the next; the grid's 1-cover is the vertices 1, 3, 5 and 7,
    # so its translation has one point per edge, where u's reach ends.
    # The sweep settles every edge without building a gap, and a gap is the
    # only place the verifier builds a Fraction.
    c5, g33 = cycle(5), grid(3, 3)
    covers = [
        (c5, Cover.of([Point.vertex(w) for w in range(c5.n)]
                      + [Point.on_edge(u, v, F(1, 2)) for u, v in c5.edges], F(1, 4))),
        (c5, cover_small_delta_even(c5, 1, F(2, 7)).cover),
        (c5, unit_fraction_cover(c5, 3).cover),
        (g33, unit_fraction_cover(g33, 3).cover),
    ]
    assert max(Counter(p.edge() for p in covers[2][1].points if not p.is_vertex).values()) == 2

    def no_gap(*args):
        raise AssertionError(f"built a gap end Fraction{args}")

    monkeypatch.setattr(verify, "Fraction", no_gap)
    for g, cover in covers:
        assert is_delta_cover(g, cover).is_cover


def test_int_and_float_offsets_verify_as_their_fractions():
    g = grid(2, 3)
    exact = frozenset([Point.vertex(0), Point.on_edge(1, 2, F(1, 2)),
                       Point.on_edge(4, 5, F(3, 4))])
    loose = frozenset([Point(0, 0, 0), Point(1, 2, 0.5), Point(4, 5, 0.75)])
    verdicts = set()
    for delta in (F(1, 2), F(3, 4), F(1), F(3, 2)):
        want = is_delta_cover(g, Cover(exact, delta))
        assert is_delta_cover(g, Cover(loose, delta)) == want
        verdicts.add(want.is_cover)
    assert verdicts == {False, True}


def test_the_proof_memo_answers_a_hit_at_an_int_radius():
    p3 = path(3)
    inner = frozenset([Point.vertex(1), Point.vertex(2)])
    require_output(p3, Cover(inner, 1), "int")  # searched; stored as the int 1
    require_output(p3, Cover(inner, 1), "int")
    require_output(p3, Cover(inner, 2), "int")
    require_output(p3, Cover(inner, F(3, 2)), "int")
    assert require_output.cache_info() == (3, 1, 1)
    require_output.cache_clear()
    require_output(p3, Cover(inner, F(3, 2)), "int")
    require_output(p3, Cover(inner, 2), "int")  # a Fraction stored, an int asked
    require_output(p3, Cover(inner, 1), "int")  # smaller: searched again
    assert require_output.cache_info() == (1, 2, 1)


def test_the_proof_memo_is_bounded_by_cells(monkeypatch):
    import deltacover.graphs

    monkeypatch.setattr(deltacover.graphs, "MEMO_CELLS", 20)
    p3 = path(3)
    every = Cover.of(map(Point.vertex, range(4)), 1)  # 4 + 3 + 4 = 11 cells
    inner = Cover.of([Point.vertex(1), Point.vertex(2)], F(3, 2))  # 9 cells
    require_output(p3, every, "bound")
    require_output(p3, every, "bound")
    require_output(p3, inner, "bound")
    assert require_output.cache_info() == (1, 2, 2)
    # A smaller radius searches again and replaces the entry in place.
    require_output(p3, Cover(inner.points, F(1)), "bound")
    require_output(p3, Cover(inner.points, F(1)), "bound")
    assert require_output.cache_info() == (2, 3, 2)
    one = Cover.of([Point.vertex(1)], 2)  # 8 cells: 28 > 20, emptied first
    require_output(p3, one, "bound")
    assert require_output.cache_info().currsize == 1
    require_output(p3, every, "bound")  # 19 cells: searched again, kept
    assert require_output.cache_info() == (2, 5, 2)
    big = path(30)  # 31 + 30 + 31 cells, over the bound alone: the only entry
    require_output(big, Cover.of(map(Point.vertex, range(31)), 1), "bound")
    require_output(big, Cover.of(map(Point.vertex, range(31)), 1), "bound")
    assert require_output.cache_info() == (3, 6, 1)
    require_output.cache_clear()
    assert require_output.cache_info() == (0, 0, 0)
