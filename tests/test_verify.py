import random
from fractions import Fraction as F

import pytest

from deltacover import (
    Cover,
    InvalidCoverError,
    Point,
    build_graph,
    discretized_universe,
    edge_coverage_intervals,
    is_delta_cover,
    normalize_neat,
)
from deltacover.verify import require_cover
from conftest import cycle, k_n, path
from oracles import covered_by_sampling, interval_verify, sample_points


def test_intervals_midpoint_reaches_both_ends():
    g = build_graph([(0, 1)])
    s = Cover.of([Point.on_edge(0, 1, F(1, 2))], F(1, 2))
    iset = edge_coverage_intervals(g, (0, 1), s, F(1, 2))
    assert iset.intervals == ((F(0), F(1)),)


def test_intervals_single_vertex():
    g = build_graph([(0, 1)])
    s = Cover.of([Point.vertex(0)], F(1, 3))
    iset = edge_coverage_intervals(g, (0, 1), s, F(1, 3))
    assert iset.intervals == ((F(0), F(1, 3)),)


def test_intervals_far_vertex_touches_endpoints_only():
    g = k_n(3)
    s = Cover.of([Point.vertex(0)], F(1))
    iset = edge_coverage_intervals(g, (1, 2), s, F(1))
    assert iset.intervals == ((F(0), F(0)), (F(1), F(1)))
    gaps = iset.gaps()
    assert gaps == [(F(0), F(1))]


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
    g = build_graph([(0, 1)], n=3)
    s = Cover.of([Point.on_edge(0, 1, F(1, 2))], F(1))
    report = is_delta_cover(g, s)
    assert not report.is_cover and report.witness == Point.vertex(2)
    s2 = Cover.of([Point.on_edge(0, 1, F(1, 2)), Point.vertex(2)], F(1))
    assert is_delta_cover(g, s2).is_cover


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
        table = build_graph(edges, n=n)
        g = build_graph(edges, n=n)
        g.dist = None
        expected = is_delta_cover(table, cover)
        verdicts.append(expected.is_cover)
        assert is_delta_cover(g, cover) == expected == interval_verify(table, cover, cover.delta)
        for e in g.edges:
            assert (edge_coverage_intervals(g, e, cover, cover.delta)
                    == edge_coverage_intervals(table, e, cover, cover.delta))
        if expected.is_cover:
            require_cover(g, cover, cover.delta, "table-free")
        else:
            with pytest.raises(InvalidCoverError) as err:
                require_cover(g, cover, cover.delta, "table-free")
            assert err.value.witness == expected.witness
    assert verdicts == [False, True, False, True]


def test_universe_sizes():
    assert len(discretized_universe(build_graph([(0, 1)]), 1)) == 5
    assert len(discretized_universe(k_n(3), 1)) == 12
    assert len(discretized_universe(build_graph([(0, 1)]), 3)) == 13


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
        for p in sample_points(g, 300, rng):
            by_sampling = covered_by_sampling(g, cover, delta, p)
            iset = edge_coverage_intervals(g, p.edge(), cover, delta)
            by_intervals = any(lo <= p.t <= hi for lo, hi in iset.intervals)
            assert by_sampling == by_intervals


def test_normalize_neat_two_interior_points():
    g = build_graph([(0, 1)])
    s = Cover.of([Point.on_edge(0, 1, F(1, 4)), Point.on_edge(0, 1, F(3, 4))], F(1, 2))
    out = normalize_neat(g, s)
    assert out.points == {Point.vertex(0), Point.vertex(1)}


def test_normalize_neat_identity_when_already_neat():
    g = cycle(4)
    s = Cover.of([Point.vertex(v) for v in range(4)], F(1, 2))
    assert normalize_neat(g, s).points == s.points


def test_normalize_neat_c4_mixed():
    g = cycle(4)
    s = Cover.of(
        [Point.on_edge(0, 1, F(1, 3)), Point.on_edge(0, 1, F(2, 3)),
         Point.on_edge(2, 3, F(1, 2))],
        F(1),
    )
    out = normalize_neat(g, s)
    assert out.points == {Point.vertex(0), Point.vertex(1), Point.on_edge(2, 3, F(1, 2))}
    assert len(out) <= len(s)
    assert is_delta_cover(g, out).is_cover


def test_normalize_neat_rejects_non_cover():
    g = cycle(4)
    s = Cover.of([Point.vertex(0)], F(1))
    with pytest.raises(InvalidCoverError) as err:
        normalize_neat(g, s)
    assert err.value.witness is not None
