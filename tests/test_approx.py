from fractions import Fraction as F

import pytest

from deltacover import (
    Cover,
    Point,
    approx_cover,
    build_graph,
    cover_leaf_level,
    cover_small_delta_even,
    cover_small_delta_odd,
    cover_vertex_set,
    cover_via_one_cover,
    is_delta_cover,
    harmonic_number,
    level_partition,
    min_cover_exact,
    translate_cover_up,
    vertex_set_interval,
)
from deltacover.approx import small_delta_interval
from deltacover.families import gen_triangles_center, gen_triangles_paths, gen_ugc_gadget
from conftest import cycle, k_n, path, star


def test_vertex_set_interval_values():
    assert vertex_set_interval(F(3, 5)) == 2
    assert vertex_set_interval(F(4, 7)) == 3
    assert vertex_set_interval(F(5, 9)) == 4
    assert vertex_set_interval(F(13, 25)) == 12
    with pytest.raises(ValueError):
        vertex_set_interval(F(2, 3))


def test_small_delta_interval_classification():
    assert small_delta_interval(F(2, 5)) == ("odd", 1)
    assert small_delta_interval(F(2, 7)) == ("even", 1)
    assert small_delta_interval(F(2, 9)) == ("odd", 2)
    assert small_delta_interval(F(2, 11)) == ("even", 2)
    with pytest.raises(ValueError):
        small_delta_interval(F(1, 3))


def test_dispatcher_exact_routes(oracle):
    c4 = cycle(4)
    rep = approx_cover(c4, F(1))
    assert rep.regime == "exact" and len(rep.cover) == 2

    rep_half = approx_cover(c4, F(1, 2))
    assert rep_half.regime == "exact" and len(rep_half.cover) == 4

    rep_tree = approx_cover(path(6), F(3, 5))
    assert rep_tree.regime == "exact" and len(rep_tree.cover) == 5


def test_dispatcher_regimes_by_delta():
    g = k_n(4)
    expected = {
        F(2): "large_delta",
        F(3, 2): "large_delta",
        F(4, 3): "one_cover_2",
        F(5, 4): "one_cover_2",
        F(7, 6): "one_cover_5_3",
        F(9, 8): "one_cover_3_2",
        F(4, 5): "vertex_set_34_1",
        F(5, 7): "leaf_level",
        F(3, 5): "vertex_set_x",
        F(2, 5): "small_odd",
        F(2, 7): "small_even",
    }
    for d, regime in expected.items():
        rep = approx_cover(g, d)
        assert rep.regime == regime, (str(d), rep.regime)
        assert is_delta_cover(g, rep.cover, d).is_cover


def test_large_delta_route_on_a_large_universe():
    # |U| = 539 on the 6x7 grid at 5/2: H(|U|) used to overflow the stack.
    rows, cols = 6, 7
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    g = build_graph(edges, n=rows * cols)
    rep = approx_cover(g, F(5, 2))
    assert rep.regime == "large_delta"
    assert rep.claimed_factor == harmonic_number(539)
    assert is_delta_cover(g, rep.cover, F(5, 2)).is_cover


def test_one_cover_route_factors():
    g = gen_triangles_center(3).graph
    rep = cover_via_one_cover(g, F(5, 4))
    assert rep.claimed_factor == 2 and len(rep.cover) == 6
    rep = cover_via_one_cover(g, F(7, 6))
    assert rep.claimed_factor == F(5, 3)
    rep = cover_via_one_cover(g, F(9, 8))
    assert rep.claimed_factor == F(3, 2)
    with pytest.raises(ValueError):
        cover_via_one_cover(g, F(3, 2))


def test_one_cover_route_ratio_on_tight_family(oracle):
    g9 = gen_triangles_center(9).graph
    rep = cover_via_one_cover(g9, F(5, 4))
    assert len(rep.cover) == 18  # 2k points, vs optimum k+1 = 10: ratio 1.8 <= 2


def test_vertex_set_route():
    rep = cover_vertex_set(cycle(4), F(3, 5))
    assert rep.param == 2 and rep.claimed_factor == F(3, 2)
    assert rep.cover.points == {Point.vertex(v) for v in range(4)}

    rep_tree = cover_vertex_set(path(6), F(3, 5))
    assert len(rep_tree.cover) == 5  # trees are solved exactly

    rep_small = cover_vertex_set(build_graph([(0, 1)]), F(3, 5))
    assert len(rep_small.cover) == 1  # |E| < x: brute force route


def test_leaf_level_gadget(oracle):
    g = gen_ugc_gadget(k_n(3), x=1, variant="path")
    rep = cover_leaf_level(g, F(2, 3))
    assert len(rep.cover) == 5
    assert oracle.opt(g, F(2, 3)) == 5
    assert is_delta_cover(g, rep.cover, F(2, 3)).is_cover


def test_leaf_level_no_leaves_degenerates_to_vertices():
    c4 = cycle(4)
    rep = cover_leaf_level(c4, F(2, 3))
    assert rep.cover.points == {Point.vertex(v) for v in range(4)}


def test_leaf_level_rejects_trees():
    with pytest.raises(ValueError):
        cover_leaf_level(path(3), F(2, 3))


def test_level_partition_shapes():
    g = gen_ugc_gadget(k_n(3), x=1, variant="path")
    lp = level_partition(g)
    assert lp.L0 == {3, 4, 5}
    assert lp.L1 == {0, 1, 2}
    assert lp.L2 == {0, 1, 2}  # each hub vertex sits two steps from another leaf
    assert lp.W == set()
    assert len(lp.E01) == 3 and len(lp.E11) == 3
    assert len(lp.E12) == 6


def test_small_even_c4(oracle):
    c4 = cycle(4)
    rep = cover_small_delta_even(c4, 1, F(3, 10))
    assert len(rep.cover) == 8  # vertices plus midpoints
    assert rep.claimed_factor == F(4, 3)
    assert is_delta_cover(c4, rep.cover, F(3, 10)).is_cover
    assert oracle.opt(c4, F(3, 10)) == 7
    assert 8 <= rep.claimed_factor * 7


def test_small_even_k3(oracle):
    k3 = k_n(3)
    rep = cover_small_delta_even(k3, 1, F(3, 10))
    assert len(rep.cover) == 6
    assert oracle.opt(k3, F(3, 10)) == 5


def test_small_even_count_k2():
    rep = cover_small_delta_even(cycle(4), 2, F(1, 5))
    assert len(rep.cover) == 12


def test_small_odd_c4(oracle):
    c4 = cycle(4)
    rep = cover_small_delta_odd(c4, 1, F(2, 5))
    assert len(rep.cover) == 6  # minimum 1/3-cover: one point per edge extra
    assert is_delta_cover(c4, rep.cover, F(2, 5)).is_cover
    assert rep.epsilon is not None


def test_small_odd_k3(oracle):
    k3 = k_n(3)
    rep = cover_small_delta_odd(k3, 1, F(2, 5))
    assert len(rep.cover) == 5
    assert oracle.opt(k3, F(2, 5)) is not None
    assert len(rep.cover) <= rep.claimed_factor * oracle.opt(k3, F(2, 5))


def test_translate_cover_up_formula():
    k2 = build_graph([(0, 1)])
    s_prime = Cover.of([Point.on_edge(0, 1, F(1, 4)), Point.on_edge(0, 1, F(3, 4))], F(1, 3))
    out = translate_cover_up(k2, s_prime, F(1))
    assert out.points == {Point.on_edge(0, 1, F(3, 4))}


def test_translate_single_point_edge_contributes_nothing():
    # edge (0, 2) holds exactly one cover point, so nothing maps onto it
    g = k_n(3)
    s_prime = Cover.of(
        [Point.on_edge(0, 1, F(1, 6)), Point.on_edge(0, 1, F(1, 2)),
         Point.on_edge(0, 1, F(5, 6)), Point.on_edge(0, 2, F(1, 2)),
         Point.on_edge(1, 2, F(1, 3)), Point.on_edge(1, 2, F(5, 6))],
        F(1, 3),
    )
    out = translate_cover_up(g, s_prime, F(1))
    assert not any(not p.is_vertex and p.edge() == (0, 2) for p in out.points)
    assert is_delta_cover(g, out, F(1)).is_cover


def test_translate_optimal_gives_optimal(oracle):
    for g in (cycle(4), k_n(3), cycle(5)):
        for d in (F(1), F(3, 2)):
            d_prime = d / (2 * d + 1)
            inner = min_cover_exact(g, d_prime)
            assert inner.optimal
            out = translate_cover_up(g, inner.cover, d)
            opt = oracle.opt(g, d)
            assert inner.size == opt + g.m
            assert len(out) == opt
            assert is_delta_cover(g, out, d).is_cover


def test_component_union():
    two = build_graph([(0, 1), (1, 2), (2, 0), (3, 4)], n=5)
    rep = approx_cover(two, F(2, 3))
    assert is_delta_cover(two, rep.cover, F(2, 3)).is_cover
    rep2 = approx_cover(two, F(2, 5))
    assert is_delta_cover(two, rep2.cover, F(2, 5)).is_cover
