import dataclasses
import random
from itertools import combinations
from fractions import Fraction as F

import networkx as nx
import pytest

from deltacover import (
    Budget,
    Cover,
    Graph,
    InternalConsistencyError,
    InvalidPointError,
    Point,
    approx_cover,
    build_set_cover,
    cover_leaf_level,
    cover_small_delta_even,
    cover_small_delta_odd,
    cover_vertex_set,
    cover_via_one_cover,
    is_delta_cover,
    harmonic_number,
    is_forest,
    level_partition,
    min_cover_exact,
    one_cover_min,
    translate_cover_up,
    tree_cover,
    unit_fraction_cover,
    vertex_set_interval,
)
from deltacover.approx import small_delta_interval
from deltacover.bench import run_row
from deltacover.families import gen_triangles_center, gen_triangles_paths, gen_ugc_gadget
from conftest import clear_library_caches, cycle, grid, k_n, path, star
from oracles import (
    approx_by_fraction_chain,
    leaf_levels_by_distance,
    small_even_points_by_fractions,
    small_factors_by_fractions,
)


def test_vertex_set_interval_values():
    assert vertex_set_interval(F(3, 5)) == 2
    assert vertex_set_interval(F(4, 7)) == 3
    assert vertex_set_interval(F(5, 9)) == 4
    assert vertex_set_interval(F(13, 25)) == 12
    for outside in (F(1, 2), F(2, 3)):
        with pytest.raises(ValueError):
            vertex_set_interval(outside)


def test_small_delta_interval_classification():
    assert small_delta_interval(F(2, 5)) == ("odd", 1)
    assert small_delta_interval(F(2, 7)) == ("even", 1)
    assert small_delta_interval(F(2, 9)) == ("odd", 2)
    assert small_delta_interval(F(2, 11)) == ("even", 2)
    for outside in (F(1, 3), F(1, 2), F(3, 5), F(0)):
        with pytest.raises(ValueError):
            small_delta_interval(outside)


def test_routing_equals_the_fraction_chain():
    # Every a/b in (0, 3] with b <= 30.  That holds the regime boundaries
    # and both ends (x+1)/(2x+1) and x/(2x-1) of the vertex-set intervals
    # for x = 2..6, named here so that the grid cannot lose them.
    named = {F(1, 2), F(2, 3), F(3, 4), F(1), F(7, 6), F(5, 4), F(3, 2)}
    named |= {F(x + 1, 2 * x + 1) for x in range(2, 7)} | {F(x, 2 * x - 1) for x in range(2, 7)}
    radii = {F(a, b) for b in range(1, 31) for a in range(1, 3 * b + 1)} | named
    two_components = Graph([(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (6, 7), (7, 4)], n=8)
    for g in (k_n(4), cycle(5), grid(3, 4), path(5), two_components):
        for delta in sorted(radii):
            rep = approx_cover(g, delta)
            got = (rep.cover.points, rep.regime, rep.param, rep.epsilon, rep.claimed_factor)
            assert got == approx_by_fraction_chain(g, delta), (g.edges, delta)


def test_small_route_factors_equal_the_fraction_formulas():
    # Both sides of the small-odd minimum, and a graph without edges.
    cubic = [nx.random_regular_graph(3, n, seed=seed) for n, seed in ((8, 1), (10, 2), (12, 3))]
    graphs = [cycle(5), cycle(6), grid(3, 3), grid(3, 4), k_n(4), Graph([], n=1)]
    graphs += [Graph(sorted(tuple(sorted(e)) for e in h.edges()), n=h.number_of_nodes())
               for h in cubic]
    for g in graphs:
        for k in range(1, 5):
            even, odd, eps = small_factors_by_fractions(g, k)
            rep = cover_small_delta_even(g, k, F(1, 2 * k + 2) + F(1, 1000))
            assert (rep.claimed_factor, rep.epsilon) == (even, None)
            rep = cover_small_delta_odd(g, k, F(1, 2 * k + 1) + F(1, 1000))
            assert (rep.claimed_factor, rep.epsilon) == (odd, eps)


@pytest.mark.parametrize("k", [1, 2])
def test_small_routes_reject_a_k_too_small_for_delta(k):
    # The odd route covers from delta = 1/(2k+1) up, the even route above
    # 1/(2k+2); just below either bound is a caller's error, not a bug.
    g = cycle(5)
    odd, even = F(1, 2 * k + 1), F(1, 2 * k + 2)
    assert is_delta_cover(g, cover_small_delta_odd(g, k, odd).cover).is_cover
    assert is_delta_cover(g, cover_small_delta_even(g, k, F(2, 4 * k + 3)).cover).is_cover
    with pytest.raises(ValueError, match=f"needs delta >= 1/{2 * k + 1}"):
        cover_small_delta_odd(g, k, F(2, 4 * k + 3))
    for below in (even, F(2, 4 * k + 5)):
        with pytest.raises(ValueError, match=f"needs delta > 1/{2 * k + 2}"):
            cover_small_delta_even(g, k, below)


def test_dispatcher_exact_routes(oracle):
    c4 = cycle(4)
    rep = approx_cover(c4, F(1))
    assert rep.regime == "exact" and len(rep.cover) == 2

    rep_half = approx_cover(c4, F(1, 2))
    assert rep_half.regime == "exact" and len(rep_half.cover) == 4

    rep_tree = approx_cover(path(6), F(3, 5))
    assert rep_tree.regime == "exact" and len(rep_tree.cover) == 5


def test_unit_fraction_route_on_a_grid_is_exact():
    # The route reads no budget: even a one-node budget gives the optimum.
    rep = approx_cover(grid(4, 4), F(1, 3), Budget(max_nodes=1))
    assert rep.regime == "exact" and rep.claimed_factor == 1
    assert len(rep.cover) == 32


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
    # |U| = 284 cell midpoints on the 6x7 grid at 5/2, and the largest
    # candidate covers d = 102 of them: the greedy claims H(d), not H(|U|).
    rows, cols = 6, 7
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    g = Graph(edges, n=rows * cols)
    rep = approx_cover(g, F(5, 2))
    assert rep.regime == "large_delta"
    assert len(build_set_cover(g, F(5, 2)).universe) == 284
    assert rep.claimed_factor == harmonic_number(102)
    assert is_delta_cover(g, rep.cover, F(5, 2)).is_cover


def test_large_delta_greedy_is_optimal_on_a_long_cycle():
    # A point covers at most 2 delta of the cycle, so ceil(n / (2 delta))
    # points are needed, and the greedy finds that many.
    g = cycle(1000)
    for delta, size in [(F(3, 2), 334), (F(5, 2), 200)]:
        rep = approx_cover(g, delta)
        assert rep.regime == "large_delta"
        assert len(rep.cover.points) == size == -(-1000 // (2 * delta))


def test_large_delta_route_verifies_once(verifier_calls):
    g = grid(6, 7)
    assert approx_cover(g, F(5, 2)).regime == "large_delta"
    assert verifier_calls == [g]


# The radii of the benchmark's ladder_approx and matching_routes workloads,
# plus 5/9, where a triangle has fewer edges than the vertex-set route's x.
CONNECTED_ROUTE_DELTAS = [F(2, 7), F(4, 7), F(3, 5), F(2, 3), F(4, 5), F(5, 2), F(1, 3),
                          F(1, 2), F(1), F(9, 8), F(7, 6), F(5, 4), F(7, 5), F(2, 5), F(5, 9)]


def test_connected_input_is_never_copied(monkeypatch):
    import deltacover.approx
    import deltacover.graphs

    copies = []
    real = deltacover.graphs.induced_subgraph

    def counted(*args, **kwargs):
        copies.append(args[1])
        return real(*args, **kwargs)

    for module in (deltacover.graphs, deltacover.approx):
        monkeypatch.setattr(module, "induced_subgraph", counted)
    for g in (grid(3, 4), k_n(3), path(5), gen_ugc_gadget(k_n(3), x=1, variant="path")):
        for delta in CONNECTED_ROUTE_DELTAS:
            rep = approx_cover(g, delta)
            assert is_delta_cover(g, rep.cover, delta).is_cover
    assert copies == []
    approx_cover(Graph([(0, 1), (2, 3), (3, 4), (2, 4)]), F(1, 3))
    # The components come from the memoized traversal as tuples.
    assert [list(c) for c in copies] == [[0, 1], [2, 3, 4]]


# Every regime of approx_cover is reached on these graphs at those radii:
# a grid, a triangle, a path, a leafy gadget and a graph of two components.
ROUTE_GRAPHS = [grid(3, 4), k_n(3), path(5), gen_ugc_gadget(k_n(3), x=1, variant="path"),
                Graph([(0, 1), (2, 3), (3, 4), (2, 4)])]
ALL_REGIMES = {"exact", "large_delta", "one_cover_3_2", "one_cover_5_3", "one_cover_2",
               "vertex_set_34_1", "leaf_level", "vertex_set_x", "small_even", "small_odd"}


def test_every_regime_verifies_once(verifier_calls):
    # Each call starts cold, as in a fresh process: a warm call may find its
    # cover in the proof memo and not search at all.
    regimes = set()
    for g in ROUTE_GRAPHS:
        for delta in CONNECTED_ROUTE_DELTAS:
            clear_library_caches()
            verifier_calls.clear()
            rep = approx_cover(g, delta)
            assert verifier_calls == [g], (g.edges, str(delta), len(verifier_calls))
            regimes.add(rep.regime)
    assert regimes == ALL_REGIMES


def test_polynomial_routes_run_no_branch_and_bound(monkeypatch):
    # With solve_exact raising wherever the library binds it, every route
    # the paper calls polynomial still answers: none hides the search.
    import deltacover.approx
    import deltacover.solver

    def no_search(inst, budget=None):
        raise AssertionError("a polynomial route ran the branch and bound")

    monkeypatch.setattr(deltacover.solver, "solve_exact", no_search)
    monkeypatch.setattr(deltacover.approx, "solve_exact", no_search)
    g = grid(3, 4)  # m = 17 >= n = 12 and >= x, so the vertex-set route takes V
    one_cover_min(g)
    unit_fraction_cover(g, 4)
    tree_cover(path(7), F(3, 5))
    radii = [F(1, 3), F(2, 7), F(2, 5), F(4, 7), F(3, 5), F(7, 10), F(4, 5), F(8, 7), F(6, 5),
             F(4, 3), F(2)]
    assert {approx_cover(g, delta).regime for delta in radii} == ALL_REGIMES


def test_every_graph_level_call_returns_one_report_type():
    import deltacover.approx

    g, forest = grid(3, 4), path(7)
    exact_calls = [
        (F(2, 3), min_cover_exact(g, F(2, 3))),
        (F(3, 5), tree_cover(forest, F(3, 5))),
        (F(1, 3), unit_fraction_cover(g, 3)),
        (F(1), one_cover_min(g)),
    ]
    approx_calls = [
        (F(2, 3), approx_cover(g, F(2, 3))),
        (F(8, 7), cover_via_one_cover(g, F(8, 7))),
        (F(4, 7), cover_vertex_set(g, F(4, 7))),
        (F(7, 10), cover_leaf_level(g, F(7, 10))),
        (F(2, 7), cover_small_delta_even(g, 1, F(2, 7))),
        (F(2, 5), cover_small_delta_odd(g, 1, F(2, 5))),
    ]
    for delta, rep in exact_calls + approx_calls:
        assert isinstance(rep, deltacover.approx.RatioReport), delta
        assert rep.cover.delta == delta and rep.proven
    for _, rep in exact_calls:
        assert (rep.claimed_factor, rep.regime) == (1, "exact")
    # An exact search that runs out of nodes says so, and the bench row
    # built on it records no proven oracle optimum.
    assert min_cover_exact(cycle(5), F(11, 21), Budget(max_nodes=0)).proven is False
    row = run_row("c5", "file", cycle(5), F(11, 21), Budget(max_nodes=0))
    assert row.oracle_optimal is False and row.as_record()["oracle_optimal"] == 0
    assert row.oracle_size is None and row.ratio is None


def test_clearing_the_caches_empties_every_memo():
    # perfbench's clear_caches follows the same rule as clear_library_caches,
    # so a memo it could not empty would let a timed pass start warm.
    import sys

    from deltacover.verify import require_output

    for g in ROUTE_GRAPHS:
        for delta in CONNECTED_ROUTE_DELTAS:
            approx_cover(g, delta)
    memos = {id(value): value for name, module in list(sys.modules.items())
             if name == "deltacover" or name.startswith("deltacover.")
             for value in vars(module).values() if hasattr(value, "cache_info")}
    assert id(require_output) in memos
    assert require_output.cache_info().currsize > 0
    clear_library_caches()
    for memo in memos.values():
        assert memo.cache_info().currsize == 0, memo.__name__


def test_public_routes_verify_once(verifier_calls):
    two_parts = ROUTE_GRAPHS[4]
    calls = [
        (cover_via_one_cover, grid(3, 4), F(5, 4)),
        (cover_vertex_set, two_parts, F(3, 5)),
        (cover_leaf_level, ROUTE_GRAPHS[3], F(2, 3)),
        (cover_small_delta_even, two_parts, 1, F(2, 7)),
        (cover_small_delta_odd, cycle(5), 1, F(2, 5)),
    ]
    for fn, g, *args in calls:
        verifier_calls.clear()
        fn(g, *args)
        # Once on g itself: not per component, and not on a subdivision.
        assert verifier_calls == [g], (fn.__name__, len(verifier_calls))


def test_connected_components_runs_once_per_call_on_a_connected_graph():
    # One traversal per graph per sweep: approx_cover splits g through the
    # memoized BFS forest, and the routes, is_forest and the tree climb read
    # the same entry at every radius.
    from deltacover.graphs import _traversal

    for g in ROUTE_GRAPHS[:4]:
        _traversal.cache_clear()
        for delta in CONNECTED_ROUTE_DELTAS:
            approx_cover(g, delta)
        info = _traversal.cache_info()
        assert (info.misses, info.currsize) == (1, 1), (g.edges, info)
        assert info.hits >= len(CONNECTED_ROUTE_DELTAS) - 1


def _disjoint_union(parts: list[Graph]) -> Graph:
    edges, n = [], 0
    for h in parts:
        edges += [(u + n, v + n) for u, v in h.edges]
        n += h.n
    return Graph(edges, n=n)


def test_every_component_hits_the_memos_after_its_first_radius():
    # Twelve components, more than a memo bounded by eight entries keeps:
    # each memo misses once per distinct graph and hits at every later radius.
    from deltacover.approx import _vertices
    from deltacover.graphs import _traversal
    from deltacover.matching import _split_and_one_cover, _unit_fraction_cover

    sweep = [F(2, 7) + i * (F(2, 5) - F(2, 7)) / 10 for i in range(11)]
    paths = _disjoint_union([path(k) for k in range(2, 14)])
    for delta in sweep:
        approx_cover(paths, delta)
    # The whole graph and each tree component, once per radius.
    info = _traversal.cache_info()
    assert (info.misses, info.hits, info.currsize) == (13, 11 * 13 - 13, 13)

    clear_library_caches()
    cycles = _disjoint_union([cycle(k) for k in range(3, 15)])
    for delta in sweep:
        approx_cover(cycles, delta)
    info = _traversal.cache_info()
    assert (info.misses, info.hits) == (1, 10)  # the whole graph; cycles are no trees
    # Below 1/3 the even small-delta route reads the vertex points; above,
    # the odd one reads the 1/3-cover and the split of g.  The 1/3-cover is
    # translated from the split's 1-cover, so at the first radius the split
    # is read once more, right after it is filled.
    below = sum(d < F(1, 3) for d in sweep)
    above = len(sweep) - below
    assert (below, above) == (5, 6)
    for memo, hits in ((_vertices, 12 * (below - 1)), (_unit_fraction_cover, 12 * (above - 1)),
                       (_split_and_one_cover, 12 * above)):
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (12, hits, 12), memo


def test_a_warm_sweep_equals_a_cold_one():
    # Every memo a route reads (traversal, vertex points, H(d), the matching
    # results) is emptied before each cold call and kept across the warm ones.
    for g in ROUTE_GRAPHS:
        cold = {}
        for delta in CONNECTED_ROUTE_DELTAS:
            clear_library_caches()
            cold[delta] = approx_cover(g, delta)
        for delta in CONNECTED_ROUTE_DELTAS:
            assert approx_cover(g, delta) == cold[delta], (g.edges, str(delta))


def test_the_vertex_points_memo_is_immutable_and_empties():
    from deltacover.approx import _vertices

    g = grid(2, 3)
    cold = _vertices(g)
    assert isinstance(cold, frozenset) and cold == {Point.vertex(v) for v in range(6)}
    assert _vertices(Graph(g.edges, n=g.n)) is cold
    _vertices.cache_clear()
    assert _vertices.cache_info().currsize == 0
    assert _vertices(g) == cold and _vertices(g) is not cold


def test_a_route_that_drops_a_point_is_caught_at_the_boundary(monkeypatch):
    import deltacover.approx

    real = deltacover.approx._component_part
    broken = set()

    def drop_one(sub, delta, budget):
        # Drop the first point that the component cannot do without.
        part = real(sub, delta, budget)
        for p in sorted(part.cover.points):
            rest = part.cover.points - {p}
            if not is_delta_cover(sub, Cover(rest, delta), delta).is_cover:
                broken.add(part.regime)
                return dataclasses.replace(part, cover=Cover(rest, delta))
        raise AssertionError(f"every point of the {part.regime} cover is redundant")

    monkeypatch.setattr(deltacover.approx, "_component_part", drop_one)
    for g in ROUTE_GRAPHS:
        for delta in CONNECTED_ROUTE_DELTAS:
            with pytest.raises(InternalConsistencyError):
                approx_cover(g, delta)
    assert broken == ALL_REGIMES


def test_small_odd_runs_one_edmonds_search(monkeypatch):
    import deltacover.matching

    real = deltacover.matching._edmonds
    searched = []

    def counted(g):
        searched.append(g.n)
        return real(g)

    monkeypatch.setattr(deltacover.matching, "_edmonds", counted)
    for g in (grid(3, 4), k_n(3), cycle(5), gen_triangles_center(3).graph):
        searched.clear()
        rep = cover_small_delta_odd(g, 1, F(2, 5))
        # One search, on g: the 1/3-cover is g's 1-cover translated down.
        assert searched == [g.n]
        assert len(rep.cover) == g.m + len(one_cover_min(g).cover)


def test_leaf_level_output_is_a_two_thirds_cover(atlas_suite):
    rng = random.Random(23)
    graphs = [g for _, g in atlas_suite if not is_forest(g)]
    graphs += [gen_ugc_gadget(k_n(3), x=1, variant="path"), gen_ugc_gadget(cycle(4), x=2)]
    while len(graphs) < 300:
        # A random tree plus at least one chord: connected, not a tree, leafy.
        n = rng.randrange(3, 16)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(1, 4))}
        g = Graph(sorted(edges), n=n)
        if not is_forest(g):
            graphs.append(g)
    for g in graphs:
        for delta in (F(2, 3), F(5, 7), F(8, 11)):
            rep = cover_leaf_level(g, delta)
            assert rep.cover.delta == delta
            assert is_delta_cover(g, rep.cover, F(2, 3)).is_cover, g.edges


def test_component_routes_equal_their_union_over_components():
    # A 4-cycle, a triangle, a 3-edge path, an edge and an isolated vertex.
    pieces = [cycle(4), k_n(3), path(3), Graph([(0, 1)]), Graph([], n=1)]
    edges, offsets, n = [], [], 0
    for piece in pieces:
        offsets.append(n)
        edges += [(u + n, v + n) for u, v in piece.edges]
        n += piece.n
    g = Graph(edges, n=n)

    def shifted(points, offset):
        return {Point(p.u + offset, p.v + offset, p.t) for p in points}

    for delta in (F(4, 7), F(5, 9)):
        rep = cover_vertex_set(g, delta)
        union = set()
        for piece, offset in zip(pieces, offsets):
            union |= shifted(cover_vertex_set(piece, delta).cover.points, offset)
        assert rep.cover.points == union
    rep = cover_small_delta_even(g, 1, F(3, 10))
    parts = [cover_small_delta_even(piece, 1, F(3, 10)) for piece in pieces]
    assert rep.cover.points == set().union(
        *(shifted(part.cover.points, offset) for part, offset in zip(parts, offsets)))
    assert rep.claimed_factor == max(part.claimed_factor for part in parts) == F(3, 2)


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

    rep_small = cover_vertex_set(Graph([(0, 1)]), F(3, 5))
    assert len(rep_small.cover) == 1  # |E| < x: brute force route


def test_a_vertex_set_claim_on_an_unproven_sub_solve_is_not_proven():
    # At 11/21, x = 10 and the 5-cycle has fewer edges, so it is solved by
    # the branch and bound; with no nodes to spend it keeps its incumbent.
    starved = approx_cover(cycle(5), F(11, 21), Budget(max_nodes=0))
    assert (starved.regime, starved.param, starved.claimed_factor) == ("vertex_set_x", 10, F(11, 10))
    assert starved.proven is False
    full = approx_cover(cycle(5), F(11, 21))
    assert full.proven is True and full.cover == starved.cover
    # A union is proven only when every part is; the tree part always is.
    two = Graph(list(cycle(5).edges) + [(5, 6), (6, 7), (7, 8)], n=9)
    assert approx_cover(two, F(11, 21)).proven is True
    assert approx_cover(two, F(11, 21), Budget(max_nodes=0)).proven is False
    assert approx_cover(path(3), F(11, 21), Budget(max_nodes=0)).proven is True


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
    assert lp.W == set()
    assert len(lp.E01) == 3 and len(lp.E11) == 3


def test_level_partition_equals_distance_definition(atlas_suite):
    import random

    rng = random.Random(17)
    graphs = [g for _, g in atlas_suite]
    for _ in range(200):
        n = rng.randrange(2, 16)
        # A random tree plus a few chords, so that leaves survive.
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(4))}
        graphs.append(Graph(sorted(edges), n=n))
    with_leaves = 0
    for g in graphs:
        lp = level_partition(g)
        assert (lp.L0, lp.L1) == leaf_levels_by_distance(g)[:2], g.edges
        with_leaves += bool(lp.L0)
    assert with_leaves > 200


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
    k2 = Graph([(0, 1)])
    s_prime = Cover.of([Point.on_edge(0, 1, F(1, 4)), Point.on_edge(0, 1, F(3, 4))], F(1, 3))
    out = translate_cover_up(k2, s_prime)
    assert out.points == {Point.on_edge(0, 1, F(3, 4))}
    assert out.delta == F(1)
    with pytest.raises(ValueError):
        translate_cover_up(k2, Cover.of(s_prime.points, F(1, 2)))


def test_translate_single_point_edge_contributes_nothing():
    # edge (0, 2) holds exactly one cover point, so nothing maps onto it
    g = k_n(3)
    s_prime = Cover.of(
        [Point.on_edge(0, 1, F(1, 6)), Point.on_edge(0, 1, F(1, 2)),
         Point.on_edge(0, 1, F(5, 6)), Point.on_edge(0, 2, F(1, 2)),
         Point.on_edge(1, 2, F(1, 3)), Point.on_edge(1, 2, F(5, 6))],
        F(1, 3),
    )
    out = translate_cover_up(g, s_prime)
    assert not any(not p.is_vertex and p.edge() == (0, 2) for p in out.points)
    assert is_delta_cover(g, out, F(1)).is_cover


def test_translate_optimal_gives_optimal(oracle):
    for g in (cycle(4), k_n(3), cycle(5)):
        for d in (F(1), F(3, 2)):
            d_prime = d / (2 * d + 1)
            inner = min_cover_exact(g, d_prime)
            assert inner.proven
            out = translate_cover_up(g, inner.cover)
            opt = oracle.opt(g, d)
            assert len(inner.cover) == opt + g.m
            assert len(out) == opt
            assert is_delta_cover(g, out, d).is_cover


def test_component_union():
    two = Graph([(0, 1), (1, 2), (2, 0), (3, 4)], n=5)
    rep = approx_cover(two, F(2, 3))
    assert is_delta_cover(two, rep.cover, F(2, 3)).is_cover
    rep2 = approx_cover(two, F(2, 5))
    assert is_delta_cover(two, rep2.cover, F(2, 5)).is_cover


def _seeded_connected_graph(rng: random.Random, n: int, extra: int):
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    # Non-tree pairs only, so the graph has ``extra`` independent cycles.
    edges.update(rng.sample([e for e in combinations(range(n), 2) if e not in edges], extra))
    return Graph(sorted(edges), n=n)


def test_small_even_points_equal_the_per_edge_construction():
    # Radii just above 1/(2k+2) and just below 1/(2k+1), the two ends of the
    # even interval of k, on seeded cyclic graphs: the route's points, and
    # approx_cover's, equal those built by Point.on_edge per edge.
    rng = random.Random(12)
    graphs = [cycle(5), k_n(4), grid(3, 3)]
    graphs += [_seeded_connected_graph(rng, rng.randrange(4, 10), 3) for _ in range(6)]
    for k in range(1, 5):
        for delta in (F(1, 2 * k + 2) + F(1, 1000), F(1, 2 * k + 1) - F(1, 1000)):
            assert small_delta_interval(delta) == ("even", k)
            for g in graphs:
                want = small_even_points_by_fractions(g, delta, k)
                assert cover_small_delta_even(g, k, delta).cover.points == want
                rep = approx_cover(g, delta)
                assert (rep.regime, rep.param) == ("small_even", k)
                assert rep.cover.points == want


def test_small_even_with_k_out_of_range_keeps_the_per_edge_points():
    g = _seeded_connected_graph(random.Random(3), 7, 4)
    # k = 2 at 1/2 puts its offsets at 0 and 1: the vertices, and nothing else.
    assert (cover_small_delta_even(g, 2, F(1, 2)).cover.points
            == small_even_points_by_fractions(g, F(1, 2), 2)
            == frozenset(Point.vertex(w) for w in range(g.n)))
    # k = 3 at 1/4: offsets 0, 1/2 and 1, so vertices plus midpoints.
    got = cover_small_delta_even(g, 3, F(1, 4)).cover.points
    assert got == small_even_points_by_fractions(g, F(1, 4), 3)
    assert len(got) == g.n + g.m
    # k = 3 at 1/3 puts an offset at -1/6: the same InvalidPointError.
    with pytest.raises(InvalidPointError) as want:
        small_even_points_by_fractions(g, F(1, 3), 3)
    with pytest.raises(InvalidPointError) as err:
        cover_small_delta_even(g, 3, F(1, 3))
    assert str(err.value) == str(want.value)
