import random
from fractions import Fraction as F

import networkx as nx

from deltacover import (
    Budget,
    Graph,
    Point,
    build_set_cover,
    harmonic_number,
    is_delta_cover,
    min_cover_exact,
    solve_exact,
    solve_greedy,
    subdivide,
)
from deltacover.solver import GridPoints, SetCoverInstance, _core_elements, _element_candidates
from conftest import cycle, k_n, path, star
from oracles import brute_set_cover_size, core_by_subsets, coverage_by_distance


def test_candidate_counts():
    assert len(GridPoints(Graph([(0, 1)]), 2)) == 3
    assert len(GridPoints(Graph([(0, 1)]), 6)) == 7
    assert len(GridPoints(k_n(3), 4)) == 12


def test_build_set_cover_k2_single_candidate_covers():
    g = Graph([(0, 1)])
    inst = build_set_cover(g, F(1, 2))  # b = 2, so the edge has 2b = 4 cells
    assert list(inst.universe) == [Point.on_edge(0, 1, F(k, 8)) for k in (1, 3, 5, 7)]
    mid = inst.candidates.index(Point.on_edge(0, 1, F(1, 2)))
    assert inst.masks[mid].bit_count() == len(inst.universe) == 4

    inst1 = build_set_cover(g, F(1))
    u = inst1.candidates.index(Point.vertex(0))
    assert inst1.masks[u].bit_count() == len(inst1.universe) == 2


def test_build_set_cover_k3_far_edge():
    # From vertex 0 at radius 1 the far edge (1, 2) is reached only at its
    # ends, so neither of its cell midpoints is covered.
    g = k_n(3)
    inst = build_set_cover(g, F(1))
    u = inst.candidates.index(Point.vertex(0))
    covered = {p for i, p in enumerate(inst.universe) if inst.masks[u] >> i & 1}
    assert covered == {Point.on_edge(0, w, t) for w in (1, 2) for t in (F(1, 4), F(3, 4))}
    assert Point.on_edge(1, 2, F(1, 4)) in inst.universe
    assert Point.on_edge(1, 2, F(3, 4)) in inst.universe


def test_coverage_agrees_with_point_distance():
    for g, d in [(k_n(4), F(2, 3)), (cycle(5), F(3, 5)), (path(3), F(7, 6))]:
        inst = build_set_cover(g, d)
        got = (tuple(inst.universe), tuple(inst.candidates), inst.masks)
        assert got == coverage_by_distance(g, d)


def test_set_cover_reach_stops_at_the_hop_bound():
    # delta = 7/2 reaches 3 hops, fewer than the path's diameter of 11, and
    # the triangle is a second component the search must not cross into.
    edges = [(v, v + 1) for v in range(11)] + [(12, 13), (13, 14), (12, 14)]
    g = Graph(edges, n=15)
    inst = build_set_cover(g, F(7, 2))
    got = (tuple(inst.universe), tuple(inst.candidates), inst.masks)
    assert got == coverage_by_distance(g, F(7, 2))


def test_root_core_equals_the_subset_definition():
    rng = random.Random(77)
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    dropped = 0
    for _ in range(12):
        g = Graph(rng.sample(pairs, rng.randint(2, 7)), n=5)
        for d in (F(1, 2), F(2, 3), F(1), F(3, 2), F(5, 2)):
            inst = build_set_cover(g, d)
            size = len(inst.universe)
            core = _core_elements(inst.masks, _element_candidates(inst.masks, size))
            assert core == core_by_subsets(list(inst.masks), size), (g.edges, str(d))
            dropped += size - len(core)
    assert dropped > 0


def test_exact_small_sizes():
    assert min_cover_exact(cycle(4), F(1)).size == 2
    assert min_cover_exact(k_n(3), F(1)).size == 2
    assert min_cover_exact(path(6), F(3, 5)).size == 5
    assert min_cover_exact(Graph([(0, 1)]), F(1, 4)).size == 2
    assert min_cover_exact(k_n(3), F(2)).size == 1
    assert min_cover_exact(cycle(4), F(1, 2)).size == 4


def test_exact_matches_brute_enumeration():
    for g, d in [(Graph([(0, 1)]), F(1)), (k_n(3), F(1)), (path(2), F(1, 2)),
                 (cycle(4), F(1)), (path(3), F(2, 3))]:
        inst = build_set_cover(g, d)
        if len(inst.candidates) > 20:
            continue
        result = solve_exact(inst)
        assert result.optimal
        masks = inst.masks
        full = (1 << len(inst.universe)) - 1
        assert result.size == brute_set_cover_size(masks, full, result.size + 1)


def test_exact_proves_dense_atlas_graphs_at_three_eighths():
    # Five-vertex graphs with 7-9 edges at 3/8: the element packing has to
    # reach the optimum for the search to close.  Nodes only, so the result
    # does not depend on machine speed.
    budget = Budget(max_nodes=5_000, max_seconds=1e9)
    for index, size in [(49, 9), (51, 10), (50, 9), (48, 9), (46, 8)]:
        h = nx.graph_atlas(index)
        g = Graph(sorted(tuple(sorted(e)) for e in h.edges()), n=h.number_of_nodes())
        result = solve_exact(build_set_cover(g, F(3, 8)), budget)
        assert result.optimal, (index, result.nodes_explored)
        assert result.size == size, index


def test_exact_size_invariant_under_permutation():
    import random

    g = cycle(5)
    inst = build_set_cover(g, F(2, 3))
    base = solve_exact(inst).size
    assert base == 4  # ceil(5 / (2 * 2/3))
    rng = random.Random(3)
    for _ in range(3):
        cperm = list(range(len(inst.candidates)))
        uperm = list(range(len(inst.universe)))
        rng.shuffle(cperm)
        rng.shuffle(uperm)
        upos = {old: new for new, old in enumerate(uperm)}
        shuffled = SetCoverInstance(
            inst.delta,
            tuple(inst.universe[i] for i in uperm),
            tuple(inst.candidates[i] for i in cperm),
            tuple(sum(1 << upos[e] for e in range(len(uperm)) if inst.masks[i] >> e & 1)
                  for i in cperm),
        )
        assert solve_exact(shuffled).size == base


def test_one_candidate_leaf_proves_atlas52_within_100_nodes(atlas_suite):
    # At ub == 2 a node scans its lowest element's candidates instead of
    # spending a bound, a component split and one child per candidate.
    g = dict(atlas_suite)["atlas52"]
    res = min_cover_exact(g, F(5, 4), Budget(max_nodes=100, max_seconds=1e9))
    assert res.optimal and res.size == 3


def _vertex_instance(sets: list[set[int]], n_elems: int) -> SetCoverInstance:
    """Set cover with vertex points standing in for elements and candidates."""
    points = tuple(Point.vertex(i) for i in range(max(n_elems, len(sets))))
    masks = tuple(sum(1 << e for e in s) for s in sets)
    return SetCoverInstance(F(1), points[:n_elems], points[:len(sets)], masks)


def _indices(result) -> set[int]:
    return {p.u for p in result.cover.points}


# With no node to spend, solve_exact returns its starting incumbent.
INCUMBENT_ONLY = Budget(max_nodes=0, max_seconds=1e9)


def test_one_candidate_leaf_keeps_the_highest_index():
    # Elements 0..7.  The incumbent is three candidates, {2, 3, 4}; the
    # optimum is two, {6, 7} or {6, 8}.  Under candidate 6 the node with
    # ub == 2 must cover {2, 5, 6, 7}, which candidates 7 and 8 both do.
    # The leaf scans its lowest element's candidates from the highest
    # index down, so it returns 8.
    sets = [{1, 3, 7}, {4, 5}, {0, 1, 5, 6, 7}, {1, 2, 3, 5}, {3, 4, 5, 7}, {2, 5, 6},
            {0, 1, 3, 4}, {0, 2, 5, 6, 7}, {1, 2, 4, 5, 6, 7}]
    inst = _vertex_instance(sets, 8)
    assert _indices(solve_exact(inst, INCUMBENT_ONLY)) == {2, 3, 4}
    res = solve_exact(inst)
    assert res.optimal
    assert res.cover.points == {Point.vertex(6), Point.vertex(8)}


def test_rarest_first_incumbent_beats_plain_greedy():
    # Plain greedy takes 0 (four elements), then 1 and 2.  Element 5 is the
    # rarest: {4, 5} is dominated by {0, 3, 4, 5}, so 3 is its one
    # undominated candidate.  Element 1 comes next, and of its candidates
    # 0 and 4, candidate 4 also covers element 2.
    inst = _vertex_instance([{0, 1, 3, 4}, {0, 2, 3, 4}, {4, 5}, {0, 3, 4, 5}, {1, 2}], 6)
    assert _indices(solve_greedy(inst)) == {0, 1, 2}
    start = solve_exact(inst, INCUMBENT_ONLY)
    assert not start.optimal
    assert _indices(start) == {3, 4}


def test_exchange_swaps_two_picks_for_one():
    # Rarest-first takes 0 for element 1 (0 and 1 tie at three elements),
    # 2 for element 3 and 1 for element 4, and none of them is redundant.
    # Only the pair (0, 2) covers elements 2 and 3, and candidate 4 covers
    # both, so the pair gives way to it.
    inst = _vertex_instance([{0, 1, 2}, {0, 1, 4}, {0, 3}, {1, 4}, {2, 3}, {0, 2, 4}], 5)
    assert _indices(solve_exact(inst, INCUMBENT_ONLY)) == {1, 4}


def test_rarest_first_incumbent_proves_atlas173_at_two_fifths(atlas_suite):
    # Plain greedy started this search at 14 points, and 1,000 nodes left
    # it there unproven.
    g = dict(atlas_suite)["atlas173"]
    res = min_cover_exact(g, F(2, 5), Budget(max_nodes=1000, max_seconds=1e9))
    assert res.optimal and res.size == 10


def test_exact_proves_atlas207_and_atlas161_within_1000_nodes(atlas_suite):
    # Both ran out of 1,000 nodes while the search explored every sibling
    # branch, at 19 and 10 points.
    graphs = dict(atlas_suite)
    budget = Budget(max_nodes=1000, max_seconds=1e9)
    for name, delta, size in (("atlas207", F(1, 3), 17), ("atlas161", F(2, 5), 10)):
        res = min_cover_exact(graphs[name], delta, budget)
        assert res.optimal and res.size == size, (name, res.nodes_explored)


def test_sibling_nested_below_the_root_is_skipped():
    # Edge cover of an 8-vertex graph: elements are vertices, candidates
    # edges.  Under the root's first child, edge 02, edge 23 covers only
    # vertex 3, which the earlier sibling 35 also covers; under 02 and 35,
    # edges 06, 36 and 56 cover only vertex 6, which the earlier siblings 16
    # and 46 also cover.  The search skips those four children, each of
    # which was a node of its own when every sibling was explored: 11 nodes
    # in all.
    edges = [(0, 2), (0, 6), (0, 7), (1, 4), (1, 6), (1, 7), (2, 3), (3, 5), (3, 6), (4, 6),
             (5, 6)]
    inst = _vertex_instance([{u, v} for u, v in edges], 8)
    res = solve_exact(inst)
    assert res.optimal
    assert res.size == brute_set_cover_size(list(inst.masks), (1 << 8) - 1, len(edges)) == 4
    assert res.nodes_explored == 7


def test_greedy_basics():
    g = Graph([(0, 1)])
    assert solve_greedy(build_set_cover(g, F(1))).size == 1
    c4 = cycle(4)
    r = solve_greedy(build_set_cover(c4, F(1)))
    assert r.size == 2
    assert not r.optimal


def test_greedy_star_subdivided():
    # 5-arm star, arms of 3 edges, radius 3/2: one point per arm is forced
    base = star(5)
    g = subdivide(base, 3)
    exact = min_cover_exact(g, F(3, 2))
    greedy = solve_greedy(build_set_cover(g, F(3, 2)))
    assert exact.size == 5
    assert greedy.size >= 2
    assert greedy.size >= exact.size
    assert greedy.size <= harmonic_number(len(build_set_cover(g, F(3, 2)).universe)) * exact.size


def test_results_verify_and_budget_flag():
    g = k_n(4)
    res = min_cover_exact(g, F(2, 3))
    assert res.optimal and is_delta_cover(g, res.cover).is_cover
    starved = solve_exact(build_set_cover(g, F(2, 3)), Budget(max_nodes=1))
    assert not starved.optimal
    assert is_delta_cover(g, starved.cover, F(2, 3)).is_cover


def test_harmonic_number():
    assert harmonic_number(0) == 0
    assert harmonic_number(1) == 1
    assert harmonic_number(3) == F(11, 6)


def test_harmonic_number_memo_equals_a_cold_sum():
    warm = harmonic_number(40)
    assert harmonic_number(40) is warm
    harmonic_number.cache_clear()
    assert harmonic_number.cache_info().currsize == 0
    cold = harmonic_number(40)
    assert cold == warm == sum(F(1, k) for k in range(1, 41)) and cold is not warm
    assert isinstance(cold, F)


def test_harmonic_number_has_no_depth_limit():
    total = F(0)
    for k in range(1, 5001):
        total += F(1, k)
    assert harmonic_number(5000) == total
