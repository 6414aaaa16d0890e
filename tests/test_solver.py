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
from deltacover.solver import GridPoints, SetCoverInstance, _greedy
from conftest import cycle, grid, k_n, path, star
from oracles import brute_set_cover_size, coverage_by_distance


def test_candidate_counts():
    assert len(GridPoints(Graph([(0, 1)]), 2)) == 3
    assert len(GridPoints(Graph([(0, 1)]), 6)) == 7
    assert len(GridPoints(k_n(3), 4)) == 12


def test_block_points_take_slices_as_lists_do():
    inst = build_set_cover(cycle(4), F(2, 3))
    for seq in (inst.universe, inst.candidates):
        points = list(seq)
        n = len(points)
        for a, b, step in [(0, 2, None), (3, n, None), (-5, -1, None), (None, None, -3),
                           (n - 2, n + 7, 2), (4, 1, None), (1, 12, 4)]:
            assert seq[a:b:step] == points[a:b:step], (a, b, step)
        assert seq[-1] == points[-1]


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


def test_exact_small_sizes():
    assert len(min_cover_exact(cycle(4), F(1)).cover) == 2
    assert len(min_cover_exact(k_n(3), F(1)).cover) == 2
    assert len(min_cover_exact(path(6), F(3, 5)).cover) == 5
    assert len(min_cover_exact(Graph([(0, 1)]), F(1, 4)).cover) == 2
    assert len(min_cover_exact(k_n(3), F(2)).cover) == 1
    assert len(min_cover_exact(cycle(4), F(1, 2)).cover) == 4


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
        assert len(result.cover) == brute_set_cover_size(masks, full, len(result.cover) + 1)


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
        assert len(result.cover) == size, index


def test_exact_size_invariant_under_permutation():
    import random

    g = cycle(5)
    inst = build_set_cover(g, F(2, 3))
    base = len(solve_exact(inst).cover)
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
        assert len(solve_exact(shuffled).cover) == base


def test_one_candidate_leaf_proves_atlas52_within_100_nodes(atlas_suite):
    # At ub == 2 a node scans its lowest element's candidates instead of
    # spending a bound, a component split and one child per candidate.
    g = dict(atlas_suite)["atlas52"]
    res = min_cover_exact(g, F(5, 4), Budget(max_nodes=100, max_seconds=1e9))
    assert res.proven and len(res.cover) == 3


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
    # Elements 0..5.  The incumbent is three candidates, {0, 2, 5}; the
    # optimum is two, {3, 7} or {4, 7}.  Under candidate 7 the node with
    # ub == 2 must cover {2, 3}, which candidates 3 and 4 both do.  The leaf
    # scans its lowest element's candidates from the highest index down, so
    # it returns 4.
    sets = [{1, 3}, {0, 3}, {1, 5}, {2, 3}, {1, 2, 3}, {0, 1, 2, 4}, {1, 3}, {0, 1, 4, 5}]
    inst = _vertex_instance(sets, 6)
    assert _indices(solve_exact(inst, INCUMBENT_ONLY)) == {0, 2, 5}
    res = solve_exact(inst)
    assert res.optimal
    assert res.cover.points == {Point.vertex(4), Point.vertex(7)}


def test_rarest_first_incumbent_beats_plain_greedy():
    # No element has one candidate.  Plain greedy takes 2 (four elements,
    # tied with 4), then 0 and 1.  Elements 0, 1 and 5 are the rarest, two
    # candidates each: for element 0, candidate 3 covers three elements
    # against 0's two; for element 1, candidates 1 and 4 tie at three
    # uncovered elements, and 1 is the lower index.
    inst = _vertex_instance([{0, 2}, {1, 2, 4}, {2, 3, 4, 5}, {0, 3, 5}, {1, 2, 3, 4}], 6)
    assert _indices(solve_greedy(inst)) == {0, 1, 2}
    start = solve_exact(inst, INCUMBENT_ONLY)
    assert not start.optimal
    assert _indices(start) == {1, 3}


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
    assert res.proven and len(res.cover) == 10


def test_atlas_search_nodes_are_pinned(atlas_suite):
    # Tier-1 pins counts, not times: the summed branch-and-bound nodes of
    # the 142 connected atlas graphs at a 1,000-node budget, at the five
    # radii of the atlas benchmark.  A change to the root, the bounds or the
    # branching moves these sums.
    budget = Budget(max_nodes=1000, max_seconds=1e9)
    for delta, pinned in ((F(1, 3), 3_022), (F(2, 5), 5_601), (F(3, 5), 2_159),
                          (F(2, 3), 3_291), (F(5, 4), 1_843)):
        nodes = sum(solve_exact(build_set_cover(g, delta), budget).nodes_explored
                    for _, g in atlas_suite)
        assert nodes == pinned, str(delta)


def test_a_child_cut_at_its_parent_still_counts_as_a_node():
    # A child the parent's packing already cuts is decided without a call,
    # and counted, so a node budget stops the search where it did when the
    # child was called: with 19 points, unproven, after 1,001 nodes.  Not
    # counting those children lets the same budget reach 17 points.
    budget = Budget(max_nodes=1000, max_seconds=1e9)
    res = solve_exact(build_set_cover(grid(5, 5), F(4, 5)), budget)
    assert (len(res.cover), res.optimal, res.nodes_explored) == (19, False, 1001)


def test_exact_proves_atlas207_and_atlas161_within_1000_nodes(atlas_suite):
    # Both ran out of 1,000 nodes while the search explored every sibling
    # branch, at 19 and 10 points.
    graphs = dict(atlas_suite)
    budget = Budget(max_nodes=1000, max_seconds=1e9)
    for name, delta, size in (("atlas207", F(1, 3), 17), ("atlas161", F(2, 5), 10)):
        res = min_cover_exact(graphs[name], delta, budget)
        assert res.proven and len(res.cover) == size, name


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
    assert len(res.cover) == brute_set_cover_size(list(inst.masks), (1 << 8) - 1, len(edges)) == 4
    assert res.nodes_explored == 7


def test_min_cover_exact_checks_its_answer_outside_the_proof_memo(verifier_calls):
    # Each call builds a new point set, so a memo entry would never be read;
    # the answer is still checked once.
    from deltacover.verify import require_output

    for g, d in [(cycle(5), F(2, 3)), (k_n(4), F(1, 2))]:
        min_cover_exact(g, d)
    assert len(verifier_calls) == 2
    info = require_output.cache_info()
    assert info.currsize == 0 and info.misses == 0


def test_greedy_basics():
    g = Graph([(0, 1)])
    assert len(solve_greedy(build_set_cover(g, F(1))).cover) == 1
    c4 = cycle(4)
    r = solve_greedy(build_set_cover(c4, F(1)))
    assert len(r.cover) == 2
    assert not r.optimal


def test_greedy_gain_evaluations_are_pinned():
    # Tier-1 pins counts, not times: each pick of the greedy's scan reads
    # the gain of every candidate, so 59 picks over |C| = 2,200 candidates
    # make 129,800 gain evaluations on the n = 400 cubic graph at 5/2.  A
    # lazy greedy that makes the same picks lowers this pin.
    g = Graph(nx.random_regular_graph(3, 400, seed=1).edges(), n=400)
    inst = build_set_cover(g, F(5, 2))
    res, d = _greedy(inst)
    assert (len(inst.universe), len(inst.masks), d) == (2_400, 2_200, 60)
    assert len(res.cover) == 59
    assert len(res.cover) * len(inst.masks) == 129_800


def test_greedy_star_subdivided():
    # 5-arm star, arms of 3 edges, radius 3/2: one point per arm is forced
    base = star(5)
    g = subdivide(base, 3)
    exact = min_cover_exact(g, F(3, 2))
    greedy = solve_greedy(build_set_cover(g, F(3, 2)))
    assert len(exact.cover) == 5
    assert len(greedy.cover) >= 2
    assert len(greedy.cover) >= len(exact.cover)
    bound = harmonic_number(len(build_set_cover(g, F(3, 2)).universe)) * len(exact.cover)
    assert len(greedy.cover) <= bound


def test_results_verify_and_budget_flag():
    g = k_n(4)
    res = min_cover_exact(g, F(2, 3))
    assert res.proven and is_delta_cover(g, res.cover).is_cover
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
