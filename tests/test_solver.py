from fractions import Fraction as F

import networkx as nx

from deltacover import (
    Budget,
    Point,
    build_graph,
    build_set_cover,
    candidate_points,
    harmonic_number,
    is_delta_cover,
    min_cover_exact,
    solve_exact,
    solve_greedy,
    subdivide,
)
from deltacover.solver import SetCoverInstance, coverage_spot_check
from conftest import cycle, k_n, path, star
from oracles import brute_set_cover_size


def test_candidate_counts():
    assert len(candidate_points(build_graph([(0, 1)]), F(1))) == 3
    assert len(candidate_points(build_graph([(0, 1)]), F(2, 3))) == 7
    assert len(candidate_points(k_n(3), F(3, 2))) == 12


def test_build_set_cover_k2_single_candidate_covers():
    g = build_graph([(0, 1)])
    inst = build_set_cover(g, F(1, 2))  # b = 2, so the grid has 4b+1 = 9 points
    mid = inst.candidates.index(Point.on_edge(0, 1, F(1, 2)))
    assert len(inst.coverage[mid]) == len(inst.universe) == 9

    inst1 = build_set_cover(g, F(1))
    u = inst1.candidates.index(Point.vertex(0))
    assert len(inst1.coverage[u]) == len(inst1.universe) == 5


def test_build_set_cover_k3_far_edge():
    g = k_n(3)
    inst = build_set_cover(g, F(1))
    u = inst.candidates.index(Point.vertex(0))
    covered = {inst.universe[i] for i in inst.coverage[u]}
    assert Point.on_edge(1, 2, F(1, 2)) not in covered
    assert Point.vertex(1) in covered and Point.vertex(2) in covered


def test_coverage_agrees_with_point_distance():
    for g, d in [(k_n(4), F(2, 3)), (cycle(5), F(3, 5)), (path(3), F(7, 6))]:
        inst = build_set_cover(g, d)
        assert coverage_spot_check(g, inst, samples=120)


def test_exact_small_sizes():
    assert min_cover_exact(cycle(4), F(1)).size == 2
    assert min_cover_exact(k_n(3), F(1)).size == 2
    assert min_cover_exact(path(6), F(3, 5)).size == 5
    assert min_cover_exact(build_graph([(0, 1)]), F(1, 4)).size == 2
    assert min_cover_exact(k_n(3), F(2)).size == 1
    assert min_cover_exact(cycle(4), F(1, 2)).size == 4


def test_exact_matches_brute_enumeration():
    for g, d in [(build_graph([(0, 1)]), F(1)), (k_n(3), F(1)), (path(2), F(1, 2)),
                 (cycle(4), F(1)), (path(3), F(2, 3))]:
        inst = build_set_cover(g, d)
        if len(inst.candidates) > 20:
            continue
        result = solve_exact(inst)
        assert result.optimal
        masks = inst.masks()
        full = (1 << len(inst.universe)) - 1
        assert result.size == brute_set_cover_size(masks, full, result.size + 1)


def test_exact_proves_dense_atlas_graphs_at_three_eighths():
    # Five-vertex graphs with 7-9 edges at 3/8: the element packing has to
    # reach the optimum for the search to close.  Nodes only, so the result
    # does not depend on machine speed.
    budget = Budget(max_nodes=5_000, max_seconds=1e9)
    for index, size in [(49, 9), (51, 10), (50, 9), (48, 9), (46, 8)]:
        h = nx.graph_atlas(index)
        g = build_graph(sorted(tuple(sorted(e)) for e in h.edges()), n=h.number_of_nodes())
        result = solve_exact(build_set_cover(g, F(3, 8)), budget)
        assert result.optimal, (index, result.nodes_explored)
        assert result.size == size, index


def test_exact_size_invariant_under_permutation():
    import random

    g = cycle(5)
    inst = build_set_cover(g, F(2, 3))
    base = solve_exact(inst).size
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
            tuple(tuple(sorted(upos[e] for e in inst.coverage[i])) for i in cperm),
        )
        assert solve_exact(shuffled).size == base


def test_greedy_basics():
    g = build_graph([(0, 1)])
    assert solve_greedy(build_set_cover(g, F(1))).size == 1
    c4 = cycle(4)
    r = solve_greedy(build_set_cover(c4, F(1)))
    assert r.size == 2
    assert not r.optimal


def test_greedy_star_subdivided():
    # 5-arm star, arms of 3 edges, radius 3/2: one point per arm is forced
    base = star(5)
    g, _ = subdivide(base, 3)
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


def test_harmonic_number_has_no_depth_limit():
    total = F(0)
    for k in range(1, 5001):
        total += F(1, k)
    assert harmonic_number(5000) == total
