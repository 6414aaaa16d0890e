"""Acceptance suite: seven criteria, one printed PASS/FAIL line each.

Criterion inputs: the 142 connected graphs on 2..6 vertices from the graph
atlas, crossed with a 17-value grid of covering radii.  Exact solves run
under a per-instance budget (``ROW_BUDGET``).  Criteria 2, 3 and 4 assert
that every solve they use proved its optimum and skip no row; criterion 6
asserts it for the 1-cover rows.  Elsewhere rows whose optimum is not
proven in budget are reported and excluded from ratio comparisons (never
silently treated as optimal).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from deltacover import (
    Budget,
    Cover,
    Graph,
    Point,
    approx_cover,
    build_set_cover,
    gallai_edmonds,
    harmonic_number,
    is_delta_cover,
    min_cover_exact,
    point_distance,
    solve_exact,
    solve_greedy,
    subdivide,
    translate_cover_up,
    tree_cover,
    unit_fraction_cover,
)
from deltacover.approx import RatioReport
from deltacover.families import gen_star_subdivision, gen_triangles_center, gen_triangles_paths
from deltacover.graphs import is_forest
from deltacover.solver import SolveResult
from oracles import brute_set_cover_size, hops_from, interval_edge_coverage

DELTAS = [
    F(1, 4), F(2, 7), F(1, 3), F(2, 5), F(1, 2), F(4, 7), F(3, 5), F(2, 3),
    F(5, 7), F(3, 4), F(4, 5), F(1), F(7, 6), F(5, 4), F(4, 3), F(3, 2), F(2),
]

ROW_BUDGET = Budget(max_seconds=2.5)


@dataclass
class SuiteRow:
    name: str
    g: Graph
    delta: F
    exact: SolveResult
    greedy: SolveResult
    approx: RatioReport
    universe_size: int
    small_masks: tuple[int, ...] | None  # kept when the instance has <= 20 candidates


@pytest.fixture(scope="module")
def suite_rows(atlas_suite) -> tuple[list[SuiteRow], float]:
    t0 = time.monotonic()
    rows = []
    for name, g in atlas_suite:
        for delta in DELTAS:
            inst = build_set_cover(g, delta)
            exact = solve_exact(inst, ROW_BUDGET)
            greedy = solve_greedy(inst)
            approx = approx_cover(g, delta, ROW_BUDGET)
            small = inst.masks if len(inst.candidates) <= 20 else None
            rows.append(SuiteRow(name, g, delta, exact, greedy, approx,
                                 len(inst.universe), small))
    return rows, time.monotonic() - t0


def test_criterion_1_oracle_suite(suite_rows):
    rows, elapsed = suite_rows
    assert len(rows) == 142 * len(DELTAS)
    cross_checked = 0
    unproven = 0
    for row in rows:
        for result_cover in (row.exact.cover, row.greedy.cover, row.approx.cover):
            report = is_delta_cover(row.g, result_cover, row.delta)
            assert report.is_cover, (row.name, str(row.delta))
        if not row.exact.optimal:
            unproven += 1
            continue
        if row.small_masks is not None:
            full = (1 << row.universe_size) - 1
            brute = brute_set_cover_size(row.small_masks, full, row.exact.size + 1)
            assert brute == row.exact.size, (row.name, str(row.delta))
            cross_checked += 1
    assert elapsed < 600, f"suite took {elapsed:.0f}s, over the 10 minute budget"
    print(f"\ncriterion 1: PASS - {len(rows)} instances verified in {elapsed:.0f}s; "
          f"{cross_checked} enumeration cross-checks; "
          f"{unproven} oracle runs budget-limited (reported non-optimal)")


def test_criterion_2_exact_route_equality(atlas_suite, small_trees, suite_rows):
    rows, _ = suite_rows
    exact_at = {(r.name, r.delta): r.exact for r in rows}
    checked = 0
    for name, g in atlas_suite:
        for b in (1, 2, 3, 4):
            uf = unit_fraction_cover(g, b, ROW_BUDGET)
            direct = exact_at[(name, F(1, b))]
            assert uf.optimal and direct.optimal, (name, b)
            assert uf.size == direct.size, (name, b)
            checked += 1
    tree_checked = 0
    for name, g in small_trees:
        for delta in DELTAS:
            res = tree_cover(g, delta)
            oracle = min_cover_exact(g, delta, ROW_BUDGET)
            assert oracle.optimal, (name, str(delta))
            assert res.size == oracle.size, (name, str(delta))
            tree_checked += 1
    print(f"\ncriterion 2: PASS - unit-fraction route equal on {checked} cases; "
          f"tree solver equal on {tree_checked} tree cases (tolerance 0)")


def test_criterion_3_reduction_equivalences(atlas_suite):
    small = [(n, g) for n, g in atlas_suite if g.n <= 5]
    spot6 = [(n, g) for n, g in atlas_suite if g.n == 6 and g.m <= 7][:5]
    sub_checked = 0
    for name, g in small + spot6:
        for delta in (F(1, 2), F(3, 5), F(1)):
            base = min_cover_exact(g, delta, ROW_BUDGET)
            assert base.optimal
            for x in (2, 3):
                gx = subdivide(g, x)
                lifted = min_cover_exact(gx, x * delta, ROW_BUDGET)
                assert lifted.optimal, (name, str(delta), x)
                assert lifted.size == base.size, (name, str(delta), x)
                sub_checked += 1
    trans_checked = 0
    for name, g in small + spot6:
        for delta in (F(1), F(3, 2)):
            d_prime = delta / (2 * delta + 1)
            base = min_cover_exact(g, delta, ROW_BUDGET)
            shifted = min_cover_exact(g, d_prime, ROW_BUDGET)
            assert base.optimal and shifted.optimal, (name, str(delta))
            assert shifted.size == base.size + g.m, (name, str(delta))
            translated = translate_cover_up(g, shifted.cover)
            assert translated.delta == delta and is_delta_cover(g, translated).is_cover
            assert len(translated) == base.size, (name, str(delta))
            trans_checked += 1
    print(f"\ncriterion 3: PASS - subdivision equality on {sub_checked} cases, "
          f"translation equality plus translated-cover size on {trans_checked} cases")


def test_criterion_4_tight_families():
    for k in (3, 4, 5):
        g = gen_triangles_center(k).graph
        at54 = min_cover_exact(g, F(5, 4), Budget(max_seconds=20))
        at1 = min_cover_exact(g, F(1), Budget(max_seconds=20))
        assert at54.optimal and at54.size == k + 1, k
        assert at1.optimal and at1.size == 2 * k, k
        assert F(at1.size, at54.size) == F(2 * k, k + 1)
    tp = gen_triangles_paths(3, "per_vertex").graph
    at76 = min_cover_exact(tp, F(7, 6), Budget(max_seconds=60))
    at1 = min_cover_exact(tp, F(1), Budget(max_seconds=20))
    assert at76.optimal and at76.size == 10
    assert at1.optimal and at1.size == 15
    star_sizes = []
    for k in (2, 3, 4):
        inst = gen_star_subdivision(2, k)
        res = tree_cover(inst.graph, F(3, 5))
        assert res.size == 1 + 2 * k, k
        star_sizes.append(res.size)
    spot = min_cover_exact(gen_star_subdivision(2, 2).graph, F(3, 5), ROW_BUDGET)
    assert spot.optimal and spot.size == 5
    print("\ncriterion 4: PASS - triangle-hub optima (k+1, 2k) for k in 3..5; "
          f"path variant optima (10, 15); star optima {star_sizes}")


def test_criterion_5_factor_soundness(suite_rows):
    rows, _ = suite_rows
    compared = 0
    worst: dict[str, F] = {}
    for row in rows:
        if not row.exact.optimal:
            continue
        ratio = F(len(row.approx.cover), row.exact.size)
        assert ratio <= row.approx.claimed_factor, (
            row.name, str(row.delta), row.approx.regime, str(ratio))
        compared += 1
        key = row.approx.regime
        if key not in worst or ratio > worst[key]:
            worst[key] = ratio
    shown = {k: str(v) for k, v in sorted(worst.items())}
    print(f"\ncriterion 5: PASS - zero factor violations on {compared} "
          f"oracle-complete instances; worst empirical ratio per regime: {shown}")


def test_criterion_6_structural_bounds(atlas_suite, suite_rows):
    rows, _ = suite_rows
    exact_at = {(r.name, r.delta): r.exact for r in rows}
    for name, g in atlas_suite:
        one = exact_at[(name, F(1))]
        assert one.optimal
        ge = gallai_edmonds(g)
        assert one.size <= F(g.n + ge.c_ge3, 2) <= F(2 * g.n, 3), name
    below_one = [d for d in DELTAS if d < 1]
    half_checked = edge_checked = 0
    for name, g in atlas_suite:
        for delta in below_one:
            res = exact_at[(name, delta)]
            if not res.optimal:
                continue
            if not is_forest(g):
                assert res.size >= F(g.n, 2), (name, str(delta))
                half_checked += 1
            if delta < F(1, 2):
                assert res.size >= g.m, (name, str(delta))
                edge_checked += 1
    print(f"\ncriterion 6: PASS - matching-census bounds on all 142 graphs; "
          f"half-|V| bound on {half_checked} rows, |E| bound on {edge_checked} rows")


PROBE_CASES = [(17, F(2, 5)), (17, F(2, 3)), (52, F(2, 3)), (52, F(7, 6)),
               (101, F(2, 5)), (101, F(3, 5)), (140, F(2, 3)), (140, F(7, 6)),
               (140, F(2, 5)), (75, F(5, 7)), (75, F(1, 4)), (30, F(4, 3))]


def test_criterion_7_probes_and_greedy(atlas_suite, suite_rows):
    rows, _ = suite_rows
    by_key = {(r.name, r.delta): r for r in rows}
    names = [name for name, _ in atlas_suite]
    rng = random.Random(20240817)
    probes_run = 0
    for idx, delta in PROBE_CASES:
        row = by_key[(names[idx], delta)]
        g, cover = row.g, row.approx.cover
        gaps = is_delta_cover(g, cover).per_edge_gaps
        hops = [hops_from(g, w) for w in range(g.n)]
        intervals = {e: interval_edge_coverage(g, e, cover, delta, hops) for e in g.edges}
        for _ in range(10_000):
            u, v = g.edges[rng.randrange(g.m)]
            p = Point.on_edge(u, v, F(rng.randrange(10**4 + 1), 10**4))
            near = min(point_distance(g, p, q) for q in cover.points)
            if p.is_vertex:
                # A vertex is covered iff some edge at it is covered at that end.
                by_interval = any(
                    pieces and ((e[0] == p.u and pieces[0][0] == 0)
                                or (e[1] == p.u and pieces[-1][1] == 1))
                    for e, pieces in intervals.items() if p.u in e
                )
            else:
                # An interior point is uncovered iff it lies strictly inside a gap.
                by_interval = not any(e == p.edge() and lo < p.t < hi
                                      for e, (lo, hi) in gaps)
            assert (near <= delta) == by_interval, (row.name, str(delta), p)
            probes_run += 1
    greedy_checked = 0
    for row in rows:
        if not row.exact.optimal:
            continue
        bound = harmonic_number(row.universe_size) * row.exact.size
        assert row.greedy.size <= bound, (row.name, str(row.delta))
        greedy_checked += 1
    print(f"\ncriterion 7: PASS - {probes_run} random probes agree with interval "
          f"verification on {len(PROBE_CASES)} instances; greedy within H(|U|) "
          f"of the optimum on {greedy_checked} rows")
