"""Range-dispatched approximation algorithms with proven guarantees.

Every connected component is routed by the covering radius: forests and
unit fractions solve exactly, large radii fall back to greedy set cover,
and each remaining interval gets the algorithm whose factor is proven for
it.  Each report carries the factor actually claimed for the instance.

The route functions return unverified covers; ``approx_cover`` verifies
the union of its component covers once, at the public boundary.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    Cover,
    Graph,
    ONE,
    Point,
    ZERO,
    connected_components,
    induced_subgraph,
    is_forest,
    relabel_points,
)
from .matching import (
    _one_cover,
    _tree_points,
    _unit_fraction_cover,
    gallai_edmonds,
    vc_2approx,
)
from .solver import (
    Budget,
    DEFAULT_BUDGET,
    InternalConsistencyError,
    build_set_cover,
    harmonic_number,
    solve_exact,
    solve_greedy,
)
from .verify import is_delta_cover, require_cover

HALF = Fraction(1, 2)
TWO_THIRDS = Fraction(2, 3)
THREE_QUARTERS = Fraction(3, 4)
THREE_HALVES = Fraction(3, 2)


@dataclass(frozen=True)
class RatioReport:
    """An approximate cover plus the guarantee claimed for it."""

    cover: Cover
    claimed_factor: Fraction
    regime: str
    avg_degree: Fraction
    param: int | None = None
    epsilon: Fraction | None = None


@dataclass(frozen=True)
class LevelPartition:
    """Leaf-distance layers: L0 = leaves, Li = vertices at distance i from one."""

    L0: frozenset[int]
    L1: frozenset[int]
    L2: frozenset[int]
    E01: tuple[tuple[int, int], ...]
    E11: tuple[tuple[int, int], ...]
    E12: tuple[tuple[int, int], ...]
    W: frozenset[int]


def level_partition(g: Graph) -> LevelPartition:
    """Read the layers off adjacency alone.

    A leaf u has one neighbour p, so the vertices at distance 1 from u are
    {p} and those at distance 2 are N(p) - {u}.
    """
    L0 = frozenset(v for v in range(g.n) if g.degree(v) == 1)
    L1 = frozenset(g.adj[u][0] for u in L0)
    L2 = frozenset(w for u in L0 for w in g.adj[g.adj[u][0]] if w != u)
    E01 = tuple(
        (a, b)
        for u, v in g.edges
        for a, b in ((u, v), (v, u))
        if a in L0 and b in L1
    )
    E11 = tuple((u, v) for u, v in g.edges if u in L1 and v in L1)
    E12 = tuple(
        (a, b)
        for u, v in g.edges
        for a, b in ((u, v), (v, u))
        if a in L1 and b in L2
    )
    W = frozenset(range(g.n)) - L0 - L1
    return LevelPartition(L0, L1, L2, E01, E11, E12, W)


def vertex_set_interval(delta: Fraction) -> int:
    """The integer x >= 2 with (x+1)/(2x+1) <= delta < x/(2x-1)."""
    if not HALF < delta < TWO_THIRDS:
        raise ValueError(f"delta {delta} outside (1/2, 2/3)")
    x = math.ceil((1 - delta) / (2 * delta - 1))
    assert Fraction(x + 1, 2 * x + 1) <= delta < Fraction(x, 2 * x - 1)
    return x


def _one_cover_factor(delta: Fraction) -> tuple[Fraction, str]:
    if delta < Fraction(7, 6):
        return THREE_HALVES, "one_cover_3_2"
    if delta < Fraction(5, 4):
        return Fraction(5, 3), "one_cover_5_3"
    return Fraction(2), "one_cover_2"


def cover_via_one_cover(g: Graph, delta: Fraction, budget: Budget = DEFAULT_BUDGET) -> RatioReport:
    """For radii just above 1, an optimal 1-cover is a bounded-factor answer.

    Unverified: a 1-cover is a delta-cover for every delta >= 1.
    """
    if not ONE < delta < THREE_HALVES:
        raise ValueError(f"delta {delta} outside (1, 3/2)")
    factor, regime = _one_cover_factor(delta)
    cover = Cover(_one_cover(g).points, delta)
    return RatioReport(cover, factor, regime, g.average_degree())


def _vertex_set_points(g: Graph, x: int, delta: Fraction, budget: Budget) -> frozenset[Point]:
    """The vertex-set route's points on the connected graph g, unverified."""
    if g.m >= g.n and g.m >= x:
        return frozenset(Point.vertex(v) for v in range(g.n))
    if g.m == g.n - 1:
        return frozenset(_tree_points(g, delta))
    return solve_exact(build_set_cover(g, delta), budget).cover.points


def _vertex_set_report(g: Graph, x: int, points: frozenset[Point], delta: Fraction) -> RatioReport:
    return RatioReport(Cover(points, delta), Fraction(x + 1, x), "vertex_set_x",
                       g.average_degree(), param=x)


def cover_vertex_set(g: Graph, delta: Fraction, budget: Budget = DEFAULT_BUDGET) -> RatioReport:
    """Output V per non-tree component: an (x+1)/x approximation.

    Components with fewer than x edges are solved exactly instead (brute
    force is constant work there), trees go to the exact tree solver.  The
    cover is unverified, and so are those sub-solves.
    """
    x = vertex_set_interval(delta)
    comps = connected_components(g)
    if len(comps) == 1:
        return _vertex_set_report(g, x, _vertex_set_points(g, x, delta, budget), delta)
    points: set[Point] = set()
    for comp in comps:
        sub, old = induced_subgraph(g, comp)
        points |= relabel_points(_vertex_set_points(sub, x, delta, budget), old)
    return _vertex_set_report(g, x, frozenset(points), delta)


def _leaf_level_report(g: Graph, delta: Fraction) -> RatioReport:
    """``cover_leaf_level`` on a graph already known to be no forest."""
    levels = level_partition(g)
    points: set[Point] = set()
    for u0, u1 in levels.E01:
        points.add(Point.on_edge(u0, u1, TWO_THIRDS))
    sub_edges = [(u, v) for u, v in levels.E11]
    inner = Graph(sub_edges, n=g.n)
    points |= {Point.vertex(v) for v in vc_2approx(inner)}
    points |= {Point.vertex(v) for v in levels.W}
    return RatioReport(Cover(frozenset(points), delta), THREE_HALVES, "leaf_level",
                       g.average_degree())


def cover_leaf_level(g: Graph, delta: Fraction) -> RatioReport:
    """Leaf-edge points at 2/3, a vertex cover among leaf-neighbors, the rest.

    The output is a 2/3-cover of any graph whose components are not trees,
    hence a delta-cover throughout [2/3, 3/4).  It is returned unverified.
    """
    if not TWO_THIRDS <= delta < THREE_QUARTERS:
        raise ValueError(f"delta {delta} outside [2/3, 3/4)")
    if is_forest(g):
        raise ValueError("leaf-level algorithm expects non-tree input")
    return _leaf_level_report(g, delta)


def small_delta_interval(delta: Fraction) -> tuple[str, int]:
    """Classify delta < 1/2 (not a unit fraction) into its approximation case.

    Returns ("even", k) for delta in (1/(2k+2), 1/(2k+1)) and ("odd", k)
    for delta in (1/(2k+1), 1/(2k)).
    """
    if not ZERO < delta < HALF:
        raise ValueError(f"delta {delta} outside (0, 1/2)")
    if delta.numerator == 1:
        raise ValueError(f"delta {delta} is a unit fraction; solve exactly")
    m = (1 / delta).__floor__()
    if m % 2 == 0:
        return "odd", m // 2
    return "even", (m - 1) // 2


def _small_even_factor(n: int, m: int, k: int) -> Fraction:
    """1 + 1/(k*avg_degree + 1) for one connected component with n vertices, m edges."""
    return 1 + Fraction(1, k * Fraction(2 * m, n) + 1) if m else ONE


def _small_even_report(g: Graph, k: int, delta: Fraction, factor: Fraction) -> RatioReport:
    points = {Point.vertex(v) for v in range(g.n)}
    for u, v in g.edges:
        for j in range(1, k + 1):
            points.add(Point.on_edge(u, v, HALF + (2 * j - k - 1) * delta))
    cover = Cover(frozenset(points), delta)
    return RatioReport(cover, factor, "small_even", g.average_degree(), param=k)


def cover_small_delta_even(g: Graph, k: int, delta: Fraction) -> RatioReport:
    """All vertices plus k evenly spread interior points per edge.

    Valid whenever delta > 1/(2k+2); the guarantee 1 + 1/(k*avg_degree + 1)
    holds against non-tree components, which is all the dispatcher sends.
    The cover is returned unverified.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    factor = max([ONE] + [_small_even_factor(len(comp), sum(g.degree(v) for v in comp) // 2, k)
                          for comp in connected_components(g)])
    return _small_even_report(g, k, delta, factor)


def cover_small_delta_odd(g: Graph, k: int, delta: Fraction,
                          budget: Budget = DEFAULT_BUDGET) -> RatioReport:
    """A minimum 1/(2k+1)-cover, reused for every delta above 1/(2k+1).

    Its size is exactly k|E| plus the minimum 1-cover, and any delta-cover
    for delta < 1/(2k) needs at least k|E| points, which yields the factor
    min(1 + 4/(3k*avg_degree), 1 + 1/(2k) + eps).  Two Edmonds searches:
    one on the (2k+1)-subdivision, and one on g that gives both cov1 and
    eps.  The cover is returned unverified.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cover = _unit_fraction_cover(g, 2 * k + 1)
    ge = gallai_edmonds(g)
    bound = k * g.m + len(_one_cover(g, ge))
    if len(cover) > bound:
        raise InternalConsistencyError(
            f"1/{2 * k + 1}-cover of size {len(cover)} exceeds k|E| + cov1 = {bound}"
        )
    eps = Fraction(g.n + ge.c_ge3, g.n + ge.c_ge3 - 1) - 1 if g.n + ge.c_ge3 > 1 else Fraction(1)
    avg = g.average_degree()
    factor = 1 + Fraction(1, 2 * k) + eps
    if avg > 0:
        factor = min(factor, 1 + Fraction(4, 3 * k) / avg)
    return RatioReport(Cover(cover.points, delta), factor, "small_odd", avg,
                       param=k, epsilon=eps)


def translate_cover_up(g: Graph, s_prime: Cover, delta: Fraction) -> Cover:
    """Shrink a delta/(2*delta+1)-cover into a delta-cover, edge by edge.

    Every edge carrying k >= 2 points contributes k - 1 points spaced
    2*delta apart, starting at (2*delta + 1) times the smallest offset; an
    edge with at most one point contributes nothing.
    """
    delta_prime = delta / (2 * delta + 1)
    require_cover(g, s_prime, delta_prime, "translation input")
    out: set[Point] = set()
    for u, v in g.edges:
        offsets = sorted(
            p.t if not p.is_vertex and p.edge() == (u, v)
            else (ZERO if p == Point.vertex(u) else ONE)
            for p in s_prime.points
            if (not p.is_vertex and p.edge() == (u, v))
            or p == Point.vertex(u)
            or p == Point.vertex(v)
        )
        k = len(offsets)
        if k <= 1:
            continue
        mu = offsets[0]
        lam = mu * (2 * delta + 1)
        for _ in range(k - 1):
            out.add(Point.on_edge(u, v, min(lam, ONE)))
            lam += 2 * delta
    cover = Cover(frozenset(out), delta)
    report = is_delta_cover(g, cover, delta)
    if not report.is_cover:
        raise InternalConsistencyError(
            f"translated cover misses {report.witness}"
        )
    return cover


def _component_report(sub: Graph, delta: Fraction, budget: Budget) -> RatioReport:
    """The unverified report of the route for one connected component."""
    # Connected, so a tree iff m = n - 1.
    if sub.m == sub.n - 1:
        cover = Cover(frozenset(_tree_points(sub, delta)), delta)
        return RatioReport(cover, ONE, "exact", sub.average_degree())
    if delta == HALF:
        points = frozenset(Point.vertex(v) for v in range(sub.n))
        return RatioReport(Cover(points, delta), ONE, "exact", sub.average_degree())
    if delta.numerator == 1:
        cover = _unit_fraction_cover(sub, delta.denominator)
        return RatioReport(cover, ONE, "exact", sub.average_degree())
    if delta >= THREE_HALVES:
        inst = build_set_cover(sub, delta)
        res = solve_greedy(inst)
        return RatioReport(res.cover, harmonic_number(len(inst.universe)),
                           "large_delta", sub.average_degree())
    if delta > ONE:
        return cover_via_one_cover(sub, delta, budget)
    if delta >= THREE_QUARTERS:
        points = frozenset(Point.vertex(v) for v in range(sub.n))
        return RatioReport(Cover(points, delta), Fraction(2), "vertex_set_34_1",
                           sub.average_degree())
    # sub is connected and, past the tree check above, no tree: the routes
    # below take it whole, without splitting it into components again.
    if delta >= TWO_THIRDS:
        return _leaf_level_report(sub, delta)
    if delta > HALF:
        x = vertex_set_interval(delta)
        return _vertex_set_report(sub, x, _vertex_set_points(sub, x, delta, budget), delta)
    case, k = small_delta_interval(delta)
    if case == "even":
        return _small_even_report(sub, k, delta, _small_even_factor(sub.n, sub.m, k))
    return cover_small_delta_odd(sub, k, delta, budget)


def approx_cover(g: Graph, delta: Fraction, budget: Budget = DEFAULT_BUDGET) -> RatioReport:
    """Route each connected component to its regime and union the covers.

    The routes return unverified covers; the union is verified once here,
    and a route that produced a non-cover raises InternalConsistencyError.
    """
    if delta <= ZERO:
        raise ValueError(f"delta must be positive, got {delta}")
    points: set[Point] = set()
    claimed = Fraction(1)
    regime = "exact"
    param: int | None = None
    epsilon: Fraction | None = None
    comps = connected_components(g)
    for comp in comps:
        sub, old = (g, None) if len(comps) == 1 else induced_subgraph(g, comp)
        rep = _component_report(sub, delta, budget)
        points |= relabel_points(rep.cover.points, old)
        if rep.claimed_factor > claimed:
            claimed = rep.claimed_factor
        if rep.regime != "exact":
            regime = rep.regime
            param = rep.param
            epsilon = rep.epsilon if rep.epsilon is not None else epsilon
    cover = Cover(frozenset(points), delta)
    report = is_delta_cover(g, cover, delta)
    if not report.is_cover:
        raise InternalConsistencyError(f"approx cover misses {report.witness}")
    return RatioReport(cover, claimed, regime, g.average_degree(), param=param,
                       epsilon=epsilon)
