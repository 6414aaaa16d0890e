"""Range-dispatched approximation algorithms with proven guarantees.

Every connected component is routed by the covering radius: forests and
unit fractions solve exactly, large radii fall back to greedy set cover,
and each remaining interval gets the algorithm whose factor is proven for
it.  Each report carries the factor actually claimed for the instance.

Each regime has one core: it takes a connected graph and returns the
unverified ``_Part`` of its route.  ``_per_component`` runs a core on every
component and unions the parts; ``approx_cover`` and the public routes
verify their answer once, at the public boundary, through ``_verified``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    Cover,
    Graph,
    ONE,
    Point,
    ZERO,
    _traversal,
    induced_subgraph,
    is_forest,
    relabel_points,
)
from .matching import (
    _split_and_one_cover,
    _tree_points,
    _unit_fraction_cover,
    vc_2approx,
)
from .solver import (
    Budget,
    DEFAULT_BUDGET,
    build_set_cover,
    harmonic_number,
    solve_exact,
    solve_greedy,
)
from .verify import InternalConsistencyError, require_cover, require_output

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
class _Part:
    """A core's unverified points on one connected graph and the claim for them."""

    points: frozenset[Point]
    claimed_factor: Fraction
    regime: str
    param: int | None = None
    epsilon: Fraction | None = None


def _report(g: Graph, delta: Fraction, part: _Part) -> RatioReport:
    return RatioReport(Cover(part.points, delta), part.claimed_factor, part.regime,
                       g.average_degree(), part.param, part.epsilon)


def _verified(g: Graph, report: RatioReport, what: str) -> RatioReport:
    """``report`` once its cover has passed ``require_output`` on g."""
    require_output(g, report.cover, what)
    return report


def _per_component(g: Graph, delta: Fraction, core) -> RatioReport:
    """Run ``core(sub, delta)`` on each connected component and union the parts.

    A connected g goes to the core whole, and its part's points are the
    answer, without a copy.  The union claims the largest factor, and the
    regime and param of the last part that is not exact (with the last
    epsilon any of those gave).  Unverified.
    """
    pieces: list[frozenset[Point]] = []
    claimed, regime, param, epsilon = ONE, "exact", None, None
    comps = _traversal(g).components
    for comp in comps:
        sub, old = (g, None) if len(comps) == 1 else induced_subgraph(g, comp)
        part = core(sub, delta)
        pieces.append(relabel_points(part.points, old))
        claimed = max(claimed, part.claimed_factor)
        if part.regime != "exact":
            regime, param = part.regime, part.param
            epsilon = part.epsilon if part.epsilon is not None else epsilon
    points = pieces[0] if len(pieces) == 1 else frozenset().union(*pieces)
    return _report(g, delta, _Part(points, claimed, regime, param, epsilon))


@functools.lru_cache(maxsize=8)
def _vertices(g: Graph) -> frozenset[Point]:
    """Every vertex of g as a point, memoized on g's value like ``_traversal``."""
    return frozenset(Point.vertex(v) for v in range(g.n))


@dataclass(frozen=True)
class LevelPartition:
    """Leaves L0, their neighbours L1, the rest W, and the edges E01 (leaf
    first) and E11 (inside L1) that the leaf-level cover reads."""

    L0: frozenset[int]
    L1: frozenset[int]
    E01: tuple[tuple[int, int], ...]
    E11: tuple[tuple[int, int], ...]
    W: frozenset[int]


def level_partition(g: Graph) -> LevelPartition:
    """Read the layers off adjacency alone: a leaf's one neighbour is in L1."""
    L0 = frozenset(v for v in range(g.n) if g.degree(v) == 1)
    L1 = frozenset(g.adj[u][0] for u in L0)
    E01 = tuple(
        (a, b)
        for u, v in g.edges
        for a, b in ((u, v), (v, u))
        if a in L0 and b in L1
    )
    E11 = tuple((u, v) for u, v in g.edges if u in L1 and v in L1)
    W = frozenset(range(g.n)) - L0 - L1
    return LevelPartition(L0, L1, E01, E11, W)


def vertex_set_interval(delta: Fraction) -> int:
    """The integer x >= 2 with (x+1)/(2x+1) <= delta < x/(2x-1)."""
    if not HALF < delta < TWO_THIRDS:
        raise ValueError(f"delta {delta} outside (1/2, 2/3)")
    x = math.ceil((1 - delta) / (2 * delta - 1))
    assert Fraction(x + 1, 2 * x + 1) <= delta < Fraction(x, 2 * x - 1)
    return x


def _one_cover_part(g: Graph, delta: Fraction) -> _Part:
    if delta < Fraction(7, 6):
        factor, regime = THREE_HALVES, "one_cover_3_2"
    elif delta < Fraction(5, 4):
        factor, regime = Fraction(5, 3), "one_cover_5_3"
    else:
        factor, regime = Fraction(2), "one_cover_2"
    return _Part(_split_and_one_cover(g)[1].points, factor, regime)


def cover_via_one_cover(g: Graph, delta: Fraction) -> RatioReport:
    """For radii just above 1, an optimal 1-cover is a bounded-factor answer.

    A 1-cover is a delta-cover for every delta >= 1; the cover is verified
    once, on g.
    """
    if not ONE < delta < THREE_HALVES:
        raise ValueError(f"delta {delta} outside (1, 3/2)")
    return _verified(g, _report(g, delta, _one_cover_part(g, delta)), "1-cover route")


def _vertex_set_part(g: Graph, delta: Fraction, x: int, budget: Budget) -> _Part:
    if g.m >= g.n and g.m >= x:
        points = _vertices(g)
    elif g.m == g.n - 1:
        points = frozenset(_tree_points(g, delta))
    else:
        points = solve_exact(build_set_cover(g, delta), budget).cover.points
    return _Part(points, Fraction(x + 1, x), "vertex_set_x", param=x)


def cover_vertex_set(g: Graph, delta: Fraction, budget: Budget = DEFAULT_BUDGET) -> RatioReport:
    """Output V per non-tree component: an (x+1)/x approximation.

    Components with fewer than x edges are solved exactly instead (brute
    force is constant work there), trees go to the exact tree solver.  The
    union is verified once, on g; the sub-solves are not verified apart.
    """
    x = vertex_set_interval(delta)
    report = _per_component(g, delta, lambda sub, d: _vertex_set_part(sub, d, x, budget))
    return _verified(g, report, "vertex-set route")


def _leaf_level_part(g: Graph, delta: Fraction) -> _Part:
    levels = level_partition(g)
    points = {Point.on_edge(u0, u1, TWO_THIRDS) for u0, u1 in levels.E01}
    points |= {Point.vertex(v) for v in vc_2approx(Graph(levels.E11, n=g.n))}
    points |= {Point.vertex(v) for v in levels.W}
    return _Part(frozenset(points), THREE_HALVES, "leaf_level")


def cover_leaf_level(g: Graph, delta: Fraction) -> RatioReport:
    """Leaf-edge points at 2/3, a vertex cover among leaf-neighbors, the rest.

    The output is a 2/3-cover of any graph whose components are not trees,
    hence a delta-cover throughout [2/3, 3/4).  It is verified once, on g.
    """
    if not TWO_THIRDS <= delta < THREE_QUARTERS:
        raise ValueError(f"delta {delta} outside [2/3, 3/4)")
    if is_forest(g):
        raise ValueError("leaf-level algorithm expects non-tree input")
    return _verified(g, _report(g, delta, _leaf_level_part(g, delta)), "leaf-level route")


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


def _small_even_part(g: Graph, delta: Fraction, k: int) -> _Part:
    """All vertices, and the same k offsets 1/2 + (2j - k - 1)delta on every edge.

    For delta in (1/(2k+2), 1/(2k+1)), (k - 1)delta < 1/2, so every offset
    lies strictly inside (0, 1) and each point is built already normalized
    on the canonical edge (u, v), u < v.
    """
    inner = []
    for t in (HALF + (2 * j - k - 1) * delta for j in range(1, k + 1)):
        if ZERO < t < ONE:
            inner.append(t)
        elif g.edges:
            # Only a k out of range for delta gets here: offset 0 or 1 is a
            # vertex, already in the cover, and any other offset raises
            # InvalidPointError on the first edge.
            Point.on_edge(*g.edges[0], t)
    points = _vertices(g).union(Point(u, v, t) for u, v in g.edges for t in inner)
    factor = 1 + Fraction(1, k * g.average_degree() + 1) if g.m else ONE
    return _Part(points, factor, "small_even", param=k)


def cover_small_delta_even(g: Graph, k: int, delta: Fraction) -> RatioReport:
    """All vertices plus k evenly spread interior points per edge.

    Valid whenever delta > 1/(2k+2); the guarantee 1 + 1/(k*avg_degree + 1)
    holds per connected component against non-tree components, which is
    all the dispatcher sends.  The cover is verified once, on g.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    report = _per_component(g, delta, lambda sub, d: _small_even_part(sub, d, k))
    return _verified(g, report, "small-delta even route")


def _small_odd_part(g: Graph, delta: Fraction, k: int) -> _Part:
    cover = _unit_fraction_cover(g, 2 * k + 1)
    ge, one_cover = _split_and_one_cover(g)
    bound = k * g.m + len(one_cover)
    if len(cover) > bound:
        raise InternalConsistencyError(
            f"1/{2 * k + 1}-cover of size {len(cover)} exceeds k|E| + cov1 = {bound}"
        )
    eps = Fraction(g.n + ge.c_ge3, g.n + ge.c_ge3 - 1) - 1 if g.n + ge.c_ge3 > 1 else Fraction(1)
    avg = g.average_degree()
    factor = 1 + Fraction(1, 2 * k) + eps
    if avg > 0:
        factor = min(factor, 1 + Fraction(4, 3 * k) / avg)
    return _Part(cover.points, factor, "small_odd", param=k, epsilon=eps)


def cover_small_delta_odd(g: Graph, k: int, delta: Fraction) -> RatioReport:
    """A minimum 1/(2k+1)-cover, reused for every delta above 1/(2k+1).

    Its size is exactly k|E| plus the minimum 1-cover, and any delta-cover
    for delta < 1/(2k) needs at least k|E| points, which yields the factor
    min(1 + 4/(3k*avg_degree), 1 + 1/(2k) + eps).  The (2k+1)-subdivision's
    cover, and the split of g that gives both cov1 and eps, come from the
    matching memos, so each takes one Edmonds search the first time g is
    seen and none after.  The cover is verified once per call, on g.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _verified(g, _report(g, delta, _small_odd_part(g, delta, k)), "small-delta odd route")


def translate_cover_up(g: Graph, s_prime: Cover) -> Cover:
    """Shrink a delta'-cover into a delta-cover, edge by edge.

    delta' = ``s_prime.delta`` must be below 1/2, and delta =
    delta'/(1 - 2*delta'), so that delta' = delta/(2*delta + 1).  Every
    edge carrying k >= 2 points contributes k - 1 points spaced 2*delta
    apart, starting at (2*delta + 1) times the smallest offset; an edge
    with at most one point contributes nothing.
    """
    d_prime = s_prime.delta
    if d_prime >= HALF:
        raise ValueError(f"translation needs delta' < 1/2, got {d_prime}")
    delta = d_prime / (1 - 2 * d_prime)
    require_cover(g, s_prime, "translation input")
    at_vertex: set[int] = set()
    inside: dict[tuple[int, int], list[Fraction]] = {}
    for p in s_prime.points:
        if p.is_vertex:
            at_vertex.add(p.u)
        else:
            inside.setdefault((p.u, p.v), []).append(p.t)
    out: set[Point] = set()
    for u, v in g.edges:
        offsets = inside.get((u, v), [])
        k = len(offsets) + (u in at_vertex) + (v in at_vertex)
        if k <= 1:
            continue
        lam = (ZERO if u in at_vertex else min(offsets)) * (2 * delta + 1)
        for _ in range(k - 1):
            out.add(Point.on_edge(u, v, min(lam, ONE)))
            lam += 2 * delta
    cover = Cover(frozenset(out), delta)
    require_output(g, cover, "translated cover")
    return cover


def _component_part(g: Graph, delta: Fraction, budget: Budget) -> _Part:
    """The core of ``approx_cover``: the route for one connected component."""
    # Connected, so a tree iff m = n - 1.
    if g.m == g.n - 1:
        return _Part(frozenset(_tree_points(g, delta)), ONE, "exact")
    if delta == HALF:
        return _Part(_vertices(g), ONE, "exact")
    if delta.numerator == 1:
        return _Part(_unit_fraction_cover(g, delta.denominator).points, ONE, "exact")
    if delta >= THREE_HALVES:
        # Greedy picks at most H(d) times the optimum, d the largest
        # candidate's element count (Chvatal 1979).
        inst = build_set_cover(g, delta)
        d = max(map(int.bit_count, inst.masks))
        return _Part(solve_greedy(inst).cover.points, harmonic_number(d), "large_delta")
    if delta > ONE:
        return _one_cover_part(g, delta)
    if delta >= THREE_QUARTERS:
        return _Part(_vertices(g), Fraction(2), "vertex_set_34_1")
    # g is connected and, past the tree check above, no tree: the cores
    # below take it whole, without splitting it into components again.
    if delta >= TWO_THIRDS:
        return _leaf_level_part(g, delta)
    if delta > HALF:
        return _vertex_set_part(g, delta, vertex_set_interval(delta), budget)
    case, k = small_delta_interval(delta)
    if case == "even":
        return _small_even_part(g, delta, k)
    return _small_odd_part(g, delta, k)


def approx_cover(g: Graph, delta: Fraction, budget: Budget = DEFAULT_BUDGET) -> RatioReport:
    """Route each connected component to its regime and union the covers.

    The cores return unverified parts; the union is verified once here,
    and a core that produced a non-cover raises InternalConsistencyError.
    """
    if delta <= ZERO:
        raise ValueError(f"delta must be positive, got {delta}")
    report = _per_component(g, delta, lambda sub, d: _component_part(sub, d, budget))
    return _verified(g, report, "approx cover")
