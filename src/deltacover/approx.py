"""Range-dispatched approximation algorithms with proven guarantees.

Every connected component is routed by the covering radius: trees and
unit fractions solve exactly, large radii fall back to greedy set cover,
and each remaining interval gets the algorithm whose factor is proven for
it.  Each report carries the factor actually claimed for the instance.

Each regime has one core: it takes a connected graph that is not a tree
and returns the unverified ``RatioReport`` of its route.
``_per_component`` is the one component loop of ``approx_cover`` and of
the five public routes: it solves tree components exactly, runs the core
on every other component, unions the reports and verifies the union once.

Routing reads delta = p/q as its integer numerator and denominator.  Each
regime boundary a/b is one cross-multiplication, delta >= a/b iff
p*b >= a*q, and each interval's parameter is an integer division, so a
call builds and compares no ``Fraction`` to pick its route: the
``Fraction`` values it builds are those it returns, the points, claimed
factor and epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    Cover,
    Graph,
    HALF,
    ONE,
    Point,
    RatioReport,
    ZERO,
    _make_point,
    _traversal,
    graph_memo,
    induced_subgraph,
    relabel_points,
)
from .matching import (
    _matched_ends,
    _split_and_one_cover,
    _tree_points,
    _unit_fraction_cover,
)
from .solver import (
    Budget,
    DEFAULT_BUDGET,
    _greedy,
    build_set_cover,
    harmonic_number,
    solve_exact,
)
from .verify import require_cover, require_output

ONE_THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)
THREE_HALVES = Fraction(3, 2)
FIVE_THIRDS = Fraction(5, 3)
TWO = Fraction(2)


def _tree_part(g: Graph, delta: Fraction) -> RatioReport:
    """The minimum delta-cover of the tree g (Hartmann-Lendl-Woeginger)."""
    return RatioReport(Cover(frozenset(_tree_points(g, delta)), delta), ONE, "exact")


def _per_component(g: Graph, delta: Fraction, core, what: str) -> RatioReport:
    """Solve each connected component, union the reports, verify the union once.

    Trees (m = n - 1, an isolated vertex included) are solved exactly and
    ``core(sub, delta)`` answers every other component; a connected g is
    not copied, and its report is the answer.  A union claims the largest
    factor, the regime and param of the last part that is not exact (and
    the last epsilon given), and is proven when every part is.
    """
    comps = _traversal(g).components
    if len(comps) == 1:
        report = _tree_part(g, delta) if g.m == g.n - 1 else core(g, delta)
    else:
        pieces: list[frozenset[Point]] = []
        claimed, regime, param, epsilon, proven = ONE, "exact", None, None, True
        for comp in comps:
            sub, old = induced_subgraph(g, comp)
            part = _tree_part(sub, delta) if sub.m == sub.n - 1 else core(sub, delta)
            pieces.append(relabel_points(part.cover.points, old))
            claimed = max(claimed, part.claimed_factor)
            proven = proven and part.proven
            if part.regime != "exact":
                regime, param = part.regime, part.param
                epsilon = part.epsilon if part.epsilon is not None else epsilon
        report = RatioReport(Cover(frozenset().union(*pieces), delta), claimed, regime, param,
                             epsilon, proven)
    require_output(g, report.cover, what)
    return report


@graph_memo
def _vertices(g: Graph) -> frozenset[Point]:
    """Every vertex of g as a point, memoized on g's value like ``_traversal``."""
    return frozenset(map(_make_point, [(v, v, ZERO) for v in range(g.n)]))


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
    """The integer x >= 2 with (x+1)/(2x+1) <= delta < x/(2x-1).

    For delta = p/q in (1/2, 2/3), x = ceil((1 - delta)/(2 delta - 1)) =
    ceil((q - p)/(2p - q)) = (p - 1) // (2p - q).
    """
    p, q = delta.numerator, delta.denominator
    if not (q < 2 * p and 3 * p < 2 * q):
        raise ValueError(f"delta {delta} outside (1/2, 2/3)")
    x = (p - 1) // (2 * p - q)
    assert (x + 1) * q <= (2 * x + 1) * p and (2 * x - 1) * p < x * q
    return x


def _one_cover_part(g: Graph, delta: Fraction) -> RatioReport:
    """The 1-cover, and the factor of the interval of (1, 3/2) that delta is in."""
    p, q = delta.numerator, delta.denominator
    if 6 * p < 7 * q:  # delta < 7/6
        factor, regime = THREE_HALVES, "one_cover_3_2"
    elif 4 * p < 5 * q:  # delta < 5/4
        factor, regime = FIVE_THIRDS, "one_cover_5_3"
    else:
        factor, regime = TWO, "one_cover_2"
    return RatioReport(Cover(_split_and_one_cover(g)[1].points, delta), factor, regime)


def cover_via_one_cover(g: Graph, delta: Fraction) -> RatioReport:
    """For radii just above 1, an optimal 1-cover is a bounded-factor answer.

    A 1-cover is a delta-cover for every delta >= 1; each non-tree
    component claims the factor of delta's interval, and trees are exact.
    """
    p, q = delta.numerator, delta.denominator
    if not (q < p and 2 * p < 3 * q):
        raise ValueError(f"delta {delta} outside (1, 3/2)")
    return _per_component(g, delta, _one_cover_part, "1-cover route")


def _vertex_set_part(g: Graph, delta: Fraction, x: int, budget: Budget) -> RatioReport:
    """The claim (x+1)/x is proven unless the exact sub-solve ran out of budget."""
    proven = True
    if g.m >= x:
        points = _vertices(g)
    else:
        result = solve_exact(build_set_cover(g, delta), budget)
        points, proven = result.cover.points, result.optimal
    return RatioReport(Cover(points, delta), Fraction(x + 1, x), "vertex_set_x", param=x,
                       proven=proven)


def cover_vertex_set(g: Graph, delta: Fraction, budget: Budget = DEFAULT_BUDGET) -> RatioReport:
    """Output V per non-tree component: an (x+1)/x approximation.

    Components with fewer than x edges are solved exactly instead (brute
    force is constant work there), trees go to the exact tree solver.  The
    union is verified once, on g; the sub-solves are not verified apart.
    """
    x = vertex_set_interval(delta)
    return _per_component(g, delta, lambda sub, d: _vertex_set_part(sub, d, x, budget),
                          "vertex-set route")


def _leaf_level_part(g: Graph, delta: Fraction) -> RatioReport:
    """A point 2/3 from the leaf on each leaf edge, the matched ends among
    leaf neighbours, and W.  A leaf-edge point is built on the canonical
    edge: 2/3 from the leaf u0 when u0 < u1, else 1/3 from u1."""
    levels = level_partition(g)
    points = {_make_point((u0, u1, TWO_THIRDS) if u0 < u1 else (u1, u0, ONE_THIRD))
              for u0, u1 in levels.E01}
    points |= {Point.vertex(v) for v in _matched_ends(levels.E11)}
    points |= {Point.vertex(v) for v in levels.W}
    return RatioReport(Cover(frozenset(points), delta), THREE_HALVES, "leaf_level")


def cover_leaf_level(g: Graph, delta: Fraction) -> RatioReport:
    """Leaf-edge points at 2/3, a vertex cover among leaf-neighbors, the rest.

    On each non-tree component this is a 2/3-cover, hence a delta-cover
    throughout [2/3, 3/4), within 3/2 of the optimum; trees are exact.
    """
    p, q = delta.numerator, delta.denominator
    if not (2 * q <= 3 * p and 4 * p < 3 * q):
        raise ValueError(f"delta {delta} outside [2/3, 3/4)")
    return _per_component(g, delta, _leaf_level_part, "leaf-level route")


def small_delta_interval(delta: Fraction) -> tuple[str, int]:
    """Classify delta < 1/2 (not a unit fraction) into its approximation case.

    Returns ("even", k) for delta in (1/(2k+2), 1/(2k+1)) and ("odd", k)
    for delta in (1/(2k+1), 1/(2k)): for delta = p/q, k is half of
    m = floor(1/delta) = q // p, rounded down.
    """
    p, q = delta.numerator, delta.denominator
    if not (0 < p and 2 * p < q):
        raise ValueError(f"delta {delta} outside (0, 1/2)")
    if p == 1:
        raise ValueError(f"delta {delta} is a unit fraction; solve exactly")
    m = q // p
    return ("even" if m % 2 else "odd"), m // 2


def _small_even_part(g: Graph, delta: Fraction, k: int) -> RatioReport:
    """All vertices, and the same k offsets 1/2 + (2j - k - 1)delta on every edge.

    For delta = p/q in (1/(2k+2), 1/(2k+1)), (k - 1)delta < 1/2, so every
    offset lies strictly inside (0, 1) and each point is built already
    normalized on the canonical edge (u, v), u < v.  An offset is
    (q + 2(2j - k - 1)p)/(2q).  With average degree 2m/n, the factor
    1 + 1/(k*avg + 1) is (2km + 2n)/(2km + n).
    """
    p, q = delta.numerator, delta.denominator
    inner = [Fraction(q + 2 * (2 * j - k - 1) * p, 2 * q) for j in range(1, k + 1)]
    points = _vertices(g).union(map(_make_point, [(u, v, t) for u, v in g.edges for t in inner]))
    km = k * g.m
    factor = Fraction(2 * (km + g.n), 2 * km + g.n) if g.m else ONE
    return RatioReport(Cover(points, delta), factor, "small_even", param=k)


def cover_small_delta_even(g: Graph, k: int, delta: Fraction) -> RatioReport:
    """All vertices plus k evenly spread interior points per edge.

    Its factor 1 + 1/(k*avg_degree + 1) is proven per non-tree component
    for delta in (1/(2k+2), 1/(2k+1)) only; any other delta raises
    ValueError, and trees are solved exactly.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p, q = delta.numerator, delta.denominator
    if q >= (2 * k + 2) * p:  # delta <= 1/(2k+2)
        raise ValueError(f"k = {k} needs delta > 1/{2 * k + 2}, got {delta}")
    if (2 * k + 1) * p >= q:  # delta >= 1/(2k+1)
        raise ValueError(f"k = {k} needs delta < 1/{2 * k + 1}, got {delta}")
    return _per_component(g, delta, lambda sub, d: _small_even_part(sub, d, k),
                          "small-delta even route")


def _small_odd_part(g: Graph, delta: Fraction, k: int) -> RatioReport:
    """The minimum 1/(2k+1)-cover: g's 1-cover with k more points per edge.

    ``_unit_fraction_cover`` builds it from the memoized 1-cover, and
    checks that its size is exactly cov1 + k|E|; the split of g gives eps.
    In integers, with N = n + c_ge3: eps = N/(N - 1) - 1 = 1/d for d = N - 1
    (d = 1 when N <= 1), 1 + 1/(2k) + eps = ((2k + 1)d + 2k)/(2kd), and
    with average degree 2m/n, 1 + 4/(3k*avg) = (3km + 2n)/(3km).
    """
    cover = _unit_fraction_cover(g, 2 * k + 1)
    n, m = g.n, g.m
    d = max(n + _split_and_one_cover(g)[0].c_ge3 - 1, 1)
    num, den = (2 * k + 1) * d + 2 * k, 2 * k * d
    if m and num * 3 * k * m > (3 * k * m + 2 * n) * den:
        num, den = 3 * k * m + 2 * n, 3 * k * m
    return RatioReport(Cover(cover.points, delta), Fraction(num, den), "small_odd", param=k,
                       epsilon=Fraction(1, d))


def cover_small_delta_odd(g: Graph, k: int, delta: Fraction) -> RatioReport:
    """A minimum 1/(2k+1)-cover, reused for every delta in [1/(2k+1), 1/(2k)).

    Its size is exactly k|E| plus the minimum 1-cover, and any delta-cover
    for delta < 1/(2k) needs at least k|E| points, which yields the factor
    min(1 + 4/(3k*avg_degree), 1 + 1/(2k) + eps) per non-tree component;
    any other delta raises ValueError, and trees are solved exactly.  The
    cover is the component's minimum 1-cover translated down by k
    (``translate_cover_down``), and eps comes from its split; both read the
    matching memos, so a component takes one Edmonds search the first time
    it is seen and none after.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p, q = delta.numerator, delta.denominator
    if q > (2 * k + 1) * p:  # delta < 1/(2k+1)
        raise ValueError(f"k = {k} needs delta >= 1/{2 * k + 1}, got {delta}")
    if 2 * k * p >= q:  # delta >= 1/(2k)
        raise ValueError(f"k = {k} needs delta < 1/{2 * k}, got {delta}")
    return _per_component(g, delta, lambda sub, d: _small_odd_part(sub, d, k),
                          "small-delta odd route")


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


def _component_part(g: Graph, delta: Fraction, budget: Budget) -> RatioReport:
    """The core of ``approx_cover``: the route for one connected non-tree.

    The regime boundaries are compared with delta = p/q as integers.
    """
    p, q = delta.numerator, delta.denominator
    if p == 1:
        return RatioReport(_unit_fraction_cover(g, q), ONE, "exact")
    if 2 * p >= 3 * q:  # delta >= 3/2
        # Greedy picks at most H(d) times the optimum, d the largest
        # candidate's element count (Chvatal 1979).  The universe has one
        # cell midpoint per 1/(2q) of edge length, so d is 2q times the most
        # edge length one candidate covers.
        result, d = _greedy(build_set_cover(g, delta))
        return RatioReport(result.cover, harmonic_number(d), "large_delta")
    if p > q:  # delta > 1
        return _one_cover_part(g, delta)
    if 4 * p >= 3 * q:  # delta >= 3/4
        return RatioReport(Cover(_vertices(g), delta), TWO, "vertex_set_34_1")
    if 3 * p >= 2 * q:  # delta >= 2/3
        return _leaf_level_part(g, delta)
    if 2 * p > q:  # delta > 1/2
        return _vertex_set_part(g, delta, vertex_set_interval(delta), budget)
    case, k = small_delta_interval(delta)
    if case == "even":
        return _small_even_part(g, delta, k)
    return _small_odd_part(g, delta, k)


def approx_cover(g: Graph, delta: Fraction, budget: Budget = DEFAULT_BUDGET) -> RatioReport:
    """Route each connected component to its regime and union the covers.

    The cores return unverified reports; the union is verified once, and a
    core that produced a non-cover raises InternalConsistencyError.
    """
    if delta.numerator <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return _per_component(g, delta, lambda sub, d: _component_part(sub, d, budget),
                          "approx cover")
