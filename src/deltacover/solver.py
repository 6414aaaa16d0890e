"""Discretization to finite set cover, exact branch-and-bound, and greedy.

For delta = a/b there is always an optimal cover whose points sit on the
1/(2b) grid, and such a cover covers the whole graph iff it covers the
1/(4b) grid.  That turns the continuous problem into finite set cover with
exact integer arithmetic: offsets scale by 4b, the radius becomes 4a.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .graphs import Cover, Graph, Point, point_distance
from .verify import discretized_universe, grid_points, is_delta_cover


class InternalConsistencyError(RuntimeError):
    """A solver produced something its own verifier rejects: a bug."""


class InfeasibleInstanceError(ValueError):
    """A universe element has no candidate within range."""


@dataclass(frozen=True)
class Budget:
    max_nodes: int = 10_000_000
    max_seconds: float = 60.0


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class SetCoverInstance:
    """Finite set cover equivalent of a covering instance.

    ``coverage[i]`` lists (sorted) the universe indices within ``delta`` of
    candidate i.
    """

    delta: Fraction
    universe: tuple[Point, ...]
    candidates: tuple[Point, ...]
    coverage: tuple[tuple[int, ...], ...]

    def masks(self) -> list[int]:
        return [sum(1 << i for i in cov) for cov in self.coverage]


@dataclass(frozen=True)
class SolveResult:
    cover: Cover
    size: int
    optimal: bool
    nodes_explored: int
    elapsed: float


def candidate_points(g: Graph, delta: Fraction) -> list[Point]:
    """All half-grid points: offsets x/(2b) per edge, plus every vertex.

    Some optimal cover uses only these, so they are the full candidate set.
    """
    return grid_points(g, 2 * delta.denominator)


def _scaled_anchors(p: Point, scale: int) -> tuple[tuple[int, int], ...]:
    if p.is_vertex:
        return ((p.u, 0),)
    t = p.t * scale
    return ((p.u, int(t)), (p.v, scale - int(t)))


def build_set_cover(g: Graph, delta: Fraction) -> SetCoverInstance:
    """Universe = 1/(4b) grid, candidates = 1/(2b) grid, exact coverage sets."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    a, b = delta.numerator, delta.denominator
    scale = 4 * b
    radius = 4 * a
    universe = discretized_universe(g, b)
    candidates = candidate_points(g, delta)
    # The universe is sorted, so each edge's interior grid points form one
    # run, in offset order, between the vertex points.
    vertex_at: dict[int, int] = {}
    run_at: dict[tuple[int, int], int] = {}
    for i, p in enumerate(universe):
        if p.is_vertex:
            vertex_at[p.u] = i
        else:
            run_at.setdefault((p.u, p.v), i)
    edge_rows = [
        [vertex_at[u], *range(run_at[(u, v)], run_at[(u, v)] + scale - 1), vertex_at[v]]
        for u, v in g.edges
    ]
    isolated = [w for w in range(g.n) if g.degree(w) == 0]
    coverage: list[tuple[int, ...]] = []
    for cand in candidates:
        anchors = _scaled_anchors(cand, scale)
        hit: set[int] = set()
        for eid, (u, v) in enumerate(g.edges):
            du = dv = None
            for x, dx in anchors:
                hu, hv = g.dist[x][u], g.dist[x][v]
                if hu is not None:
                    d = dx + scale * hu
                    du = d if du is None or d < du else du
                if hv is not None:
                    d = dx + scale * hv
                    dv = d if dv is None or d < dv else dv
            row = edge_rows[eid]
            spans: list[tuple[int, int]] = []
            if du is not None and du <= radius:
                spans.append((0, min(scale, radius - du)))
            if dv is not None and dv <= radius:
                spans.append((max(0, scale - (radius - dv)), scale))
            if not cand.is_vertex and cand.edge() == (u, v):
                tc = int(cand.t * scale)
                spans.append((max(0, tc - radius), min(scale, tc + radius)))
            for lo, hi in spans:
                hit.update(row[lo : hi + 1])
        for w in isolated:
            for x, dx in anchors:
                hops = g.dist[x][w]
                if hops is not None and dx + scale * hops <= radius:
                    hit.add(vertex_at[w])
        coverage.append(tuple(sorted(hit)))
    covered_any = set()
    for cov in coverage:
        covered_any.update(cov)
    if len(covered_any) != len(universe):
        raise InfeasibleInstanceError("universe element with no candidate in range")
    return SetCoverInstance(delta, tuple(universe), tuple(candidates), tuple(coverage))


def _greedy_indices(masks: list[int], full: int, start: int = 0) -> list[int]:
    covered = start
    chosen: list[int] = []
    while covered != full:
        best, best_gain = -1, 0
        for i, m in enumerate(masks):
            gain = (m & ~covered).bit_count()
            if gain > best_gain:
                best, best_gain = i, gain
        if best < 0:
            raise InfeasibleInstanceError("greedy stuck: uncoverable element")
        chosen.append(best)
        covered |= masks[best]
    return chosen


class _BudgetExhausted(Exception):
    pass


def solve_exact(inst: SetCoverInstance, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Minimum-cardinality candidate subset covering the universe.

    Branch and bound over the candidates of one uncovered element, greedy
    incumbent, independent element groups solved apart, deterministic ties
    by index.  Exceeding the budget returns the incumbent with
    ``optimal=False``.

    The root reduction keeps a core of elements, takes the forced
    candidates and drops dominated ones; what is left is the root's
    available set ``avail0``.  A node covers its uncovered elements ``U``
    with a subset ``avail`` of ``avail0`` (branching removes the candidates
    already tried), and is cut when a lower bound reaches the incumbent:

    * ``ceil(|U| / max_deg)``, where ``max_deg`` is the most uncovered
      elements one candidate of ``avail0`` covers.  A candidate of
      ``avail`` covers no more than that.
    * A packing: elements of ``U`` no two of which one candidate of
      ``avail0`` covers.  A candidate of ``avail`` then covers at most one
      of them, so a cover needs one candidate per packed element.  Three
      walks build packings, each keeping an element and closing its
      ``union_reach`` (the elements it shares a candidate of ``avail0``
      with).  The node first extends what is left of its parent's packing
      by the min-degree greedy, which keeps the open element whose
      ``union_reach`` meets the fewest open elements.  When that is two or
      more short of the incumbent, a walk in index order follows; when
      the best packing is one short, the min-degree greedy runs afresh
      on ``U``.

    Both bounds are read off the root's ``avail0``, so they stay valid at
    every node, where ``avail`` is smaller.  With a packing one short, a
    child whose candidate covers no packed element is cut at once, so the
    branching element is the one with the fewest candidates that cover a
    packed element, then the fewest candidates.

    Everything here is a set-cover fact: the solver knows no theorem about
    particular radii (forests, unit fractions, the translation from delta
    to delta/(2 delta + 1)), so identities between its optima stay an
    independent check.
    """
    t0 = time.monotonic()
    nu_full = len(inst.universe)
    nc = len(inst.coverage)

    elem_cands_full = [0] * nu_full
    for ci, cov in enumerate(inst.coverage):
        bit = 1 << ci
        for e in cov:
            elem_cands_full[e] |= bit
    if any(c == 0 for c in elem_cands_full):
        raise InfeasibleInstanceError("universe element with no candidate")

    # Keep only a core of universe elements: an element whose candidate set
    # contains another element's is covered for free once the harder one is.
    # A kept set inside ``ce`` has its lowest candidate in ``ce``, so kept
    # sets are filed under their lowest candidate.
    kept: list[int] = []
    kept_by_low: dict[int, list[int]] = {}
    for e in sorted(range(nu_full), key=lambda e: (elem_cands_full[e].bit_count(), e)):
        ce = elem_cands_full[e]
        covered_free = False
        mm = ce
        while mm and not covered_free:
            low = mm & -mm
            for ck in kept_by_low.get(low, ()):
                if ck & ce == ck:
                    covered_free = True
                    break
            mm ^= low
        if not covered_free:
            kept.append(e)
            kept_by_low.setdefault(ce & -ce, []).append(ce)
    kept.sort()
    nu = len(kept)
    full = (1 << nu) - 1
    elem_cands = [elem_cands_full[e] for e in kept]
    masks = [0] * nc
    for i, ce in enumerate(elem_cands):
        bit = 1 << i
        while ce:
            low = ce & -ce
            masks[low.bit_length() - 1] |= bit
            ce ^= low

    # Forced candidates (elements coverable one way only), then dominance:
    # a candidate whose uncovered elements another one also covers is
    # dropped (ties keep the lower index).
    forced = sorted({ec.bit_length() - 1 for ec in elem_cands if ec.bit_count() == 1})
    covered0 = 0
    for c in forced:
        covered0 |= masks[c]
    forced_bits = sum(1 << c for c in forced)
    avail0 = 0
    for i in range(nc):
        mi = masks[i] & ~covered0
        if mi == 0 or (forced_bits >> i) & 1:
            continue
        others = elem_cands[(mi & -mi).bit_length() - 1] & ~(1 << i)
        while others:
            low = others & -others
            j = low.bit_length() - 1
            mj = masks[j] & ~covered0
            if mi | mj == mj and (mi != mj or j < i):
                break
            others ^= low
        else:
            avail0 |= 1 << i
    cand_by_elem = [ec & avail0 for ec in elem_cands]
    # union_reach[e]: every element sharing a root candidate with e.
    union_reach = [0] * nu
    for e in range(nu):
        mm = cand_by_elem[e]
        while mm:
            low = mm & -mm
            union_reach[e] |= masks[low.bit_length() - 1]
            mm ^= low
    max_deg = 1
    mm = avail0
    while mm:
        low = mm & -mm
        max_deg = max(max_deg, (masks[low.bit_length() - 1] & ~covered0).bit_count())
        mm ^= low

    def pack_more(open_: int, count: int, pack: int, ub: int) -> tuple[int, int]:
        """Min-degree greedy: add open elements to ``pack`` until ``ub``."""
        while open_:
            best_e, best_d = -1, nu + 1
            rem = open_
            while rem:
                low = rem & -rem
                e = low.bit_length() - 1
                d = (union_reach[e] & open_).bit_count()
                if d < best_d:
                    best_e, best_d = e, d
                    if d == 1:
                        break
                rem ^= low
            count += 1
            pack |= 1 << best_e
            if count >= ub:
                break
            open_ &= ~union_reach[best_e]
        return count, pack

    def bound(elems: int, ub: int, pack: int) -> tuple[int, int]:
        """Lower bound on covering ``elems``, counted up to ``ub``, and its packing."""
        lb = (elems.bit_count() + max_deg - 1) // max_deg
        if lb >= ub:
            return lb, 0
        pack &= elems
        blocked = 0
        p = pack
        while p:
            low = p & -p
            blocked |= union_reach[low.bit_length() - 1]
            p ^= low
        count, pack = pack_more(elems & ~blocked, pack.bit_count(), pack, ub)
        if count < ub - 1:
            walk, walk_pack, rem = 0, 0, elems
            while rem:
                low = rem & -rem
                walk += 1
                walk_pack |= low
                rem &= ~union_reach[low.bit_length() - 1]
            if walk > count:
                count, pack = walk, walk_pack
        if count == ub - 1:
            fresh, fresh_pack = pack_more(elems, 0, 0, ub)
            if fresh > count:
                count, pack = fresh, fresh_pack
        return max(lb, count), pack

    def drop_redundant(extra: list[int]) -> list[int]:
        kept = list(extra)
        for c in sorted(extra, reverse=True):
            others = covered0
            for d in kept:
                if d != c:
                    others |= masks[d]
            if others == full:
                kept.remove(c)
        return kept

    greedy = _greedy_indices(masks, full, start=covered0)
    best_chosen = sorted(forced + drop_redundant(greedy))
    best_size = len(best_chosen)
    nodes = 0
    deadline = t0 + budget.max_seconds
    root_elems = full & ~covered0

    def components_of(elems: int) -> list[int]:
        """Split elements into groups with disjoint candidate support."""
        comps = []
        rem = elems
        while rem:
            comp = 0
            frontier = rem & -rem
            while frontier:
                comp |= frontier
                reach = 0
                f = frontier
                while f:
                    fl = f & -f
                    reach |= union_reach[fl.bit_length() - 1]
                    f ^= fl
                frontier = reach & rem & ~comp
            comps.append(comp)
            rem &= ~comp
        return comps

    def solve_elems(
        elems: int, avail: int, ub: int, pack: int, at_root: bool
    ) -> list[int] | None:
        """Exact minimum cover of ``elems`` if smaller than ``ub``, else None."""
        nonlocal nodes, best_size, best_chosen
        nodes += 1
        if nodes > budget.max_nodes or (nodes & 0xFF == 0 and time.monotonic() > deadline):
            raise _BudgetExhausted
        if elems == 0:
            return []
        if ub <= 1:
            return None
        lb, pack = bound(elems, ub, pack)
        if lb >= ub:
            return None
        comps = components_of(elems)
        if len(comps) > 1:
            lbs = [bound(c, ub, pack & c)[0] for c in comps]
            if sum(lbs) >= ub:
                return None
            chosen_all: list[int] = []
            for i, comp in enumerate(comps):
                rest = sum(lbs[i + 1:])
                sub_ub = ub - len(chosen_all) - rest
                sub = solve_elems(comp, avail, sub_ub, pack & comp, False)
                if sub is None:
                    return None
                chosen_all += sub
            return chosen_all
        # A child whose candidate covers no packed element keeps the whole
        # packing; once that is one short of ub, the child is cut at once.
        # So branch on the element with the fewest candidates that cover a
        # packed element, then the fewest candidates.
        hits = 0
        if pack.bit_count() == ub - 1:
            p = pack
            while p:
                low = p & -p
                hits |= cand_by_elem[low.bit_length() - 1]
                p ^= low
        pick_mask, pick_key = 0, None
        rem = elems
        while rem:
            low = rem & -rem
            cm = cand_by_elem[low.bit_length() - 1] & avail
            if not cm:
                return None
            key = ((cm & hits).bit_count(), cm.bit_count())
            if pick_key is None or key < pick_key:
                pick_mask, pick_key = cm, key
                if key == (0, 1):
                    break
            rem ^= low
        branch: list[int] = []
        mm = pick_mask
        while mm:
            low = mm & -mm
            branch.append(low.bit_length() - 1)
            mm ^= low
        branch.sort(key=lambda c: (-(masks[c] & elems).bit_count(), c))
        best: list[int] | None = None
        sub_avail = avail
        for c in branch:
            sub_avail &= ~(1 << c)
            sub = solve_elems(elems & ~masks[c], sub_avail, ub - 1, pack, False)
            if sub is not None:
                best = [c] + sub
                ub = len(best)
                if at_root and len(forced) + ub < best_size:
                    best_size = len(forced) + ub
                    best_chosen = sorted(forced + best)
        return best

    optimal = True
    try:
        improved = solve_elems(root_elems, avail0, best_size - len(forced), 0, True)
        if improved is not None:
            trimmed = sorted(forced + drop_redundant(improved))
            if len(trimmed) < best_size:
                best_size = len(trimmed)
                best_chosen = trimmed
    except _BudgetExhausted:
        optimal = False
    elapsed = time.monotonic() - t0
    points = frozenset(inst.candidates[i] for i in best_chosen)
    return SolveResult(Cover(points, inst.delta), len(points), optimal, nodes, elapsed)


def solve_greedy(inst: SetCoverInstance) -> SolveResult:
    """Classic greedy: repeatedly take the candidate covering the most."""
    t0 = time.monotonic()
    full = (1 << len(inst.universe)) - 1
    chosen = _greedy_indices(inst.masks(), full)
    points = frozenset(inst.candidates[i] for i in chosen)
    return SolveResult(
        Cover(points, inst.delta), len(points), False, 0, time.monotonic() - t0
    )


def min_cover_exact(
    g: Graph, delta: Fraction, budget: Budget = DEFAULT_BUDGET
) -> SolveResult:
    """Build the finite instance, solve it, and verify the result."""
    inst = build_set_cover(g, delta)
    result = solve_exact(inst, budget)
    report = is_delta_cover(g, result.cover, delta)
    if not report.is_cover:
        raise InternalConsistencyError(
            f"solver output fails verification near {report.witness}"
        )
    return result


def harmonic_number(n: int) -> Fraction:
    """H(n) as an exact rational; the greedy set-cover guarantee.

    Summed over the common denominator lcm(1..n), without recursion, so any
    n works.
    """
    if n <= 0:
        return Fraction(0)
    common = lcm(*range(1, n + 1))
    return Fraction(sum(common // k for k in range(1, n + 1)), common)


def coverage_spot_check(g: Graph, inst: SetCoverInstance, samples: int = 50) -> bool:
    """Cross-check scaled-integer coverage against Fraction distances."""
    import random

    rng = random.Random(0xC0FFEE)
    pairs = [
        (rng.randrange(len(inst.candidates)), rng.randrange(len(inst.universe)))
        for _ in range(samples)
    ]
    for ci, ui in pairs:
        d = point_distance(g, inst.candidates[ci], inst.universe[ui])
        in_cov = ui in set(inst.coverage[ci])
        if (d is not None and d <= inst.delta) != in_cov:
            return False
    return True
