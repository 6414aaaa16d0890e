"""Discretization to finite set cover, exact branch-and-bound, and greedy.

For delta = a/b there is always an optimal cover whose points sit on the
1/(2b) grid, and such a cover covers the whole graph iff it covers the
1/(4b) grid.  That turns the continuous problem into finite set cover with
exact integer arithmetic: offsets scale by 4b, the radius becomes 4a.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import xor
from typing import Sequence

from .graphs import Cover, Graph, Point, hop_layers
# InternalConsistencyError is re-exported here for the library's callers.
from .verify import GridPoints, InternalConsistencyError, grid_points, require_output


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

    Bit j of ``masks[i]`` is set when universe point j lies within
    ``delta`` of candidate i.  ``build_set_cover`` gives ``universe`` and
    ``candidates`` as ``GridPoints``, which build a ``Point`` only when one
    is read, so a solve pays only for the candidates it returns.
    """

    delta: Fraction
    universe: Sequence[Point]
    candidates: Sequence[Point]
    masks: tuple[int, ...]


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


def build_set_cover(g: Graph, delta: Fraction) -> SetCoverInstance:
    """Universe = 1/(4b) grid, candidates = 1/(2b) grid, exact coverage masks.

    Lengths scale by 4b, so an edge is ``scale`` = 4b long and the radius
    is 4a.  A candidate at scaled distance d(w) from vertex w covers, for
    r = radius - d(w) >= 0, the universe point at w and on every edge at w
    the interior points within r of w: one run of min(r, 4b - 1)
    consecutive universe indices per edge, since each edge's interior
    points are listed in offset order.  Points beyond the far endpoint x
    are reached through x itself, as d(x) <= d(w) + scale.  A candidate
    inside edge uv at offset t sees d(w) = min(t + scale * hops(u, w),
    scale - t + scale * hops(v, w)); these runs grow with r, so its mask is
    the union of the masks of its two anchors, plus the run of uv's
    interior points within the radius of t itself.  Every mask here is
    built once per (vertex, reach) and per (anchor, offset).  The hop
    counts come from one ``hop_layers`` BFS per vertex, stopped at
    radius // scale hops, the farthest a vertex can reach another.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    a, b = delta.numerator, delta.denominator
    scale = 4 * b
    inner = scale - 1
    radius = 4 * a
    universe = GridPoints(g, scale)
    vertex_at = [0] * g.n
    run_at: dict[tuple[int, int], int] = {}
    for start, (u, v) in zip(universe.starts, universe.blocks):
        if u == v:
            vertex_at[u] = start
        else:
            run_at[(u, v)] = start
    # Runs at w of reach r start at the near end of each edge: (start, shift)
    # puts a run of length c at ``start + shift * (inner - c)``.
    ends = [
        [(run_at[(w, x)], 0) if x > w else (run_at[(x, w)], 1) for x in g.adj[w]]
        for w in range(g.n)
    ]
    max_hops = radius // scale
    layers = [hop_layers(g, x, max_hops) for x in range(g.n)]

    reach_masks: dict[tuple[int, int], int] = {}

    def reach_mask(w: int, c: int) -> int:
        m = reach_masks.get((w, c))
        if m is None:
            m = 1 << vertex_at[w]
            run = (1 << c) - 1
            for start, shift in ends[w]:
                m |= run << (start + shift * (inner - c))
            reach_masks[(w, c)] = m
        return m

    anchor_masks: dict[tuple[int, int], int] = {}

    def anchor_mask(x: int, dx: int) -> int:
        m = anchor_masks.get((x, dx))
        if m is None:
            m = 0
            for h, ws in enumerate(layers[x]):
                r = radius - dx - scale * h
                if r < 0:
                    break
                c = r if r < inner else inner
                for w in ws:
                    m |= reach_mask(w, c)
            anchor_masks[(x, dx)] = m
        return m

    # Candidates in grid_points order with step 2b: scaled offsets 2, 4, ...
    masks: list[int] = []
    for u in range(g.n):
        masks.append(anchor_mask(u, 0))
        for v in g.adj[u]:
            if v < u:
                continue
            base = run_at[(u, v)]
            for tc in range(2, scale, 2):
                lo = max(1, tc - radius)
                hi = min(inner, tc + radius)
                own = ((1 << (hi - lo + 1)) - 1) << (base + lo - 1)
                masks.append(anchor_mask(u, tc) | anchor_mask(v, scale - tc) | own)
    covered = 0
    for m in masks:
        covered |= m
    if covered != (1 << len(universe)) - 1:
        raise InfeasibleInstanceError("universe element with no candidate in range")
    return SetCoverInstance(delta, universe, GridPoints(g, 2 * b), tuple(masks))


def _element_candidates(masks: Sequence[int], size: int) -> list[int]:
    """The transpose of ``masks``: bit i of entry e is set iff masks[i] has bit e.

    Each mask is read run by run rather than bit by bit: a maximal run of
    set bits lo..hi toggles bit i on at lo and off at hi + 1 of a
    difference list, and a running XOR over the list gives every entry.
    """
    diff = [0] * (size + 1)
    for i, m in enumerate(masks):
        bit = 1 << i
        flips = m ^ (m << 1)
        while flips:
            low = flips & -flips
            diff[low.bit_length() - 1] ^= bit
            flips ^= low
    return list(accumulate(diff[:size], xor))


def _bits(m: int) -> list[int]:
    """The indices of the set bits of ``m``, ascending."""
    out = []
    while m:
        top = m.bit_length() - 1
        out.append(top)
        m ^= 1 << top
    out.reverse()
    return out


def _core_elements(masks: Sequence[int], elem_cands: Sequence[int]) -> list[tuple[int, list[int]]]:
    """The kept universe elements with their candidate indices, by element.

    An element whose candidate set contains another element's is covered
    for free once the harder one is.  Taken by candidate count, then index,
    a kept element e drops every element all of its candidates cover: those
    are the elements whose candidate sets contain e's.  So an element is
    kept iff no other element's candidate set is a proper subset of its
    own and no lower element's is equal to it.  Each kept element's
    candidate indices are decoded once, and the rest of the root reduction
    reads those lists.
    """
    counts = [ec.bit_count() for ec in elem_cands]
    core: list[tuple[int, list[int]]] = []
    dropped = 0
    for e in sorted(range(len(elem_cands)), key=counts.__getitem__):
        if dropped >> e & 1:
            continue
        ce = _bits(elem_cands[e])
        common = masks[ce[0]]
        for c in ce[1:]:
            common &= masks[c]
        dropped |= common
        core.append((e, ce))
    core.sort()
    return core


def _greedy_indices(masks: Sequence[int], full: int, start: int = 0) -> list[int]:
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
    nc = len(inst.masks)

    elem_cands_full = _element_candidates(inst.masks, nu_full)
    if any(c == 0 for c in elem_cands_full):
        raise InfeasibleInstanceError("universe element with no candidate")

    core = _core_elements(inst.masks, elem_cands_full)
    nu = len(core)
    full = (1 << nu) - 1
    elem_cands = [elem_cands_full[e] for e, _ in core]
    cand_lists = [ce for _, ce in core]
    masks = [0] * nc
    for i, ce in enumerate(cand_lists):
        bit = 1 << i
        for c in ce:
            masks[c] |= bit

    # Forced candidates (elements coverable one way only), then dominance:
    # a candidate whose uncovered elements another one also covers is
    # dropped (ties keep the lower index).  A forced candidate has nothing
    # left uncovered, so it drops out here too.
    forced = sorted({ce[0] for ce in cand_lists if len(ce) == 1})
    covered0 = 0
    for c in forced:
        covered0 |= masks[c]
    rest = [m & ~covered0 for m in masks]
    in_avail0 = [False] * nc
    for i, mi in enumerate(rest):
        if mi == 0:
            continue
        for j in cand_lists[(mi & -mi).bit_length() - 1]:
            mj = rest[j]
            if j != i and mi | mj == mj and (mi != mj or j < i):
                break
        else:
            in_avail0[i] = True
    avail0 = sum(1 << c for c in range(nc) if in_avail0[c])
    cand_by_elem = [ec & avail0 for ec in elem_cands]
    # union_reach[e]: every element sharing a root candidate with e.
    union_reach = [0] * nu
    for e, ce in enumerate(cand_lists):
        for c in ce:
            if in_avail0[c]:
                union_reach[e] |= masks[c]
    max_deg = max([rest[c].bit_count() for c in range(nc) if in_avail0[c]], default=1)

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
        """A minimum cover of ``elems`` from ``avail`` if it has fewer than ``ub``
        candidates, else None; an empty ``elems`` gives [] for every ``ub``.

        That holds at ``ub = 0`` too, so once a child has found a cover, a
        later child that covers its node's elements just as well replaces
        it: among equal covers the last one in branch order wins.  At
        ``ub == 2`` a cover is one candidate, and the branch order would
        try those by index, so this node scans the candidates of its lowest
        element from the highest index down and returns the first that
        covers every element.
        """
        nonlocal nodes, best_size, best_chosen
        nodes += 1
        if nodes > budget.max_nodes or (nodes & 0xFF == 0 and time.monotonic() > deadline):
            raise _BudgetExhausted
        if elems == 0:
            return []
        if ub <= 1:
            return None
        if ub == 2:
            cm = cand_by_elem[(elems & -elems).bit_length() - 1] & avail
            while cm:
                c = cm.bit_length() - 1
                if masks[c] & elems == elems:
                    return [c]
                cm ^= 1 << c
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
    chosen = _greedy_indices(inst.masks, full)
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
    require_output(g, result.cover, "exact solver output")
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
