"""Discretization to finite set cover, exact branch-and-bound, and greedy.

For delta = a/b there is always an optimal cover whose points sit on the
1/(2b) grid.  Such a cover covers the whole graph iff it covers every
isolated vertex and the midpoint of every 1/(2b) cell of every edge (see
``build_set_cover``).  That turns the continuous problem into finite set
cover with exact integer arithmetic: offsets scale by 4b, so the cell
midpoints sit at the odd offsets and the radius becomes 4a.
"""

from __future__ import annotations

import functools
import time
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import xor

from .graphs import Cover, Edge, Graph, ONE, Point, RatioReport, ZERO, _make_point
# InternalConsistencyError is re-exported here for the library's callers.
from .verify import InternalConsistencyError, require_output


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
    ``delta`` of candidate i.  ``build_set_cover`` gives ``universe`` as
    ``CellMidpoints`` and ``candidates`` as ``GridPoints``, which build a
    ``Point`` only when one is read, so a solve pays only for the
    candidates it returns.
    """

    delta: Fraction
    universe: Sequence[Point]
    candidates: Sequence[Point]
    masks: tuple[int, ...]


@dataclass(frozen=True)
class SolveResult:
    """What the set-cover layer returns: a cover of the instance's universe,
    whether the search proved it minimum, and what the search spent."""

    cover: Cover
    optimal: bool
    nodes_explored: int
    elapsed: float


class _BlockPoints(Sequence[Point]):
    """Points in blocks, one per vertex or edge, built only when read.

    Points sort by (u, v, t): vertex u's block, if it has one, then the
    ``per_edge`` points of each edge (u, v), v > u, by offset.  ``starts``
    holds the index of each block's first point, ascending, and ``blocks``
    its (u, v), with u == v for a vertex; an index finds its block by
    bisection, and ``_offset`` gives the offset of a block's j-th point.  A
    slice gives the list of its points.
    """

    __slots__ = ("starts", "blocks", "_len")

    def __init__(self, g: Graph, per_edge: int, every_vertex: bool):
        # The edges are sorted, so this sort merges two sorted runs.
        vertices = [(u, u) for u in range(g.n) if every_vertex or not g.adj[u]]
        self.blocks: list[Edge] = sorted(vertices + list(g.edges))
        self.starts = list(accumulate([1 if u == v else per_edge for u, v in self.blocks],
                                      initial=0))
        self._len = self.starts.pop()

    def _offset(self, j: int) -> Fraction:
        raise NotImplementedError

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int | slice) -> Point | list[Point]:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._len))]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(f"point index {i} out of range")
        k = bisect_right(self.starts, i) - 1
        u, v = self.blocks[k]
        if u == v:
            return _make_point((u, u, ZERO))
        return _make_point((u, v, self._offset(i - self.starts[k])))


class GridPoints(_BlockPoints):
    """Every vertex and every edge point at offsets k/step, 0 < k < step."""

    __slots__ = ("step",)

    def __init__(self, g: Graph, step: int):
        super().__init__(g, step - 1, True)
        self.step = step

    def _offset(self, j: int) -> Fraction:
        return Fraction(j + 1, self.step)


class CellMidpoints(_BlockPoints):
    """Every isolated vertex, and the midpoint of each of the ``cells`` equal
    cells of every edge: the offsets (2j + 1)/(2 cells), 0 <= j < cells."""

    __slots__ = ("cells",)

    def __init__(self, g: Graph, cells: int):
        super().__init__(g, cells, False)
        self.cells = cells

    def _offset(self, j: int) -> Fraction:
        return Fraction(2 * j + 1, 2 * self.cells)


def build_set_cover(g: Graph, delta: Fraction) -> SetCoverInstance:
    """Universe = cell midpoints, candidates = 1/(2b) grid, exact coverage masks.

    Lengths scale by 4b, so an edge is ``scale`` = 4b long, the radius is
    4a, the candidates sit at the even offsets and the universe holds the
    midpoints of the 2b cells of each edge, at the odd offsets 1, 3, ...,
    4b - 1, plus each isolated vertex.

    Why the midpoints suffice: the distance from a candidate to a vertex
    is even, so on an edge (u, v) what the candidate covers, from u, from
    v or from inside the edge, is a closed interval with ends on the
    1/(2b) grid.  What a set of candidates leaves uncovered on an edge is
    then open in the edge, with ends on that grid.  If it is not empty, it
    contains an interval of positive length between two grid points, so a
    whole cell, and so that cell's midpoint.  A vertex with an edge is a
    point of that edge, so covering every cell midpoint and every isolated
    vertex is the same as covering the graph.

    A candidate at scaled distance d(w) from vertex w covers, for
    r = radius - d(w) >= 0, the cells of every edge at w whose midpoints
    lie within r of w: one run of c = min((r + 1) // 2, 2b) consecutive
    universe indices per edge, since each edge's cells are listed in offset
    order.  Points beyond the far endpoint x are reached through x itself,
    as d(x) <= d(w) + scale.  A candidate inside edge uv at offset t sees
    d(w) = min(t + scale * hops(u, w), scale - t + scale * hops(v, w));
    these runs grow with r, so its mask is the union of the masks of its
    two anchors, (u, t) and (v, scale - t), plus the run of uv's cells
    within the radius of t itself.  An isolated vertex is covered by its
    own vertex candidate only.

    Runs are ORed a set of vertices at a time.  For a vertex w, ``low[w]``
    has the bit of the first cell of each edge (w, x), x > w, and
    ``high[w]`` the bit just past the last one of each edge (x, w), x < w.
    With ``lo`` and ``hi`` the ORs of these over a vertex set W, the runs
    of length c at the vertices of W are ``lo * R | (hi >> c) * R``,
    R = 2^c - 1: an edge has one lesser endpoint, so the bits are
    distinct, each product is a sum of shifted runs with no carries, and
    each run stays inside its edge's block of indices.  An anchor (x, dx)
    reaches the vertices h hops from x with r = radius - dx - scale * h.
    The leading layers, while r >= 4b - 1, add their whole stars; the next
    layer, when r >= 0 there, adds its runs of length r // 2.

    The (lo, hi) pair of the ball of vertices within h hops of x grows by
    neighbour unions, ball_h(x) = ball_{h-1}(x) | the ball_{h-1} of each
    neighbour of x, for radius // scale rounds, the farthest a vertex can
    reach another, or until no pair changes.  Every vertex with an edge
    has a bit in ``low`` or ``high``, so a ball's pair names its vertices,
    and once a round changes no pair, no later round can.  The isolated
    vertices, the only ones with a universe bit of their own, are balls
    that never grow, so their bits stay out of the pairs.  The partial
    runs go on the whole ball in place of its outer layer, which is exact:
    each inner vertex's whole star already contains its run.  A radius
    reaches whole stars for one or two values of ``whole`` across the
    anchors' offsets, so only the balls of the last three rounds are
    kept.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    a, b = delta.numerator, delta.denominator
    scale = 4 * b
    cells = 2 * b
    radius = 4 * a
    universe = CellMidpoints(g, cells)
    vertex_bit = [0] * g.n
    low = [0] * g.n
    high = [0] * g.n
    edge_starts = []
    for start, (u, v) in zip(universe.starts, universe.blocks):
        if u == v:
            vertex_bit[u] = 1 << start
        else:
            edge_starts.append(start)
            low[u] |= 1 << start
            high[v] |= 1 << (start + cells)
    # A candidate at scaled distance dx (even, below scale) from an anchor
    # reaches its first ``whole`` hop layers in full (layer h is whole while
    # radius - dx - scale*h >= scale - 1), and the next layer by a run of
    # ``c`` cells, none when r < 0 there.
    plan = []
    for dx in range(0, scale, 2):
        whole = max(0, (radius - dx + 1) // scale)
        plan.append((whole, max(0, radius - dx - scale * whole) // 2))
    need = {h for whole, _ in plan for h in (whole - 1, whole) if h >= 0}
    balls = list(zip(low, high))
    kept = {0: balls}
    for h in range(1, max(need) + 1):
        grown = []
        for x, (lo, hi) in enumerate(balls):
            for w in g.adj[x]:
                wl, wh = balls[w]
                lo |= wl
                hi |= wh
            grown.append((lo, hi))
        if grown == balls:
            break
        balls = grown
        if h in need:
            kept[h] = balls
    # stars[h][x]: every cell of every edge at the vertices of ball_h(x).
    star_run = (1 << cells) - 1
    stars = {-1: [0] * g.n}
    for whole, _ in plan:
        if whole - 1 not in stars:
            stars[whole - 1] = [lo * star_run | (hi >> cells) * star_run
                                for lo, hi in kept.get(whole - 1, balls)]
    layers = [(stars[whole - 1], kept.get(whole, balls), (1 << c) - 1, c) for whole, c in plan]
    # anchors[x][dx // 2]: what that candidate covers through x.
    anchors: list[list[int]] = []
    for x in range(g.n):
        row = []
        for inner, ball, run, c in layers:
            lo, hi = ball[x]
            row.append(inner[x] | lo * run | (hi >> c) * run)
        anchors.append(row)
    # The cells of its own edge that a candidate at scaled offset 2k covers
    # directly, as a run from the edge's first one: those with midpoints
    # 2j + 1 within radius of 2k.
    own = []
    for tc in range(0, scale, 2):
        first = max(0, (tc - radius) // 2)
        last = min(cells - 1, (tc + radius) // 2 - 1)
        own.append(((1 << (last - first + 1)) - 1) << first)

    # Candidates in GridPoints order with step 2b: scaled offsets 2, 4, ...
    # Both sequences list the edges in the same order.
    candidates = GridPoints(g, cells)
    next_start = iter(edge_starts).__next__
    masks: list[int] = []
    for u, v in candidates.blocks:
        if u == v:
            masks.append(anchors[u][0] | vertex_bit[u])
        else:
            at_u, at_v, base = anchors[u], anchors[v], next_start()
            masks += [at_u[k] | at_v[cells - k] | own[k] << base for k in range(1, cells)]
    covered = 0
    for m in masks:
        covered |= m
    if covered != (1 << len(universe)) - 1:
        raise InfeasibleInstanceError("universe element with no candidate in range")
    return SetCoverInstance(delta, universe, candidates, tuple(masks))


class _BudgetExhausted(Exception):
    pass


def solve_exact(inst: SetCoverInstance, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Minimum-cardinality candidate subset covering the universe.

    Branch and bound over the candidates of one uncovered element,
    independent element groups solved apart, deterministic ties by index.
    Exceeding the budget returns the incumbent with ``optimal=False``.

    The starting incumbent is a rarest-first greedy over the root's
    candidates: the uncovered element with the fewest of them is covered
    by the one that covers the most uncovered elements.  Its redundant
    picks are dropped, and then a pair of picks gives way to one candidate
    that covers everything only the pair covers, until no pair does.  Plain
    greedy, which takes the candidate covering the most first, starts
    further from the optimum, and the search then spends most of its nodes
    finding the optimum rather than proving it.

    The root reads each mask's runs of set bits once, for both the element
    to candidates table and ``union_reach`` (below), into which every
    distinct mask is ORed.  A mask that covers nothing outside the forced
    candidates' cover changes only the entries of elements they cover, and
    no bound, branch or exchange reads those.  The root takes the forced
    candidates, each the only one of some element, and keeps as its
    available set ``avail0`` every candidate that covers an element they
    leave uncovered.  It drops no dominated element or candidate, as none
    moves a bound: a candidate dominated at the root adds to an element's
    ``union_reach`` only elements the forced candidates cover, and an
    element whose candidates include another's has the larger
    ``union_reach`` and at least as many candidates, so neither the
    min-degree packing nor the branching rule prefers it.  The sibling skip
    below drops a dominated child at every node.  On instances of a few
    dozen elements, a root pass for dominance costs more than the nodes it
    saves.  A node covers its uncovered elements ``U`` with a subset
    ``avail`` of ``avail0`` (branching removes the candidates already
    tried), and is cut when a lower bound reaches the incumbent:

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
    packed element, then the fewest candidates.  Such a child is decided
    at its parent, with no call, and still counts as a node, so node
    budgets stop where they would if it were called: its elements hold the
    whole packing, so with ``ub - 1`` it would fail at ``ub <= 1``, in the
    one-candidate leaf or in its bound, and have no children.

    A node that passes its bounds splits its elements into groups that
    share no candidate and solves them apart.  Its packing is then
    maximal (each walk stops only when no open element is left, or the
    node is cut), so every element lies in a packed element's
    ``union_reach``; when those reaches chain together through shared
    elements, the node is one group and no search for groups runs.

    A child is skipped when its candidate ``c`` covers no element of the
    node's ``U`` that an earlier explored sibling ``c'`` does not also
    cover; ``c`` still leaves ``avail`` for the later siblings.  This is
    candidate dominance, taken at a node: child ``c`` searches the covers
    ``{c} | R`` with ``R`` avoiding every sibling up to ``c``, and
    ``{c'} | R`` is a cover of the same size that ``c'``'s subtree has
    already searched, so ``c``'s subtree cannot beat the ``ub`` it would be
    called with.

    Everything here is a set-cover fact: the solver knows no theorem about
    particular radii (forests, unit fractions, the translation from delta
    to delta/(2 delta + 1)), so identities between its optima stay an
    independent check.
    """
    t0 = time.monotonic()
    nu = len(inst.universe)
    nc = len(inst.masks)
    full = (1 << nu) - 1
    masks = list(inst.masks)

    # One pass over each mask's runs: the set bits lo..hi - 1 flip
    # m ^ (m << 1) at lo and hi.  A run toggles the candidate's bit at lo
    # and hi of a difference list, whose running XOR is the transpose
    # elem_cands; the first mask of each value is ORed into union_reach[e]
    # for e in the run, since at large radii most masks are equal and a loop
    # over each element's candidates costs |U| * |C|.
    diff = [0] * (nu + 1)
    union_reach = [0] * nu
    seen: set[int] = set()
    for i, m in enumerate(masks):
        bit = 1 << i
        new = m not in seen
        seen.add(m)
        flips = m ^ (m << 1)
        while flips:
            lo = (flips & -flips).bit_length() - 1
            flips &= flips - 1
            hi = (flips & -flips).bit_length() - 1
            flips &= flips - 1
            diff[lo] ^= bit
            diff[hi] ^= bit
            if new:
                for e in range(lo, hi):
                    union_reach[e] |= m
    elem_cands = list(accumulate(diff[:nu], xor))
    if any(c == 0 for c in elem_cands):
        raise InfeasibleInstanceError("universe element with no candidate")

    # Forced candidates (elements coverable one way only); the root keeps
    # every candidate that covers something they leave uncovered.
    forced = sorted({ec.bit_length() - 1 for ec in elem_cands if ec & (ec - 1) == 0})
    covered0 = 0
    for c in forced:
        covered0 |= masks[c]
    rest = [m & ~covered0 for m in masks]
    avail0 = sum(1 << c for c in range(nc) if rest[c])
    cand_by_elem = [ec & avail0 for ec in elem_cands]
    max_deg = max([r.bit_count() for r in rest if r], default=1)

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

    def rarest_first() -> list[int]:
        """Cover the uncovered element with the fewest root candidates by the
        one of them covering the most uncovered elements, until all are;
        ties go to the lower index on both counts."""
        covered = covered0
        chosen: list[int] = []
        for e in sorted(range(nu), key=lambda e: cand_by_elem[e].bit_count()):
            if covered >> e & 1:
                continue
            best, best_gain = -1, 0
            cm = cand_by_elem[e]
            while cm:
                low = cm & -cm
                c = low.bit_length() - 1
                gain = (masks[c] & ~covered).bit_count()
                if gain > best_gain:
                    best, best_gain = c, gain
                cm ^= low
            chosen.append(best)
            covered |= masks[best]
        return chosen

    def swap_pair(picks: list[int]) -> list[int] | None:
        """``picks`` with its first swappable pair replaced, or None.

        Pairs are scanned in list order.  ``need``, what only the pair
        covers, is read off bit-sliced counts of the picks' masks, and is
        never empty, since no pick is redundant.  The pair gives way to the
        first candidate of need's lowest element, from the highest index
        down, that covers all of need.
        """
        once, twice, more = 0, 0, 0
        for c in picks:
            m = masks[c] & ~covered0
            more |= twice & m
            twice |= once & m
            once |= m
        twice &= ~more
        once &= ~(twice | more)
        for i, a in enumerate(picks):
            for j in range(i + 1, len(picks)):
                b = picks[j]
                need = ((masks[a] | masks[b]) & once) | (masks[a] & masks[b] & twice)
                e = (need & -need).bit_length() - 1
                # A candidate covering e covers nothing outside union_reach[e].
                if need & ~union_reach[e]:
                    continue
                cm = cand_by_elem[e]
                while cm:
                    c = cm.bit_length() - 1
                    if masks[c] & need == need:
                        return drop_redundant(picks[:i] + [c] + picks[i + 1:j] + picks[j + 1:])
                    cm ^= 1 << c
        return None

    # The incumbent: rarest-first greedy, then 2-for-1 swaps until none is left.
    incumbent = drop_redundant(rarest_first())
    while (swapped := swap_pair(incumbent)) is not None:
        incumbent = swapped
    best_chosen = sorted(forced + incumbent)
    best_size = len(best_chosen)
    nodes = 0
    deadline = t0 + budget.max_seconds
    root_elems = full & ~covered0

    def count_node() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget.max_nodes or (nodes & 0xFF == 0 and time.monotonic() > deadline):
            raise _BudgetExhausted

    def components_of(elems: int, pack: int) -> list[int]:
        """Split elements into groups with disjoint candidate support.

        ``pack`` is a maximal packing of ``elems``, so every element lies in
        a packed element's ``union_reach``: when those reaches chain together
        through shared elements, ``elems`` is one group, found without a
        search.
        """
        low = pack & -pack
        joined = union_reach[low.bit_length() - 1] & elems
        left = pack ^ low
        grew = True
        while left and grew:
            grew = False
            p = left
            while p:
                low = p & -p
                reach = union_reach[low.bit_length() - 1] & elems
                if reach & joined:
                    joined |= reach
                    left ^= low
                    grew = True
                p ^= low
        if not left:
            return [elems]
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
        later explored child that covers its node's elements just as well
        replaces it: among equal covers the last explored child's cover
        wins.  At ``ub == 2`` a cover is one candidate, so this node scans
        the candidates of its lowest element from the highest index down
        and returns the first that covers every element.
        """
        nonlocal best_size, best_chosen
        count_node()
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
        comps = components_of(elems, pack)
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
        pick_mask, pick_key = 0, 1 << 64
        rem = elems
        while rem:
            low = rem & -rem
            cm = cand_by_elem[low.bit_length() - 1] & avail
            if not cm:
                return None
            key = (cm & hits).bit_count() << 32 | cm.bit_count()
            if key < pick_key:
                pick_mask, pick_key = cm, key
                if key == 1:
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
        explored: list[int] = []
        for c in branch:
            sub_avail &= ~(1 << c)
            here = masks[c] & elems
            # Children come by falling count, so a sibling covering all of
            # ``here`` comes before c; a skipped one lies inside an explored one.
            if any(here | m == m for m in explored):
                continue
            explored.append(here)
            if hits and masks[c] & pack == 0:
                # The child keeps all ub - 1 packed elements: a node cut at once.
                count_node()
                continue
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
    return SolveResult(Cover(points, inst.delta), optimal, nodes, elapsed)


def solve_greedy(inst: SetCoverInstance) -> SolveResult:
    """Classic greedy: repeatedly take the candidate covering the most.

    Ties go to the lowest index.  Each pick reads every candidate's gain
    in one pass of C-level ``map`` calls, so a pick costs |C| big-integer
    ANDs and popcounts and no Python loop.
    """
    return _greedy(inst)[0]


def _greedy(inst: SetCoverInstance) -> tuple[SolveResult, int]:
    """``solve_greedy``'s result, and d, the most elements one candidate covers.

    The first pick's gains are the masks' popcounts, so the pass that makes
    it also gives d, on which the greedy's H(d) guarantee rests.
    """
    t0 = time.monotonic()
    masks = inst.masks
    uncovered = (1 << len(inst.universe)) - 1
    gains = list(map(int.bit_count, masks))
    d = max(gains, default=0)
    chosen: list[int] = []
    while uncovered:
        if chosen:
            gains = list(map(int.bit_count, map(uncovered.__and__, masks)))
        best_gain = max(gains, default=0)
        if best_gain == 0:
            raise InfeasibleInstanceError("greedy stuck: uncoverable element")
        best = gains.index(best_gain)
        chosen.append(best)
        uncovered &= ~masks[best]
    points = frozenset(inst.candidates[i] for i in chosen)
    result = SolveResult(Cover(points, inst.delta), False, 0, time.monotonic() - t0)
    return result, d


def min_cover_exact(
    g: Graph, delta: Fraction, budget: Budget = DEFAULT_BUDGET
) -> RatioReport:
    """Build the finite instance, solve it, and verify the result.

    The report claims factor 1 in the ``"exact"`` regime; it is proven only
    when the branch and bound closed within ``budget``.  Otherwise the cover
    is the search's incumbent, still a verified delta-cover.  The check
    skips ``require_output``'s proof memo: every call builds a new point
    set, so an entry recorded here would never be read.
    """
    inst = build_set_cover(g, delta)
    result = solve_exact(inst, budget)
    require_output.__wrapped__(g, result.cover, "exact solver output")
    return RatioReport(result.cover, ONE, "exact", proven=result.optimal)


@functools.lru_cache(maxsize=64)
def harmonic_number(n: int) -> Fraction:
    """H(n) as an exact rational; the greedy set-cover guarantee.

    Summed over the common denominator lcm(1..n), without recursion, so any
    n works.  Memoized: a sweep of graphs of one kind asks for the same n
    again and again.
    """
    if n <= 0:
        return Fraction(0)
    common = lcm(*range(1, n + 1))
    return Fraction(sum(common // k for k in range(1, n + 1)), common)
