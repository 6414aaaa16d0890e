"""Instance families with known cover sizes, used as benchmarks and tests.

Each generator is deterministic (fixed vertex numbering) and records the
cover sizes its construction guarantees, labelled either as true optima or
as constructed upper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Edge, Graph


@dataclass(frozen=True)
class KnownValue:
    delta: Fraction
    label: str  # "optimal" or "constructed_upper"
    size: int
    provenance: str


@dataclass(frozen=True)
class FamilyInstance:
    graph: Graph
    family: str
    params: tuple[tuple[str, object], ...]
    known_values: tuple[KnownValue, ...]

    def param(self, name: str):
        return dict(self.params)[name]


def gen_triangles_center(k: int) -> FamilyInstance:
    """k triangles, one vertex of each joined to a central hub.

    At radius 5/4 the hub plus one opposite-edge midpoint per triangle is
    optimal (k+1); at radius 1 each triangle forces two points (2k).
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    edges: list[Edge] = []
    for i in range(k):
        a, b, c = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
        edges += [(0, a), (a, b), (a, c), (b, c)]
    return FamilyInstance(
        Graph(edges, n=3 * k + 1),
        "triangles_center",
        (("k", k),),
        (
            KnownValue(Fraction(5, 4), "optimal", k + 1,
                       "hub plus one midpoint per triangle"),
            KnownValue(Fraction(1), "optimal", 2 * k,
                       "each triangle forces two points at unit radius"),
        ),
    )


def gen_triangles_paths(k: int, variant: str = "per_vertex", path_len: int = 3) -> FamilyInstance:
    """Triangles joined to a hub through 3-edge paths.

    ``per_vertex``: every triangle corner gets its own path to the hub;
    optimal sizes are 3k+1 at radius 7/6 and 5k at radius 1.
    ``per_triangle``: one path per triangle; optimal sizes are 2k+1 at
    radius 9/8 and 3k at radius 1.  ``path_len=1`` with ``per_triangle``
    reproduces the direct-edge family.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if variant not in ("per_vertex", "per_triangle"):
        raise ValueError(f"unknown variant {variant!r}")
    if path_len not in (1, 3):
        raise ValueError(f"path_len must be 1 or 3, got {path_len}")
    edges: list[Edge] = []
    if variant == "per_vertex":
        if path_len != 3:
            raise ValueError("per_vertex variant is defined for path_len=3")
        for i in range(k):
            base = 1 + 9 * i
            t = [base, base + 1, base + 2]
            edges += [(t[0], t[1]), (t[1], t[2]), (t[0], t[2])]
            for j in range(3):
                p1, p2 = base + 3 + 2 * j, base + 4 + 2 * j
                edges += [(t[j], p1), (p1, p2), (p2, 0)]
        graph = Graph(edges, n=9 * k + 1)
        known = (
            KnownValue(Fraction(7, 6), "optimal", 3 * k + 1,
                       "hub plus one path point per triangle corner"),
            KnownValue(Fraction(1), "optimal", 5 * k,
                       "five forced points per triangle group at unit radius"),
        )
    elif path_len == 1:
        return gen_triangles_center(k)
    else:
        for i in range(k):
            base = 1 + 5 * i
            a, b, c, x, y = base, base + 1, base + 2, base + 3, base + 4
            edges += [(a, b), (a, c), (b, c), (a, x), (x, y), (y, 0)]
        graph = Graph(edges, n=5 * k + 1)
        known = (
            KnownValue(Fraction(9, 8), "optimal", 2 * k + 1,
                       "hub plus two points per triangle unit"),
            KnownValue(Fraction(1), "optimal", 3 * k,
                       "triangle needs two points, connector middle one more"),
        )
    return FamilyInstance(
        graph, "triangles_paths",
        (("k", k), ("variant", variant), ("path_len", path_len)), known,
    )


def gen_star_subdivision(x: int, k: int) -> FamilyInstance:
    """K_{1,k} with every edge subdivided into x+1 unit edges.

    For radii in [(x+1)/(2x+1), x/(2x-1)) the center plus x points per arm
    (spaced 2*delta) covers everything: 1 + kx points.
    """
    if x < 2 or k < 1:
        raise ValueError(f"need x >= 2 and k >= 1, got x={x}, k={k}")
    edges: list[Edge] = []
    for j in range(k):
        arm = [0] + [1 + j * (x + 1) + i for i in range(x + 1)]
        edges += list(zip(arm, arm[1:]))
    return FamilyInstance(
        Graph(edges, n=1 + k * (x + 1)),
        "star_subdivision",
        (("x", x), ("k", k)),
        (
            KnownValue(Fraction(x + 1, 2 * x + 1), "constructed_upper", 1 + k * x,
                       "center plus x points per arm spaced 2*delta"),
        ),
    )


def gen_ds_reduction(g: Graph, ell: int = 2, variant: str = "path") -> Graph:
    """Dominating-set style blowups: pendant paths, path-plus-triangle, or doubling.

    ``path``: a pendant path of ell-1 edges on each vertex.
    ``path_triangle``: a path of ell-2 edges ending in a pendant triangle.
    ``wreath``: the doubled graph (two copies, crossed edges, rungs).
    """
    if variant == "wreath":
        from .graphs import wreath_k2

        return wreath_k2(g)
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    edges = list(g.edges)
    nxt = g.n
    if variant == "path":
        for v in range(g.n):
            prev = v
            for _ in range(ell - 1):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
    elif variant == "path_triangle":
        for v in range(g.n):
            prev = v
            for _ in range(ell - 2):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
            t1, t2 = nxt, nxt + 1
            nxt += 2
            edges += [(prev, t1), (prev, t2), (t1, t2)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return Graph(edges, n=nxt)


_UGC_ALIASES = {"a": "path", "b": "path_apex", "c": "path_triangle"}


def gen_ugc_gadget(g: Graph, x: int = 1, variant: str = "path") -> Graph:
    """Per-vertex pendant gadgets forcing structured optimal covers.

    ``path``: a pendant path of x vertices on every vertex.
    ``path_apex``: the same paths, with every path's far end joined to one
    shared new apex vertex.
    ``path_triangle``: the same paths, with a pendant triangle on each far
    end.
    """
    variant = _UGC_ALIASES.get(variant, variant)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if variant not in ("path", "path_apex", "path_triangle"):
        raise ValueError(f"unknown variant {variant!r}")
    edges = list(g.edges)
    nxt = g.n
    tails = []
    for v in range(g.n):
        prev = v
        for _ in range(x):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        tails.append(prev)
    if variant == "path_apex":
        apex = nxt
        nxt += 1
        edges += [(t, apex) for t in tails]
    elif variant == "path_triangle":
        for t in tails:
            t1, t2 = nxt, nxt + 1
            nxt += 2
            edges += [(t, t1), (t, t2), (t1, t2)]
    return Graph(edges, n=nxt)
