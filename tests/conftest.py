from __future__ import annotations

import sys
from fractions import Fraction

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from deltacover import Budget, Graph, RatioReport, min_cover_exact


def clear_library_caches() -> None:
    """Empty every functools cache in the library, as in a fresh process.

    The same rule as ``perfbench/run.py::clear_caches``.
    """
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "deltacover" or name.startswith("deltacover.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_library_caches():
    """Each test starts with the library's caches empty, as a fresh process
    would, so no test reads a result memoized by another (or a broken one
    that a monkeypatched core left behind)."""
    clear_library_caches()


def k_n(n: int) -> Graph:
    return Graph([(i, j) for i in range(n) for j in range(i + 1, n)], n=n)


def cycle(n: int) -> Graph:
    return Graph([(i, (i + 1) % n) for i in range(n)], n=n)


def path(edges: int) -> Graph:
    return Graph([(i, i + 1) for i in range(edges)], n=edges + 1)


def star(leaves: int) -> Graph:
    return Graph([(0, i) for i in range(1, leaves + 1)], n=leaves + 1)


def grid(rows: int, cols: int) -> Graph:
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(right + down, n=rows * cols)


@pytest.fixture(scope="session")
def atlas_suite() -> list[tuple[str, Graph]]:
    """All 142 connected graphs on 2..6 vertices from the graph atlas."""
    out = []
    for i, g in enumerate(graph_atlas_g()):
        if 2 <= g.number_of_nodes() <= 6 and nx.is_connected(g):
            edges = sorted(tuple(sorted(e)) for e in g.edges())
            out.append((f"atlas{i}", Graph(edges, n=g.number_of_nodes())))
    assert len(out) == 142
    return out


@pytest.fixture(scope="session")
def small_trees() -> list[tuple[str, Graph]]:
    """All non-isomorphic trees on 2..8 vertices."""
    out = []
    for n in range(2, 9):
        for i, t in enumerate(nx.nonisomorphic_trees(n)):
            edges = sorted(tuple(sorted(e)) for e in t.edges())
            out.append((f"tree{n}_{i}", Graph(edges, n=n)))
    return out


class OracleCache:
    """Shared memo of exact solves, keyed by graph identity and delta."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self._memo: dict[tuple[int, tuple, Fraction], RatioReport] = {}

    def solve(self, g: Graph, delta: Fraction) -> RatioReport:
        key = (g.n, g.edges, delta)
        if key not in self._memo:
            self._memo[key] = min_cover_exact(g, delta, self.budget)
        return self._memo[key]

    def opt(self, g: Graph, delta: Fraction) -> int | None:
        """Proven optimum, or None when the budget ran out."""
        result = self.solve(g, delta)
        return len(result.cover) if result.proven else None


@pytest.fixture(scope="session")
def oracle() -> OracleCache:
    return OracleCache(Budget(max_seconds=3.0))


@pytest.fixture
def verifier_calls(monkeypatch) -> list[Graph]:
    """The graph of every ``is_delta_cover`` call the library makes.

    Every module of the package that binds the verifier gets a counting
    wrapper; the tests' own imports keep the original.
    """
    import sys

    import deltacover.verify

    real = deltacover.verify.is_delta_cover
    calls: list[Graph] = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "deltacover" or name.startswith("deltacover."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return calls
