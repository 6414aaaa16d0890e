"""Text formats for graphs and covers.

Graph files: ``c`` comment lines, one ``p <n> <m>`` header, then ``m``
lines ``e <u> <v>`` with 1-indexed vertices.  Cover files: ``v <u>`` for a
vertex point, ``i <u> <v> <num>/<den>`` for the point at distance num/den
from the first listed vertex; 1-indexed.  Writers emit canonical sorted
output so round trips are bit-exact.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .graphs import Cover, Graph, Point


class FileFormatError(ValueError):
    """Malformed input file; the message names the offending line."""


def parse_rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"bad rational {text!r}: {exc}") from None
    return value


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_graph_text(text: str, source: str = "<string>") -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FileFormatError(f"{source}:{lineno}: second 'p' header")
            if len(parts) != 3:
                raise FileFormatError(f"{source}:{lineno}: expected 'p <n> <m>'")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise FileFormatError(f"{source}:{lineno}: non-integer header") from None
        elif parts[0] == "e":
            if n is None:
                raise FileFormatError(f"{source}:{lineno}: edge before 'p' header")
            if len(parts) != 3:
                raise FileFormatError(f"{source}:{lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise FileFormatError(f"{source}:{lineno}: non-integer endpoint") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise FileFormatError(f"{source}:{lineno}: vertex outside 1..{n}")
            edges.append((u - 1, v - 1))
        else:
            raise FileFormatError(f"{source}:{lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise FileFormatError(f"{source}: missing 'p <n> <m>' header")
    if m is not None and m != len(edges):
        raise FileFormatError(f"{source}: header promises {m} edges, found {len(edges)}")
    try:
        return Graph(edges, n=n)
    except ValueError as exc:
        raise FileFormatError(f"{source}: {exc}") from None


def parse_graph_file(path: str | Path) -> Graph:
    path = Path(path)
    return parse_graph_text(path.read_text(), source=str(path))


def graph_to_text(g: Graph, comments: tuple[str, ...] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p {g.n} {g.m}")
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def write_graph_file(path: str | Path, g: Graph, comments: tuple[str, ...] = ()) -> None:
    Path(path).write_text(graph_to_text(g, comments))


def cover_to_text(cover: Cover) -> str:
    lines = [f"c delta {format_rational(cover.delta)}"]
    for p in sorted(cover.points):
        if p.is_vertex:
            lines.append(f"v {p.u + 1}")
        else:
            lines.append(f"i {p.u + 1} {p.v + 1} {format_rational(p.t)}")
    return "\n".join(lines) + "\n"


def write_cover(path: str | Path, cover: Cover) -> None:
    Path(path).write_text(cover_to_text(cover))


def parse_cover_text(text: str, g: Graph, delta: Fraction,
                     source: str = "<string>") -> Cover:
    points: set[Point] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 2:
                u = int(parts[1]) - 1
                if not 0 <= u < g.n:
                    raise ValueError(f"vertex {u + 1} outside 1..{g.n}")
                points.add(Point.vertex(u))
            elif parts[0] == "i" and len(parts) == 4:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
                lam = parse_rational(parts[3])
                p = Point.on_edge(u, v, lam)
                g.check_point(p)
                points.add(p)
            else:
                raise ValueError(f"unknown record {line!r}")
        except ValueError as exc:
            raise FileFormatError(f"{source}:{lineno}: {exc}") from None
    return Cover(frozenset(points), delta)


def read_cover(path: str | Path, g: Graph, delta: Fraction) -> Cover:
    path = Path(path)
    return parse_cover_text(path.read_text(), g, delta, source=str(path))
