"""Directed graphs with two nonnegative integer edge costs, plus DIMACS I/O.

A bi-criteria instance is normally distributed as two DIMACS ``.gr`` files
over the same arc list: one carrying the first cost component (e.g.
distance), one carrying the second (e.g. travel time). This module parses
the files, pairs them arc-by-arc, and builds the in-memory graph used by
every search routine in the package.
"""

from __future__ import annotations

import gzip
import io
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, TextIO


class CostVec(NamedTuple):
    """A pair of accumulated nonnegative integer costs."""

    c1: int
    c2: int

    def __add__(self, other):  # type: ignore[override]
        return CostVec(self.c1 + other[0], self.c2 + other[1])


class Edge(NamedTuple):
    """One outgoing arc: target vertex plus its cost vector."""

    target: int
    cost: CostVec


class DimacsParseError(ValueError):
    """Raised for malformed DIMACS input; the message carries the line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ArcMismatchError(ValueError):
    """Raised when the two .gr files of a pair disagree on graph structure."""


@dataclass
class BiGraph:
    """Directed graph with a CostVec per arc and a prebuilt reverse adjacency.

    ``edges[u]`` lists the outgoing arcs of ``u`` as ``Edge``s. Vertex ids
    are dense integers in ``[0, vertex_count)``. Parallel arcs and self
    loops are kept as given.

    ``reverse_edges[v]`` lists the arcs entering ``v`` as plain
    ``(source, c1, c2)`` int tuples, so backward searches need no
    transposition at query time and a cost component number (1 or 2)
    indexes its cost directly: ``arc[component]``.

    The graph is immutable after construction: ``reverse_edges`` is derived
    once, here, and the content digest once, on the first
    ``heuristics.graph_digest`` call, which keeps it in ``_digest``.
    Mutating ``edges`` afterwards already leaves ``reverse_edges`` (and so
    every heuristic table) stale; the kept digest goes stale with them.
    Neither derived field takes part in the constructor, equality or repr.
    """

    vertex_count: int
    edges: list[list[Edge]]
    reverse_edges: list[list[tuple[int, int, int]]] = field(
        init=False, repr=False, compare=False
    )
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError(f"negative vertex count {self.vertex_count}")
        if len(self.edges) != self.vertex_count:
            raise ValueError(
                f"adjacency has {len(self.edges)} rows for "
                f"{self.vertex_count} vertices"
            )
        n = self.vertex_count
        rev: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for u, adj in enumerate(self.edges):
            for target, (c1, c2) in adj:
                # Check before indexing: a negative target would wrap.
                if not (0 <= target < n):
                    raise ValueError(f"arc {u}->{target} leaves [0, {n})")
                rev[target].append((u, c1, c2))
        self.reverse_edges = rev

    @property
    def edge_count(self) -> int:
        return sum(len(adj) for adj in self.edges)


def parse_dimacs_gr(stream: TextIO) -> tuple[int, list[tuple[int, int, int]]]:
    """Parse one DIMACS ``.gr`` file into ``(n, arcs)``.

    Arcs are ``(source, target, weight)`` triples with 0-based vertex ids,
    in file order, duplicates preserved. Raises DimacsParseError on
    malformed lines, an arc before the problem line, vertex ids outside
    ``[1, n]``, negative weights, or an arc count differing from the
    problem line's.
    """
    n = -1
    declared_m = -1
    arcs: list[tuple[int, int, int]] = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n >= 0:
                raise DimacsParseError("duplicate problem line", line_no)
            if len(fields) != 4 or fields[1] != "sp":
                raise DimacsParseError(f"malformed problem line: {line!r}", line_no)
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsParseError(f"malformed problem line: {line!r}", line_no) from None
            if n < 0 or declared_m < 0:
                raise DimacsParseError(f"negative size in problem line: {line!r}", line_no)
        elif fields[0] == "a":
            if n < 0:
                raise DimacsParseError("arc line before problem line", line_no)
            if len(fields) != 4:
                raise DimacsParseError(f"malformed arc line: {line!r}", line_no)
            try:
                u, v, w = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsParseError(f"malformed arc line: {line!r}", line_no) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsParseError(f"vertex id out of range [1, {n}]: {line!r}", line_no)
            if w < 0:
                raise DimacsParseError(f"negative arc weight: {line!r}", line_no)
            arcs.append((u - 1, v - 1, w))
        else:
            raise DimacsParseError(f"unrecognized line: {line!r}", line_no)
    if n < 0:
        raise DimacsParseError("missing problem line")
    if len(arcs) != declared_m:
        raise DimacsParseError(
            f"problem line declares {declared_m} arcs but file contains {len(arcs)}"
        )
    return n, arcs


def open_gr(path: str) -> TextIO:
    """Open a .gr file for reading, transparently decompressing gzip.

    Compression is detected from the two magic bytes, not the file name.
    """
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="ascii")
    return open(path, "r", encoding="ascii")


def load_gr(path: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Parse the .gr (or gzipped .gr) file at ``path``."""
    with open_gr(path) as stream:
        return parse_dimacs_gr(stream)


def build_bigraph(
    n: int,
    arcs1: Iterable[tuple[int, int, int]],
    arcs2: Iterable[tuple[int, int, int]],
) -> BiGraph:
    """Pair two single-criterion arc lists into one BiGraph.

    Both lists are sorted by (source, target) with file order preserved
    among duplicates, then zipped positionally. A positional pair whose
    endpoints differ means the files describe different graphs and raises
    ArcMismatchError naming the first offending arc.
    """
    a1 = sorted(arcs1, key=lambda a: (a[0], a[1]))
    a2 = sorted(arcs2, key=lambda a: (a[0], a[1]))
    if len(a1) != len(a2):
        raise ArcMismatchError(f"arc count mismatch: {len(a1)} vs {len(a2)}")
    adjacency: list[list[Edge]] = [[] for _ in range(n)]
    for i, ((u1, v1, w1), (u2, v2, w2)) in enumerate(zip(a1, a2)):
        if (u1, v1) != (u2, v2):
            raise ArcMismatchError(
                f"arc {i + 1} differs between files: "
                f"{u1 + 1}->{v1 + 1} vs {u2 + 1}->{v2 + 1} (1-based ids)"
            )
        if not (0 <= u1 < n and 0 <= v1 < n):
            raise ArcMismatchError(
                f"arc {i + 1} endpoint outside [1, {n}]: {u1 + 1}->{v1 + 1}"
            )
        adjacency[u1].append(Edge(v1, CostVec(w1, w2)))
    return BiGraph(vertex_count=n, edges=adjacency)


def bigraph_from_arcs(n: int, arcs: Iterable[tuple[int, int, int, int]]) -> BiGraph:
    """Build a BiGraph from ``(u, v, c1, c2)`` arcs with 0-based ids.

    Raises ValueError naming the arc when an endpoint lies outside ``[0, n)``.
    """
    adjacency: list[list[Edge]] = [[] for _ in range(n)]
    for u, v, c1, c2 in arcs:
        if not 0 <= u < n:
            raise ValueError(f"arc {u}->{v} leaves [0, {n})")
        adjacency[u].append(Edge(v, CostVec(c1, c2)))
    return BiGraph(vertex_count=n, edges=adjacency)


def dimacs_lines(g: BiGraph, component: int) -> Iterator[str]:
    """Yield the DIMACS .gr lines for one cost component (1 or 2) of ``g``."""
    if component not in (1, 2):
        raise ValueError(f"component must be 1 or 2, got {component}")
    yield f"p sp {g.vertex_count} {g.edge_count}\n"
    for u in range(g.vertex_count):
        for target, cost in g.edges[u]:
            w = cost.c1 if component == 1 else cost.c2
            yield f"a {u + 1} {target + 1} {w}\n"


def write_gr_pair(g: BiGraph, path1: str, path2: str) -> None:
    """Serialize ``g`` to two .gr files; reparsing them recovers ``g``."""
    for component, path in ((1, path1), (2, path2)):
        with open(path, "w", encoding="ascii") as out:
            out.writelines(dimacs_lines(g, component))


def load_bigraph(path1: str, path2: str) -> BiGraph:
    """Load and pair the two .gr files of a bi-criteria instance."""
    n1, arcs1 = load_gr(path1)
    n2, arcs2 = load_gr(path2)
    if n1 != n2:
        raise ArcMismatchError(f"vertex count mismatch: {n1} vs {n2}")
    return build_bigraph(n1, arcs1, arcs2)
