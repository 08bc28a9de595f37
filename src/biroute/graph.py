"""Directed graphs with two nonnegative integer edge costs, plus DIMACS I/O.

A bi-criteria instance is normally distributed as two DIMACS ``.gr`` files
over the same arc list: one carrying the first cost component (e.g.
distance), one carrying the second (e.g. travel time). This module parses
the files, pairs them arc-by-arc, and builds the in-memory graph used by
every search routine in the package.

The line parser, ``parse_dimacs_gr``, is the one definition of the format
and of its errors. ``load_bigraph`` first tries a fast path on the layout
of the 9th DIMACS Challenge maps: ``c`` comment lines and the ``p sp n m``
line, then nothing but ``a <digits> <digits> <digits>`` lines, each ended
by a newline. It reads each file once as bytes, checks and parses the arc
block in chunks of about 8 KB with one regex match per chunk, and keeps
the numbers in one flat ``array('q')`` per file. When the two files list
the same ``(u, v)`` columns, arcs are bucketed by source in file order and
each row is stable-sorted by target, which pairs them exactly as
``build_bigraph`` does. Any other file goes to the line parser and
``build_bigraph``: a blank or comment line among the arcs, CRLF line ends,
a sign, an underscore or more than 18 digits in a number, a missing final
newline, an id outside ``[1, n]``, an arc count differing from the problem
line's, unequal ``n``, or ``(u, v)`` columns that differ between the files.
Both paths give equal graphs, and every error with its message and line
number comes from that second path. Files are ASCII: a non-ASCII byte, or a
truncated or corrupt gzip stream, raises DimacsParseError.
"""

from __future__ import annotations

import gzip
import io
import re
import zlib
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, TextIO


class CostVec(NamedTuple):
    """A pair of accumulated nonnegative integer costs."""

    c1: int
    c2: int


class Edge(NamedTuple):
    """One outgoing arc: target vertex plus its cost vector."""

    target: int
    cost: CostVec


# Build NamedTuples from an iterable without their Python-level __new__.
_edge = partial(tuple.__new__, Edge)
_cost = partial(tuple.__new__, CostVec)
_target = itemgetter(0)


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
    loops are kept as given. An arc whose target leaves that range, or
    whose cost is not a nonnegative int, raises ValueError.

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
                if not (isinstance(c1, int) and isinstance(c2, int)):
                    raise ValueError(
                        f"arc {u}->{target} has a non-integer cost ({c1!r}, {c2!r})"
                    )
                if c1 < 0 or c2 < 0:
                    raise ValueError(f"arc {u}->{target} has a negative cost ({c1}, {c2})")
                rev[target].append((u, c1, c2))
        self.reverse_edges = rev

    @property
    def edge_count(self) -> int:
        return sum(len(adj) for adj in self.edges)


def check_endpoints(g: BiGraph, start: int | None, goal: int) -> None:
    """Raise ValueError unless ``goal``, and ``start`` unless None, lie in ``[0, n)``."""
    n = g.vertex_count
    if not 0 <= goal < n:
        raise ValueError(f"goal {goal} outside [0, {n})")
    if start is not None and not 0 <= start < n:
        raise ValueError(f"start {start} outside [0, {n})")


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


_NON_ASCII = re.compile(rb"[\x80-\xff]")


def _read_gr(path: str) -> bytes:
    """Read a .gr file as bytes, gunzipped if it starts with the gzip magic.

    Compression is detected from the two magic bytes, not the file name. A
    truncated or corrupt gzip stream raises DimacsParseError.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] != b"\x1f\x8b":
        return data
    try:
        return gzip.decompress(data)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DimacsParseError(f"corrupt gzip data: {exc}") from None


def _parse_gr_bytes(data: bytes) -> tuple[int, list[tuple[int, int, int]]]:
    """Run the line parser on a file's bytes; a non-ASCII byte names its line."""
    if not data.isascii():
        at = _NON_ASCII.search(data).start()
        # The sentinel joins a partial last line or starts a new one, so
        # the count is the offending line's number under universal newlines.
        line_no = len((data[:at] + b"x").splitlines())
        raise DimacsParseError(f"non-ASCII byte 0x{data[at]:02x}", line_no)
    # Streamed line by line: the bytes are not decoded into one string.
    return parse_dimacs_gr(io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))


def load_gr(path: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Parse the .gr (or gzipped .gr) file at ``path`` with the line parser."""
    return _parse_gr_bytes(_read_gr(path))


# Comments and the problem line before the first arc line. A comment holds
# no line break: the line parser also ends a line at a lone CR.
_HEADER = re.compile(
    rb"(?:c[^\r\n\x80-\xff]*\n)*p sp ([0-9]+) ([0-9]+)\n(?:c[^\r\n\x80-\xff]*\n)*"
)
# At most 18 digits, so every number fits an array('q'). Matched one chunk
# at a time: sre keeps a stack entry per repetition, so one match over the
# 89,400 arc lines of the 150x150 benchmark map raises peak RSS by ~20 MB,
# and a 64 KB chunk still by ~1.6 MB more than an 8 KB one.
_CHUNK = 1 << 13
_ARC_LINES = re.compile(rb"(?:a [0-9]{1,18} [0-9]{1,18} [0-9]{1,18}\n)*")


def _scan_gr(data: bytes) -> tuple[int, array, array, array] | None:
    """Columns ``(n, sources, targets, weights)`` of a Challenge-layout file.

    Ids stay 1-based. Returns None for any file outside the fast path's
    layout or with an id outside ``[1, n]`` or a wrong arc count; on every
    other file the line parser returns the same ``n`` and arcs.
    """
    head = _HEADER.match(data)
    if head is None:
        return None
    n, m = int(head[1]), int(head[2])
    numbers = array("q")
    start, end = head.end(), len(data)
    while start < end:
        cut = data.rfind(b"\n", start, start + _CHUNK) + 1
        if cut <= start or not _ARC_LINES.fullmatch(data, start, cut):
            return None
        tokens = data[start:cut].split()
        del tokens[::4]  # the "a" of each line
        numbers.fromlist(list(map(int, tokens)))
        start = cut
    if len(numbers) != 3 * m:
        return None
    sources, targets = numbers[0::3], numbers[1::3]
    for ids in (sources, targets):
        if m and not (min(ids) >= 1 and max(ids) <= n):
            return None
    return n, sources, targets, numbers[2::3]


def _rows(n: int, sources: Iterable[int], items: Iterable[tuple]) -> list[list]:
    """Bucket ``items`` by 0-based source in input order, then stable-sort
    each row by ``item[0]``, the target.

    This pairs arc for arc as a global stable sort by ``(source, target)``
    would. Every source must lie in ``[0, n)``: a negative one would wrap.
    """
    rows: list[list] = [[] for _ in range(n)]
    # rows[u].append(item) for each pair, run by map at C speed.
    deque(map(list.append, map(rows.__getitem__, sources), items), maxlen=0)
    for row in rows:
        if len(row) > 1:
            row.sort(key=_target)
    return rows


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

    Raises ValueError naming the arc when an endpoint lies outside ``[0, n)``
    or a cost is not a nonnegative int.
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
    """Load and pair the two .gr files of a bi-criteria instance.

    Files in the Challenge layout with equal ``(u, v)`` columns take the
    fast path; any other pair, and every error, goes through ``load_gr``'s
    line parser and ``build_bigraph``. Both give equal graphs.
    """
    data1 = _read_gr(path1)
    scan1 = _scan_gr(data1)
    data2 = None
    if scan1 is not None:
        data2 = _read_gr(path2)
        scan2 = _scan_gr(data2)
        if scan2 is not None and scan1[:3] == scan2[:3]:
            n, sources, targets, w1 = scan1
            zero_based = (-1).__add__
            edges = map(
                _edge, zip(map(zero_based, targets), map(_cost, zip(w1, scan2[3])))
            )
            return BiGraph(vertex_count=n, edges=_rows(n, map(zero_based, sources), edges))
    n1, arcs1 = _parse_gr_bytes(data1)
    n2, arcs2 = _parse_gr_bytes(_read_gr(path2) if data2 is None else data2)
    if n1 != n2:
        raise ArcMismatchError(f"vertex count mismatch: {n1} vs {n2}")
    return build_bigraph(n1, arcs1, arcs2)
