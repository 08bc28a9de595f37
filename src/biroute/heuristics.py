"""Admissible per-criterion lower bounds via backward Dijkstra, settled on demand.

For a fixed goal vertex the table holds, per vertex and per cost
component, the exact cheapest cost-to-goal when each criterion is
minimized on its own. Both components are computed independently on the
reverse adjacency, so the bounds are admissible and consistent for the
bi-criteria searches. An entry that is not known to be a distance reads
UNREACHABLE (-1). No distance is negative, so no distance equals it;
test for it with ``==`` or ``!=``, never with an order comparison.

A table need not be complete. Built for a query's start, it settles both
backward searches until the start is settled in both and each has
settled at least ``SETTLE_FLOOR`` (60%) of the graph's vertices, and
grows when a search reads a vertex that is not settled yet (``settle``),
as resumable backward A* (RRA*, Silver 2005) does. Stopping at the
start alone would make a build cost in proportion to the share of
vertices nearer the goal than the start: anywhere from nothing to a
complete table, for starts drawn uniformly. The floor gives up part of
that saving for a steadier cost, between 60% and all of a complete
build, and a later query to that goal finds its start settled if the
start is among the nearer 60% of the vertices in both criteria.

Publication rule: a vertex's ``h1`` and ``h2`` entries become distances
together, once both components have settled it, and never change
afterwards. Each backward search publishes a vertex as it settles it,
if the other search has settled it already. Tentative distances (a
private ``inf`` where none is known yet), heaps and per-component
settled flags stay in private resume state. ``h1`` and ``h2`` are grown
in place, because the engines bind them once per search. So every value
an engine reads is the exact distance, whichever way the table was
built.

The disk cache (version 3) keeps one entry per (graph digest, goal),
never the resume state. An entry is a flat array of int64 words in the
machine's byte order: the header ``magic, 3, n, goal, complete,
crc32(payload)``, then the payload, ``h1`` and then ``h2``. UNREACHABLE
is stored as is. A load checks the length, the header, the CRC and that
the goal's entries are 0, and reads anything else as a miss; it never
runs code from the file. A table with a distance of 2^63 or more does
not fit the format and is not cached. A loaded partial table that must
grow rebuilds its frontier from the published set: each reverse arc
from a published vertex into an unpublished one offers the unpublished
vertex a tentative distance, and Dijkstra resumes from those seeds.
This multi-source restart is exact. A shortest path to an unpublished
vertex leaves the published set, whose entries are exact, at a first
unpublished vertex, and that vertex's seed is at most its true distance.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from pathlib import Path

from .graph import BiGraph, check_endpoints

UNREACHABLE = -1

# Share of the vertices that each backward search of a table built for a
# start settles at the least. A higher floor makes a build's cost vary
# less with the start and saves less (module docstring).
SETTLE_FLOOR = 0.6

# Tentative distance of a vertex that no backward search has reached.
_INF = float("inf")

# Cache entry layout (module docstring): _HEADER int64 words, h1, h2.
_CACHE_VERSION = 3
_MAGIC = int.from_bytes(b"biroute", "little")
_HEADER = 6


def _settle(g: BiGraph, dist: list, heap: list[int], component: int) -> None:
    """Run one backward Dijkstra until ``heap`` is empty.

    ``component`` (1 or 2) picks the cost. ``dist`` holds exact distances
    to the goal for settled vertices and tentative ones (``_INF``: none
    yet) for the rest.

    The heap holds one int per entry, ``d * n + v``, popped back with
    ``divmod(key, n)``. Since ``0 <= v < n``, int order on the keys is
    tuple order on ``(d, v)``, so vertices pop in the same order as with
    ``(d, v)`` tuples. Python ints are unbounded, so the key stays exact
    for any cost, above 2^53 and 2^63 included.
    """
    n = g.vertex_count
    reverse_edges = g.reverse_edges
    while heap:
        d, v = divmod(heappop(heap), n)
        if d > dist[v]:
            continue
        for arc in reverse_edges[v]:
            nd = d + arc[component]
            source = arc[0]
            if nd < dist[source]:
                dist[source] = nd
                heappush(heap, nd * n + source)


@dataclass
class HeuristicTable:
    """Cost-to-goal lower bounds for one goal vertex.

    ``h1[v]`` and ``h2[v]`` are exact single-criterion distances from ``v``
    to ``goal``, or UNREACHABLE. Both arrays assign 0 to the goal itself.
    UNREACHABLE means that ``v`` cannot reach the goal only once the table
    is ``complete``; in a partial table it may also mean that ``v`` is not
    settled yet, and ``settle(v)`` tells the two apart.

    Equality and repr cover the four fields; the resume state of a
    partial table is rebuilt when it is needed.
    """

    goal: int
    h1: list[int]
    h2: list[int]
    complete: bool = True
    # Resume state of a partial table: the graph, (dist, heap) per
    # component, and per vertex the bit mask of components (1, 2) that
    # have settled it.
    _graph: BiGraph | None = field(default=None, init=False, repr=False, compare=False)
    _fronts: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _marks: bytearray | None = field(default=None, init=False, repr=False, compare=False)
    # Whether the table holds more than its cache entry (store_heuristics).
    _unsaved: bool = field(default=True, init=False, repr=False, compare=False)

    def settle(self, v: int) -> bool:
        """Grow the table until ``v`` is published or the table is complete.

        Returns whether ``v`` can reach the goal.
        """
        if self.h1[v] == UNREACHABLE and not self.complete:
            self._grow(v)
        return self.h1[v] != UNREACHABLE

    def settle_all(self) -> None:
        """Grow the table until it is complete."""
        if not self.complete:
            self._grow(-1)

    def _grow(self, stop: int, floor: int = 0) -> None:
        """Settle both components through ``stop`` (-1: to exhaustion).

        Each component settles at least ``floor`` vertices in this call,
        or all it has left.
        """
        if self._fronts is None:
            self._restart()
        marks = self._marks
        for component in (1, 2):
            settled = 0
            if stop < 0 or not marks[stop] & component:
                settled = self._advance(component, stop)
            if settled < floor:
                self._advance(component, -1, floor - settled)
        (_, heap1), (_, heap2) = self._fronts
        if not (heap1 or heap2):
            # Both searches are exhausted, so every vertex that reaches
            # the goal is settled in both, and published.
            self.complete = True
            self._graph = self._fronts = self._marks = None
        self._unsaved = True

    def _advance(self, component: int, stop: int, count: int = 0) -> int:
        """``_settle`` for one component of a partial table, publishing as it goes.

        Each vertex settled here is marked settled in ``component`` and
        published if the other component has settled it already. Stops
        after settling ``stop`` (-1: never) or ``count`` vertices (0:
        never), or when the heap is empty. Returns the number settled.
        The loop repeats ``_settle``'s so that complete builds, which
        run ``_settle``, pay nothing for the marks.
        """
        g = self._graph
        n = g.vertex_count
        reverse_edges = g.reverse_edges
        marks = self._marks
        h1, h2 = self.h1, self.h2
        (dist1, _), (dist2, _) = self._fronts
        dist, heap = self._fronts[component - 1]
        settled = 0
        while heap:
            d, v = divmod(heappop(heap), n)
            if d > dist[v]:
                continue
            for arc in reverse_edges[v]:
                nd = d + arc[component]
                source = arc[0]
                if nd < dist[source]:
                    dist[source] = nd
                    heappush(heap, nd * n + source)
            mark = marks[v] | component
            marks[v] = mark
            if mark == 3:
                h1[v] = dist1[v]
                h2[v] = dist2[v]
            settled += 1
            if v == stop or settled == count:
                break
        return settled

    def _restart(self) -> None:
        """Rebuild the resume state from the published entries (module docstring)."""
        g = self._graph
        if g is None:
            raise ValueError("a partial heuristic table needs its graph to grow")
        n = g.vertex_count
        h1, h2 = self.h1, self.h2
        dist1 = [_INF if d == UNREACHABLE else d for d in h1]
        dist2 = [_INF if d == UNREACHABLE else d for d in h2]
        marks = bytearray(n)
        seeds = set()
        reverse_edges = g.reverse_edges
        for v, d1 in enumerate(h1):
            if d1 == UNREACHABLE:
                continue
            marks[v] = 3
            d2 = h2[v]
            for source, c1, c2 in reverse_edges[v]:
                if h1[source] == UNREACHABLE:
                    seeds.add(source)
                    if d1 + c1 < dist1[source]:
                        dist1[source] = d1 + c1
                    if d2 + c2 < dist2[source]:
                        dist2[source] = d2 + c2
        heap1 = [dist1[s] * n + s for s in seeds]
        heap2 = [dist2[s] * n + s for s in seeds]
        heapify(heap1)
        heapify(heap2)
        self._fronts = ((dist1, heap1), (dist2, heap2))
        self._marks = marks


def validate_query(g: BiGraph, h: HeuristicTable, start: int, goal: int) -> bool:
    """Raise ValueError unless ``g`` and ``h`` fit the query; return ``h.settle(start)``."""
    check_endpoints(g, start, goal)
    n = g.vertex_count
    if h.goal != goal:
        raise ValueError(f"heuristic table was built for goal {h.goal}, not {goal}")
    if len(h.h1) != n or len(h.h2) != n:
        raise ValueError("heuristic table size does not match the graph")
    return h.settle(start)


def compute_heuristics(g: BiGraph, goal: int, start: int | None = None) -> HeuristicTable:
    """Run the two backward Dijkstras for ``goal`` and return the table.

    Without ``start`` the table is complete. With it, both searches stop
    once ``start`` is settled in both and each has settled at least
    ``SETTLE_FLOOR`` of the vertices, and the table grows on demand.
    """
    check_endpoints(g, start, goal)
    n = g.vertex_count
    dist1: list = [_INF] * n
    dist2 = dist1.copy()
    dist1[goal] = dist2[goal] = 0
    if start is None:
        _settle(g, dist1, [goal], 1)
        _settle(g, dist2, [goal], 2)
        # Both components reach the same vertices, and every entry left
        # unreached is the _INF object itself.
        if _INF in dist1:
            for v in [v for v, d in enumerate(dist1) if d is _INF]:
                dist1[v] = dist2[v] = UNREACHABLE
        return HeuristicTable(goal, dist1, dist2)
    table = HeuristicTable(goal, [UNREACHABLE] * n, [UNREACHABLE] * n, complete=False)
    table._graph = g
    table._fronts = ((dist1, [goal]), (dist2, [goal]))
    table._marks = bytearray(n)
    table._grow(start, math.ceil(SETTLE_FLOOR * n))
    return table


def graph_digest(g: BiGraph) -> str:
    """Content hash of a BiGraph, stable across processes.

    The pass over every arc runs once per graph object; the hash is kept
    on ``g`` and later calls return it (see ``BiGraph`` on immutability).
    """
    if g._digest is None:
        hasher = hashlib.sha256()
        hasher.update(f"n={g.vertex_count}".encode())
        for u in range(g.vertex_count):
            for target, cost in g.edges[u]:
                hasher.update(f";{u},{target},{cost.c1},{cost.c2}".encode())
        g._digest = hasher.hexdigest()
    return g._digest


def _cache_path(g: BiGraph, goal: int, cache_dir: str) -> Path:
    return Path(cache_dir) / f"h-{graph_digest(g)}-{goal}-v{_CACHE_VERSION}.bin"


def _load_entry(path: Path, g: BiGraph, goal: int) -> HeuristicTable | None:
    """The table stored at ``path`` for ``goal``, or None if it is missing or invalid."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    n = g.vertex_count
    if len(data) != 8 * (_HEADER + 2 * n):
        return None
    words = memoryview(data).cast("q")
    payload = words[_HEADER:]
    magic, version, size, entry_goal, complete, crc = words[:_HEADER].tolist()
    if (
        (magic, version, size, entry_goal) != (_MAGIC, _CACHE_VERSION, n, goal)
        or complete not in (0, 1)
        or crc != zlib.crc32(payload)
        or payload[goal] != 0
        or payload[n + goal] != 0
    ):
        return None
    table = HeuristicTable(goal, payload[:n].tolist(), payload[n:].tolist(), complete == 1)
    table._graph = g
    table._unsaved = False
    return table


def store_heuristics(g: BiGraph, h: HeuristicTable, cache_dir: str) -> None:
    """Write ``h`` as the cache entry for (``g``, ``h.goal``) if it holds anything new.

    A table loaded from the cache, or stored before, is written again only
    if it has grown since. The entry goes through a temp file of its own
    and ``os.replace``, so concurrent writers never clash. A cache that
    cannot be written (any OSError while creating the directory or
    writing the entry) leaves the entry as it was, and so does a table
    with a distance of 2^63 or more, which the format cannot hold.
    """
    if not h._unsaved:
        return
    n = len(h.h1)
    try:
        payload = struct.pack(f"{2 * n}q", *h.h1, *h.h2)
    except struct.error:
        return  # a distance of 2^63 or more; a later call recomputes the table
    header = struct.pack(
        f"{_HEADER}q", _MAGIC, _CACHE_VERSION, n, h.goal, h.complete, zlib.crc32(payload)
    )
    cache_path = _cache_path(g, h.goal, cache_dir)
    try:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=cache_path.parent, prefix=cache_path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header + payload)
            os.replace(tmp_name, cache_path)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError:
        return  # an unwritable cache only costs a later call a recompute
    h._unsaved = False


def load_or_compute_heuristics(
    g: BiGraph, goal: int, cache_dir: str | None = None, start: int | None = None
) -> HeuristicTable:
    """compute_heuristics with an optional disk cache.

    Cache entries are keyed by (graph content hash, goal), so a stale file
    from a different graph can never be returned for this one. A missing,
    unreadable or misshapen entry is recomputed. Without ``start`` the
    table is complete: a partial entry is grown to completion, and a table
    that holds more than its entry is written back (``store_heuristics``).
    With ``start`` the table is settled at least through ``start`` and
    nothing is written: the caller stores the table once its search is
    done, so that the entry keeps everything the search settled.
    """
    args = (g, goal) if start is None else (g, goal, start)
    if cache_dir is None:
        return compute_heuristics(*args)
    check_endpoints(g, start, goal)
    table = _load_entry(_cache_path(g, goal, cache_dir), g, goal)
    if table is None:
        table = compute_heuristics(*args)
    elif start is not None:
        table.settle(start)
    if start is None:
        table.settle_all()
        store_heuristics(g, table, cache_dir)
    return table
