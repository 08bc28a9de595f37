"""Admissible per-criterion lower bounds via backward Dijkstra.

For a fixed goal vertex the table holds, per vertex and per cost
component, the exact cheapest cost-to-goal when each criterion is
minimized on its own. Both components are computed independently on the
reverse adjacency, so the bounds are admissible and consistent for the
bi-criteria searches. Vertices that cannot reach the goal get an
UNREACHABLE sentinel that compares greater than any finite cost.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .graph import BiGraph

UNREACHABLE = float("inf")

_CACHE_VERSION = 1


@dataclass
class HeuristicTable:
    """Cost-to-goal lower bounds for one goal vertex.

    ``h1[v]`` and ``h2[v]`` are exact single-criterion distances from ``v``
    to ``goal``, or UNREACHABLE. Both arrays assign 0 to the goal itself.
    """

    goal: int
    h1: list[int | float]
    h2: list[int | float]

    def reachable(self, v: int) -> bool:
        return self.h1[v] != UNREACHABLE


def validate_query(g: BiGraph, h: HeuristicTable, start: int, goal: int) -> None:
    """Raise ValueError unless ``start``/``goal`` lie in ``g`` and ``h`` fits both."""
    n = g.vertex_count
    if not (0 <= start < n and 0 <= goal < n):
        raise ValueError(f"endpoints ({start}, {goal}) outside [0, {n})")
    if h.goal != goal:
        raise ValueError(f"heuristic table was built for goal {h.goal}, not {goal}")
    if len(h.h1) != n or len(h.h2) != n:
        raise ValueError("heuristic table size does not match the graph")


def _backward_dijkstra(g: BiGraph, goal: int, component: int) -> list[int | float]:
    """Exact distances to ``goal`` in cost component ``component`` (1 or 2).

    The heap holds one int per entry, ``d * n + v``, popped back with
    ``divmod(key, n)``. Since ``0 <= v < n``, int order on the keys is
    tuple order on ``(d, v)``, so vertices pop in the same order as with
    ``(d, v)`` tuples. Python ints are unbounded, so the key stays exact
    for any cost, above 2^53 and 2^63 included.
    """
    n = g.vertex_count
    dist: list[int | float] = [UNREACHABLE] * n
    dist[goal] = 0
    heap = [goal]
    reverse_edges = g.reverse_edges
    while heap:
        d, v = divmod(heapq.heappop(heap), n)
        if d > dist[v]:
            continue
        for arc in reverse_edges[v]:
            nd = d + arc[component]
            source = arc[0]
            if nd < dist[source]:
                dist[source] = nd
                heapq.heappush(heap, nd * n + source)
    return dist


def compute_heuristics(g: BiGraph, goal: int) -> HeuristicTable:
    """Run the two backward Dijkstras for ``goal`` and return the table."""
    if not (0 <= goal < g.vertex_count):
        raise ValueError(f"goal {goal} outside [0, {g.vertex_count})")
    return HeuristicTable(
        goal=goal,
        h1=_backward_dijkstra(g, goal, 1),
        h2=_backward_dijkstra(g, goal, 2),
    )


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


def load_or_compute_heuristics(
    g: BiGraph, goal: int, cache_dir: str | None = None
) -> HeuristicTable:
    """compute_heuristics with an optional binary cache.

    Cache entries are keyed by (graph content hash, goal), so a stale file
    from a different graph can never be returned for this one. A missing,
    unreadable or misshapen entry is recomputed and rewritten, through a
    temp file of its own so that concurrent writers never clash. A cache
    that cannot be written (any OSError while creating the directory or
    writing the entry) leaves the table uncached; the table is returned.
    """
    if cache_dir is None:
        return compute_heuristics(g, goal)
    key = f"{graph_digest(g)}-{goal}-v{_CACHE_VERSION}"
    cache_path = Path(cache_dir) / f"h-{key}.pkl"
    try:
        with open(cache_path, "rb") as fh:
            table = pickle.load(fh)
    except Exception:  # missing (OSError) or corrupt: pickle may raise anything
        table = None
    if (
        isinstance(table, HeuristicTable)
        and table.goal == goal
        and len(table.h1) == len(table.h2) == g.vertex_count
    ):
        return table
    table = compute_heuristics(g, goal)
    try:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=cache_path.parent, prefix=cache_path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(table, fh)
            os.replace(tmp_name, cache_path)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError:
        pass  # an unwritable cache only costs the next call a recompute
    return table
