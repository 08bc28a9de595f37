"""Best-first bi-criteria search over single paths.

The engine keeps one OPEN entry per candidate path, ordered
lexicographically by (f1, f2) with FIFO tie-breaking, and prunes with two
O(1) tests against a per-vertex record of the smallest second-cost seen at
expansion: a path is dropped when its g2 is no better than that record at
its own vertex, or when its f2 cannot beat the record at the goal. Both
tests run at generation and again at extraction, which doubles as lazy
deletion of entries obsoleted while queued.

With zero slack this enumerates exactly the Pareto-optimal cost vectors.
A positive slack relaxes only the goal-bound test, multiplying f2 by
(1 + eps2) before comparing, so provably-covered paths are dropped early
and the returned set shrinks toward a single solution as the slack grows.
"""

from __future__ import annotations

import heapq

from .graph import BiGraph, CostVec
from .heuristics import UNREACHABLE, HeuristicTable, validate_query
from .pareto import (
    EXACT,
    ApproxFactor,
    PathArena,
    SearchResult,
    SearchStats,
)

_INF = float("inf")


def boa_search(
    g: BiGraph,
    h: HeuristicTable,
    start: int,
    goal: int,
    eps: ApproxFactor = EXACT,
) -> SearchResult:
    """Enumerate goal paths whose costs form an approximate Pareto frontier.

    ``h`` must be the heuristic table computed for ``goal``. Solutions are
    returned in discovery order, ascending in c1 and strictly descending
    in c2. An unreachable goal yields an empty result.
    """
    validate_query(g, h, start, goal)
    arena = PathArena()
    stats = SearchStats()
    result = SearchResult(arena=arena, solutions=[], stats=stats)
    h1, h2 = h.h1, h.h2
    if h1[start] == UNREACHABLE:
        return result
    eps2 = eps.eps2
    edges = g.edges
    g2min: list[float | int] = [_INF] * g.vertex_count

    root = arena.add(start, CostVec(0, 0), None)
    heap: list[tuple[int, int, int, int]] = [(h1[start], h2[start], 0, root)]
    seq = 1
    stats.n_generated = 1
    if __debug__:
        last_f1 = 0
        last_f2_at: dict[int, int] = {}

    while heap:
        f1, f2, _, idx = heapq.heappop(heap)
        u, (g1, g2), _parent = arena[idx]
        if g2 >= g2min[u] or f2 + eps2 * f2 >= g2min[goal]:
            continue
        stats.n_expanded += 1
        if __debug__:
            assert f1 >= last_f1, "extraction order broke f1 monotonicity"
            last_f1 = f1
            prev_f2 = last_f2_at.get(u)
            assert prev_f2 is None or f2 < prev_f2, (
                "expansions at a vertex broke strict f2 descent"
            )
            last_f2_at[u] = f2
        g2min[u] = g2
        if u == goal:
            result.solutions.append(idx)
            continue
        for target, cost in edges[u]:
            th1 = h1[target]
            if th1 == UNREACHABLE:
                continue
            ng2 = g2 + cost.c2
            nf2 = ng2 + h2[target]
            if ng2 >= g2min[target] or nf2 + eps2 * nf2 >= g2min[goal]:
                continue
            ng1 = g1 + cost.c1
            child = arena.add(target, CostVec(ng1, ng2), idx)
            heapq.heappush(heap, (ng1 + th1, nf2, seq, child))
            seq += 1
            stats.n_generated += 1
    return result

