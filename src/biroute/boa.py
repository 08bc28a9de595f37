"""Best-first bi-criteria search over single paths.

The engine keeps one OPEN entry per candidate path, ordered
lexicographically by (f1, f2) with FIFO tie-breaking, and prunes with two
O(1) tests against a per-vertex record of the smallest second-cost seen at
expansion: a path is dropped when its g2 is no better than that record at
its own vertex, or when its f2 cannot beat the record at the goal. Both
tests run at generation and again at extraction, which doubles as lazy
deletion of entries obsoleted while queued.

With zero slack this enumerates exactly the Pareto-optimal cost vectors.
A positive slack relaxes only the goal-bound test: a path is dropped when
f2 * (1 + eps2) reaches the goal's record, so provably-covered paths are
dropped early and the returned set shrinks toward a single solution as
the slack grows. The record changes only when a goal path is expanded;
that expansion sets ``cut = goal_cut(g2, ratio)``, the least int f2 that
the relaxed test drops, exactly in integers from eps2's decimal as the
``(num, den)`` of ``ApproxFactor.ratios``, at any finite slack. Every
other goal-bound test is then one int compare, ``f2 >= cut``, and the
engine does no float slack arithmetic.

The search ends at the goal expansion that sets ``cut <= h2[start]``,
once that solution is recorded: by consistency every queued path has
``f2 = g2 + h2[v] >= h2[start]``, so each would fail the goal bound. At
any slack that expansion brings the last solution, which must cover the
least c2 of any goal path, ``h2[start]``. Popping the rest would change
no solution and no counter.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .graph import BiGraph, CostVec, _cost
from .heuristics import UNREACHABLE, HeuristicTable, validate_query
from .pareto import EXACT, ApproxFactor, SearchResult, SearchStats, goal_cut

_INF = float("inf")


def boa_search(
    g: BiGraph,
    h: HeuristicTable,
    start: int,
    goal: int,
    eps: ApproxFactor = EXACT,
) -> SearchResult:
    """Enumerate goal paths whose costs form an approximate Pareto frontier.

    ``h`` must be the heuristic table computed for ``goal``; a start that
    cannot reach it (``validate_query``) yields an empty result. Solutions
    come in discovery order, ascending in c1 and strictly descending in c2.
    """
    if not validate_query(g, h, start, goal):
        return SearchResult()
    h1, h2 = h.h1, h.h2
    floor2 = h2[start]  # the least c2 of any goal path; published by validate_query
    complete = h.complete  # a partial table settles the vertices it lacks
    ratio2 = eps.ratios[1]
    cut: float | int = _INF  # goal_cut of g2min[goal]
    edges = g.edges
    g2min: list[float | int] = [_INF] * g.vertex_count
    arena: list[tuple[int, int | None]] = []
    append = arena.append
    solutions: list[int] = []
    costs: list[CostVec] = []

    # An OPEN entry is (f1, f2, seq, vertex, g1, g2). Each generated path
    # gets the next seq and the next arena slot, so seq is its arena index.
    append((start, None))
    heap: list[tuple[int, int, int, int, int, int]] = [(h1[start], h2[start], 0, start, 0, 0)]
    seq = 1
    n_expanded = 0
    if __debug__:
        last_f1 = 0
        last_f2_at: list[float | int] = [_INF] * g.vertex_count

    while heap:
        f1, f2, idx, u, g1, g2 = heappop(heap)
        if g2 >= g2min[u] or f2 >= cut:
            continue
        n_expanded += 1
        if __debug__:
            assert f1 >= last_f1, "extraction order broke f1 monotonicity"
            last_f1 = f1
            assert f2 < last_f2_at[u], "expansions at a vertex broke strict f2 descent"
            last_f2_at[u] = f2
        g2min[u] = g2
        if u == goal:
            cut = goal_cut(g2, ratio2)
            solutions.append(idx)
            costs.append(_cost((g1, g2)))
            if cut <= floor2:  # every queued path fails the goal bound
                break
            continue
        for target, (c1, c2) in edges[u]:
            th1 = h1[target]
            if th1 == UNREACHABLE:
                if complete or not h.settle(target):
                    continue
                th1 = h1[target]
            ng2 = g2 + c2
            nf2 = ng2 + h2[target]
            if ng2 >= g2min[target] or nf2 >= cut:
                continue
            ng1 = g1 + c1
            append((target, idx))
            heappush(heap, (ng1 + th1, nf2, seq, target, ng1, ng2))
            seq += 1

    # One seq per generated path, the root's included.
    return SearchResult(arena, solutions, costs, SearchStats(n_expanded, seq))
