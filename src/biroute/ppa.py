"""Best-first bi-criteria search over path pairs.

Instead of one OPEN entry per candidate path, this engine keeps one entry
per *path pair*: two same-vertex paths whose costs bracket a contiguous
slice of candidate frontier costs. A pair is only ever stored while its
spread stays within the per-criterion slack (eps1 on the first cost, eps2
on the second), so each of its two paths is a certified stand-in for
everything the pair brackets. Whenever a new pair lands at a vertex whose
bucket already holds a pair it can absorb within the slack, the two are
merged in place of being queued separately, which is what makes the OPEN
list and the returned solution set shrink as the slack grows.

Ordering is lexicographic by the pair's apex f-value: (f1 of the
top-left path, f2 of the bottom-right path), FIFO on ties. Pruning
mirrors the single-path engine with the bottom-right path standing in for
the pair: a pair is dropped when f2 of its bottom-right path, relaxed by
(1 + eps2), cannot beat the smallest second-cost expanded at the goal, or
when that path's g2 is no better than the record at the pair's vertex.

Inside the search loop a pair is one flat list record (layout below) that
sits directly in the heap and in its vertex bucket; it is the only place
the search keeps corner costs. Children are pruned before anything is
allocated, and a survivor appends one ``(vertex, parent)`` arena tuple
per distinct corner path. Buckets live in a per-search list indexed by
vertex, each an insertion-ordered dict keyed by seq, created when its
vertex gets its first pair. The child loop places each survivor itself:
into an empty bucket directly, otherwise after a first-fit scan that
absorbs the first resident the merge keeps within the slack. Goal pairs
need no scan: they pop in non-decreasing tl1, and a survivor of the
goal-bound prune has a relaxed br2 below every stored br2, so it neither
absorbs nor fits a stored pair. ``PathPair`` tuples are built once, for
the result.

Projection to returned paths: each stored solution pair contributes its
bottom-right path. The bottom-right cost is within the slack of every
cost its pair brackets, and pruning is justified against bottom-right
costs, so the bottom-right projection preserves the coverage guarantee at
exactly (eps1, eps2); the top-left projection can miss it by a compounded
factor when a pruned path is covered through a pair whose top-left sits
at the edge of its own spread. Because bottom-right costs of distinct
pairs can occasionally dominate one another, the projected set is reduced
to its non-dominated subset before being returned; dropping a dominated
member never weakens coverage.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush

from .graph import BiGraph, _cost
from .heuristics import UNREACHABLE, HeuristicTable, validate_query
from .pareto import EXACT, ApproxFactor, PathPair, SearchResult, pareto_filter

_INF = float("inf")
_pair = partial(tuple.__new__, PathPair)

# A pair record is the list
#   [f1, f2, seq, vertex, tl, br, tl1, tl2, br1, br2, live]
# with apex f-values first so the heap orders records by (f1, f2, seq);
# seq is unique, so comparison never reaches the later fields. tl and br
# are arena indices, (tl1, tl2) and (br1, br2) their costs. ``live`` turns
# False when a merge absorbs the record while it waits in the heap.
#
# A newcomer with corners (tl, br) fits a resident r when the merge, which
# keeps the smaller-c1 top-left and the smaller-c2 bottom-right (r's on
# ties), is within the slack. By which side supplies each merged corner:
#
# - r both: the merge is r, within the slack since r is stored;
# - the newcomer both: likewise;
# - r's tl, the newcomer's br: br1 <= r.tl1 + e1*r.tl1 and
#   r.tl2 <= br2 + e2*br2;
# - the newcomer's tl, r's br: r.br1 <= tl1 + e1*tl1 and
#   tl2 <= r.br2 + e2*r.br2.
#
# The newcomer's sides of the last two tests are computed once per scan,
# so most residents are rejected by one or two int comparisons.


def ppa_search(
    g: BiGraph,
    h: HeuristicTable,
    start: int,
    goal: int,
    eps: ApproxFactor = EXACT,
) -> SearchResult:
    """Compute an (eps1, eps2)-approximate Pareto frontier via path pairs.

    ``h`` must be the heuristic table computed for ``goal``. The result's
    ``pairs`` field keeps the stored solution pairs; ``solutions`` holds
    the projected paths described in the module docstring. With zero slack
    the returned costs are exactly the Pareto-optimal ones.
    """
    validate_query(g, h, start, goal)
    result = SearchResult()
    h1, h2 = h.h1, h.h2
    if h1[start] == UNREACHABLE:
        return result
    e1, e2 = eps.eps1 or 0, eps.eps2 or 0  # zero slack as int 0 stays exact
    edges = g.edges
    arena = result.arena
    append = arena.append
    g2min: list = [_INF] * g.vertex_count
    buckets: list = [None] * g.vertex_count
    solutions: list[list] = []

    append((start, None))
    rec = [h1[start], h2[start], 0, start, 0, 0, 0, 0, 0, 0, True]
    buckets[start] = {0: rec}
    heap = [rec]
    seq = 1
    n_expanded = n_merges = 0
    if __debug__:
        last_f1 = 0
        last_f2_at: dict[int, int] = {}

    while heap:
        rec = heappop(heap)
        if not rec[10]:
            continue
        f1, f2, key, u, tl, br, tl1, tl2, br1, br2, _ = rec
        del buckets[u][key]
        if br2 >= g2min[u] or f2 + e2 * f2 >= g2min[goal]:
            continue
        n_expanded += 1
        if __debug__:
            assert f1 >= last_f1, "extraction order broke apex f1 monotonicity"
            last_f1 = f1
            prev_f2 = last_f2_at.get(u)
            assert prev_f2 is None or f2 < prev_f2, (
                "expansions at a vertex broke strict apex f2 descent"
            )
            last_f2_at[u] = f2
        g2min[u] = br2
        if u == goal:
            solutions.append(rec)
            continue
        for target, (c1, c2) in edges[u]:
            th1 = h1[target]
            if th1 == UNREACHABLE:
                continue
            nbr2 = br2 + c2
            nf2 = nbr2 + h2[target]
            if nbr2 >= g2min[target] or nf2 + e2 * nf2 >= g2min[goal]:
                continue
            ntl1 = tl1 + c1
            ntl2 = tl2 + c2
            ntl = len(arena)
            append((target, tl))
            if tl == br:
                nbr, nbr1 = ntl, ntl1
            else:
                nbr, nbr1 = ntl + 1, br1 + c1
                append((target, br))
            if __debug__:
                assert nbr1 <= ntl1 + e1 * ntl1 and ntl2 <= nbr2 + e2 * nbr2, (
                    "attempted to store an out-of-slack pair"
                )
            nf1 = ntl1 + th1
            slots = buckets[target]
            if slots:
                cap1 = ntl1 + e1 * ntl1
                cap2 = nbr2 + e2 * nbr2
                for r in slots.values():
                    if r[6] <= ntl1:
                        if r[9] <= nbr2 or (r[7] <= cap2 and nbr1 <= r[6] + e1 * r[6]):
                            break
                    elif r[9] > nbr2 or (r[8] <= cap1 and ntl2 <= r[9] + e2 * r[9]):
                        break
                else:
                    r = None
                if r is not None:  # absorb r; the merge takes over r's better corners
                    r[10] = False
                    del slots[r[2]]
                    n_merges += 1
                    if r[6] <= ntl1:
                        nf1 -= ntl1 - r[6]
                        ntl, ntl1, ntl2 = r[4], r[6], r[7]
                    if r[9] <= nbr2:
                        nf2 -= nbr2 - r[9]
                        nbr, nbr1, nbr2 = r[5], r[8], r[9]
            elif slots is None:
                slots = buckets[target] = {}
            rec = [nf1, nf2, seq, target, ntl, nbr, ntl1, ntl2, nbr1, nbr2, True]
            slots[seq] = rec
            seq += 1
            heappush(heap, rec)

    result.stats.n_expanded = n_expanded
    result.stats.n_generated = seq  # one seq per generated pair, the root's included
    result.stats.n_merges = n_merges
    result.pairs = [
        _pair((goal, r[4], r[5], _cost((r[6], r[7])), _cost((r[8], r[9]))))
        for r in solutions
    ]
    kept_costs = set(pareto_filter(p.br_cost for p in result.pairs))
    for p in result.pairs:
        if p.br_cost in kept_costs:
            result.solutions.append(p.br)
            result.costs.append(p.br_cost)
            kept_costs.discard(p.br_cost)
    return result
