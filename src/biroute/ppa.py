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
As in the single-path engine, the goal test is one int compare with
``cut``, set by ``goal_cut`` from eps2's exact ratio at each goal
expansion. The merge tests below are exact in integers too: with
``(n, d)`` a criterion's slack as the exact ratio of its decimal
(``ApproxFactor.ratios``; 0.01 is ``(1, 100)``) and ``m = d + n``,
``x <= (1 + eps) * y`` is ``x * d <= y * m``, and for an int ``x`` it is
``x <= y * m // d``. Decimal slacks keep ``d`` small, so each product is a
small int.

Inside the search loop a pair is one flat tuple record (layout below)
that sits directly in the heap and in its vertex bucket; it is the only
place the search keeps corner costs. Children are pruned before anything
is allocated, and a survivor appends one ``(vertex, parent)`` arena tuple
per distinct corner path. Buckets live in a per-search list indexed by
vertex, each an insertion-ordered dict keyed by seq, created when its
vertex gets its first pair. A record is live exactly while it is in its
bucket: a merge deletes the absorbed record from the bucket, and a pop
whose key is no longer there is a stale heap entry.

The child loop places each survivor itself: into an empty bucket
directly, otherwise after a first-fit scan that absorbs the first
resident the merge keeps within the slack. Two per-vertex bounds let most
children skip that scan: ``tl1_hi[v]`` is at least, and ``br2_lo[v]`` at
most, the tl1 and br2 of every record in v's bucket. Both are set when a
record enters an empty bucket and widened by every later insert, with the
corners stored after any merge; a pop or merge never narrows them, which
keeps them bounds of a superset of the residents. A child finds no fit
when, with ``hi``/``lo`` its bucket's bounds and ``cap2 = nbr2 * m2 // d2``,

    hi <= ntl1 and lo > nbr2 and (lo > cap2 or nbr1 * d1 > hi * m1).

Soundness, by the fit cases listed at the record layout: every resident
has ``r.tl1 <= hi <= ntl1``, so the merge keeps r's tl and only two cases
remain. "r both" needs ``r.br2 <= nbr2``, ruled out by
``r.br2 >= lo > nbr2``. "r's tl, the child's br" needs both
``r.tl2 <= cap2`` and ``nbr1 * d1 <= r.tl1 * m1``. The first fails when
``lo > cap2``, as every stored record has ``r.tl2 >= r.br2 >= lo``. The
second fails when ``nbr1 * d1 > hi * m1``, as ``hi * m1 >= r.tl1 * m1``.
A child that may fit scans in insertion order exactly as before, so the
first fit, every merge and every counter are the same with or without
the bounds.

Goal pairs need no scan: they pop in non-decreasing tl1, and a survivor
of the goal-bound prune has ``br2 * (1 + eps2)`` below every stored br2,
so it neither absorbs nor fits a stored pair. ``PathPair`` tuples are
built once, for the result.

Projection to returned paths: each stored solution pair contributes its
bottom-right path. The bottom-right cost is within the slack of every
cost its pair brackets, and pruning is justified against bottom-right
costs, so the bottom-right projection preserves the coverage guarantee at
exactly (eps1, eps2); the top-left projection can miss it by a compounded
factor when a pruned path is covered through a pair whose top-left sits
at the edge of its own spread. Bottom-right costs of distinct pairs can
dominate one another, so the projection keeps only the non-dominated
ones; dropping a dominated member never weakens coverage. A goal pair is
expanded only when its br2 is below ``g2min[goal]``, the previous goal
pair's br2, so br2 strictly falls across the stored pairs, and a br cost
is dominated exactly when some later pair has a br1 no larger. One
reverse pass keeps each pair whose br1 is strictly below every later
pair's, and returns the kept ones in discovery order, hence ascending in
c1.

As in the single-path engine, the search ends at the goal expansion that
sets ``cut <= h2[start]``, once its pair is recorded: every queued pair's
apex f2 is at least ``h2[start]``, so each would fail the goal bound.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush

from .graph import BiGraph, _cost
from .heuristics import UNREACHABLE, HeuristicTable, validate_query
from .pareto import EXACT, ApproxFactor, PathPair, SearchResult, SearchStats, goal_cut

_INF = float("inf")
_pair = partial(tuple.__new__, PathPair)

# A pair record is the tuple
#   (f1, f2, seq, vertex, tl, br, tl1, tl2, br1, br2)
# with apex f-values first so the heap orders records by (f1, f2, seq);
# seq is unique, so comparison never reaches the later fields. tl and br
# are arena indices, (tl1, tl2) and (br1, br2) their costs; every stored
# record has tl1 <= br1 and tl2 >= br2. A record is live while its
# vertex's bucket still holds it under its seq.
#
# A newcomer with corners (tl, br) fits a resident r when the merge, which
# keeps the smaller-c1 top-left and the smaller-c2 bottom-right (r's on
# ties), is within the slack. By which side supplies each merged corner:
#
# - r both: the merge is r, within the slack since r is stored;
# - the newcomer both: likewise;
# - r's tl, the newcomer's br: br1 * d1 <= r.tl1 * m1 and
#   r.tl2 <= br2 * m2 // d2;
# - the newcomer's tl, r's br: r.br1 <= tl1 * m1 // d1 and
#   tl2 * d2 <= r.br2 * m2.
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

    ``h`` must be the heuristic table computed for ``goal``; a start that
    cannot reach it (``validate_query``) yields an empty result. ``pairs``
    keeps the stored solution pairs, ``solutions`` the projected paths of
    the module docstring. Zero slack returns exactly the Pareto-optimal costs.
    """
    if not validate_query(g, h, start, goal):
        return SearchResult()
    h1, h2 = h.h1, h.h2
    floor2 = h2[start]  # the least c2 of any goal path; published by validate_query
    complete = h.complete  # a partial table settles the vertices it lacks
    (n1, d1), ratio2 = eps.ratios
    n2, d2 = ratio2
    m1, m2 = d1 + n1, d2 + n2
    cut: float | int = _INF  # goal_cut of g2min[goal]
    edges = g.edges
    arena: list[tuple[int, int | None]] = []
    append = arena.append
    n = g.vertex_count
    g2min: list = [_INF] * n
    buckets: list = [None] * n
    tl1_hi: list = [0] * n  # bucket bounds; the root's (0, 0) is already in
    br2_lo: list = [0] * n
    goal_recs: list[tuple] = []

    append((start, None))
    rec = (h1[start], h2[start], 0, start, 0, 0, 0, 0, 0, 0)
    buckets[start] = {0: rec}
    heap = [rec]
    seq = 1
    n_expanded = n_merges = 0
    if __debug__:
        last_f1 = 0
        last_f2_at: list = [_INF] * n

    while heap:
        rec = heappop(heap)
        f1, f2, key, u, tl, br, tl1, tl2, br1, br2 = rec
        if buckets[u].pop(key, None) is None:
            continue
        if br2 >= g2min[u] or f2 >= cut:
            continue
        n_expanded += 1
        if __debug__:
            assert f1 >= last_f1, "extraction order broke apex f1 monotonicity"
            last_f1 = f1
            assert f2 < last_f2_at[u], "expansions at a vertex broke strict apex f2 descent"
            last_f2_at[u] = f2
        g2min[u] = br2
        if u == goal:
            cut = goal_cut(br2, ratio2)
            goal_recs.append(rec)
            if cut <= floor2:  # every queued pair fails the goal bound
                break
            continue
        for target, (c1, c2) in edges[u]:
            th1 = h1[target]
            if th1 == UNREACHABLE:
                if complete or not h.settle(target):
                    continue
                th1 = h1[target]
            nbr2 = br2 + c2
            nf2 = nbr2 + h2[target]
            if nbr2 >= g2min[target] or nf2 >= cut:
                continue
            ntl1 = tl1 + c1
            ntl = len(arena)
            append((target, tl))
            if tl == br:  # one path: both corners are the child's
                nbr, nbr1, ntl2 = ntl, ntl1, nbr2
            else:
                nbr, nbr1, ntl2 = ntl + 1, br1 + c1, tl2 + c2
                append((target, br))
                if __debug__:
                    assert nbr1 * d1 <= ntl1 * m1 and ntl2 * d2 <= nbr2 * m2, (
                        "attempted to store an out-of-slack pair"
                    )
            nf1 = ntl1 + th1
            slots = buckets[target]
            if not slots:
                if slots is None:
                    slots = buckets[target] = {}
                tl1_hi[target] = ntl1
                br2_lo[target] = nbr2
            else:
                hi = tl1_hi[target]
                lo = br2_lo[target]
                cap2 = nbr2 * m2 // d2
                if hi <= ntl1 and lo > nbr2 and (lo > cap2 or nbr1 * d1 > hi * m1):
                    # No resident fits (module docstring); the child widens both bounds.
                    tl1_hi[target] = ntl1
                    br2_lo[target] = nbr2
                else:
                    x1 = nbr1 * d1
                    cap1 = ntl1 * m1 // d1
                    x2 = ntl2 * d2
                    for r in slots.values():
                        if r[6] <= ntl1:
                            if r[9] <= nbr2 or (r[7] <= cap2 and x1 <= r[6] * m1):
                                break
                        elif r[9] > nbr2 or (r[8] <= cap1 and x2 <= r[9] * m2):
                            break
                    else:
                        r = None
                    if r is not None:  # absorb r; the merge takes over r's better corners
                        del slots[r[2]]
                        n_merges += 1
                        if r[6] <= ntl1:
                            nf1 -= ntl1 - r[6]
                            ntl, ntl1, ntl2 = r[4], r[6], r[7]
                        if r[9] <= nbr2:
                            nf2 -= nbr2 - r[9]
                            nbr, nbr1, nbr2 = r[5], r[8], r[9]
                    if ntl1 > hi:
                        tl1_hi[target] = ntl1
                    if nbr2 < lo:
                        br2_lo[target] = nbr2
            rec = (nf1, nf2, seq, target, ntl, nbr, ntl1, ntl2, nbr1, nbr2)
            slots[seq] = rec
            seq += 1
            heappush(heap, rec)

    pairs = [
        _pair((goal, r[4], r[5], _cost((r[6], r[7])), _cost((r[8], r[9]))))
        for r in goal_recs
    ]
    kept: list[PathPair] = []
    least1: float | int = _INF  # the least br1 of the pairs after p
    for p in reversed(pairs):
        if p.br_cost.c1 < least1:
            least1 = p.br_cost.c1
            kept.append(p)
    kept.reverse()
    return SearchResult(
        arena,
        [p.br for p in kept],
        [p.br_cost for p in kept],
        # One seq per generated pair, the root's included.
        SearchStats(n_expanded, seq, n_merges),
        pairs,
    )
