"""Shared fixtures: a small hand-checkable graph and on-disk .gr pairs.

Also the reference backward Dijkstra, ``_backward_dijkstra``, that
settles every vertex in one run; heuristic tables, complete or grown on
demand, must reproduce its distances.

Also the placement spec of the path-pair search: ``apex`` and
``is_bounded`` define a pair's best corner and its slack bound,
``_first_fit`` and ``_place`` state, one call per child, what the
engine's child loop does inline, and ``reference_ppa_search`` is the loop
built on them.

Also ``reference_boa_search``, the single-path loop, and
``reference_queries``, the instances both engines are held to their
reference loops on. Both reference loops test the goal bound as
``f2 * (den + num) >= g2min[goal] * den`` on eps2's exact ratio, where
the engines compare f2 with ``goal_cut``. Both also drain OPEN, where the
engines stop at their last solution, and the pair loop projects through
``pareto_filter``, where PP-A* makes one reverse pass; equal outputs check
both shortcuts.
"""

import heapq
import math
import random
from collections import defaultdict
from heapq import heappop, heappush

import pytest

from biroute import BiGraph, CostVec, bigraph_from_arcs, random_instance, write_gr_pair
from biroute.heuristics import UNREACHABLE, validate_query
from biroute.pareto import (
    EXACT,
    ApproxFactor,
    PathPair,
    SearchResult,
    approx_dominates,
    pareto_filter,
)

# Four-vertex diamond with a direct long arc.  Vertices: 0=s, 1=a, 2=b, 3=g.
# Arcs (u, v, c1, c2):
#   s->a (1,4), a->g (1,4)   cheap on c1, expensive on c2
#   s->b (4,1), b->g (4,1)   the mirror image
#   s->g (9,9)               dominated direct arc
# Exact frontier s->g is {(2,8), (8,2)}.
G1_ARCS = [
    (0, 1, 1, 4),
    (1, 3, 1, 4),
    (0, 2, 4, 1),
    (2, 3, 4, 1),
    (0, 3, 9, 9),
]


def _backward_dijkstra(g: BiGraph, goal: int, component: int) -> list[int]:
    """Exact distances to ``goal`` in cost component ``component`` (1 or 2).

    A vertex that cannot reach the goal reads UNREACHABLE.

    The heap holds one int per entry, ``d * n + v``, popped back with
    ``divmod(key, n)``. Since ``0 <= v < n``, int order on the keys is
    tuple order on ``(d, v)``, so vertices pop in the same order as with
    ``(d, v)`` tuples. Python ints are unbounded, so the key stays exact
    for any cost, above 2^53 and 2^63 included.
    """
    n = g.vertex_count
    dist: list[int | float] = [math.inf] * n
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
    return [UNREACHABLE if d == math.inf else d for d in dist]


def anticorrelated_grid(side, rng):
    """Both directions of every 4-neighbour arc, c1 in [1,100], c2 ~ 110 - c1."""
    arcs = []
    for r in range(side):
        for c in range(side):
            for rr, cc in ((r, c + 1), (r + 1, c), (r, c - 1), (r - 1, c)):
                if 0 <= rr < side and 0 <= cc < side:
                    c1 = rng.randint(1, 100)
                    c2 = max(1, 110 - c1 + rng.randint(-10, 10))
                    arcs.append((r * side + c, rr * side + cc, c1, c2))
    return bigraph_from_arcs(side * side, arcs)


# The slacks both engines are held to their reference loops at. Each runs
# at its decimal; the doubles of 0.01 and 0.3 lie above and below theirs.
REFERENCE_SLACKS = [(0, 0), (0.01, 0.01), (0.3, 0.3), (0.5, 0.5), (1, 1), (0, 0.5), (1, 0)]


def reference_queries():
    """(graph, start, goal) triples for the engines' differential tests.

    A 10x10 and a 20x20 grid, random instances at verify's default costs
    and at costs up to 10^6, and random instances shifted above 2^53.
    """
    queries = [(anticorrelated_grid(10, random.Random(2021)), 0, 99)]
    queries += [random_instance(seed) for seed in range(300)]
    queries += [random_instance(seed, cost_max=10**6) for seed in range(100)]
    b = 2**53
    for seed in range(50):
        g, s, t = random_instance(seed, n_max=50, out_degree_max=4, cost_max=10)
        arcs = [
            (u, v, c1 + b, c2 + b)
            for u in range(g.vertex_count)
            for v, (c1, c2) in g.edges[u]
        ]
        queries.append((bigraph_from_arcs(g.vertex_count, arcs), s, t))
    queries.append((anticorrelated_grid(20, random.Random(2021)), 0, 399))
    return queries


def reference_boa_search(g, h, start, goal, eps=EXACT):
    """``boa_search`` with the goal bound tested on eps2's ratio at every test.

    Same pops, prunes, arena writes and counters as the engine; ``h`` must
    be a complete table. The engine, which compares f2 with an integer cut,
    must match it in every counter, arena record, solution and cost.
    """
    result = SearchResult()
    if not validate_query(g, h, start, goal):
        return result
    h1, h2 = h.h1, h.h2
    num, den = eps.ratios[1]
    m = den + num
    edges = g.edges
    g2min = [float("inf")] * g.vertex_count
    arena = result.arena
    append = arena.append

    append((start, None))
    heap = [(h1[start], h2[start], 0, start, 0, 0)]
    seq = 1
    n_expanded = 0
    while heap:
        f1, f2, idx, u, g1, g2 = heappop(heap)
        if g2 >= g2min[u] or f2 * m >= g2min[goal] * den:
            continue
        n_expanded += 1
        g2min[u] = g2
        if u == goal:
            result.solutions.append(idx)
            result.costs.append(CostVec(g1, g2))
            continue
        for target, (c1, c2) in edges[u]:
            th1 = h1[target]
            if th1 == UNREACHABLE:
                continue
            ng2 = g2 + c2
            nf2 = ng2 + h2[target]
            if ng2 >= g2min[target] or nf2 * m >= g2min[goal] * den:
                continue
            ng1 = g1 + c1
            append((target, idx))
            heappush(heap, (ng1 + th1, nf2, seq, target, ng1, ng2))
            seq += 1

    result.stats.n_expanded = n_expanded
    result.stats.n_generated = seq
    return result


def pair_record(seq, tl_cost, br_cost, h=(0, 0)):
    """A pair record in the path-pair search loop's flat layout.

    ``h`` is the heuristic pair at the record's vertex (vertex 0). The arena
    indices are stand-ins: 2*seq for tl, 2*seq + 1 for br, or 2*seq for
    both when the corners coincide.
    """
    (tl1, tl2), (br1, br2) = tl_cost, br_cost
    br = 2 * seq if tuple(tl_cost) == tuple(br_cost) else 2 * seq + 1
    return [tl1 + h[0], br2 + h[1], seq, 0, 2 * seq, br, tl1, tl2, br1, br2, True]


def record_corners(rec):
    """The (tl, br) corner costs of a pair record."""
    return CostVec(rec[6], rec[7]), CostVec(rec[8], rec[9])


def apex(pp: PathPair) -> CostVec:
    """The componentwise-best corner spanned by the pair's two paths."""
    return CostVec(pp.tl_cost.c1, pp.br_cost.c2)


def is_bounded(pp: PathPair, eps: ApproxFactor) -> bool:
    """True iff the pair's spread stays within the per-criterion slack.

    Componentwise this requires c1(br) <= (1 + eps1) * c1(tl) and
    c2(tl) <= (1 + eps2) * c2(br), tested exactly by ``approx_dominates``:
    the pair's worst corner is within the slack of its apex. A zero
    reference component therefore admits only a zero counterpart.
    """
    return approx_dominates(CostVec(pp.br_cost.c1, pp.tl_cost.c2), apex(pp), eps)


def _first_fit(slots, tl1, tl2, br1, br2, eps):
    """The first record in ``slots`` whose merge with corners (tl, br) is bounded.

    The merge keeps the smaller-c1 top-left and the smaller-c2
    bottom-right, the resident's on ties, and fits when ``is_bounded``
    holds of the merged pair. Returns None when no resident fits. The
    merged pair has no arena indices; ``is_bounded`` reads only costs.
    """
    for r in slots:
        tl = CostVec(r[6], r[7]) if r[6] <= tl1 else CostVec(tl1, tl2)
        br = CostVec(r[8], r[9]) if r[9] <= br2 else CostVec(br1, br2)
        if is_bounded(PathPair(r[3], None, None, tl, br), eps):
            return r
    return None


def _place(slots: dict, rec: list, eps: ApproxFactor) -> bool:
    """Append ``rec`` to ``slots``, first absorbing the first resident it fits.

    The absorbed resident leaves ``slots`` and is marked dead; ``rec``
    takes over the merged corners, its f-values moving with them, and so
    lands at the end of ``slots`` under its own seq. At most one merge
    happens per call. Returns whether one did.
    """
    _, _, _, _, _, _, tl1, tl2, br1, br2, _ = rec
    if __debug__:
        assert is_bounded(PathPair(rec[3], rec[4], rec[5], *record_corners(rec)), eps), (
            "attempted to store an out-of-slack pair"
        )
    r = _first_fit(slots.values(), tl1, tl2, br1, br2, eps) if slots else None
    if r is not None:
        r[10] = False
        del slots[r[2]]
        if r[6] <= tl1:
            rec[0] -= tl1 - r[6]
            rec[4], rec[6], rec[7] = r[4], r[6], r[7]
        if r[9] <= br2:
            rec[1] -= br2 - r[9]
            rec[5], rec[8], rec[9] = r[5], r[8], r[9]
    slots[rec[2]] = rec
    return r is not None


def reference_ppa_search(g, h, start, goal, eps=EXACT):
    """``ppa_search`` with each child placed by one ``_place`` call.

    Same records, pops, prunes and arena writes as the engine; only the
    placement goes through the spec above. The engine must match it in
    every counter, arena record, stored pair and cost.
    """
    result = SearchResult()
    if not validate_query(g, h, start, goal):
        return result
    h1, h2 = h.h1, h.h2
    num, den = eps.ratios[1]
    m = den + num
    edges = g.edges
    arena = result.arena
    append = arena.append
    g2min = [float("inf")] * g.vertex_count
    buckets = defaultdict(dict)
    solutions = []

    append((start, None))
    rec = [h1[start], h2[start], 0, start, 0, 0, 0, 0, 0, 0, True]
    buckets[start][0] = rec
    heap = [rec]
    seq = 1
    n_expanded = n_merges = 0
    while heap:
        rec = heappop(heap)
        if not rec[10]:
            continue
        f1, f2, key, u, tl, br, tl1, tl2, br1, br2, _ = rec
        del buckets[u][key]
        if br2 >= g2min[u] or f2 * m >= g2min[goal] * den:
            continue
        n_expanded += 1
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
            if nbr2 >= g2min[target] or nf2 * m >= g2min[goal] * den:
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
            rec = [ntl1 + th1, nf2, seq, target, ntl, nbr, ntl1, ntl2, nbr1, nbr2, True]
            seq += 1
            n_merges += _place(buckets[target], rec, eps)
            heappush(heap, rec)

    result.stats.n_expanded = n_expanded
    result.stats.n_generated = seq
    result.stats.n_merges = n_merges
    result.pairs = [
        PathPair(goal, r[4], r[5], CostVec(r[6], r[7]), CostVec(r[8], r[9]))
        for r in solutions
    ]
    kept_costs = set(pareto_filter(p.br_cost for p in result.pairs))
    for p in result.pairs:
        if p.br_cost in kept_costs:
            result.solutions.append(p.br)
            result.costs.append(p.br_cost)
            kept_costs.discard(p.br_cost)
    return result


@pytest.fixture
def g1() -> BiGraph:
    return bigraph_from_arcs(4, G1_ARCS)


@pytest.fixture
def g1_files(g1, tmp_path):
    """G1 written out as a DIMACS .gr pair, returned as (path1, path2)."""
    p1 = tmp_path / "g1.c1.gr"
    p2 = tmp_path / "g1.c2.gr"
    write_gr_pair(g1, p1, p2)
    return p1, p2
