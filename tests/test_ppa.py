"""Path-pair search: queue mechanics, merging, and output soundness."""

import hashlib
import heapq
import random

import pytest

import biroute.ppa as ppa_module
from biroute import (
    EXACT,
    ApproxFactor,
    CostVec,
    bigraph_from_arcs,
    boa_search,
    check_approx_frontier,
    compute_heuristics,
    exact_frontier,
    ppa_search,
    random_instance,
)
from biroute.oracle import FrontierSet
from biroute.pareto import approx_dominates
from conftest import (
    G1_ARCS,
    REFERENCE_SLACKS,
    _first_fit,
    _place,
    anticorrelated_grid,
    is_bounded,
    pair_record,
    record_corners,
    reference_ppa_search,
    reference_queries,
)


def h_for(g, goal):
    return compute_heuristics(g, goal)


class TestHandGraph:
    def test_exact_frontier_and_degenerate_pairs(self, g1):
        res = ppa_search(g1, h_for(g1, 3), 0, 3)
        assert res.solution_costs() == [CostVec(2, 8), CostVec(8, 2)]
        # With zero slack every surviving pair has tl cost == br cost.
        for pp in res.pairs:
            assert pp.tl_cost == pp.br_cost

    def test_relaxed_run_merges_goal_pairs(self, g1):
        res = ppa_search(g1, h_for(g1, 3), 0, 3, ApproxFactor(3, 3))
        assert res.solution_costs() == [CostVec(2, 8)]
        # The direct (9,9) route sits in the goal bucket when the cheaper
        # (2,8) route arrives and absorbs it; the mirror route is pruned
        # against the goal record afterwards.
        assert len(res.pairs) == 1
        assert res.pairs[0].tl_cost == CostVec(2, 8)
        assert res.pairs[0].br_cost == CostVec(2, 8)
        assert res.stats.n_merges >= 1

    def test_relaxed_run_stats(self, g1):
        res = ppa_search(g1, h_for(g1, 3), 0, 3, ApproxFactor(3, 3))
        assert res.stats.n_expanded == 3
        assert res.stats.n_generated == 5
        assert res.stats.n_merges == 1

    def test_solution_paths(self, g1):
        res = ppa_search(g1, h_for(g1, 3), 0, 3)
        assert res.solution_vertices(0) == [0, 1, 3]
        assert res.solution_vertices(1) == [0, 2, 3]


class TestPruning:
    def test_goal_bound_respects_slack(self):
        # Parallel arcs (2,8) and (8,2). With eps1 = 0 they never merge;
        # once (2,8) reaches the goal, (8,2) has f2 = 2, and slack 3 on the
        # second cost relaxes that to 8 >= 8, so it is pruned.
        g = bigraph_from_arcs(2, [(0, 1, 2, 8), (0, 1, 8, 2)])
        h = h_for(g, 1)
        relaxed = ppa_search(g, h, 0, 1, ApproxFactor(0, 3))
        assert relaxed.solution_costs() == [CostVec(2, 8)]
        assert relaxed.stats.n_expanded == 2
        exact = ppa_search(g, h, 0, 1, EXACT)
        assert exact.solution_costs() == [CostVec(2, 8), CostVec(8, 2)]
        assert exact.stats.n_expanded == 3

    def test_no_bounds_means_no_pruning(self):
        # Along a chain nothing is ever recorded ahead of a pair, so every
        # generated pair is expanded.
        g = bigraph_from_arcs(4, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 2, 8)])
        res = ppa_search(g, h_for(g, 3), 0, 3)
        assert res.stats.n_expanded == res.stats.n_generated == 4

    def test_per_vertex_bound_is_non_strict(self):
        # With a detour 0->2->1 of c2 = 1 + 4, vertex 1 is expanded at
        # g2 = 5 before the detour's child reaches it at g2 = 5, which is
        # pruned. A detour of c2 = 1 + 3 arrives at g2 = 4 and is kept.
        def run(detour_c2):
            g = bigraph_from_arcs(
                4, [(0, 1, 3, 5), (0, 2, 1, 1), (2, 1, 2, detour_c2), (1, 3, 1, 1)]
            )
            return ppa_search(g, h_for(g, 3), 0, 3).stats

        equal = run(4)
        assert (equal.n_expanded, equal.n_generated) == (4, 4)
        better = run(3)
        assert better.n_generated > 4


SLACK_ONE = ApproxFactor.uniform(1.0)


class TestQueueAndMerging:
    def test_insert_into_empty_bucket(self):
        slots = {}
        rec = pair_record(1, (2, 2), (2, 2))
        assert not _place(slots, rec, EXACT)
        assert list(slots.values()) == [rec]

    def test_mergeable_insert_keeps_bucket_size(self):
        slots = {}
        resident = pair_record(1, (4, 9), (4, 9), h=(10, 20))
        newcomer = pair_record(2, (6, 5), (6, 5), h=(10, 20))
        assert not _place(slots, resident, SLACK_ONE)
        # (4,9) and (6,5) merge into tl (4,9), br (6,5): bounded at slack 1.
        assert _place(slots, newcomer, SLACK_ONE)
        assert list(slots.values()) == [newcomer]
        assert not resident[10]
        assert record_corners(newcomer) == (CostVec(4, 9), CostVec(6, 5))
        # The apex f-values move with the corners.
        assert newcomer[:2] == [14, 25]

    def test_unmergeable_insert_grows_bucket(self):
        slots = {}
        assert not _place(slots, pair_record(1, (2, 9), (2, 9)), EXACT)
        assert not _place(slots, pair_record(2, (9, 2), (9, 2)), EXACT)
        assert list(slots) == [1, 2]

    def test_first_fit_stops_at_first_bounded_merge(self):
        slots = {}
        # Both residents could absorb the incoming pair; only the first
        # (in insertion order) does.
        _place(slots, pair_record(1, (10, 12), (10, 12)), SLACK_ONE)
        _place(slots, pair_record(2, (30, 11), (30, 11)), SLACK_ONE)
        assert _first_fit(slots.values(), 11, 11, 11, 11, SLACK_ONE) is slots[1]
        assert _place(slots, pair_record(3, (11, 11), (11, 11)), SLACK_ONE)
        # The merged pair leaves the first resident's slot for the end.
        assert list(slots) == [2, 3]
        assert record_corners(slots[3]) == (CostVec(10, 12), CostVec(11, 11))
        assert record_corners(slots[2]) == (CostVec(30, 11), CostVec(30, 11))

    def test_merge_into_solutions_replaces_in_place(self):
        # The goal's solution list is placed into the same way.
        sols = {}
        _place(sols, pair_record(1, (4, 9), (4, 9)), SLACK_ONE)
        assert _place(sols, pair_record(2, (6, 5), (6, 5)), SLACK_ONE)
        (only,) = sols.values()
        assert record_corners(only) == (CostVec(4, 9), CostVec(6, 5))

    def test_merge_into_solutions_appends_when_unbounded(self):
        sols = {}
        _place(sols, pair_record(1, (2, 9), (2, 9)), EXACT)
        assert not _place(sols, pair_record(2, (9, 2), (9, 2)), EXACT)
        assert len(sols) == 2

    @pytest.mark.parametrize(
        "first, second, eps, fits",
        [
            # Resident tl, newcomer br: 5 <= (1 + 0)*5 and 6 <= (1 + 0.5)*4.
            ((5, 6), (5, 4), (0.0, 0.5), True),
            ((5, 7), (5, 4), (0.0, 0.5), False),
            # Newcomer tl, resident br: 10 <= (1 + 1)*5 and 8 <= (1 + 1)*4.
            ((10, 4), (5, 8), (1.0, 1.0), True),
            ((11, 4), (5, 8), (1.0, 1.0), False),
        ],
        ids=["resident-tl-at", "resident-tl-past", "newcomer-tl-at", "newcomer-tl-past"],
    )
    def test_engine_merge_boundary_is_inclusive(self, first, second, eps, fits):
        # Two parallel arcs into vertex 1: the second child meets the
        # first in its bucket, at or just past the slack bound.
        g = bigraph_from_arcs(3, [(0, 1, *first), (0, 1, *second), (1, 2, 0, 0)])
        res = ppa_search(g, h_for(g, 2), 0, 2, ApproxFactor(*eps))
        assert res.stats.n_merges == fits

    def test_pop_orders_by_apex_f(self):
        heap = []
        for rec in (
            pair_record(1, (5, 1), (5, 1)),
            pair_record(2, (1, 5), (1, 5)),
            pair_record(3, (1, 5), (1, 5)),
        ):
            heapq.heappush(heap, rec)
        # Lexicographic by (f1, f2), FIFO by seq on ties.
        assert [heapq.heappop(heap)[2] for _ in range(3)] == [2, 3, 1]


class TestAnticorrelatedGrid:
    """Corner-to-corner on a seeded 10x10 grid with wide frontiers.

    The pinned cost sets and counters move with any change to merge
    order, pruning or tie-breaking.
    """

    @pytest.fixture(scope="class")
    def instance(self):
        g = anticorrelated_grid(10, random.Random(2021))
        return g, compute_heuristics(g, 99)

    @pytest.mark.parametrize(
        "eps, n_costs, costs_digest, counters, n_arena, pairs_digest",
        [
            (0.0, 93, "46b5b9afef92e7c7", (2209, 3103, 547), 3103, "9f332ce4bbcf4bef"),
            (0.01, 46, "d1492250e2637762", (1847, 2681, 588), 3034, "136bd42b92e19a6a"),
            (0.1, 8, "a80856327158cb67", (785, 1238, 389), 2007, "edd0b29016ae0704"),
        ],
        ids=["eps-0", "eps-0.01", "eps-0.1"],
    )
    def test_pinned_outputs_and_counters(
        self, instance, eps, n_costs, costs_digest, counters, n_arena, pairs_digest
    ):
        g, h = instance
        res = ppa_search(g, h, 0, 99, ApproxFactor.uniform(eps))
        costs = sorted(res.solution_costs())
        digest = hashlib.sha256(repr([tuple(c) for c in costs]).encode()).hexdigest()
        assert (len(costs), digest[:16]) == (n_costs, costs_digest)
        stats = res.stats
        assert (stats.n_expanded, stats.n_generated, stats.n_merges) == counters
        # Which pairs merged, in which order, shows in the arena's length and
        # in the stored pairs' corner indices and costs.
        flat = [(p.vertex, p.tl, p.br, *p.tl_cost, *p.br_cost) for p in res.pairs]
        pairs_hex = hashlib.sha256(repr(flat).encode()).hexdigest()
        assert (len(res.arena), pairs_hex[:16]) == (n_arena, pairs_digest)
        # Arena records are written only for pairs that survive pruning.
        assert len(res.arena) <= 2 * stats.n_generated
        if eps == 0.0:
            assert res.solution_costs() == boa_search(g, h, 0, 99).solution_costs()
            assert len(res.arena) == stats.n_generated


class TestReferenceLoop:
    """The engine's inline placement against one ``_place`` call per child."""

    @staticmethod
    def outputs(res):
        stats = res.stats
        counters = (stats.n_expanded, stats.n_generated, stats.n_merges)
        return counters, res.arena, res.pairs, res.solutions, res.costs

    @pytest.mark.parametrize("eps", REFERENCE_SLACKS, ids=lambda e: f"{e[0]}-{e[1]}")
    def test_matches_reference_loop(self, eps):
        # Wide costs, costs above 2^53 and a large grid are among the
        # queries: the engine skips a bucket's scan on bounds the reference
        # loop does not keep, and tests its goal bound against an int cut.
        eps = ApproxFactor(*eps)
        n_merges = 0
        for g, s, t in reference_queries():
            h = h_for(g, t)
            got = ppa_search(g, h, s, t, eps)
            assert self.outputs(got) == self.outputs(reference_ppa_search(g, h, s, t, eps))
            n_merges += got.stats.n_merges
        assert n_merges > 0

    def test_stops_at_the_c2_optimal_solution(self, monkeypatch):
        # G1 plus s->c->g at (10, 3) per arc. When the c2-optimal (8, 2) is
        # expanded, the pair through c and a stale entry of the (9, 9) arc's
        # pair, absorbed at the goal, are still queued; its cut is h2[s] = 2.
        g = bigraph_from_arcs(5, G1_ARCS + [(0, 4, 10, 3), (4, 3, 10, 3)])
        heaps = []

        def counting_pop(heap):
            heaps.append(heap)
            return heapq.heappop(heap)

        monkeypatch.setattr(ppa_module, "heappop", counting_pop)
        h = h_for(g, 3)
        got = ppa_search(g, h, 0, 3)
        assert got.costs == [CostVec(2, 8), CostVec(8, 2)]
        assert len(heaps) == 5 and len(heaps[-1]) == 2
        assert self.outputs(got) == self.outputs(reference_ppa_search(g, h, 0, 3))


class TestEdgeCases:
    def test_start_equals_goal(self, g1):
        res = ppa_search(g1, h_for(g1, 3), 3, 3)
        assert res.solution_costs() == [CostVec(0, 0)]

    def test_unreachable_goal(self):
        g = bigraph_from_arcs(3, [(1, 0, 1, 1)])
        res = ppa_search(g, h_for(g, 2), 0, 2)
        assert res.solution_costs() == []
        assert res.pairs == []

    def test_zero_cost_cycle_terminates(self):
        g = bigraph_from_arcs(2, [(0, 0, 0, 0), (0, 1, 1, 1)])
        res = ppa_search(g, h_for(g, 1), 0, 1)
        assert res.solution_costs() == [CostVec(1, 1)]

    def test_endpoint_validation(self, g1):
        with pytest.raises(ValueError):
            ppa_search(g1, h_for(g1, 3), 0, 2)

    def test_one_path_child_above_2_53_at_tiny_slack(self):
        # float(2^53 + 1) is 2^53, so a float check x <= x + e*x fails for
        # x = 2^53 + 1 at slack 1e-20. A one-path child has no spread to
        # check and must not trip the out-of-slack assertion.
        b = 2**53
        g = bigraph_from_arcs(3, [(0, 1, b + 1, 1), (1, 2, 2, 1)])
        res = ppa_search(g, h_for(g, 2), 0, 2, ApproxFactor.uniform(1e-20))
        assert res.solution_costs() == [CostVec(b + 3, 2)]
        assert res.solution_vertices(0) == [0, 1, 2]


    def test_merge_test_is_exact_below_a_decimal_slack(self):
        # x is one unit past 3/10 above y. Doubles are 2 apart there, and
        # float(x) rounds to 1.3e16, which is also 10^16 * 1.3 in doubles,
        # so a merge test in doubles takes the two arcs as within slack 0.3.
        # Exactly they are not: they must not merge, and both costs are
        # returned.
        y, x = 10**16, 13 * 10**15 + 1
        g = bigraph_from_arcs(2, [(0, 1, y, x), (0, 1, x, y)])
        eps = ApproxFactor.uniform(0.3)
        res = ppa_search(g, h_for(g, 1), 0, 1, eps)
        assert res.solution_costs() == [CostVec(y, x), CostVec(x, y)]
        assert res.stats.n_merges == 0
        assert check_approx_frontier(res.costs, exact_frontier(g, 0, 1), eps).ok

    def test_costs_exactly_a_decimal_slack_apart_merge(self):
        # 13 is exactly 3/10 above 10, so at slack 0.3 the second arc fits
        # the first. The merged pair's bottom-right (13, 10) covers (10, 13),
        # and BOA*-eps's goal cut drops (13, 10) as covered by (10, 13).
        g = bigraph_from_arcs(2, [(0, 1, 10, 13), (0, 1, 13, 10)])
        eps = ApproxFactor.uniform(0.3)
        res = ppa_search(g, h_for(g, 1), 0, 1, eps)
        assert res.stats.n_merges == 1
        assert res.solution_costs() == [CostVec(13, 10)]
        assert check_approx_frontier(res.costs, exact_frontier(g, 0, 1), eps).ok
        assert boa_search(g, h_for(g, 1), 0, 1, eps).costs == [CostVec(10, 13)]

    def test_merge_test_is_exact_above_2_53_at_tiny_slack(self):
        # float(2^53 + 3) is 2^53 + 4, so a float merge test takes the two
        # arcs as within slack 1e-20 of each other; exactly they are not.
        b = 2**53
        g = bigraph_from_arcs(2, [(0, 1, b + 3, b + 4), (0, 1, b + 4, b + 3)])
        eps = ApproxFactor.uniform(1e-20)
        costs = ppa_search(g, h_for(g, 1), 0, 1, eps).solution_costs()
        assert costs == [CostVec(b + 3, b + 4), CostVec(b + 4, b + 3)]
        assert check_approx_frontier(costs, exact_frontier(g, 0, 1), eps).ok


class TestProjectionAdversaries:
    """Two tiny graphs where the choice of returned path per pair matters."""

    def test_tl_projection_would_undercover(self):
        # Parallel arcs (5,22), (10,12), (10,10) at slack (1,1): the search
        # stores one goal pair tl=(5,22), br=(10,12) and prunes (10,10).
        # The tl cost alone cannot cover the frontier member (10,10) at
        # slack 1 on the second axis (22 > 2*10); the br cost can.
        g = bigraph_from_arcs(2, [(0, 1, 5, 22), (0, 1, 10, 12), (0, 1, 10, 10)])
        eps = ApproxFactor(1, 1)
        res = ppa_search(g, h_for(g, 1), 0, 1, eps)
        assert [(p.tl_cost, p.br_cost) for p in res.pairs] == [
            (CostVec(5, 22), CostVec(10, 12))
        ]
        exact = exact_frontier(g, 0, 1)
        assert CostVec(10, 10) in exact
        tl_covers = all(
            approx_dominates(res.pairs[0].tl_cost, c, eps) for c in exact
        )
        assert not tl_covers
        report = check_approx_frontier(res.solution_costs(), exact, eps)
        assert report.ok

    def test_raw_br_costs_would_self_dominate(self):
        # Parallel arcs (10,46), (20,24), (11,20), (12,10) at slack (1,1):
        # two goal pairs survive with br costs (20,24) and (12,10), and
        # (12,10) dominates (20,24).  The returned set must not contain
        # a member dominated by another member, so (20,24) is dropped.
        # With (12,24) in place of (20,24) the two br costs tie on c1, and
        # the later, smaller c2 still dominates: the projection must keep a
        # pair only when its br1 is strictly below every later pair's.
        eps = ApproxFactor(1, 1)
        for first_br in (CostVec(20, 24), CostVec(12, 24)):
            g = bigraph_from_arcs(
                2, [(0, 1, 10, 46), (0, 1, *first_br), (0, 1, 11, 20), (0, 1, 12, 10)]
            )
            res = ppa_search(g, h_for(g, 1), 0, 1, eps)
            assert [p.br_cost for p in res.pairs] == [first_br, CostVec(12, 10)]
            assert res.solution_costs() == [CostVec(12, 10)]
            report = check_approx_frontier(
                res.solution_costs(), exact_frontier(g, 0, 1), eps
            )
            assert report.ok

    def test_returned_costs_are_br_projections(self, g1):
        res = ppa_search(g1, h_for(g1, 3), 0, 3, ApproxFactor(3, 3))
        returned = set(res.solution_costs())
        assert returned <= {p.br_cost for p in res.pairs}


class TestRandomInstances:
    def test_exact_matches_oracle_and_boa(self):
        for seed in range(60):
            g, s, t = random_instance(seed, n_max=25)
            h = h_for(g, t)
            got = ppa_search(g, h, s, t).solution_costs()
            assert got == boa_search(g, h, s, t).solution_costs()
            assert got == list(exact_frontier(g, s, t))

    def test_relaxed_output_covers_and_stays_clean(self):
        rng = random.Random(5)
        for _ in range(40):
            seed = rng.randrange(10_000)
            eps = ApproxFactor(
                rng.choice([0.0, 0.05, 0.5, 1.0]), rng.choice([0.0, 0.05, 0.5, 1.0])
            )
            g, s, t = random_instance(seed, n_max=60, out_degree_max=5, cost_max=60)
            res = ppa_search(g, h_for(g, t), s, t, eps)
            exact = exact_frontier(g, s, t)
            report = check_approx_frontier(res.solution_costs(), exact, eps)
            assert report.ok, report

    def test_every_stored_pair_is_bounded(self):
        eps = ApproxFactor(0.25, 0.25)
        for seed in range(30):
            g, s, t = random_instance(seed, n_max=40, cost_max=30)
            res = ppa_search(g, h_for(g, t), s, t, eps)
            for pp in res.pairs:
                assert is_bounded(pp, eps)

    def test_frontier_set_helper(self):
        fs = FrontierSet.from_costs([CostVec(2, 8), CostVec(9, 9), CostVec(8, 2)])
        assert list(fs) == [CostVec(2, 8), CostVec(8, 2)]
        assert CostVec(2, 8) in fs and CostVec(9, 9) not in fs
