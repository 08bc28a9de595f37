"""Lexicographic bi-objective A*: exact frontiers and the relaxed variant."""

import random
from heapq import heappop

import pytest

import biroute.boa as boa_module
from biroute import (
    EXACT,
    ApproxFactor,
    CostVec,
    approx_dominates,
    bigraph_from_arcs,
    boa_search,
    compute_heuristics,
    exact_frontier,
    random_instance,
)
from conftest import G1_ARCS, REFERENCE_SLACKS, reference_boa_search, reference_queries


class TestHandGraph:
    def test_exact_frontier(self, g1):
        h = compute_heuristics(g1, 3)
        res = boa_search(g1, h, 0, 3)
        assert res.solution_costs() == [CostVec(2, 8), CostVec(8, 2)]

    def test_exact_stats(self, g1):
        h = compute_heuristics(g1, 3)
        res = boa_search(g1, h, 0, 3)
        # Expands s, a, b, and both goal hits; the direct (9,9) arc is
        # generated but pruned at extraction.
        assert res.stats.n_expanded == 5
        assert res.stats.n_generated == 6
        assert res.stats.n_merges == 0

    def test_relaxed_collapses_to_one(self, g1):
        h = compute_heuristics(g1, 3)
        res = boa_search(g1, h, 0, 3, ApproxFactor(3, 3))
        assert res.solution_costs() == [CostVec(2, 8)]

    def test_solution_paths(self, g1):
        h = compute_heuristics(g1, 3)
        res = boa_search(g1, h, 0, 3)
        assert res.solution_vertices(0) == [0, 1, 3]
        assert res.solution_vertices(1) == [0, 2, 3]


class TestEdgeCases:
    def test_start_equals_goal(self, g1):
        h = compute_heuristics(g1, 3)
        res = boa_search(g1, h, 3, 3)
        assert res.solution_costs() == [CostVec(0, 0)]
        assert res.solution_vertices(0) == [3]

    def test_unreachable_goal(self):
        g = bigraph_from_arcs(3, [(1, 0, 1, 1)])
        h = compute_heuristics(g, 2)
        res = boa_search(g, h, 0, 2)
        assert res.solution_costs() == []
        assert res.stats.n_expanded == 0

    def test_zero_cost_cycle_terminates(self):
        g = bigraph_from_arcs(2, [(0, 0, 0, 0), (0, 1, 1, 1)])
        h = compute_heuristics(g, 1)
        res = boa_search(g, h, 0, 1)
        assert res.solution_costs() == [CostVec(1, 1)]

    def test_endpoint_validation(self, g1):
        h = compute_heuristics(g1, 3)
        with pytest.raises(ValueError):
            boa_search(g1, h, 0, 2)  # table was built for goal 3
        with pytest.raises(ValueError):
            boa_search(g1, h, 4, 3)

    def test_mismatched_table_size(self, g1):
        other = bigraph_from_arcs(3, [(0, 2, 1, 1)])
        h = compute_heuristics(other, 2)
        with pytest.raises(ValueError):
            boa_search(g1, h, 0, 2)


class TestRandomInstances:
    def test_matches_oracle_and_is_sorted(self):
        for seed in range(60):
            g, s, t = random_instance(seed, n_max=25)
            h = compute_heuristics(g, t)
            res = boa_search(g, h, s, t)
            got = res.solution_costs()
            assert got == sorted(got)
            assert got == list(exact_frontier(g, s, t))

    def test_relaxed_output_covers_and_stays_clean(self):
        rng = random.Random(9)
        for _ in range(40):
            seed = rng.randrange(10_000)
            eps = ApproxFactor(0, rng.choice([0.01, 0.1, 0.5, 1.0]))
            g, s, t = random_instance(seed)
            h = compute_heuristics(g, t)
            got = boa_search(g, h, s, t, eps).solution_costs()
            exact = list(exact_frontier(g, s, t))
            for c in exact:
                assert any(approx_dominates(p, c, eps) for p in got)
            for p in got:
                for q in got:
                    if p is not q:
                        assert not (p[0] <= q[0] and p[1] <= q[1])

    def test_relaxation_never_grows_the_answer(self):
        for seed in range(40):
            g, s, t = random_instance(seed)
            h = compute_heuristics(g, t)
            exact_n = len(boa_search(g, h, s, t).solution_costs())
            loose_n = len(
                boa_search(g, h, s, t, ApproxFactor(0, 0.5)).solution_costs()
            )
            assert loose_n <= exact_n

    def test_first_criterion_unaffected_by_relaxation(self):
        # The slack applies to the second criterion only, so the cheapest
        # c1 value must survive any relaxation untouched.
        for seed in range(40):
            g, s, t = random_instance(seed)
            h = compute_heuristics(g, t)
            exact = boa_search(g, h, s, t).solution_costs()
            if not exact:
                continue
            loose = boa_search(g, h, s, t, ApproxFactor(0, 1.0)).solution_costs()
            assert loose[0].c1 == exact[0].c1

    def test_exact_factor_object_is_default(self, g1):
        h = compute_heuristics(g1, 3)
        a = boa_search(g1, h, 0, 3)
        b = boa_search(g1, h, 0, 3, EXACT)
        assert a.solution_costs() == b.solution_costs()


class TestReferenceLoop:
    """The engine's integer goal cut against the float goal test."""

    @staticmethod
    def outputs(res):
        stats = res.stats
        counters = (stats.n_expanded, stats.n_generated, stats.n_merges)
        return counters, res.arena, res.solutions, res.costs

    @pytest.mark.parametrize("eps", REFERENCE_SLACKS, ids=lambda e: f"{e[0]}-{e[1]}")
    def test_matches_reference_loop(self, eps):
        eps = ApproxFactor(*eps)
        for g, s, t in reference_queries():
            h = compute_heuristics(g, t)
            got = boa_search(g, h, s, t, eps)
            assert self.outputs(got) == self.outputs(reference_boa_search(g, h, s, t, eps))

    def test_stops_at_the_c2_optimal_solution(self, monkeypatch):
        # G1 plus s->c->g at (10, 3) per arc. When the c2-optimal (8, 2) is
        # expanded, the direct (9, 9) arc and the path through c are still
        # queued; its cut is h2[s] = 2, so neither could pass the goal bound.
        g = bigraph_from_arcs(5, G1_ARCS + [(0, 4, 10, 3), (4, 3, 10, 3)])
        heaps = []

        def counting_pop(heap):
            heaps.append(heap)
            return heappop(heap)

        monkeypatch.setattr(boa_module, "heappop", counting_pop)
        h = compute_heuristics(g, 3)
        got = boa_search(g, h, 0, 3)
        assert got.costs == [CostVec(2, 8), CostVec(8, 2)]
        assert len(heaps) == 5 and len(heaps[-1]) == 2
        assert self.outputs(got) == self.outputs(reference_boa_search(g, h, 0, 3))
