"""Reference frontier computation, instance generator, and the checker."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biroute.oracle as oracle
from biroute import (
    EXACT,
    ApproxFactor,
    CostVec,
    LabelBudgetError,
    bigraph_from_arcs,
    boa_search,
    check_approx_frontier,
    compute_heuristics,
    exact_frontier,
    ppa_search,
    random_instance,
)
from biroute.oracle import FrontierSet
from biroute.pareto import pareto_filter


def tiny_instance(seed):
    """A seeded graph with at most 7 vertices and out-degree at most 3.

    About a fifth of the arc costs are 0, a zero-cost 2-cycle is often
    added, and every nonzero cost is shifted above 2**53 in half of the
    graphs, where a float would round sums.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    shift = rng.choice((0, 2**53 + 1))

    def cost():
        return 0 if rng.random() < 0.2 else shift + rng.randint(1, 9)

    arcs = [
        (u, rng.randrange(n), cost(), cost())
        for u in range(n)
        for _ in range(rng.randint(1, 3))
    ]
    if n > 1 and rng.random() < 0.5:
        u, v = rng.sample(range(n), 2)
        arcs += [(u, v, 0, 0), (v, u, 0, 0)]
    start, goal = rng.sample(range(n), 2) if n > 1 else (0, 0)
    return bigraph_from_arcs(n, arcs), start, goal


def simple_path_costs(g, start, goal):
    """The cost of every simple path from start to goal, by exhaustive search."""
    costs = []
    on_path = [False] * g.vertex_count

    def extend(u, c1, c2):
        if u == goal:
            costs.append(CostVec(c1, c2))
            return
        on_path[u] = True
        for target, (d1, d2) in g.edges[u]:
            if not on_path[target]:
                extend(target, c1 + d1, c2 + d2)
        on_path[u] = False

    extend(start, 0, 0)
    return costs


class TestExactFrontier:
    def test_hand_graph(self, g1):
        assert list(exact_frontier(g1, 0, 3)) == [CostVec(2, 8), CostVec(8, 2)]

    def test_single_vertex(self):
        g = bigraph_from_arcs(1, [])
        assert list(exact_frontier(g, 0, 0)) == [CostVec(0, 0)]

    def test_unreachable(self):
        g = bigraph_from_arcs(2, [])
        assert list(exact_frontier(g, 0, 1)) == []

    def test_dominated_parallel_arc_dropped(self):
        g = bigraph_from_arcs(2, [(0, 1, 1, 1), (0, 1, 2, 2)])
        assert list(exact_frontier(g, 0, 1)) == [CostVec(1, 1)]

    def test_edge_permutation_invariance(self):
        arcs = [(0, 1, 1, 4), (1, 3, 1, 4), (0, 2, 4, 1), (2, 3, 4, 1), (0, 3, 9, 9)]
        base = list(exact_frontier(bigraph_from_arcs(4, arcs), 0, 3))
        for shift in range(1, len(arcs)):
            rotated = arcs[shift:] + arcs[:shift]
            assert list(exact_frontier(bigraph_from_arcs(4, rotated), 0, 3)) == base

    def test_label_budget_enforced(self, g1):
        with pytest.raises(LabelBudgetError):
            exact_frontier(g1, 0, 3, label_budget=1)

    def test_label_budget_boundary(self):
        # The search inserts exactly 52 labels on this instance, the start
        # label included; ``biroute verify`` skips a seed on this count.
        g, s, t = random_instance(42)
        assert list(exact_frontier(g, s, t, label_budget=52)) == [
            CostVec(20, 29), CostVec(21, 23),
        ]
        with pytest.raises(LabelBudgetError) as info:
            exact_frontier(g, s, t, label_budget=51)
        assert str(info.value) == "label budget of 51 exceeded; instance too large"

    def test_matches_brute_force_on_tiny_graphs(self):
        # Costs are nonnegative, so a walk's cycles can only add cost and
        # the frontier over simple paths is the whole frontier.
        wide = shifted = 0
        for seed in range(2000):
            g, s, t = tiny_instance(seed)
            expected = pareto_filter(simple_path_costs(g, s, t))
            got = exact_frontier(g, s, t)
            assert list(got) == expected, seed
            assert all(type(c) is CostVec for c in got.costs)
            wide += len(expected) > 1
            shifted += any(c.c1 > 2**53 or c.c2 > 2**53 for c in expected)
        # The family does reach multi-point frontiers and costs above 2**53.
        assert wide > 100 and shifted > 300

    def test_zero_cost_cycle_terminates(self):
        g = bigraph_from_arcs(2, [(0, 0, 0, 0), (0, 1, 2, 3)])
        assert list(exact_frontier(g, 0, 1)) == [CostVec(2, 3)]

    def test_frozen_regression_seed_42(self):
        g, s, t = random_instance(42)
        assert (g.vertex_count, g.edge_count, s, t) == (41, 84, 4, 38)
        assert list(exact_frontier(g, s, t)) == [CostVec(20, 29), CostVec(21, 23)]

    def test_frozen_regression_small(self):
        g, s, t = random_instance(7, n_max=12, out_degree_max=3, cost_max=9)
        assert (g.vertex_count, g.edge_count, s, t) == (6, 9, 2, 4)
        assert list(exact_frontier(g, s, t)) == [CostVec(1, 9)]


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(123)
        b = random_instance(123)
        assert a[0].edges == b[0].edges
        assert (a[1], a[2]) == (b[1], b[2])

    def test_endpoints_connected_and_in_range(self):
        for seed in range(50):
            g, s, t = random_instance(seed)
            assert 0 <= s < g.vertex_count
            assert 0 <= t < g.vertex_count
            assert list(exact_frontier(g, s, t)) != []

    def test_single_vertex_universe(self):
        g, s, t = random_instance(0, n_max=1)
        assert g.vertex_count == 1
        assert s == t == 0

    def test_positive_costs(self):
        for seed in range(20):
            g, _, _ = random_instance(seed, cost_max=10)
            for u in range(g.vertex_count):
                for e in g.edges[u]:
                    assert 1 <= e.cost.c1 <= 10
                    assert 1 <= e.cost.c2 <= 10

    def test_generation_gives_up_eventually(self, monkeypatch):
        # Edgeless multi-vertex draws can never connect distinct endpoints.
        # Once the draws run out, the last start is both endpoints: a
        # vertex reaches itself, so an arcless graph still has a query.
        monkeypatch.setattr(oracle, "INSTANCE_DRAWS", 3)
        g, s, t = random_instance(0, n_max=30, out_degree_max=0)
        assert g.vertex_count > 1 and g.edge_count == 0
        assert s == t
        assert list(exact_frontier(g, s, t)) == [CostVec(0, 0)]


class TestChecker:
    def test_coverage_accepts_wide_slack(self):
        exact = FrontierSet.from_costs([CostVec(2, 8), CostVec(8, 2)])
        report = check_approx_frontier([CostVec(2, 8)], exact, ApproxFactor(3, 3))
        assert report.uncovered == report.dominated_pairs == () and report.ok

    def test_coverage_rejects_at_zero_slack(self):
        exact = FrontierSet.from_costs([CostVec(2, 8), CostVec(8, 2)])
        report = check_approx_frontier([CostVec(2, 8)], exact, EXACT)
        assert report.uncovered == (CostVec(8, 2),)
        assert not report.ok

    def test_dominated_candidates_rejected(self):
        exact = FrontierSet.from_costs([CostVec(2, 8)])
        report = check_approx_frontier(
            [CostVec(2, 8), CostVec(3, 9)], exact, ApproxFactor(1, 1)
        )
        assert report.uncovered == ()
        assert report.dominated_pairs == ((CostVec(3, 9), CostVec(2, 8)),)
        assert not report.ok

    def test_membership_is_reported_not_enforced(self):
        # (3,7) is not an exact frontier cost, yet coverage and mutual
        # non-domination both hold, so the report is clean overall.
        exact = FrontierSet.from_costs([CostVec(2, 8)])
        report = check_approx_frontier([CostVec(3, 7)], exact, ApproxFactor(1, 1))
        assert report.ok
        assert (report.n_candidates, report.n_members) == (1, 0)

    def test_duplicate_candidates_collapse(self):
        exact = FrontierSet.from_costs([CostVec(2, 8)])
        report = check_approx_frontier(
            [CostVec(2, 8), CostVec(2, 8)], exact, EXACT
        )
        assert report.ok
        assert (report.n_candidates, report.n_members) == (1, 1)

    def test_empty_candidates_fail_on_nonempty_exact(self):
        exact = FrontierSet.from_costs([CostVec(2, 8)])
        report = check_approx_frontier([], exact, ApproxFactor(9, 9))
        assert not report.ok

    def test_empty_exact_accepts_empty_candidates(self):
        exact = FrontierSet.from_costs([])
        report = check_approx_frontier([], exact, EXACT)
        assert report.ok


# Small costs, where zero-cost arcs matter, or costs just above 2**53,
# where doubles are 2 apart.
COST_FAMILIES = (st.integers(0, 20), st.integers(2**53, 2**53 + 8))
PROPERTY_SLACKS = [
    ApproxFactor(eps1, eps2)
    for eps1 in (0.0, 1e-20, 0.01, 0.3, 1.0)
    for eps2 in (0.0, 1e-20, 0.01, 0.3, 1.0)
]
# Each slack of PROPERTY_SLACKS as its exact (num, den).
SLACK_RATIOS = sorted({ratio for eps in PROPERTY_SLACKS for ratio in eps.ratios})


@st.composite
def boundary_arcs(draw, start, goal):
    """Parallel start-goal arcs (y, x) and (x, y), with x at a slack's edge.

    x is the largest cost within one of PROPERTY_SLACKS of y, or one unit
    past it. Above 2**53 a slack test in doubles rounds x, and often takes
    the one past for the edge.
    """
    num, den = draw(st.sampled_from(SLACK_RATIOS))
    y = draw(st.integers(0, 20) | st.integers(2**53, 2**60))
    x = y * (den + num) // den + draw(st.integers(0, 1))
    return [(start, goal, y, x), (start, goal, x, y)]


@st.composite
def tiny_multigraphs(draw):
    """A 2-5 vertex graph, parallel arcs and self loops allowed, and a query.

    Half the queries with distinct endpoints also get ``boundary_arcs``.
    """
    n = draw(st.integers(2, 5))
    vertex = st.integers(0, n - 1)
    cost = draw(st.sampled_from(COST_FAMILIES))
    arcs = draw(st.lists(st.tuples(vertex, vertex, cost, cost), max_size=4 * n))
    start, goal = draw(vertex), draw(vertex)
    if start != goal and draw(st.booleans()):
        arcs += draw(boundary_arcs(start, goal))
    return bigraph_from_arcs(n, arcs), start, goal


class TestEnginesOnTinyMultigraphs:
    # The smallest graphs on which a rounded slack test failed are always
    # checked too: one unit past 3/10 above 10**16, where a merge test in
    # doubles merges, and 2**53 + 3 against 2**53 + 4, where one at 1e-20
    # does.
    @settings(max_examples=300, deadline=None)
    @given(tiny_multigraphs())
    @example(
        (
            bigraph_from_arcs(
                2, [(0, 1, 10**16, 13 * 10**15 + 1), (0, 1, 13 * 10**15 + 1, 10**16)]
            ),
            0,
            1,
        )
    )
    @example(
        (bigraph_from_arcs(2, [(0, 1, 2**53 + 3, 2**53 + 4), (0, 1, 2**53 + 4, 2**53 + 3)]), 0, 1)
    )
    def test_engines_cover_the_exact_frontier(self, instance):
        g, start, goal = instance
        exact = exact_frontier(g, start, goal)
        h = compute_heuristics(g, goal)
        for eps in PROPERTY_SLACKS:
            for engine in (boa_search, ppa_search):
                costs = engine(g, h, start, goal, eps).costs
                report = check_approx_frontier(costs, exact, eps)
                assert report.ok, (engine.__name__, eps, report)
                if eps == EXACT:
                    assert costs == list(exact.costs), engine.__name__
