"""Dominance relations, path pairs, and the frontier filter."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biroute import (
    EXACT,
    ApproxFactor,
    CostVec,
    PathPair,
    SearchResult,
    approx_dominates,
    bigraph_from_arcs,
    compute_heuristics,
    pareto_filter,
    ppa_search,
    random_instance,
)
from biroute.pareto import goal_cut, slack_label
from conftest import _first_fit, _place, apex, is_bounded, pair_record, record_corners

costs = st.tuples(st.integers(0, 40), st.integers(0, 40)).map(lambda t: CostVec(*t))
slacks = st.sampled_from([0.0, 0.01, 0.1, 0.25, 0.5, 1.0, 3.0])
# Tiny, decimals that no double holds (0.01, 0.3), exact (1) and huge slacks.
exact_slacks = st.sampled_from([0.0, 1e-20, 0.01, 0.3, 1.0, 1e308])
wide_costs = st.tuples(st.integers(0, 2**70), st.integers(0, 2**70)).map(
    lambda t: CostVec(*t)
)


def weakly_dominates(p, q):
    """Reference relation: p is at most q in both components."""
    return p[0] <= q[0] and p[1] <= q[1]


@st.composite
def bounded_corners(draw, eps):
    """A (tl, br) cost pair with tl1 <= br1, br2 <= tl2, bounded at ``eps``."""
    tl1 = draw(st.integers(0, 12))
    br2 = draw(st.integers(0, 12))
    br1 = draw(st.integers(tl1, math.floor(tl1 + eps.eps1 * tl1)))
    tl2 = draw(st.integers(br2, math.floor(br2 + eps.eps2 * br2)))
    return CostVec(tl1, tl2), CostVec(br1, br2)


class TestDominance:
    def test_approx_examples(self):
        # (4,2) covers (2,3) once both components may stretch by 2x.
        assert approx_dominates(CostVec(4, 2), CostVec(2, 3), ApproxFactor(1, 1))
        assert not approx_dominates(CostVec(4, 2), CostVec(2, 3), ApproxFactor(0.5, 1))
        # (8,2) covers (2,8) at factor 4 on both axes.
        assert approx_dominates(CostVec(8, 2), CostVec(2, 8), ApproxFactor(3, 3))
        assert not approx_dominates(CostVec(8, 2), CostVec(2, 8), ApproxFactor(2, 3))

    def test_approx_boundary_is_inclusive(self):
        assert approx_dominates(CostVec(11, 1), CostVec(10, 1), ApproxFactor(0.1, 0))

    def test_slack_is_its_decimal(self):
        # The double 0.3 lies just below 3/10, but the slack is the decimal:
        # 13 is within 3/10 of 10, and 14 is not.
        assert approx_dominates(CostVec(13, 10), CostVec(10, 10), ApproxFactor(0.3, 0))
        assert not approx_dominates(CostVec(14, 10), CostVec(10, 10), ApproxFactor(0.3, 0))
        assert approx_dominates(CostVec(0, 101), CostVec(0, 100), ApproxFactor(0, 0.01))

    def test_zero_factor_stays_exact_above_2_53(self):
        # float(B + 3) rounds to B + 4, so a float zero slack would let
        # B + 4 pass for B + 3.
        b = 2**53
        assert not approx_dominates(CostVec(0, b + 4), CostVec(0, b + 3), EXACT)
        assert not approx_dominates(CostVec(b + 4, 0), CostVec(b + 3, 0), EXACT)
        assert approx_dominates(CostVec(b + 3, b + 3), CostVec(b + 3, b + 3), EXACT)

    def test_tiny_slack_stays_exact_above_2_53(self):
        # float(2^53 + 1) is 2^53, so p <= p + 1e-20 * p fails in floats.
        p = CostVec(2**53 + 1, 2**53 + 1)
        assert approx_dominates(p, p, ApproxFactor.uniform(1e-20))
        assert not approx_dominates(
            CostVec(p.c1 + 1, p.c2), p, ApproxFactor.uniform(1e-20)
        )

    @settings(max_examples=1000, deadline=None)
    @given(wide_costs, wide_costs, exact_slacks, exact_slacks)
    def test_matches_exact_rationals(self, p, q, e1, e2):
        eps = ApproxFactor(e1, e2)
        f1, f2 = 1 + Fraction(str(e1)), 1 + Fraction(str(e2))
        want = p[0] <= q[0] * f1 and p[1] <= q[1] * f2
        assert approx_dominates(p, q, eps) == want
        # The largest cost q's relaxation covers, and one past it per axis.
        edge = CostVec(math.floor(q[0] * f1), math.floor(q[1] * f2))
        assert approx_dominates(edge, q, eps)
        assert not approx_dominates(CostVec(edge.c1 + 1, edge.c2), q, eps)
        assert not approx_dominates(CostVec(edge.c1, edge.c2 + 1), q, eps)

    @settings(max_examples=200, deadline=None)
    @given(costs, costs)
    def test_zero_factor_matches_weak_dominance(self, p, q):
        assert approx_dominates(p, q, EXACT) == weakly_dominates(p, q)

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            ApproxFactor(-0.1, 0)
        assert ApproxFactor.uniform(0.25) == ApproxFactor(0.25, 0.25)

    def test_negative_zero_factor_is_stored_as_zero(self):
        eps = ApproxFactor.uniform(-0.0)
        assert math.copysign(1, eps.eps1) == math.copysign(1, eps.eps2) == 1
        assert repr(eps) == repr(EXACT)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_factor_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ApproxFactor(bad, 0)
        with pytest.raises(ValueError, match="finite"):
            ApproxFactor(0, bad)
        with pytest.raises(ValueError, match="finite"):
            ApproxFactor.uniform(bad)


class TestGoalCut:
    @settings(max_examples=1000, deadline=None)
    @given(st.integers(0, 2**70), st.integers(0, 2**70), exact_slacks)
    def test_least_int_reaching_the_bound(self, bound, other, eps):
        num, den = ratio = ApproxFactor(0, eps).ratios[1]
        cut = goal_cut(bound, ratio)
        assert cut * (den + num) >= bound * den
        assert cut == 0 or (cut - 1) * (den + num) < bound * den
        lo, hi = sorted((bound, other))
        assert goal_cut(lo, ratio) <= goal_cut(hi, ratio)
        if eps == 0:
            assert cut == bound

    def test_ratios_are_exact(self):
        # Each ratio is the decimal the slack prints as, not its double.
        assert ApproxFactor(0, 0.0).ratios == ((0, 1), (0, 1))
        assert ApproxFactor.uniform(0.01).ratios == ((1, 100), (1, 100))
        assert ApproxFactor(0.3, 0).ratios[0] == (3, 10)
        assert ApproxFactor(0, 1e-20).ratios[1] == (1, 10**20)
        assert ApproxFactor(1e308, 0).ratios[0] == (10**308, 1)
        # An int or a Fraction is used exactly, as its text reads.
        assert ApproxFactor(2**60 + 1, Fraction(1, 3)).ratios == ((2**60 + 1, 1), (1, 3))

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0, 1e308, allow_nan=False, allow_infinity=False))
    def test_ratio_and_label_read_back_as_the_slack(self, eps):
        label = slack_label(eps)
        assert float(label) == eps
        assert not label.endswith(".0")
        (num, den), _ = ApproxFactor(eps, 0).ratios
        assert Fraction(num, den) == Fraction(label) and num / den == eps

    @pytest.mark.parametrize(
        "eps, label",
        [(0.0, "0"), (1.0, "1"), (0.3, "0.3"), (4e-07, "4e-07"),
         (0.0123456789, "0.0123456789"), (1e308, "1e+308")],
    )
    def test_slack_labels(self, eps, label):
        assert slack_label(eps) == label


class TestPathPair:
    def pair(self, tl_cost, br_cost, vertex=0):
        br = 0 if tl_cost == br_cost else 1
        return PathPair(vertex, 0, br, CostVec(*tl_cost), CostVec(*br_cost))

    def test_apex(self):
        pp = self.pair((10, 20), (11, 18))
        assert apex(pp) == CostVec(10, 18)

    def test_bounded_examples(self):
        pp = self.pair((10, 20), (11, 18))
        assert is_bounded(pp, ApproxFactor(0.1, 0.12))
        assert not is_bounded(pp, ApproxFactor(0.05, 0.12))
        assert not is_bounded(pp, ApproxFactor(0.1, 0.11))

    def test_degenerate_pair_always_bounded(self):
        pp = self.pair((3, 3), (3, 3))
        assert is_bounded(pp, EXACT)

    def test_zero_cost_components(self):
        # A zero component on the reference path forces equality on that axis.
        pp = self.pair((0, 5), (0, 5))
        assert is_bounded(pp, EXACT)
        qq = self.pair((0, 6), (1, 5))
        assert not is_bounded(qq, ApproxFactor(10, 0.2))

    def test_zero_slack_stays_exact_above_2_53(self):
        b = 2**53
        assert not is_bounded(self.pair((b + 3, 5), (b + 4, 5)), EXACT)
        assert not is_bounded(self.pair((5, b + 4), (5, b + 3)), EXACT)
        assert is_bounded(self.pair((b + 3, 5), (b + 4, 5)), ApproxFactor(0.5, 0))

    def test_extend_adds_edge_cost_to_both(self):
        # A cost-degenerate pair extends into a single arena node.
        g = bigraph_from_arcs(4, [(0, 3, 1, 4)])
        res = ppa_search(g, compute_heuristics(g, 3), 0, 3)
        (pp,) = res.pairs
        assert pp.vertex == 3
        assert pp.tl_cost == CostVec(1, 4) and pp.br_cost == CostVec(1, 4)
        assert pp.tl == pp.br
        assert res.solutions == [pp.br]
        assert res.solution_vertices(0) == [0, 3]
        assert res.arena == [(0, None), (3, 0)]
        assert res.stats.n_generated == 2

    def test_extend_divergent_pair(self):
        # (4,9) and (6,5) merge at vertex 1 under slack 1; the merged pair
        # then crosses the (1,1) arc with both paths, one node each.
        g = bigraph_from_arcs(3, [(0, 1, 4, 9), (0, 1, 6, 5), (1, 2, 1, 1)])
        res = ppa_search(g, compute_heuristics(g, 2), 0, 2, ApproxFactor(1, 1))
        (pp,) = res.pairs
        assert pp.tl != pp.br
        assert pp.tl_cost == CostVec(5, 10) and pp.br_cost == CostVec(7, 6)
        assert res.stats.n_generated == 4 and res.stats.n_merges == 1
        assert len(res.arena) == 5
        # Both corners walk back through their own arc into vertex 1.
        assert res.arena[pp.tl] == (2, 1) and res.arena[pp.br] == (2, 2)
        assert res.solution_costs() == [CostVec(7, 6)]
        assert res.solution_vertices(0) == [0, 1, 2]

    def test_merge_takes_best_of_each_corner(self):
        slots = {}
        a = pair_record(1, (4, 9), (6, 5))
        b = pair_record(2, (5, 8), (7, 4))
        a_tl, b_br = a[4], b[5]
        assert not _place(slots, a, ApproxFactor(1.0, 2.0))
        assert _place(slots, b, ApproxFactor(1.0, 2.0))
        assert list(slots.values()) == [b] and not a[10]
        assert (b[4], b[5]) == (a_tl, b_br)
        assert record_corners(b) == (CostVec(4, 9), CostVec(7, 4))
        # With zero heuristics the f-values are the merged apex.
        assert b[:2] == [4, 4]

    def test_merge_tie_keeps_first_argument(self):
        slots = {}
        a = pair_record(1, (5, 5), (5, 5))
        b = pair_record(2, (5, 5), (5, 5))
        _place(slots, a, EXACT)
        assert _place(slots, b, EXACT)
        # The resident's paths win ties; the newcomer keeps only its seq.
        assert b[4] == b[5] == a[4]
        assert list(slots) == [2]

    def test_merge_vertex_mismatch(self):
        # (4,9) and (6,5) merge under slack 1 when they reach the same
        # vertex, and stay apart when they reach different ones.
        eps = ApproxFactor(1, 1)
        same = bigraph_from_arcs(3, [(0, 1, 4, 9), (0, 1, 6, 5), (1, 2, 0, 0)])
        res = ppa_search(same, compute_heuristics(same, 2), 0, 2, eps)
        assert res.stats.n_merges == 1
        apart = bigraph_from_arcs(
            4, [(0, 1, 4, 9), (0, 2, 6, 5), (1, 3, 0, 0), (2, 3, 0, 0)]
        )
        res = ppa_search(apart, compute_heuristics(apart, 3), 0, 3, eps)
        assert res.stats.n_generated == 4
        assert res.stats.n_merges == 0

    @settings(max_examples=200, deadline=None)
    @given(costs, costs)
    def test_exact_bounded_merge_is_degenerate(self, c, d):
        # At zero slack a pair is bounded only when tl and br agree, so a
        # merge of two degenerate pairs is either refused or degenerate.
        slots = {}
        _place(slots, pair_record(1, c, c), EXACT)
        b = pair_record(2, d, d)
        if _place(slots, b, EXACT):
            tl_cost, br_cost = record_corners(b)
            assert tl_cost == br_cost

    @settings(max_examples=1000, deadline=None)
    @given(st.data(), slacks, slacks)
    def test_first_fit_matches_is_bounded_of_the_merge(self, data, e1, e2):
        eps = ApproxFactor(e1, e2)
        a_tl, a_br = data.draw(bounded_corners(eps))
        b_tl, b_br = data.draw(bounded_corners(eps))
        tl_cost = a_tl if a_tl.c1 <= b_tl.c1 else b_tl
        br_cost = a_br if a_br.c2 <= b_br.c2 else b_br
        merge = PathPair(0, 0, 1, tl_cost, br_cost)
        slots = {1: pair_record(1, a_tl, a_br)}
        b = pair_record(2, b_tl, b_br)
        assert _place(slots, b, eps) == is_bounded(merge, eps)
        if len(slots) == 1:
            assert record_corners(b) == (tl_cost, br_cost)
            # The merged apex is the componentwise minimum of the two
            # apexes, and with zero heuristics it is the record's f-values.
            assert apex(merge) == (min(a_tl.c1, b_tl.c1), min(a_br.c2, b_br.c2))
            assert apex(merge) == tuple(b[:2])

    @pytest.mark.parametrize(
        "resident, newcomer, eps, fits",
        [
            # Resident tl, newcomer br: 5 <= 5 + 0*5 and 6 <= 4 + 0.5*4.
            (((5, 6), (5, 5)), ((5, 4), (5, 4)), (0.0, 0.5), True),
            (((5, 7), (5, 5)), ((5, 4), (5, 4)), (0.0, 0.5), False),
            # Newcomer tl, resident br: 10 <= 5 + 1*5 and 8 <= 4 + 1*4.
            (((10, 4), (10, 4)), ((5, 8), (5, 8)), (1.0, 1.0), True),
            (((11, 4), (11, 4)), ((5, 8), (5, 8)), (1.0, 1.0), False),
        ],
        ids=["resident-tl-at", "resident-tl-past", "newcomer-tl-at", "newcomer-tl-past"],
    )
    def test_first_fit_boundary_is_inclusive(self, resident, newcomer, eps, fits):
        r = pair_record(1, *resident)
        (tl1, tl2), (br1, br2) = newcomer
        assert (_first_fit([r], tl1, tl2, br1, br2, ApproxFactor(*eps)) is r) == fits

    def test_trivial_pair(self):
        # A search that starts at its goal stores the start's one-path pair.
        g = bigraph_from_arcs(8, [(7, 0, 1, 1)])
        res = ppa_search(g, compute_heuristics(g, 7), 7, 7)
        (pp,) = res.pairs
        assert pp.vertex == 7
        assert pp.tl == pp.br
        assert pp.tl_cost == CostVec(0, 0)
        assert res.solution_vertices(0) == [7]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10_000), slacks, slacks)
    def test_stored_solution_pairs_descend_in_br2(self, seed, e1, e2):
        # Goal pairs are stored in pop order without a merge scan; each
        # one that survives the goal-bound prune has a smaller br2 than
        # every pair stored before it.
        g, s, t = random_instance(seed, n_max=20)
        res = ppa_search(g, compute_heuristics(g, t), s, t, ApproxFactor(e1, e2))
        br2 = [p.br_cost.c2 for p in res.pairs]
        assert all(a > b for a, b in zip(br2, br2[1:]))


class TestParetoFilter:
    def test_basic(self):
        got = pareto_filter(
            [CostVec(2, 8), CostVec(8, 2), CostVec(9, 9), CostVec(2, 8)]
        )
        assert got == [CostVec(2, 8), CostVec(8, 2)]

    def test_equal_c1_keeps_smaller_c2(self):
        assert pareto_filter([CostVec(3, 5), CostVec(3, 4)]) == [CostVec(3, 4)]

    def test_empty(self):
        assert pareto_filter([]) == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(costs, max_size=30))
    def test_result_is_nondominated_and_covering(self, cs):
        kept = pareto_filter(cs)
        assert kept == sorted(kept)
        for i, p in enumerate(kept):
            for j, q in enumerate(kept):
                if i != j:
                    assert not weakly_dominates(p, q)
        for c in cs:
            assert any(weakly_dominates(k, c) for k in kept)


class TestArena:
    def test_vertex_sequence_follows_parents(self):
        # Arena records are (vertex, parent) tuples; record 2 is a dead end
        # that the walk from record 3 must skip.
        arena = [(0, None), (1, 0), (2, 0), (3, 1)]
        res = SearchResult(arena=arena, solutions=[3, 2], costs=[CostVec(2, 8), CostVec(4, 1)])
        assert res.solution_vertices(0) == [0, 1, 3]
        assert res.solution_vertices(1) == [0, 2]
        assert res.solution_costs() == [CostVec(2, 8), CostVec(4, 1)]
