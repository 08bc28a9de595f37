"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line naming the property it gates, so
the module doubles as a standalone report when run directly:

    python3 tests/test_acceptance.py

The road-network check is environment-dependent: it runs only when
BIROUTE_GR1 and BIROUTE_GR2 point at a DIMACS .gr pair, and is skipped
(not failed) otherwise.
"""

import math
import os
import random
import sys
import time

import pytest

from biroute import (
    ApproxFactor,
    CostVec,
    bench_run,
    bigraph_from_arcs,
    boa_search,
    check_approx_frontier,
    compute_heuristics,
    exact_frontier,
    load_bigraph,
    ppa_search,
    random_instance,
    verify_run,
)
from biroute.bench import sample_queries, solve_query
from biroute.pareto import PathPair, approx_dominates
from conftest import is_bounded

N_INSTANCES = 200
RELAXED_EPS = (0.01, 0.1, 0.5, 1.0)
SHRINKAGE_GRID = (0.0, 0.01, 0.025, 0.05, 0.1)

G1_ARCS = [
    (0, 1, 1, 4),
    (1, 3, 1, 4),
    (0, 2, 4, 1),
    (2, 3, 4, 1),
    (0, 3, 9, 9),
]


def check(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, f"{name}" + (f" -- {detail}" if detail else "")


def seeded_instances():
    for seed in range(N_INSTANCES):
        yield (seed,) + random_instance(
            seed, n_max=50, out_degree_max=4, cost_max=10
        )


def test_exact_engines_agree_on_seeded_instances():
    t0 = time.perf_counter()
    disagreements = []
    for seed, g, s, t in seeded_instances():
        h = compute_heuristics(g, t)
        reference = list(exact_frontier(g, s, t))
        lex = boa_search(g, h, s, t).solution_costs()
        paired = ppa_search(g, h, s, t).solution_costs()
        if not (reference == lex == paired):
            disagreements.append(seed)
    elapsed = time.perf_counter() - t0
    check(
        f"zero-slack frontiers identical across all three engines "
        f"on {N_INSTANCES} instances in {elapsed:.1f}s",
        not disagreements and elapsed < 60.0,
        f"disagreeing seeds {disagreements[:5]}, elapsed {elapsed:.1f}s",
    )


def test_relaxed_engines_cover_the_frontier():
    failures = []
    runs = 0
    for seed, g, s, t in seeded_instances():
        h = compute_heuristics(g, t)
        reference = exact_frontier(g, s, t)
        for e in RELAXED_EPS:
            eps = ApproxFactor.uniform(e)
            for name, engine in (("boa_eps", boa_search), ("ppa", ppa_search)):
                costs = engine(g, h, s, t, eps).solution_costs()
                report = check_approx_frontier(costs, reference, eps)
                runs += 1
                if not report.ok:
                    failures.append((seed, name, e))
    check(
        f"relaxed outputs cover the frontier and stay mutually "
        f"non-dominated in {runs} runs",
        not failures,
        f"first failures {failures[:5]}",
    )


def test_invariant_assertions_hold_during_verification():
    assert __debug__, "run without -O so invariant assertions are active"
    grid = tuple(ApproxFactor.uniform(e) for e in (0.0,) + RELAXED_EPS)
    summary = verify_run(N_INSTANCES, seed=0, eps_grid=grid)
    check(
        "search invariants never trip across the verification sweep "
        f"({summary.instances_checked} instances x {len(grid)} slacks x 2 engines)",
        summary.ok and summary.instances_checked == N_INSTANCES,
        f"failures {summary.failures[:3]}, "
        f"checked {summary.instances_checked}/{N_INSTANCES}",
    )


def test_bounded_pair_extremes_cover_interior_points():
    rng = random.Random(20260822)
    eps_choices = (0.0, 0.01, 0.1, 0.5, 1.0, 3.0)
    bad = 0
    for _ in range(10_000):
        eps = ApproxFactor(rng.choice(eps_choices), rng.choice(eps_choices))
        a1, a2 = rng.randint(1, 100), rng.randint(1, 100)
        b1 = rng.randint(a1, math.floor(a1 * (1 + eps.eps1)))
        b2 = rng.randint(math.ceil(a2 / (1 + eps.eps2)), a2)
        tl, br = CostVec(a1, a2), CostVec(b1, b2)
        pair = PathPair(0, 0, 1, tl, br)
        if not is_bounded(pair, eps):
            # Integer rounding can overshoot the slack; a degenerate pair
            # is always a legitimate sample.
            pair = PathPair(0, 0, 0, tl, tl)
        interior = CostVec(
            rng.randint(pair.tl_cost.c1, pair.br_cost.c1),
            rng.randint(pair.br_cost.c2, pair.tl_cost.c2),
        )
        if not (
            approx_dominates(pair.tl_cost, interior, eps)
            and approx_dominates(pair.br_cost, interior, eps)
        ):
            bad += 1
    check(
        "both extreme paths of a bounded pair cover every bracketed cost "
        "(10,000 samples)",
        bad == 0,
        f"{bad} uncovered samples",
    )


def test_solution_counts_shrink_as_slack_grows():
    violations = []
    for seed in range(N_INSTANCES):
        g, s, t = random_instance(seed, n_max=80, out_degree_max=5, cost_max=100)
        h = compute_heuristics(g, t)
        counts = [
            len(ppa_search(g, h, s, t, ApproxFactor.uniform(e)).solutions)
            for e in SHRINKAGE_GRID
        ]
        if any(a < b for a, b in zip(counts, counts[1:])):
            violations.append((seed, counts))

    g, _, _ = random_instance(4242, n_max=80, out_degree_max=5, cost_max=100)
    reports = bench_run(
        g, n_queries=6, seed=7,
        eps_grid=[ApproxFactor.uniform(e) for e in SHRINKAGE_GRID],
        algorithms=("ppa",),
    )
    per_query = {}
    for r in reports:
        per_query.setdefault(r.query_id, []).append((r.eps1, r.n_solutions))
    bench_ok = all(
        all(a >= b for (_, a), (_, b) in zip(sorted(rows), sorted(rows)[1:]))
        for rows in per_query.values()
    )
    check(
        f"solution counts never grow along the slack grid {SHRINKAGE_GRID} "
        f"({N_INSTANCES} instances + benchmark pass)",
        not violations and bench_ok,
        f"library violations {violations[:3]}, benchmark ok: {bench_ok}",
    )


ROAD_GR1 = os.environ.get("BIROUTE_GR1")
ROAD_GR2 = os.environ.get("BIROUTE_GR2")


@pytest.mark.skipif(
    not (ROAD_GR1 and ROAD_GR2),
    reason="set BIROUTE_GR1 and BIROUTE_GR2 to a DIMACS .gr pair to enable",
)
def test_road_network_smoke():
    g = load_bigraph(ROAD_GR1, ROAD_GR2)
    # The New York City map from the 9th DIMACS Implementation Challenge is
    # the usual input here; recognize it by vertex count and double-check
    # that the arc count survived loading.
    if g.vertex_count == 264_346:
        assert g.edge_count == 730_100
    queries = sample_queries(g, 50, seed=0)
    mismatched = []
    ppa_fewer = boa_fewer = 0
    for i, (s, t, h, _heuristic_ms) in enumerate(queries):
        exact_a, _ = solve_query(g, s, t, "boa", ApproxFactor.uniform(0.0), h=h)
        exact_b, _ = solve_query(g, s, t, "ppa", ApproxFactor.uniform(0.0), h=h)
        if exact_a.solution_costs != exact_b.solution_costs:
            mismatched.append(i)
        eps = ApproxFactor.uniform(0.01)
        loose_a, _ = solve_query(g, s, t, "boa_eps", eps, h=h)
        loose_b, _ = solve_query(g, s, t, "ppa", eps, h=h)
        if loose_b.n_expanded < loose_a.n_expanded:
            ppa_fewer += 1
        elif loose_a.n_expanded < loose_b.n_expanded:
            boa_fewer += 1
    # Pair merging pays off in expansions only once frontiers get large;
    # on small graphs the counts simply coincide, which is not a failure.
    separation_ok = ppa_fewer > boa_fewer if ppa_fewer + boa_fewer else True
    check(
        f"road network: exact cost sets agree on {len(queries)} queries; "
        f"at slack 0.01 the pairing engine expands fewer nodes on "
        f"{ppa_fewer} queries vs {boa_fewer} the other way",
        not mismatched and separation_ok,
        f"mismatched queries {mismatched[:5]}, "
        f"fewer-expansion split {ppa_fewer} vs {boa_fewer}",
    )


def test_uniform_slack_three_collapses_hand_graph():
    g = bigraph_from_arcs(4, G1_ARCS)
    h = compute_heuristics(g, 3)
    eps = ApproxFactor(3, 3)
    lex = boa_search(g, h, 0, 3, eps).solution_costs()
    res = ppa_search(g, h, 0, 3, eps)
    check(
        "uniform slack 3 collapses the hand graph to the single answer (2,8) "
        "for both engines, via one merged pair",
        lex == [CostVec(2, 8)]
        and res.solution_costs() == [CostVec(2, 8)]
        and len(res.pairs) == 1
        and res.stats.n_merges == 1,
        f"boa_eps {lex}, ppa {res.solution_costs()}, "
        f"pairs {len(res.pairs)}, merges {res.stats.n_merges}",
    )


def test_zero_slack_stays_exact_above_2_53():
    # A zero slack applied as a float rounds B + 4 and B + 3 together, so
    # the engines kept only (1, B + 4) and the checker accepted that.
    b = 2**53
    g = bigraph_from_arcs(4, [(0, 1, 1, 0), (1, 3, 0, b + 4), (0, 2, 2, 0), (2, 3, 0, b + 3)])
    h = compute_heuristics(g, 3)
    reference = exact_frontier(g, 0, 3)
    lex = boa_search(g, h, 0, 3).solution_costs()
    paired = ppa_search(g, h, 0, 3).solution_costs()
    one_cost = check_approx_frontier([CostVec(1, b + 4)], reference, ApproxFactor())
    check(
        "with costs above 2^53 both exact engines return both frontier costs, "
        "and the checker rejects the one-cost answer at zero slack",
        list(reference) == lex == paired == [CostVec(1, b + 4), CostVec(2, b + 3)]
        and not one_cost.ok,
        f"oracle {list(reference)}, boa {lex}, ppa {paired}, one-cost ok {one_cost.ok}",
    )


def test_exact_engines_agree_with_costs_above_2_53():
    b = 2**53
    t0 = time.perf_counter()
    disagreements = []
    for seed, g, s, t in seeded_instances():
        g = bigraph_from_arcs(
            g.vertex_count,
            [(u, v, c1 + b, c2 + b) for u in range(g.vertex_count) for v, (c1, c2) in g.edges[u]],
        )
        h = compute_heuristics(g, t)
        reference = list(exact_frontier(g, s, t))
        lex = boa_search(g, h, s, t).solution_costs()
        paired = ppa_search(g, h, s, t).solution_costs()
        if not (reference == lex == paired):
            disagreements.append(seed)
    elapsed = time.perf_counter() - t0
    check(
        f"zero-slack frontiers identical across all three engines on {N_INSTANCES} "
        f"instances with every arc cost shifted by 2^53, in {elapsed:.2f}s",
        not disagreements,
        f"disagreeing seeds {disagreements[:5]}",
    )


def test_huge_slack_keeps_reachable_answers():
    # At slack 1e308, f2 + eps2 * f2 overflowed to inf and met the goal-bound
    # prune while the goal's record was still inf, emptying the answer.
    failures = []
    runs = 0
    for seed, g, s, t in seeded_instances():
        h = compute_heuristics(g, t)
        reference = exact_frontier(g, s, t)
        for eps in (ApproxFactor.uniform(1e308), ApproxFactor(0, 1e308), ApproxFactor(1e308, 0)):
            for name, engine in (("boa_eps", boa_search), ("ppa", ppa_search)):
                costs = engine(g, h, s, t, eps).solution_costs()
                runs += 1
                if not check_approx_frontier(costs, reference, eps).ok:
                    failures.append((seed, name, eps.eps1, eps.eps2))
    check(
        f"at slacks of 1e308 both engines cover the frontier in all {runs} runs",
        not failures,
        f"failures {failures[:5]}",
    )


def test_ppa_covers_at_a_slack_below_its_decimal():
    # At seed 896 a merge test computed in doubles once stored a pair out of
    # slack 0.3, leaving (20, 32) uncovered. The slack is now 3/10 exactly,
    # and both engines must cover the frontier within it.
    summary = verify_run(1, 896, (ApproxFactor.uniform(0.3),), cost_max=20)
    check(
        "at slack 0.3 and costs up to 20 both engines cover the frontier of seed 896",
        summary.ok,
        f"failures {summary.failures[:5]}",
    )


def _run_all() -> int:
    steps = [
        test_exact_engines_agree_on_seeded_instances,
        test_relaxed_engines_cover_the_frontier,
        test_invariant_assertions_hold_during_verification,
        test_bounded_pair_extremes_cover_interior_points,
        test_solution_counts_shrink_as_slack_grows,
        test_road_network_smoke,
        test_uniform_slack_three_collapses_hand_graph,
        test_zero_slack_stays_exact_above_2_53,
        test_exact_engines_agree_with_costs_above_2_53,
        test_huge_slack_keeps_reachable_answers,
        test_ppa_covers_at_a_slack_below_its_decimal,
    ]
    passed = failed = skipped = 0
    for step in steps:
        if step is test_road_network_smoke and not (ROAD_GR1 and ROAD_GR2):
            print("[SKIP] road network smoke (BIROUTE_GR1/BIROUTE_GR2 not set)")
            skipped += 1
            continue
        try:
            step()
            passed += 1
        except AssertionError:
            failed += 1
    print(
        f"{passed}/{len(steps)} acceptance checks passed"
        + (f", {skipped} skipped" if skipped else "")
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_run_all())
