#!/usr/bin/env python3
"""Smoke-test the search engines on a real DIMACS .gr pair.

Runs seeded random queries twice over the given road network:

  * at zero slack, boa and ppa must return identical cost sets;
  * at slack 0.01, reports how often ppa expands fewer nodes than boa-eps.

The graph pair comes from --gr1/--gr2 or the BIROUTE_GR1/BIROUTE_GR2
environment variables. Heuristic tables are cached per goal vertex in
--h-cache if given, which makes repeated runs against the same map cheap.

Exit status: 0 when all zero-slack cost sets agree, 1 otherwise.
"""

import argparse
import os
import sys
import time

from biroute import ApproxFactor, load_bigraph
from biroute.bench import sample_queries, solve_query


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gr1", default=os.environ.get("BIROUTE_GR1"))
    parser.add_argument("--gr2", default=os.environ.get("BIROUTE_GR2"))
    parser.add_argument("--queries", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eps", type=float, default=0.01,
                        help="slack for the expansion comparison")
    parser.add_argument("--h-cache", help="directory for cached heuristic tables")
    args = parser.parse_args()
    if not (args.gr1 and args.gr2):
        parser.error("pass --gr1/--gr2 or set BIROUTE_GR1/BIROUTE_GR2")
    return args


def main() -> int:
    args = parse_args()
    t0 = time.perf_counter()
    g = load_bigraph(args.gr1, args.gr2)
    print(f"graph: {g.vertex_count} vertices, {g.edge_count} arcs "
          f"(loaded in {time.perf_counter() - t0:.1f}s)")

    t1 = time.perf_counter()
    queries = sample_queries(g, args.queries, args.seed, h_cache_dir=args.h_cache)
    print(f"sampled {len(queries)} queries and built heuristic tables "
          f"in {time.perf_counter() - t1:.1f}s")
    eps = ApproxFactor.uniform(args.eps)
    mismatches = 0
    ppa_fewer = 0
    for i, (s, t, h, _heuristic_ms) in enumerate(queries):
        exact_a, _ = solve_query(g, s, t, "boa", ApproxFactor.uniform(0.0),
                                 query_id=i, h=h)
        exact_b, _ = solve_query(g, s, t, "ppa", ApproxFactor.uniform(0.0),
                                 query_id=i, h=h)
        agree = exact_a.solution_costs == exact_b.solution_costs
        mismatches += not agree

        loose_a, _ = solve_query(g, s, t, "boa_eps", eps, query_id=i, h=h)
        loose_b, _ = solve_query(g, s, t, "ppa", eps, query_id=i, h=h)
        ppa_fewer += loose_b.n_expanded < loose_a.n_expanded

        print(
            f"query {i:3d} {s + 1}->{t + 1}: "
            f"|frontier|={exact_a.n_solutions} agree={'yes' if agree else 'NO'} "
            f"exact {exact_a.time_ms:.0f}/{exact_b.time_ms:.0f} ms, "
            f"eps={args.eps:g} expansions boa-eps={loose_a.n_expanded} "
            f"ppa={loose_b.n_expanded} times {loose_a.time_ms:.0f}/"
            f"{loose_b.time_ms:.0f} ms"
        )

    n = len(queries)
    print(f"zero-slack cost sets agree on {n - mismatches}/{n} queries")
    print(f"ppa expanded fewer nodes than boa-eps on {ppa_fewer}/{n} "
          f"queries at slack {args.eps:g}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
