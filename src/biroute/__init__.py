"""Exact and approximate Pareto frontiers for bi-criteria shortest paths.

Public surface: graph loading and DIMACS I/O, per-criterion heuristic
tables, the slack and the search result, two search engines (single-path
and path-pair), an independent frontier oracle with a checker, and
benchmark plumbing. Names that only tests and the engines use stay in
their modules. See README.md for usage.
"""

from .graph import (
    ArcMismatchError,
    BiGraph,
    CostVec,
    DimacsParseError,
    bigraph_from_arcs,
    build_bigraph,
    load_bigraph,
    load_gr,
    write_gr_pair,
)
from .heuristics import (
    UNREACHABLE,
    HeuristicTable,
    compute_heuristics,
    graph_digest,
    load_or_compute_heuristics,
    store_heuristics,
)
from .pareto import EXACT, ApproxFactor, SearchResult
from .boa import boa_search
from .ppa import ppa_search
from .oracle import (
    FrontierSet,
    GenerationError,
    LabelBudgetError,
    check_approx_frontier,
    exact_frontier,
    random_instance,
)
from .bench import QueryReport, bench_run, render_csv, run_engine, solve_query, verify_run

__all__ = [
    "ArcMismatchError",
    "BiGraph",
    "CostVec",
    "DimacsParseError",
    "bigraph_from_arcs",
    "build_bigraph",
    "load_bigraph",
    "load_gr",
    "write_gr_pair",
    "UNREACHABLE",
    "HeuristicTable",
    "compute_heuristics",
    "graph_digest",
    "load_or_compute_heuristics",
    "store_heuristics",
    "EXACT",
    "ApproxFactor",
    "SearchResult",
    "boa_search",
    "ppa_search",
    "FrontierSet",
    "GenerationError",
    "LabelBudgetError",
    "check_approx_frontier",
    "exact_frontier",
    "random_instance",
    "QueryReport",
    "bench_run",
    "render_csv",
    "run_engine",
    "solve_query",
    "verify_run",
]
