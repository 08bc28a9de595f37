"""Exact and approximate Pareto frontiers for bi-criteria shortest paths.

Public surface: graph loading and DIMACS I/O, per-criterion heuristic
tables, the dominance vocabulary, two search engines (single-path and
path-pair), an independent frontier oracle with a checker, and benchmark
plumbing. See README.md for usage.
"""

from .graph import (
    ArcMismatchError,
    BiGraph,
    CostVec,
    DimacsParseError,
    Edge,
    bigraph_from_arcs,
    build_bigraph,
    dimacs_lines,
    load_bigraph,
    load_gr,
    parse_dimacs_gr,
    write_gr_pair,
)
from .heuristics import (
    UNREACHABLE,
    HeuristicTable,
    compute_heuristics,
    graph_digest,
    load_or_compute_heuristics,
)
from .pareto import (
    EXACT,
    ApproxFactor,
    PathPair,
    SearchResult,
    SearchStats,
    apex,
    approx_dominates,
    is_bounded,
    pareto_filter,
)
from .boa import boa_search
from .ppa import ppa_search
from .oracle import (
    ApproxCheckReport,
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
    "Edge",
    "bigraph_from_arcs",
    "build_bigraph",
    "dimacs_lines",
    "load_bigraph",
    "load_gr",
    "parse_dimacs_gr",
    "write_gr_pair",
    "UNREACHABLE",
    "HeuristicTable",
    "compute_heuristics",
    "graph_digest",
    "load_or_compute_heuristics",
    "EXACT",
    "ApproxFactor",
    "PathPair",
    "SearchResult",
    "SearchStats",
    "apex",
    "approx_dominates",
    "is_bounded",
    "pareto_filter",
    "boa_search",
    "ppa_search",
    "ApproxCheckReport",
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
