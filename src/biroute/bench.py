"""Query execution, reporting, benchmarking, and verification sweeps.

A query report captures one (source, target, algorithm, slack) run. The
CSV schema is fixed and documented here once:

    query_id,source,target,algorithm,eps1,eps2,n_solutions,n_expanded,
    n_generated,time_ms,heuristic_ms,solution_costs

``solution_costs`` is semicolon-joined ``c1:c2`` entries. Vertex ids in
reports are 1-based, matching the DIMACS files the graphs come from.
Search time and heuristic-construction time are reported separately.
After the data rows a benchmark appends, per (algorithm, eps1, eps2) in
first-appearance order, three summary rows whose ``query_id`` column says
``avg``, ``min``, or ``max``; their endpoint and cost columns are empty.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .boa import boa_search
from .graph import BiGraph, CostVec
from .heuristics import HeuristicTable, load_or_compute_heuristics
from .oracle import (
    GenerationError,
    LabelBudgetError,
    check_approx_frontier,
    exact_frontier,
    random_instance,
)
from .pareto import EXACT, ApproxFactor, SearchResult
from .ppa import ppa_search

CSV_COLUMNS = (
    "query_id",
    "source",
    "target",
    "algorithm",
    "eps1",
    "eps2",
    "n_solutions",
    "n_expanded",
    "n_generated",
    "time_ms",
    "heuristic_ms",
    "solution_costs",
)


@dataclass
class QueryReport:
    """Everything one benchmark row or one solve response needs."""

    query_id: int
    source: int
    target: int
    algorithm: str
    eps1: float
    eps2: float
    n_solutions: int
    n_expanded: int
    n_generated: int
    time_ms: float
    heuristic_ms: float
    solution_costs: list[CostVec]

    def to_json_dict(self, paths: list[list[int]] | None = None) -> dict:
        payload = {
            "query_id": self.query_id,
            "source": self.source,
            "target": self.target,
            "algorithm": self.algorithm,
            "eps1": self.eps1,
            "eps2": self.eps2,
            "n_solutions": self.n_solutions,
            "n_expanded": self.n_expanded,
            "n_generated": self.n_generated,
            "time_ms": round(self.time_ms, 3),
            "heuristic_ms": round(self.heuristic_ms, 3),
            "solution_costs": [[c.c1, c.c2] for c in self.solution_costs],
        }
        if paths is not None:
            payload["solution_paths"] = paths
        return payload

    def csv_row(self) -> str:
        costs = ";".join(f"{c.c1}:{c.c2}" for c in self.solution_costs)
        return ",".join(
            (
                str(self.query_id),
                str(self.source),
                str(self.target),
                self.algorithm,
                f"{self.eps1:g}",
                f"{self.eps2:g}",
                str(self.n_solutions),
                str(self.n_expanded),
                str(self.n_generated),
                f"{self.time_ms:.3f}",
                f"{self.heuristic_ms:.3f}",
                costs,
            )
        )


def run_engine(
    g: BiGraph,
    h: HeuristicTable,
    start: int,
    goal: int,
    algorithm: str,
    eps: ApproxFactor,
) -> SearchResult:
    """Dispatch one 0-based query to the named engine.

    ``boa`` always runs exact; ``boa_eps`` and ``ppa`` honor ``eps``.
    """
    if algorithm == "boa":
        return boa_search(g, h, start, goal, EXACT)
    if algorithm == "boa_eps":
        return boa_search(g, h, start, goal, eps)
    if algorithm == "ppa":
        return ppa_search(g, h, start, goal, eps)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def solve_query(
    g: BiGraph,
    start: int,
    goal: int,
    algorithm: str,
    eps: ApproxFactor,
    query_id: int = 0,
    h: HeuristicTable | None = None,
    heuristic_ms: float = 0.0,
    h_cache_dir: str | None = None,
) -> tuple[QueryReport, SearchResult]:
    """Run one 0-based query end to end and report it with 1-based ids."""
    if h is None:
        t0 = time.perf_counter()
        h = load_or_compute_heuristics(g, goal, h_cache_dir)
        heuristic_ms = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    result = run_engine(g, h, start, goal, algorithm, eps)
    search_ms = (time.perf_counter() - t0) * 1000.0
    costs = result.solution_costs()
    report = QueryReport(
        query_id=query_id,
        source=start + 1,
        target=goal + 1,
        algorithm=algorithm,
        eps1=eps.eps1,
        eps2=eps.eps2,
        n_solutions=len(costs),
        n_expanded=result.stats.n_expanded,
        n_generated=result.stats.n_generated,
        time_ms=search_ms,
        heuristic_ms=heuristic_ms,
        solution_costs=costs,
    )
    return report, result


SAMPLE_DRAWS = 10_000


def sample_queries(
    g: BiGraph,
    n_queries: int,
    seed: int,
    h_cache_dir: str | None = None,
) -> list[tuple[int, int, HeuristicTable, float]]:
    """Seeded uniform (start, goal, table, heuristic_ms) queries, goal reachable.

    Reachability is judged from the goal's h1 table. Each drawn goal's
    table is loaded or built once (and cached in h_cache_dir when given),
    then shared by every query to that goal along with the milliseconds
    that one load or build took. Draws that fail the check still consume
    the generator, keeping the sequence deterministic for a given seed.
    Raises GenerationError when the graph has no vertices or
    ``SAMPLE_DRAWS`` draws do not yield enough reachable queries.
    """
    rng = random.Random(seed)
    n = g.vertex_count
    if n_queries > 0 and n == 0:
        raise GenerationError("cannot sample queries from a graph with no vertices")
    tables: dict[int, tuple[HeuristicTable, float]] = {}
    queries: list[tuple[int, int, HeuristicTable, float]] = []
    attempts = 0
    while len(queries) < n_queries:
        if attempts >= SAMPLE_DRAWS:
            raise GenerationError(
                f"could not sample {n_queries} reachable queries in {SAMPLE_DRAWS} draws"
            )
        attempts += 1
        start = rng.randrange(n)
        goal = rng.randrange(n)
        if goal not in tables:
            t0 = time.perf_counter()
            h = load_or_compute_heuristics(g, goal, h_cache_dir)
            tables[goal] = h, (time.perf_counter() - t0) * 1000.0
        h, heuristic_ms = tables[goal]
        if h.reachable(start):
            queries.append((start, goal, h, heuristic_ms))
    return queries


def bench_run(
    g: BiGraph,
    n_queries: int,
    seed: int,
    eps_grid: tuple[ApproxFactor, ...],
    algorithms: tuple[str, ...],
    h_cache_dir: str | None = None,
) -> list[QueryReport]:
    """Run the benchmark grid over seeded random queries, in query order."""
    rows = []
    for query_id, (start, goal, h, heuristic_ms) in enumerate(
        sample_queries(g, n_queries, seed, h_cache_dir=h_cache_dir)
    ):
        for algorithm in algorithms:
            for eps in eps_grid:
                report, _ = solve_query(
                    g, start, goal, algorithm, eps,
                    query_id=query_id, h=h, heuristic_ms=heuristic_ms,
                )
                rows.append(report)
    return rows


def _fmt_agg(value: float) -> str:
    """Counts (ints) exactly, averages to six significant digits."""
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def summary_rows(reports: list[QueryReport]) -> list[str]:
    """Aggregate rows per (algorithm, eps1, eps2), in first-appearance order."""
    groups: dict[tuple[str, float, float], list[QueryReport]] = {}
    for r in reports:
        groups.setdefault((r.algorithm, r.eps1, r.eps2), []).append(r)
    rows = []
    for (algorithm, eps1, eps2), group in groups.items():
        metrics = {
            "n_solutions": [r.n_solutions for r in group],
            "n_expanded": [r.n_expanded for r in group],
            "n_generated": [r.n_generated for r in group],
            "time_ms": [r.time_ms for r in group],
            "heuristic_ms": [r.heuristic_ms for r in group],
        }
        for kind, agg in (("avg", lambda xs: sum(xs) / len(xs)), ("min", min), ("max", max)):
            rows.append(
                ",".join(
                    (
                        kind,
                        "",
                        "",
                        algorithm,
                        f"{eps1:g}",
                        f"{eps2:g}",
                        _fmt_agg(agg(metrics["n_solutions"])),
                        _fmt_agg(agg(metrics["n_expanded"])),
                        _fmt_agg(agg(metrics["n_generated"])),
                        f"{agg(metrics['time_ms']):.3f}",
                        f"{agg(metrics['heuristic_ms']):.3f}",
                        "",
                    )
                )
            )
    return rows


def render_csv(reports: list[QueryReport], with_summary: bool = True) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(r.csv_row() for r in reports)
    if with_summary and reports:
        lines.extend(summary_rows(reports))
    return "\n".join(lines) + "\n"


@dataclass
class VerifyCell:
    """Pass/fail tally for one (algorithm, eps) grid cell."""

    passed: int = 0
    failed: int = 0


@dataclass
class VerifySummary:
    """Aggregate outcome of a verification sweep."""

    instances_requested: int
    instances_checked: int = 0
    skipped_seeds: list[int] = field(default_factory=list)
    cells: dict[tuple[str, float, float], VerifyCell] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    candidate_costs: int = 0
    member_costs: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


VERIFY_ALGORITHMS = ("boa_eps", "ppa")


def verify_run(
    n_instances: int,
    seed: int,
    eps_grid: tuple[ApproxFactor, ...],
    n_max: int = 50,
    out_degree_max: int = 4,
    cost_max: int = 10,
    label_budget: int = 100_000,
) -> VerifySummary:
    """Cross-check both engines against the oracle over random instances.

    Instance i uses seed ``seed + i``. Instances whose exact frontier
    outgrows the label budget are skipped and reported, not failed. Hard
    conditions per (instance, eps, algorithm): the engine's cost set must
    cover the exact frontier within eps and be mutually non-dominated.
    """
    summary = VerifySummary(instances_requested=n_instances)
    for i in range(n_instances):
        instance_seed = seed + i
        g, start, goal = random_instance(
            instance_seed, n_max=n_max, out_degree_max=out_degree_max, cost_max=cost_max
        )
        try:
            exact = exact_frontier(g, start, goal, label_budget=label_budget)
        except LabelBudgetError:
            summary.skipped_seeds.append(instance_seed)
            continue
        summary.instances_checked += 1
        h = load_or_compute_heuristics(g, goal)
        for eps in eps_grid:
            for algorithm in VERIFY_ALGORITHMS:
                result = run_engine(g, h, start, goal, algorithm, eps)
                report = check_approx_frontier(result.solution_costs(), exact, eps)
                cell = summary.cells.setdefault(
                    (algorithm, eps.eps1, eps.eps2), VerifyCell()
                )
                summary.candidate_costs += report.n_candidates
                summary.member_costs += report.n_members
                if report.ok:
                    cell.passed += 1
                else:
                    cell.failed += 1
                    summary.failures.append(
                        f"seed {instance_seed} ({start + 1}->{goal + 1}) "
                        f"{algorithm} eps=({eps.eps1:g},{eps.eps2:g}): "
                        f"uncovered={list(report.uncovered)} "
                        f"dominated={list(report.dominated_pairs)}"
                    )
    return summary
