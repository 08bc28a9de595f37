"""Query execution, reporting, benchmarking, and verification sweeps.

A query report captures one (source, target, algorithm, slack) run. The
report schema is ``QueryReport``'s fields: in field order they are the
CSV columns (``CSV_COLUMNS``) and the keys of the ``solve`` JSON.
``solution_costs`` is semicolon-joined ``c1:c2`` entries in the CSV and
``[c1, c2]`` lists in the JSON. Vertex ids in reports are 1-based,
matching the DIMACS files the graphs come from.
Search time and heuristic time are reported separately. ``solve_query``
without a given table builds one settled through its start and at least
60% of the vertices (see ``heuristics``): ``heuristic_ms`` covers the
cache load or that build, plus the cache write after the search, and
``time_ms`` covers the search, including whatever it settles of the
table on demand. A cache hit checks its entry in ``heuristic_ms`` but
copies each entry the search reads in ``time_ms``. A benchmark's tables
are complete, and its ``heuristic_ms`` is one build or load per goal. A
benchmark runs ``boa`` once per query, at zero slack.
After the data rows a benchmark appends, per (algorithm, eps1, eps2) in
first-appearance order, three summary rows whose ``query_id`` column says
``avg``, ``min``, or ``max``; their endpoint and cost columns are empty.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, fields

from .boa import boa_search
from .graph import BiGraph, CostVec
from .heuristics import HeuristicTable, load_or_compute_heuristics, store_heuristics
from .oracle import (
    GenerationError,
    LabelBudgetError,
    check_approx_frontier,
    exact_frontier,
    random_instance,
)
from .pareto import EXACT, ApproxFactor, SearchResult, slack_label
from .ppa import ppa_search


@dataclass
class QueryReport:
    """One benchmark row, data or summary, or one solve response."""

    query_id: int | str
    source: int | str
    target: int | str
    algorithm: str
    eps1: float
    eps2: float
    n_solutions: int | float
    n_expanded: int | float
    n_generated: int | float
    time_ms: float
    heuristic_ms: float
    solution_costs: list[CostVec]

    def to_json_dict(self, paths: list[list[int]] | None = None) -> dict:
        payload = {name: getattr(self, name) for name in CSV_COLUMNS}
        payload["time_ms"] = round(self.time_ms, 3)
        payload["heuristic_ms"] = round(self.heuristic_ms, 3)
        payload["solution_costs"] = [[c.c1, c.c2] for c in self.solution_costs]
        if paths is not None:
            payload["solution_paths"] = paths
        return payload

    def csv_row(self) -> str:
        """Counts print exactly when they are ints, averages to six digits."""
        counts = (self.n_solutions, self.n_expanded, self.n_generated)
        costs = ";".join(f"{c.c1}:{c.c2}" for c in self.solution_costs)
        return ",".join(
            (
                str(self.query_id),
                str(self.source),
                str(self.target),
                self.algorithm,
                slack_label(self.eps1),
                slack_label(self.eps2),
                *(str(n) if isinstance(n, int) else f"{n:.6g}" for n in counts),
                f"{self.time_ms:.3f}",
                f"{self.heuristic_ms:.3f}",
                costs,
            )
        )


CSV_COLUMNS = tuple(f.name for f in fields(QueryReport))


def run_engine(
    g: BiGraph,
    h: HeuristicTable,
    start: int,
    goal: int,
    algorithm: str,
    eps: ApproxFactor,
) -> SearchResult:
    """Dispatch one 0-based query to the named engine.

    ``boa`` is exact and raises ValueError at a nonzero slack; ``boa_eps``
    and ``ppa`` honor ``eps``.
    """
    if algorithm == "boa":
        if eps.eps1 or eps.eps2:
            raise ValueError(
                f"boa is exact; use boa_eps at slack "
                f"({slack_label(eps.eps1)}, {slack_label(eps.eps2)})"
            )
        return boa_search(g, h, start, goal, eps)
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
    """Run one 0-based query end to end and report it with 1-based ids.

    Without ``h`` the table is loaded or built for this start, and with
    ``h_cache_dir`` stored after the search if the search grew it.
    ``heuristic_ms`` then covers the load or build and the store, and
    ``time_ms`` the search, including any settling it asks of the table
    and the entries it copies from a cache hit.
    """
    store = h is None and h_cache_dir is not None
    if h is None:
        t0 = time.perf_counter()
        h = load_or_compute_heuristics(g, goal, h_cache_dir, start)
        heuristic_ms = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    result = run_engine(g, h, start, goal, algorithm, eps)
    search_ms = (time.perf_counter() - t0) * 1000.0
    if store:
        t0 = time.perf_counter()
        store_heuristics(g, h, h_cache_dir)
        heuristic_ms += (time.perf_counter() - t0) * 1000.0
    costs = result.costs
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
        if h.settle(start):
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
    """Run the grid over seeded random queries, in query order; ``boa`` runs only at 0."""
    rows = []
    for query_id, (start, goal, h, heuristic_ms) in enumerate(
        sample_queries(g, n_queries, seed, h_cache_dir=h_cache_dir)
    ):
        for algorithm in algorithms:
            for eps in (EXACT,) if algorithm == "boa" else eps_grid:
                report, _ = solve_query(
                    g, start, goal, algorithm, eps,
                    query_id=query_id, h=h, heuristic_ms=heuristic_ms,
                )
                rows.append(report)
    return rows


def summary_rows(reports: list[QueryReport]) -> list[str]:
    """Aggregate rows per (algorithm, eps1, eps2), in first-appearance order."""
    groups: dict[tuple[str, float, float], list[QueryReport]] = {}
    for r in reports:
        groups.setdefault((r.algorithm, r.eps1, r.eps2), []).append(r)
    measures = [f.name for f in fields(QueryReport)[6:-1]]  # between the key and the costs
    rows = []
    for (algorithm, eps1, eps2), group in groups.items():
        columns = [[getattr(r, name) for r in group] for name in measures]
        for kind, agg in (("avg", lambda xs: sum(xs) / len(xs)), ("min", min), ("max", max)):
            summary = QueryReport(kind, "", "", algorithm, eps1, eps2, *map(agg, columns), [])
            rows.append(summary.csv_row())
    return rows


def render_csv(reports: list[QueryReport]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(r.csv_row() for r in reports)
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
    failures: list[tuple[int, ApproxFactor, str]] = field(default_factory=list)
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
    Each failure is recorded as ``(instance seed, eps, description)``.
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
                report = check_approx_frontier(result.costs, exact, eps)
                cell = summary.cells.setdefault(
                    (algorithm, eps.eps1, eps.eps2), VerifyCell()
                )
                summary.candidate_costs += report.n_candidates
                summary.member_costs += report.n_members
                if report.ok:
                    cell.passed += 1
                else:
                    cell.failed += 1
                    summary.failures.append((instance_seed, eps, (
                        f"seed {instance_seed} ({start + 1}->{goal + 1}) "
                        f"{algorithm} eps=({slack_label(eps.eps1)},{slack_label(eps.eps2)}): "
                        f"uncovered={list(report.uncovered)} "
                        f"dominated={list(report.dominated_pairs)}"
                    )))
    return summary
