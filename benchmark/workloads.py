"""The three workloads: inputs from a seed, the timed op, the answer checks.

Every call into the package goes through a module attribute (``bench.solve_query``,
``oracle.exact_frontier``, ...) looked up at call time, so that a traced run can
swap in wrappers without this file knowing. ``map_op``, ``verify_op`` and
``emit`` are looked up the same way for the same reason.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from biroute import bench, graph, heuristics, oracle
from biroute.oracle import FrontierSet
from biroute.pareto import EXACT, ApproxFactor

from gen import grid_graph, grid_queries

# (cell name, bench algorithm, slack); every workload answers each query in
# every cell.
CELLS = (
    ("boa-0", "boa", EXACT),
    ("boa-eps-0.01", "boa_eps", ApproxFactor.uniform(0.01)),
    ("ppa-0", "ppa", EXACT),
    ("ppa-0.01", "ppa", ApproxFactor.uniform(0.01)),
    ("ppa-0.1", "ppa", ApproxFactor.uniform(0.1)),
)
CELL_NAMES = tuple(name for name, _, _ in CELLS)
COUNTERS = ("expanded", "generated", "merges", "arena", "solutions")


class Probe:
    """Labels the op in flight; a tracer reads it when it opens a span."""

    op: int | None = None
    cell: str | None = None


@dataclass
class PassResult:
    """What one pass over a workload's op set measured and produced."""

    op_s: list[float] = field(default_factory=list)
    # (cell, seconds) of every engine answer, in the same order every pass.
    cell_s: list[tuple[str, float]] = field(default_factory=list)
    failed: int = 0
    # repr((sorted costs, counters)) of every engine answer, in order; equal
    # passes give equal lists, and a cut-short pass gives a prefix.
    answers: list[str] = field(default_factory=list)
    counters: dict[str, list[int]] = field(
        default_factory=lambda: {c: [0] * len(COUNTERS) for c in CELL_NAMES}
    )
    _hashes: dict = field(default_factory=lambda: {c: hashlib.sha256() for c in CELL_NAMES})

    def record(self, cell: str, result) -> list:
        """Fold one engine result into the cell's counters and fingerprint."""
        stats = result.stats
        values = (
            stats.n_expanded, stats.n_generated, stats.n_merges,
            len(result.arena), len(result.solutions),
        )
        totals = self.counters[cell]
        for i, v in enumerate(values):
            totals[i] += v
        costs = sorted(result.solution_costs())
        answer = repr((costs, values[:4]))
        self.answers.append(answer)
        self._hashes[cell].update(answer.encode())
        return costs

    def fingerprints(self) -> dict[str, str]:
        return {c: h.hexdigest()[:16] for c, h in self._hashes.items()}


def emit(report, paths) -> str:
    """The JSON line ``biroute solve --paths`` prints."""
    return json.dumps(report.to_json_dict(paths))


def map_op(g, start: int, goal: int, algorithm: str, eps, cache_dir: str):
    """One answer as ``biroute solve --h-cache DIR --paths`` computes it."""
    report, result = bench.solve_query(g, start, goal, algorithm, eps, h_cache_dir=cache_dir)
    paths = [[v + 1 for v in result.solution_vertices(i)] for i in range(len(result.solutions))]
    return result, paths, emit(report, paths)


def verify_op(g, start: int, goal: int, probe: Probe):
    """One instance verified the way ``verify_run`` does it, in every cell.

    Returns whether every cell passed, the results and each cell's
    ``run_engine`` time.
    """
    exact = oracle.exact_frontier(g, start, goal)
    h = heuristics.compute_heuristics(g, goal)
    ok = True
    results, cell_s = [], []
    for name, algorithm, eps in CELLS:
        probe.cell = name
        t0 = time.perf_counter()
        result = bench.run_engine(g, h, start, goal, algorithm, eps)
        cell_s.append((name, time.perf_counter() - t0))
        ok = oracle.check_approx_frontier(result.solution_costs(), exact, eps).ok and ok
        results.append(result)
    return ok, results, cell_s


def path_cost(g, path: list[int]):
    """Cost of a 1-based vertex sequence along ``g``'s arcs; None if not a path."""
    c1 = c2 = 0
    for u, v in zip(path, path[1:]):
        for target, cost in g.edges[u - 1]:
            if target == v - 1:
                c1, c2 = c1 + cost.c1, c2 + cost.c2
                break
        else:
            return None
    return (c1, c2)


def answer_ok(g, start: int, goal: int, result, paths, text: str) -> bool:
    """The printed JSON matches the result and every path has its cost."""
    costs = result.solution_costs()
    payload = json.loads(text)
    return (
        (payload["source"], payload["target"]) == (start + 1, goal + 1)
        and payload["solution_costs"] == [[c.c1, c.c2] for c in costs]
        and payload["solution_paths"] == paths
        and all(
            p[0] == start + 1 and p[-1] == goal + 1 and path_cost(g, p) == tuple(c)
            for p, c in zip(paths, costs)
        )
    )


def frontier_ok(costs: dict, eps_of: dict) -> dict[str, bool]:
    """Judge one query's cells against its ``boa-0`` frontier.

    ``boa-0`` must be a non-dominated set, ``ppa-0`` must equal it, and every
    slack cell must cover it within its slack while staying non-dominated.
    A missing answer (the op raised) fails, and so do its dependants.
    """
    ref = costs.get("boa-0")
    if ref is None:
        return dict.fromkeys(costs, False)
    exact = FrontierSet.from_costs(ref)
    verdict = {}
    for name, got in costs.items():
        if got is None:
            verdict[name] = False
        elif name in ("boa-0", "ppa-0"):
            verdict[name] = got == list(exact.costs)
        else:
            verdict[name] = oracle.check_approx_frontier(got, exact, eps_of[name]).ok
    return verdict


def past(deadline) -> bool:
    """Whether a cut-short pass should stop before its next query or instance."""
    return deadline is not None and time.perf_counter() > deadline


def timed(tracer, call, pace=None):
    """Run ``call()``, traced when a tracer is given.

    Returns its result, or None if it raised, and its wall time in seconds.
    ``pace``, if given, is then called with that time, outside the timing.
    """
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception:
        traceback.print_exc()
        result = None
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    if pace is not None:
        pace(dt)
    return result, dt


class MapWorkload:
    """Queries through ``solve_query`` on a grid map written as a ``.gr`` pair.

    The map is fixed per workload, as a real road map would be, and the
    seed draws the queries: redrawing the map per seed tripled the spread
    of grid-frontier's search work between seeds.
    """

    def __init__(self, name: str, rows: int, costs: str, queries: int, offset):
        self.name = name
        self.params = {
            "rows": rows, "cols": rows, "costs": costs, "map_seed": name,
            "queries": queries, "query_offset": offset, "cells": list(CELL_NAMES),
            "op": "solve_query(h_cache_dir) + solution_vertices + to_json_dict/json.dumps",
        }

    def make_inputs(self, seed: int, workdir: Path):
        p = self.params
        g = grid_graph(p["rows"], p["cols"], p["costs"], random.Random(p["map_seed"]))
        files = (str(workdir / "map.c1.gr"), str(workdir / "map.c2.gr"))
        graph.write_gr_pair(g, *files)
        rng = random.Random(f"{self.name}:{seed}")
        queries = grid_queries(p["rows"], p["cols"], p["queries"], rng, p["query_offset"])
        return files, queries, workdir

    def setup(self, inputs):
        files, queries, workdir = inputs
        return graph.load_bigraph(*files), queries, workdir

    def run_pass(self, state, probe: Probe, pass_no: int, tracers, deadline=None,
                 pace=None) -> list[PassResult]:
        """One pass per entry of ``tracers`` (None runs plain), op by op in step.

        ``pace`` gets each op's time, as in ``timed``. Each copy has its own fresh cache directory, so each sees the same
        misses and hits. Past ``deadline`` the pass stops before its next query.
        """
        g, queries, workdir = state
        outs = [PassResult() for _ in tracers]
        caches = [str(workdir / f"h-cache-{pass_no}-{k}") for k in range(len(tracers))]
        eps_of = {name: eps for name, _, eps in CELLS}
        try:
            for q, (start, goal) in enumerate(queries):
                if past(deadline):
                    break
                # Rotate the cell order so each cell takes its share of the
                # cache misses (the first op of a query computes the table).
                order = CELLS[q % len(CELLS):] + CELLS[:q % len(CELLS)]
                costs = [{} for _ in tracers]
                for name, algorithm, eps in order:
                    for out, cache, tracer, got in zip(outs, caches, tracers, costs):
                        probe.op, probe.cell = len(out.op_s), name
                        answer, dt = timed(
                            tracer, lambda: map_op(g, start, goal, algorithm, eps, cache), pace
                        )
                        probe.op = None
                        out.op_s.append(dt)
                        out.cell_s.append((name, dt))
                        ok = answer is not None and answer_ok(g, start, goal, *answer)
                        got[name] = out.record(name, answer[0]) if ok else None
                for out, got in zip(outs, costs):
                    out.failed += sum(not ok for ok in frontier_ok(got, eps_of).values())
        finally:
            probe.op = probe.cell = None
            for cache in caches:
                shutil.rmtree(cache, ignore_errors=True)
        return outs


class VerifyWorkload:
    """Oracle-checked sweeps over ``random_instance`` at ``biroute verify``'s defaults."""

    def __init__(self, instances: int):
        self.params = {
            "instances": instances, "n_max": 50, "out_degree_max": 4, "cost_max": 10,
            "cells": list(CELL_NAMES),
            "op": "exact_frontier + compute_heuristics + run_engine/check_approx_frontier per cell",
        }

    def make_inputs(self, seed: int, workdir: Path):
        n = self.params["instances"]
        return range(seed * n, seed * n + n)

    def setup(self, seeds):
        p = self.params
        return [
            oracle.random_instance(s, p["n_max"], p["out_degree_max"], p["cost_max"])
            for s in seeds
        ]

    def run_pass(self, instances, probe: Probe, pass_no: int, tracers, deadline=None,
                 pace=None) -> list[PassResult]:
        """One pass per entry of ``tracers`` (None runs plain), op by op in step.

        ``pace`` gets each op's time, as in ``timed``. Past ``deadline`` the pass stops before its next instance.
        """
        outs = [PassResult() for _ in tracers]
        try:
            for g, start, goal in instances:
                if past(deadline):
                    break
                for out, tracer in zip(outs, tracers):
                    probe.op = len(out.op_s)
                    answer, dt = timed(tracer, lambda: verify_op(g, start, goal, probe), pace)
                    probe.op = None
                    out.op_s.append(dt)
                    ok, results, cell_s = answer or (False, [], [])
                    out.cell_s.extend(cell_s)
                    for name, result in zip(CELL_NAMES, results):
                        out.record(name, result)
                    out.failed += not ok
        finally:
            probe.op = probe.cell = None
        return outs


WORKLOADS = {
    "grid-frontier": MapWorkload("grid-frontier", 30, "anticorrelated", 100, (8, 7)),
    "road-batch": MapWorkload("road-batch", 150, "correlated", 20, None),
    "verify-sweep": VerifyWorkload(1000),
}
