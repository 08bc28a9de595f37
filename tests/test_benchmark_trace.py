"""The benchmark's traced path: hooks, spans and layer metrics on a small grid.

``benchmark/run.py --trace 1`` wraps package functions by name and reads
fields of their results, so a renamed function or field breaks it without
failing any engine test. This runs the same ops, traced and untraced, on a
10x10 anticorrelated grid.
"""

import importlib
import json
import math
import random
import sys
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCHMARK))
    try:
        gen = importlib.import_module("gen")
        workloads = importlib.import_module("workloads")
        tracing = importlib.import_module("tracing")
        yield gen, workloads, tracing
    finally:
        sys.path.remove(str(BENCHMARK))


def traced(tracer, call):
    tracer.install()
    try:
        return call()
    finally:
        tracer.uninstall()


def answer(result):
    """What an engine result carries that the benchmark reads or prints."""
    stats = result.stats
    return (
        (stats.n_expanded, stats.n_generated, stats.n_merges),
        result.arena, result.solutions, result.costs, result.pairs,
        result.solution_costs(),
    )


def untimed(text):
    doc = json.loads(text)
    del doc["time_ms"], doc["heuristic_ms"]
    return doc


def test_hooked_names_exist(bench_modules):
    _, _, tracing = bench_modules
    for _, home, names in tracing.LAYER_CALLS:
        module = importlib.import_module(home)
        for name in names:
            assert callable(getattr(module, name, None)), f"{home}.{name}"
    for _, home, cls_name, meth in tracing.LAYER_METHODS:
        cls = getattr(importlib.import_module(home), cls_name)
        assert callable(vars(cls).get(meth)), f"{home}.{cls_name}.{meth}"


def test_traced_ops_match_untraced(bench_modules, tmp_path):
    gen, workloads, tracing = bench_modules
    from biroute import oracle

    g = gen.grid_graph(10, 10, "anticorrelated", random.Random(0))
    start, goal = 0, 99
    probe = workloads.Probe()
    tracer = tracing.Tracer(probe)
    for op, (name, algorithm, eps) in enumerate(workloads.CELLS):
        args = (g, start, goal, algorithm, eps)
        probe.op, probe.cell = op, name
        got, paths, text = traced(
            tracer, lambda: workloads.map_op(*args, str(tmp_path / "traced"))
        )
        want, want_paths, want_text = workloads.map_op(*args, str(tmp_path / "plain"))
        assert answer(got) == answer(want), name
        assert paths == want_paths and untimed(text) == untimed(want_text), name

    vg, vs, vt = oracle.random_instance(3)
    probe.op, probe.cell = len(workloads.CELLS), None
    ok, results, cell_s = traced(tracer, lambda: workloads.verify_op(vg, vs, vt, probe))
    want_ok, want_results, _ = workloads.verify_op(vg, vs, vt, workloads.Probe())
    assert ok and want_ok
    assert [answer(r) for r in results] == [answer(r) for r in want_results]
    assert [c for c, _ in cell_s] == list(workloads.CELL_NAMES)

    spans = tracer.spans
    layers = {span[0].split(".", 1)[0] for span in spans}
    assert set(tracing.LAYERS) - {"other"} <= layers
    assert sum(span[0] in ("op.map_op", "op.verify_op") for span in spans) == len(
        workloads.CELLS
    ) + 1
    metrics = tracing.pass_metrics(spans, 0)
    assert metrics
    bad = {k: v for k, v in metrics.items() if not math.isfinite(v)}
    assert not bad
