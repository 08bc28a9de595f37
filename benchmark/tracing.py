"""Spans around calls into each layer, installed from outside the package.

``Tracer.install`` wraps every public function named in ``LAYER_CALLS`` at
every place a ``biroute`` module (or the benchmark's ``workloads`` module)
binds it, so ``bench``'s own ``from .boa import boa_search`` is traced as
well as the module attribute. Spans stay in memory as lists
``[name, start, end, parent, op, cell, attrs]``; ``parent`` indexes the
tracer's span list.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

from workloads import CELL_NAMES, COUNTERS

# (layer, module that defines the functions, function names)
LAYER_CALLS = (
    ("graph", "biroute.graph", ("load_bigraph", "load_gr", "build_bigraph")),
    ("heuristics", "biroute.heuristics",
     ("load_or_compute_heuristics", "compute_heuristics", "graph_digest")),
    ("boa", "biroute.boa", ("boa_search",)),
    ("ppa", "biroute.ppa", ("ppa_search",)),
    ("oracle", "biroute.oracle", ("random_instance", "exact_frontier", "check_approx_frontier")),
    ("bench", "biroute.bench", ("solve_query", "run_engine")),
    ("bench", "workloads", ("emit",)),
    ("op", "workloads", ("map_op", "verify_op")),
)
# (layer, module, class, method)
LAYER_METHODS = (("pareto", "biroute.pareto", "SearchResult", "solution_vertices"),)
LAYERS = ("heuristics", "pareto", "boa", "ppa", "oracle", "bench", "other")


def _engine_counts(result):
    stats = result.stats
    return (stats.n_expanded, stats.n_generated, stats.n_merges,
            len(result.arena), len(result.solutions))


ANNOTATE = {
    "boa_search": _engine_counts,
    "ppa_search": _engine_counts,
    "exact_frontier": len,
    "load_bigraph": lambda g: g.edge_count,
}


class Tracer:
    """Collects spans; ``install``/``uninstall`` swap the wrappers in and out.

    The binding sites are found once, at construction, so swapping costs a
    few dozen attribute writes and can be done around every single op.
    """

    def __init__(self, probe):
        self.probe = probe
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._sites: list[tuple] = []
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "biroute" or n.startswith("biroute.") or n == "workloads"
        ]
        for layer, home, names in LAYER_CALLS:
            for fname in names:
                fn = getattr(sys.modules[home], fname)
                wrapper = self._wrap(f"{layer}.{fname}", fn, ANNOTATE.get(fname))
                self._sites.extend(
                    (mod, attr, fn, wrapper)
                    for mod in modules
                    for attr, value in vars(mod).items()
                    if value is fn
                )
        for layer, home, cls_name, meth in LAYER_METHODS:
            cls = getattr(sys.modules[home], cls_name)
            fn = vars(cls)[meth]
            self._sites.append((cls, meth, fn, self._wrap(f"{layer}.{meth}", fn, None)))

    def _wrap(self, name, fn, annotate):
        spans, stack, probe = self.spans, self._stack, self.probe

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, probe.op, probe.cell, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span[6] = annotate(result)
            return result

        return traced

    def install(self) -> None:
        for obj, attr, _, wrapper in self._sites:
            setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, fn, _ in self._sites:
            setattr(obj, attr, fn)


def _self_times(spans, base):
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3] - base] -= s[2] - s[1]
    return own


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def setup_metrics(spans) -> dict[str, float]:
    """Layer metrics of one set-up: the loader's parts and instance generation."""
    total = defaultdict(float)
    arcs = 0
    for name, t0, t1, _, _, _, attrs in spans:
        total[name] += t1 - t0
        if name == "graph.load_bigraph":
            arcs = attrs
    parse_s, build_s = total["graph.load_gr"], total["graph.build_bigraph"]
    return {
        "graph.parse_s": parse_s,
        "graph.build_s": build_s,
        "graph.us_per_arc": (parse_s + build_s) / arcs * 1e6 if arcs else 0.0,
        "oracle.generate_s": total["oracle.random_instance"],
    }


def pass_metrics(spans, base) -> dict[str, float]:
    """Layer metrics of one traced pass; ``base`` is the index of ``spans[0]``."""
    own = _self_times(spans, base)
    durations = defaultdict(list)
    self_by_name = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    cells = {c: [0.0] * (1 + len(COUNTERS)) for c in CELL_NAMES}
    miss_parents = set()
    frontier_sizes = []
    for i, (name, t0, t1, parent, _, cell, attrs) in enumerate(spans):
        layer = name.split(".", 1)[0]
        layer_self["other" if layer == "op" else layer] += own[i]
        durations[name].append(t1 - t0)
        self_by_name[name] += own[i]
        if name == "heuristics.compute_heuristics" and parent is not None:
            miss_parents.add(parent)
        elif name in ("boa.boa_search", "ppa.ppa_search"):
            totals = cells[cell]
            totals[0] += own[i]
            for k, v in enumerate(attrs, start=1):
                totals[k] += v
        elif name == "oracle.exact_frontier":
            frontier_sizes.append(attrs)
    hits, misses = [], []
    for i, s in enumerate(spans):
        if s[0] == "heuristics.load_or_compute_heuristics":
            (misses if base + i in miss_parents else hits).append(s[2] - s[1])
    ops = durations["op.map_op"] + durations["op.verify_op"]
    n_ops, op_s = len(ops), sum(ops)
    m = {
        "heuristics.digest_calls": len(durations["heuristics.graph_digest"]),
        "heuristics.digest_ms": _mean(durations["heuristics.graph_digest"]) * 1e3,
        "heuristics.hit_ms": _mean(hits) * 1e3,
        "heuristics.hit_ratio": len(hits) / (len(hits) + len(misses)) if hits or misses else 0.0,
        "heuristics.compute_calls": len(durations["heuristics.compute_heuristics"]),
        "heuristics.compute_ms": _mean(durations["heuristics.compute_heuristics"]) * 1e3,
        "heuristics.miss_ms": _mean(misses) * 1e3,
    }
    for cell, (self_s, *counts) in cells.items():
        m[f"{cell}.self_s"] = self_s
        m.update((f"{cell}.{k}", v) for k, v in zip(COUNTERS, counts))
        m[f"{cell}.us_per_exp"] = self_s / counts[0] * 1e6 if counts[0] else 0.0
    exact_ppa = dict(zip(COUNTERS, cells["ppa-0"][1:]))
    generated = exact_ppa["generated"] or 1
    m["ppa.arena_per_gen"] = exact_ppa["arena"] / generated
    m["ppa.merge_per_gen"] = exact_ppa["merges"] / generated
    m["boa.us_per_call"] = _mean(durations["boa.boa_search"]) * 1e6
    m["ppa.us_per_call"] = _mean(durations["ppa.ppa_search"]) * 1e6
    m["pareto.project_ms"] = sum(durations["pareto.solution_vertices"]) / n_ops * 1e3
    m["bench.emit_ms"] = sum(durations["bench.emit"]) / n_ops * 1e3
    m["bench.self_ms"] = self_by_name["bench.solve_query"] / n_ops * 1e3
    m["oracle.frontier_s"] = sum(durations["oracle.exact_frontier"])
    m["oracle.check_s"] = sum(durations["oracle.check_approx_frontier"])
    m["oracle.frontier_size"] = _mean(frontier_sizes)
    m.update((f"share.{layer}", t / op_s) for layer, t in layer_self.items())
    return m


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
