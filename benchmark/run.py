#!/usr/bin/env python3
"""Layered benchmark of biroute: one workload per process, every answer checked.

Run from the repository root:

    python3 benchmark/run.py --workload grid-frontier --seed 1 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing instrumented,
and reports times at a reference host speed (see hostspeed.py).
``--trace 1`` runs every op twice, plain and then traced, and reports the
per-layer metrics and the traced/plain time ratio. The last line
on stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Workloads, ops and metrics are described in
benchmark/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "biroute"
WORK = ROOT / ".benchwork"
SETUP_MIN_REPS, SETUP_SHARE, SETUP_SLOT_S = 5, 0.1, 0.5
# Reference chunks run for this share of the timed time (hostspeed.HostClock).
PACE_DUTY = 0.2
WORKLOAD_NAMES = ("grid-frontier", "road-batch", "verify-sweep")


def import_package() -> None:
    """Put the checkout's ``src`` first on the path, or stop without a result."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import biroute

    if Path(biroute.__file__).resolve().parent != PACKAGE:
        sys.exit(f"benchmark: imported {biroute.__file__}, expected {PACKAGE}")


def unit(name: str) -> str:
    if name == "ops_per_s":
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s") or name.startswith("frontier_s."):
        return "s"
    if name.endswith("_ms") or name.startswith("op_ms."):
        return "ms"
    if ".us_per_" in name:
        return "us"
    if name.startswith("share.") or name.endswith(
        ("_ratio", "_per_gen", "success_rate", "overhead")
    ):
        return "ratio"
    return "count"


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Tally:
    """Folds in each pass as it ends, keeping only what the report needs.

    Each op (and each cell answer) counts at the mean of its tries, one per
    pass. Only the first pass is sure to be whole; the last may be cut short
    at the deadline, and then adds a try to the ops it reached.
    """

    def __init__(self):
        self.passes = self.attempted = self.failed = 0
        self.op_sums: list[float] = []
        self.op_tries: list[int] = []
        self.cell_names: list[str] = []
        self.cell_sums: list[float] = []
        self.cell_tries: list[int] = []
        self.first = None
        self.repeatable = True
        self.overheads: list[float] = []

    def add(self, copies) -> None:
        plain = copies[0]
        if self.passes == 0:
            self.first = plain
            self.op_sums, self.op_tries = [0.0] * len(plain.op_s), [0] * len(plain.op_s)
            self.cell_names = [cell for cell, _ in plain.cell_s]
            self.cell_sums, self.cell_tries = [0.0] * len(plain.cell_s), [0] * len(plain.cell_s)
        for i, dt in enumerate(plain.op_s):
            self.op_sums[i] += dt
            self.op_tries[i] += 1
        for k, (_, dt) in enumerate(plain.cell_s):
            self.cell_sums[k] += dt
            self.cell_tries[k] += 1
        self.passes += 1
        for copy in copies:
            self.attempted += len(copy.op_s)
            self.failed += copy.failed
            self.repeatable &= copy.answers == self.first.answers[:len(copy.answers)]
        if len(copies) > 1:
            self.overheads.append(sum(copies[1].op_s) / sum(plain.op_s) - 1.0)

    def op_means(self) -> list[float]:
        return [t / n for t, n in zip(self.op_sums, self.op_tries)]

    def cell_totals(self) -> dict[str, float]:
        """Per cell, the sum over its answers of each answer's mean time."""
        totals: dict[str, float] = {}
        for cell, t, n in zip(self.cell_names, self.cell_sums, self.cell_tries):
            totals[cell] = totals.get(cell, 0.0) + t / n
        return totals


def run_workload(args) -> int:
    import_package()
    import hostspeed
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    probe = workloads.Probe()
    tracer = tracing.Tracer(probe) if args.trace else None
    # A traced run makes a plain and a traced copy of every op, one right
    # after the other, so both see the same host speed.
    tracers = [None] if tracer is None else [None, tracer]
    # An untraced run scales its times to the reference host speed. Set-ups
    # keep a clock of their own, since they run in a few clumps.
    clock = None if tracer else hostspeed.HostClock(PACE_DUTY)
    setup_clock = None if tracer else hostspeed.HostClock(PACE_DUTY)
    pace = clock.pace if clock else None
    setup_s, setup_layers, samples = [], [], []
    tally = Tally()

    def set_up():
        mark = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            return wl.setup(inputs)
        finally:
            setup_s.append(time.perf_counter() - t0)
            if setup_clock:
                setup_clock.pace(setup_s[-1])
            if tracer:
                tracer.uninstall()
                setup_layers.append(tracing.setup_metrics(tracer.spans[mark:]))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = wl.make_inputs(args.seed, workdir)
        # Passes until --seconds have gone by: the first whole, the last cut
        # at the deadline. Set-ups are repeated between passes, spread over
        # the run, while they take less than SETUP_SHARE of it; each time
        # until SETUP_SLOT_S has gone by, so short set-ups get many samples.
        state = None
        t_start = time.perf_counter()
        deadline = t_start + args.seconds
        while tally.passes == 0 or time.perf_counter() < deadline:
            if not setup_s or sum(setup_s) < SETUP_SHARE * (time.perf_counter() - t_start):
                state = None
                slot_end = time.perf_counter() + SETUP_SLOT_S
                while state is None or time.perf_counter() < slot_end:
                    state = None
                    state = set_up()
            mark = len(tracer.spans) if tracer else 0
            copies = wl.run_pass(state, probe, tally.passes, tracers,
                                 deadline if tally.passes else None, pace)
            whole = tally.passes == 0 or len(copies[0].op_s) == len(tally.op_sums)
            tally.add(copies)
            # Per-pass counts hold only for whole passes.
            if tracer and whole:
                samples.append(tracing.pass_metrics(tracer.spans[mark:], mark))
        while len(setup_s) < SETUP_MIN_REPS:
            state = None
            state = set_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally.attempted, tally.failed
    measured = {}
    if tracer:
        metrics = tracing.median_metrics(setup_layers) | tracing.median_metrics(samples)
        metrics["trace.overhead"] = statistics.median(tally.overheads)
        write_spans(tracer.spans, WORK / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        ops = tally.op_means()
        measured = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": len(ops) / sum(ops),
            "op_ms.p50": statistics.median(ops) * 1e3,
            "op_ms.p90": statistics.quantiles(ops, n=10)[8] * 1e3,
            "success_rate": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        cells = tally.cell_totals()
        for cell in workloads.CELL_NAMES:
            measured[f"frontier_s.{cell}"] = cells[cell]
        metrics = at_reference_speed(measured, clock.slowdown())
        metrics["setup_s"] = measured["setup_s"] / setup_clock.slowdown()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "params": wl.params,
        "passes": tally.passes,
        "ops_per_pass": len(tally.op_sums),
        "error_rate": failed / attempted,
        "repeatable": tally.repeatable,
        "fingerprint": tally.first.fingerprints(),
        "counters": {
            cell: dict(zip(workloads.COUNTERS, values))
            for cell, values in tally.first.counters.items()
        },
        "setup_runs_s": setup_s,
        "host_slowdown": clock.slowdown() if clock else None,
        "setup_host_slowdown": setup_clock.slowdown() if clock else None,
        "measured": measured,
        "metrics": metrics,
    }
    WORK.mkdir(exist_ok=True)
    with open(WORK / "records.jsonl", "a", encoding="utf-8") as out:
        out.write(json.dumps(record) + "\n")
    for name, value in metrics.items():
        print(f"{args.workload:14} {name:28} {value:14.6f} {unit(name)}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": failed == 0 and tally.repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


def at_reference_speed(measured: dict, slowdown: float) -> dict:
    """Times divided, and rates multiplied, by the host's slowdown."""
    scale = {"s": 1 / slowdown, "ms": 1 / slowdown, "1/s": slowdown}
    return {k: v * scale.get(unit(k), 1.0) for k, v in measured.items()}


def write_spans(spans, path: Path) -> None:
    """All spans of the run, one JSON list per line, in recording order."""
    WORK.mkdir(exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as out:
        out.write("# name, start_s, end_s, parent_index, op, cell, attrs\n")
        for span in spans:
            out.write(json.dumps(span) + "\n")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.writelines(line + "\n" for line in lines[:-1])
        if proc.returncode != 0 or not lines:
            sys.exit(f"benchmark: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{wl}:{k}": v for wl, r in results.items() for k, v in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
