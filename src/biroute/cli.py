"""Command-line interface: solve one query, run a benchmark, or verify.

Exit codes: 0 success, 1 usage error, 2 bad data (unreadable or
inconsistent graph files, or a graph that cannot supply the requested
queries; ``main`` maps the library's errors to it for every command),
3 verification failure. Vertex ids on the command line are 1-based, as
in the DIMACS files themselves.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from functools import partial

from .bench import bench_run, render_csv, solve_query, verify_run
from .graph import ArcMismatchError, BiGraph, DimacsParseError, load_bigraph
from .oracle import GenerationError
from .pareto import ApproxFactor, slack_label

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

_ALG_FLAGS = {"boa": "boa", "boa-eps": "boa_eps", "ppa": "ppa"}


class _Parser(argparse.ArgumentParser):
    """argparse front end that reserves exit status 1 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _eps_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"approximation factors must be finite: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("approximation factors must be nonnegative")
    return value


def _alg_name(text: str) -> str:
    name = text.strip()
    if name not in _ALG_FLAGS:
        raise argparse.ArgumentTypeError(
            f"unknown algorithm {name!r} (choose from {', '.join(_ALG_FLAGS)})"
        )
    return _ALG_FLAGS[name]


def _comma_list(item, what: str):
    """Flag type for a comma-separated list of ``item``s, each kept once."""

    def parse(text: str) -> tuple:
        # A repeat (say "0,0.0") would run its cells twice, so keep the first.
        parts = (item(part) for part in text.split(",") if part.strip())
        items = tuple(dict.fromkeys(parts))
        if not items:
            raise argparse.ArgumentTypeError(f"no {what} given")
        return items

    return parse


_eps_grid = _comma_list(_eps_value, "approximation factors")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="biroute",
        description="Bi-criteria shortest-path frontiers on DIMACS graph pairs.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = subparsers.add_parser("solve", help="answer one source-target query")
    solve.add_argument("--gr1", required=True, help="first-criterion .gr file")
    solve.add_argument("--gr2", required=True, help="second-criterion .gr file")
    solve.add_argument("--source", type=int, required=True, help="1-based source id")
    solve.add_argument("--target", type=int, required=True, help="1-based target id")
    solve.add_argument(
        "--alg", choices=sorted(_ALG_FLAGS), default="ppa", help="engine to run"
    )
    solve.add_argument("--eps", type=_eps_value, help="uniform slack for both criteria")
    solve.add_argument("--eps1", type=_eps_value, help="slack on the first criterion")
    solve.add_argument("--eps2", type=_eps_value, help="slack on the second criterion")
    solve.add_argument(
        "--paths", action="store_true", help="include full vertex sequences"
    )
    solve.add_argument("--h-cache", help="directory for cached heuristic tables")
    solve.set_defaults(func=partial(cmd_solve, solve))

    bench = subparsers.add_parser("bench", help="run a seeded benchmark, emit CSV")
    bench.add_argument("--gr1", required=True)
    bench.add_argument("--gr2", required=True)
    bench.add_argument("--queries", type=int, required=True, help="number of queries")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--eps-grid", type=_eps_grid, default=(0.0, 0.01, 0.025, 0.05, 0.1),
        help="comma-separated uniform slacks (default 0,0.01,0.025,0.05,0.1)",
    )
    bench.add_argument(
        "--algs", type=_comma_list(_alg_name, "algorithms"), default=("boa_eps", "ppa"),
        help="comma-separated engines (default boa-eps,ppa)",
    )
    bench.add_argument("--out", help="CSV output path (default stdout)")
    bench.add_argument("--h-cache", help="directory for cached heuristic tables")
    bench.set_defaults(func=partial(cmd_bench, bench))

    verify = subparsers.add_parser(
        "verify", help="cross-check engines against the oracle on random instances"
    )
    verify.add_argument("--instances", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--eps-grid", type=_eps_grid, default=(0.0, 0.01, 0.1, 0.5, 1.0)
    )
    verify.add_argument("--max-n", type=int, default=50)
    verify.add_argument("--max-degree", type=int, default=4)
    verify.add_argument("--max-cost", type=int, default=10)
    verify.add_argument("--label-budget", type=int, default=100_000)
    verify.set_defaults(func=partial(cmd_verify, verify))

    return parser


def _load_graph(parser: _Parser, gr1: str, gr2: str) -> BiGraph:
    try:
        return load_bigraph(gr1, gr2)
    except OSError as exc:
        parser.error(f"cannot read graph file: {exc}")


def _resolve_eps(parser: _Parser, args) -> ApproxFactor:
    if args.eps is None:
        return ApproxFactor(args.eps1 or 0.0, args.eps2 or 0.0)
    if args.eps1 is not None or args.eps2 is not None:
        parser.error("--eps conflicts with --eps1/--eps2")
    return ApproxFactor.uniform(args.eps)


def cmd_solve(parser: _Parser, args) -> int:
    eps = _resolve_eps(parser, args)
    algorithm = _ALG_FLAGS[args.alg]
    if algorithm == "boa" and (eps.eps1 or eps.eps2):
        parser.error("--alg boa is exact; use boa-eps for a nonzero slack")
    g = _load_graph(parser, args.gr1, args.gr2)
    for name, vid in (("source", args.source), ("target", args.target)):
        if not (1 <= vid <= g.vertex_count):
            parser.error(f"--{name} {vid} outside [1, {g.vertex_count}]")
    report, result = solve_query(
        g, args.source - 1, args.target - 1, algorithm, eps,
        h_cache_dir=args.h_cache,
    )
    paths = None
    if args.paths:
        paths = [
            [v + 1 for v in result.solution_vertices(i)]
            for i in range(len(result.solutions))
        ]
    print(json.dumps(report.to_json_dict(paths)))
    return EXIT_OK


def cmd_bench(parser: _Parser, args) -> int:
    if args.queries < 0:
        parser.error("--queries must be nonnegative")
    # Open --out before the run, as a shell redirection would, so that a
    # path that cannot be written fails before any work is done.
    try:
        out = open(args.out, "w", encoding="ascii") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        parser.error(f"cannot write --out file: {exc}")
    with out as stream:
        g = _load_graph(parser, args.gr1, args.gr2)
        eps_grid = tuple(ApproxFactor.uniform(e) for e in args.eps_grid)
        reports = bench_run(
            g, args.queries, args.seed, eps_grid, args.algs, h_cache_dir=args.h_cache
        )
        stream.write(render_csv(reports))
    return EXIT_OK


def cmd_verify(parser: _Parser, args) -> int:
    if args.instances < 0:
        parser.error("--instances must be nonnegative")
    for flag, value, least in (
        ("--max-n", args.max_n, 1),
        ("--max-cost", args.max_cost, 1),
        ("--max-degree", args.max_degree, 0),
        ("--label-budget", args.label_budget, 1),
    ):
        if value < least:
            parser.error(f"{flag} must be at least {least}, got {value}")
    eps_grid = tuple(ApproxFactor.uniform(e) for e in args.eps_grid)
    summary = verify_run(
        args.instances,
        args.seed,
        eps_grid,
        n_max=args.max_n,
        out_degree_max=args.max_degree,
        cost_max=args.max_cost,
        label_budget=args.label_budget,
    )
    for (algorithm, eps1, eps2), cell in sorted(summary.cells.items()):
        total = cell.passed + cell.failed
        slack = f"{slack_label(eps1)},{slack_label(eps2)}"
        print(f"eps=({slack}) {algorithm}: {cell.passed}/{total} passed")
    if summary.candidate_costs:
        share = 100.0 * summary.member_costs / summary.candidate_costs
        print(
            f"candidate costs: {summary.candidate_costs}, "
            f"on exact frontier: {summary.member_costs} ({share:.1f}%, informational)"
        )
    if summary.skipped_seeds:
        print(f"skipped (label budget): seeds {summary.skipped_seeds}")
    print(f"instances checked: {summary.instances_checked}/{summary.instances_requested}")
    if not summary.ok:
        for instance_seed, eps, line in summary.failures:
            # The grid is uniform, and repr() gives back the exact double.
            print(
                f"FAIL {line}\n"
                f"repro: biroute verify --instances 1 --seed {instance_seed} "
                f"--max-n {args.max_n} --max-degree {args.max_degree} "
                f"--max-cost {args.max_cost} --label-budget {args.label_budget} "
                f"--eps-grid {eps.eps1!r}",
                file=sys.stderr,
            )
        return EXIT_VERIFY
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Each command holds its own subparser, so errors print its usage line.
    try:
        return args.func(args)
    except (DimacsParseError, ArcMismatchError, GenerationError) as exc:
        print(f"biroute: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
