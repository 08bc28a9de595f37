"""Command-line surface: solve/bench/verify, exit codes, CSV output."""

import csv
import gzip
import io
import json
import zlib

import pytest

import biroute.heuristics as heuristics
from biroute import (
    EXACT,
    CostVec,
    QueryReport,
    bench_run,
    random_instance,
    render_csv,
    write_gr_pair,
)
from biroute.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def solve_json(capsys, g1_files, *extra):
    p1, p2 = g1_files
    code, out, err = run_cli(
        capsys, "solve", "--gr1", str(p1), "--gr2", str(p2),
        "--source", "1", "--target", "4", *extra,
    )
    assert code == EXIT_OK, err
    return json.loads(out)


class TestSolve:
    def test_exact_ppa(self, capsys, g1_files):
        doc = solve_json(capsys, g1_files)
        assert doc["algorithm"] == "ppa"
        assert doc["n_solutions"] == 2
        assert doc["solution_costs"] == [[2, 8], [8, 2]]
        assert doc["source"] == 1 and doc["target"] == 4

    def test_boa_matches_ppa_exactly(self, capsys, g1_files):
        a = solve_json(capsys, g1_files, "--alg", "boa")
        b = solve_json(capsys, g1_files, "--alg", "ppa")
        assert a["solution_costs"] == b["solution_costs"]

    def test_relaxed_solve_collapses(self, capsys, g1_files):
        doc = solve_json(capsys, g1_files, "--eps", "3", "--alg", "ppa")
        assert doc["solution_costs"] == [[2, 8]]
        assert doc["eps1"] == 3.0 and doc["eps2"] == 3.0

    def test_paths_flag_emits_one_based_routes(self, capsys, g1_files):
        doc = solve_json(capsys, g1_files, "--paths")
        assert doc["solution_paths"] == [[1, 2, 4], [1, 3, 4]]

    def test_split_eps_flags(self, capsys, g1_files):
        doc = solve_json(capsys, g1_files, "--eps1", "0.5", "--eps2", "0.25")
        assert (doc["eps1"], doc["eps2"]) == (0.5, 0.25)

    def test_unwritable_h_cache_still_answers(self, capsys, g1_files, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        docs = [
            solve_json(capsys, g1_files, "--paths"),
            solve_json(capsys, g1_files, "--paths", "--h-cache", str(blocker)),
        ]
        for doc in docs:  # the two timings differ from run to run
            del doc["time_ms"], doc["heuristic_ms"]
        assert docs[1] == docs[0]
        assert blocker.read_text() == "not a directory\n"

    def test_gzipped_input(self, capsys, g1, tmp_path):
        p1, p2 = tmp_path / "a.gr.gz", tmp_path / "b.gr.gz"
        write_gr_pair(g1, tmp_path / "a.gr", tmp_path / "b.gr")
        p1.write_bytes(gzip.compress((tmp_path / "a.gr").read_bytes()))
        p2.write_bytes(gzip.compress((tmp_path / "b.gr").read_bytes()))
        code, out, _ = run_cli(
            capsys, "solve", "--gr1", str(p1), "--gr2", str(p2),
            "--source", "1", "--target", "4",
        )
        assert code == EXIT_OK
        assert json.loads(out)["n_solutions"] == 2


class TestExitCodes:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_negative_eps_is_usage_error(self, capsys, g1_files):
        p1, p2 = g1_files
        code, _, err = run_cli(
            capsys, "solve", "--gr1", str(p1), "--gr2", str(p2),
            "--source", "1", "--target", "4", "--eps", "-0.5",
        )
        assert code == EXIT_USAGE
        assert "eps" in err

    @pytest.mark.parametrize("flag", ["--eps", "--eps1", "--eps2"])
    @pytest.mark.parametrize("value", ["inf", "nan", "NaN"])
    def test_non_finite_eps_is_usage_error(self, capsys, g1_files, flag, value):
        p1, p2 = g1_files
        code, _, err = run_cli(
            capsys, "solve", "--gr1", str(p1), "--gr2", str(p2),
            "--source", "1", "--target", "4", flag, value,
        )
        assert code == EXIT_USAGE
        assert "finite" in err

    def test_non_finite_eps_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--instances", "1", "--eps-grid", "0,inf"
        )
        assert code == EXIT_USAGE
        assert "finite" in err

    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_empty_eps_grid_is_usage_error(self, capsys, g1_files, command):
        p1, p2 = g1_files
        extra = {
            "verify": ("--instances", "3"),
            "bench": ("--gr1", str(p1), "--gr2", str(p2), "--queries", "1"),
        }[command]
        code, out, err = run_cli(capsys, command, *extra, "--eps-grid", ",")
        assert code == EXIT_USAGE
        assert err.startswith(f"usage: biroute {command} ")
        assert "no approximation factors given" in err
        assert out == ""

    def test_eps_conflicts_with_split_flags(self, capsys, g1_files):
        p1, p2 = g1_files
        code, _, _ = run_cli(
            capsys, "solve", "--gr1", str(p1), "--gr2", str(p2),
            "--source", "1", "--target", "4", "--eps", "1", "--eps1", "1",
        )
        assert code == EXIT_USAGE

    def test_boa_rejects_nonzero_eps(self, capsys, g1_files):
        p1, p2 = g1_files
        code, _, err = run_cli(
            capsys, "solve", "--gr1", str(p1), "--gr2", str(p2),
            "--source", "1", "--target", "4", "--alg", "boa", "--eps", "0.1",
        )
        assert code == EXIT_USAGE
        assert "boa-eps" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "solve", "--gr1", str(tmp_path / "no.gr"),
            "--gr2", str(tmp_path / "no2.gr"), "--source", "1", "--target", "2",
        )
        assert code == EXIT_USAGE

    def test_malformed_content_is_data_error(self, capsys, tmp_path):
        p1, p2 = tmp_path / "x.gr", tmp_path / "y.gr"
        p1.write_text("p sp 2 1\na 1 5 3\n")
        p2.write_text("p sp 2 1\na 1 2 3\n")
        code, _, err = run_cli(
            capsys, "solve", "--gr1", str(p1), "--gr2", str(p2),
            "--source", "1", "--target", "2",
        )
        assert code == EXIT_DATA
        assert "data error" in err

    @pytest.mark.parametrize(
        "damage, cause",
        [
            ("non_ascii", UnicodeDecodeError),
            ("truncated_gzip", EOFError),
            ("corrupt_gzip", zlib.error),
        ],
    )
    def test_bad_graph_bytes_are_data_errors(self, capsys, g1_files, tmp_path, damage, cause):
        p1, p2 = g1_files
        text = p1.read_bytes()
        packed = gzip.compress(text)
        bad = {
            "non_ascii": "c \u00a9 2026\n".encode() + text,
            "truncated_gzip": packed[: len(packed) // 2],
            "corrupt_gzip": packed[:10] + b"\xff" * 8 + packed[18:],
        }[damage]
        # The damage is the kind named: reading the bytes raises ``cause``.
        with pytest.raises(cause):
            bad.decode("ascii") if damage == "non_ascii" else gzip.decompress(bad)
        path = tmp_path / "bad.gr"
        path.write_bytes(bad)
        code, out, err = run_cli(
            capsys, "solve", "--gr1", str(path), "--gr2", str(p2),
            "--source", "1", "--target", "4",
        )
        assert code == EXIT_DATA
        assert err.startswith("biroute: data error: ")
        assert "Traceback" not in err and out == ""
        if damage == "non_ascii":
            assert "line 1: non-ASCII byte 0xc2" in err

    def test_usage_line_names_the_subcommand(self, capsys, g1_files):
        p1, p2 = g1_files
        files = ["--gr1", str(p1), "--gr2", str(p2)]
        for argv in (
            ["verify", "--max-n", "0"],
            ["solve", *files, "--source", "1", "--target", "4", "--eps", "1", "--eps1", "1"],
            ["bench", *files, "--queries", "-1"],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE
            assert err.startswith(f"usage: biroute {argv[0]} ")

    @pytest.mark.parametrize(
        "header, queries, cause",
        [("p sp 0 0", "1", "no vertices"), ("p sp 1000 0", "50", "10000 draws")],
        ids=["no_vertices", "no_arcs"],
    )
    def test_graph_without_queries_is_data_error(
        self, capsys, tmp_path, header, queries, cause
    ):
        p1, p2 = tmp_path / "x.gr", tmp_path / "y.gr"
        p1.write_text(header + "\n")
        p2.write_text(header + "\n")
        code, out, err = run_cli(
            capsys, "bench", "--gr1", str(p1), "--gr2", str(p2),
            "--queries", queries,
        )
        assert code == EXIT_DATA
        assert err.startswith("biroute: data error: ") and cause in err
        assert "Traceback" not in err and out == ""

    def test_mismatched_pair_is_data_error(self, capsys, tmp_path):
        p1, p2 = tmp_path / "x.gr", tmp_path / "y.gr"
        p1.write_text("p sp 2 1\na 1 2 3\n")
        p2.write_text("p sp 2 1\na 2 1 3\n")
        code, _, _ = run_cli(
            capsys, "solve", "--gr1", str(p1), "--gr2", str(p2),
            "--source", "1", "--target", "2",
        )
        assert code == EXIT_DATA

    def test_source_out_of_range(self, capsys, g1_files):
        p1, p2 = g1_files
        code, _, err = run_cli(
            capsys, "solve", "--gr1", str(p1), "--gr2", str(p2),
            "--source", "5", "--target", "4",
        )
        assert code == EXIT_USAGE
        assert "source" in err

    def test_zero_source_rejected(self, capsys, g1_files):
        # Vertex ids on the command line are 1-based.
        p1, p2 = g1_files
        code, _, _ = run_cli(
            capsys, "solve", "--gr1", str(p1), "--gr2", str(p2),
            "--source", "0", "--target", "4",
        )
        assert code == EXIT_USAGE


class TestBench:
    def test_zero_queries_yields_header_only(self, capsys, g1_files):
        p1, p2 = g1_files
        code, out, _ = run_cli(
            capsys, "bench", "--gr1", str(p1), "--gr2", str(p2),
            "--queries", "0",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("query_id,source,target,algorithm")

    def scrub(self, text):
        rows = list(csv.DictReader(io.StringIO(text)))
        for row in rows:
            row["time_ms"] = row["heuristic_ms"] = ""
        return rows

    def test_same_seed_is_reproducible(self, capsys, g1_files):
        p1, p2 = g1_files
        args = (
            "bench", "--gr1", str(p1), "--gr2", str(p2),
            "--queries", "3", "--seed", "11", "--eps-grid", "0,0.1",
        )
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == EXIT_OK
        assert self.scrub(out_a) == self.scrub(out_b)

    def test_exact_rows_agree_across_engines(self, capsys, g1_files):
        p1, p2 = g1_files
        code, out, _ = run_cli(
            capsys, "bench", "--gr1", str(p1), "--gr2", str(p2),
            "--queries", "4", "--seed", "3", "--eps-grid", "0",
            "--algs", "boa,boa-eps,ppa",
        )
        assert code == EXIT_OK
        rows = [r for r in csv.DictReader(io.StringIO(out)) if r["source"]]
        by_query = {}
        for r in rows:
            by_query.setdefault(r["query_id"], set()).add(r["solution_costs"])
        assert by_query
        for costs in by_query.values():
            assert len(costs) == 1

    def test_relaxation_never_grows_row_counts(self, capsys, g1_files):
        p1, p2 = g1_files
        code, out, _ = run_cli(
            capsys, "bench", "--gr1", str(p1), "--gr2", str(p2),
            "--queries", "4", "--seed", "0", "--eps-grid", "0,0.5,2",
            "--algs", "ppa",
        )
        assert code == EXIT_OK
        rows = [r for r in csv.DictReader(io.StringIO(out)) if r["source"]]
        per_query = {}
        for r in rows:
            per_query.setdefault(r["query_id"], {})[float(r["eps1"])] = int(
                r["n_solutions"]
            )
        for counts in per_query.values():
            assert counts[0.0] >= counts[0.5] >= counts[2.0]

    def test_out_file_and_workers(self, capsys, g1_files, tmp_path):
        p1, p2 = g1_files
        out_path = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--gr1", str(p1), "--gr2", str(p2),
            "--queries", "2", "--seed", "1", "--eps-grid", "0",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        text = out_path.read_text()
        assert text.startswith("query_id,")
        rows = [r for r in csv.DictReader(io.StringIO(text)) if r["source"]]
        assert len(rows) == 4  # 2 queries x 2 default algorithms

    @pytest.mark.parametrize("where", ["missing_dir", "a_directory"])
    def test_unwritable_out_is_usage_error_before_loading(
        self, capsys, g1_files, tmp_path, monkeypatch, where
    ):
        def no_load(*args):
            raise AssertionError("graph loaded before --out was checked")

        monkeypatch.setattr("biroute.cli.load_bigraph", no_load)
        p1, p2 = g1_files
        out_path = tmp_path / "nodir" / "x.csv" if where == "missing_dir" else tmp_path
        code, out, err = run_cli(
            capsys, "bench", "--gr1", str(p1), "--gr2", str(p2),
            "--queries", "1", "--out", str(out_path),
        )
        assert code == EXIT_USAGE
        assert err.startswith("usage: biroute bench ")
        assert "cannot write --out file" in err and str(out_path) in err
        assert "Traceback" not in err and out == ""

    def test_summary_rows_present(self, capsys, g1_files):
        p1, p2 = g1_files
        _, out, _ = run_cli(
            capsys, "bench", "--gr1", str(p1), "--gr2", str(p2),
            "--queries", "2", "--seed", "0", "--eps-grid", "0", "--algs", "ppa",
        )
        summary = [r for r in csv.DictReader(io.StringIO(out)) if not r["source"]]
        assert [r["query_id"] for r in summary] == ["avg", "min", "max"]


class TestVerifyCommand:
    def test_small_verify_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--instances", "12", "--seed", "0",
            "--eps-grid", "0,0.5", "--max-n", "12",
        )
        assert code == EXIT_OK, err
        assert "instances checked: 12/12" in out
        assert "12/12 passed" in out
        assert "informational" in out

    def test_verify_reports_every_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--instances", "5", "--seed", "2",
            "--eps-grid", "0,1", "--max-n", "10",
        )
        assert code == EXIT_OK
        cells = [line for line in out.splitlines() if line.startswith("eps=")]
        # Two slack settings x two engines.
        assert len(cells) == 4

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-n", "0"),
            ("--max-cost", "0"),
            ("--max-degree", "-1"),
            ("--label-budget", "0"),
        ],
    )
    def test_bad_generator_flag_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "verify", "--instances", "2", flag, value)
        assert code == EXIT_USAGE
        assert err.startswith("usage:")
        assert f"{flag} must be at least" in err
        assert "Traceback" not in err and out == ""

    def test_smallest_generator_flags_are_accepted(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--instances", "2", "--max-n", "1", "--max-cost", "1",
            "--max-degree", "0", "--label-budget", "1",
        )
        assert code == EXIT_OK, err
        assert "instances checked: 2/2" in out


class TestLibraryBench:
    def test_render_csv_column_order(self):
        g, _, _ = random_instance(3, n_max=12)
        reports = bench_run(g, n_queries=2, seed=5, eps_grid=[EXACT],
                            algorithms=("ppa",))
        text = render_csv(reports)
        header = text.splitlines()[0].split(",")
        assert header == [
            "query_id", "source", "target", "algorithm", "eps1", "eps2",
            "n_solutions", "n_expanded", "n_generated", "time_ms",
            "heuristic_ms", "solution_costs",
        ]

    def test_each_goal_table_is_built_once(self, monkeypatch):
        built = []
        compute = heuristics.compute_heuristics

        def counting(g, goal):
            built.append(goal)
            return compute(g, goal)

        monkeypatch.setattr(heuristics, "compute_heuristics", counting)
        g, _, _ = random_instance(3, n_max=12)
        reports = bench_run(g, n_queries=8, seed=5, eps_grid=[EXACT],
                            algorithms=("boa", "ppa"))
        assert len(built) == len(set(built))
        # Every row to a goal reports that goal's one build.
        build_ms = {}
        for r in reports:
            assert build_ms.setdefault(r.target, r.heuristic_ms) == r.heuristic_ms
        assert len(build_ms) < 8 and {t - 1 for t in build_ms} <= set(built)

    def test_summary_rows_print_large_counts_exactly(self):
        def report(query_id, n_expanded):
            return QueryReport(
                query_id=query_id, source=1, target=2, algorithm="ppa",
                eps1=0.0, eps2=0.0, n_solutions=1, n_expanded=n_expanded,
                n_generated=n_expanded + 1, time_ms=1.0, heuristic_ms=0.0,
                solution_costs=[CostVec(3, 4)],
            )

        text = render_csv([report(0, 1_234_567), report(1, 2_000_001)])
        summary = {
            r["query_id"]: r
            for r in csv.DictReader(io.StringIO(text)) if not r["source"]
        }
        assert summary["min"]["n_expanded"] == "1234567"
        assert summary["min"]["n_generated"] == "1234568"
        assert summary["max"]["n_expanded"] == "2000001"
        assert summary["max"]["n_generated"] == "2000002"
        assert summary["avg"]["n_expanded"] == "1.61728e+06"
