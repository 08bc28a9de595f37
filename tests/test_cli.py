"""Command-line surface: solve/bench/verify, exit codes, CSV output."""

import csv
import gzip
import io
import json
import random
import zlib

import pytest

import biroute.heuristics as heuristics
from biroute import (
    EXACT,
    ApproxFactor,
    CostVec,
    QueryReport,
    bench_run,
    bigraph_from_arcs,
    compute_heuristics,
    ppa_search,
    random_instance,
    render_csv,
    run_engine,
    write_gr_pair,
)
from biroute.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from conftest import anticorrelated_grid


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

    def test_tiny_eps_is_used_as_typed(self, capsys, g1_files):
        doc = solve_json(capsys, g1_files, "--alg", "ppa", "--eps", "0.0000004")
        assert (doc["eps1"], doc["eps2"]) == (4e-07, 4e-07)

    def test_slack_is_the_decimal_typed(self, capsys, tmp_path):
        # 13 is exactly 3/10 above 10, so at --eps 0.3 the two parallel arcs
        # merge and one cost covers both.
        files = (tmp_path / "pair.c1.gr", tmp_path / "pair.c2.gr")
        write_gr_pair(bigraph_from_arcs(2, [(0, 1, 10, 13), (0, 1, 13, 10)]), *files)
        code, out, err = run_cli(
            capsys, "solve", "--gr1", str(files[0]), "--gr2", str(files[1]),
            "--source", "1", "--target", "2", "--eps", "0.3",
        )
        assert code == EXIT_OK, err
        doc = json.loads(out)
        assert doc["solution_costs"] == [[13, 10]]
        assert (doc["eps1"], doc["eps2"]) == (0.3, 0.3)

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

    @pytest.mark.parametrize("alg", ["ppa", "boa"])
    def test_shared_h_cache_answers_as_uncached(self, capsys, tmp_path, alg):
        # Two sources to one target on a 10x10 grid, in both orders: the
        # second run of each order loads the first one's partial entry
        # and grows it.
        files = (tmp_path / "grid.c1.gr", tmp_path / "grid.c2.gr")
        write_gr_pair(anticorrelated_grid(10, random.Random(2021)), *files)
        sources, target = ("19", "91"), "47"

        def solve(source, *extra):
            code, out, err = run_cli(
                capsys, "solve", "--gr1", str(files[0]), "--gr2", str(files[1]),
                "--source", source, "--target", target, "--alg", alg, "--paths", *extra,
            )
            assert code == EXIT_OK, err
            doc = json.loads(out)
            del doc["time_ms"], doc["heuristic_ms"]
            return doc

        plain = {source: solve(source) for source in sources}
        for order in (sources, sources[::-1]):
            cache = tmp_path / f"cache-{order[0]}"
            for source in order:
                assert solve(source, "--h-cache", str(cache)) == plain[source]
            assert len(list(cache.iterdir())) == 1

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

    def test_boa_rejects_tiny_nonzero_eps(self, capsys, g1_files):
        p1, p2 = g1_files
        code, out, err = run_cli(
            capsys, "solve", "--gr1", str(p1), "--gr2", str(p2),
            "--source", "1", "--target", "4", "--alg", "boa", "--eps", "0.0000004",
        )
        assert code == EXIT_USAGE
        assert "--alg boa is exact" in err
        assert out == ""

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

    def test_out_file_gets_the_csv(self, capsys, g1_files, tmp_path):
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

    def test_repeated_grid_values_run_once(self, capsys, g1_files):
        p1, p2 = g1_files
        code, out, _ = run_cli(
            capsys, "bench", "--gr1", str(p1), "--gr2", str(p2),
            "--queries", "3", "--seed", "0", "--eps-grid", "0,0", "--algs", "ppa,ppa",
        )
        assert code == EXIT_OK
        rows = [r for r in csv.DictReader(io.StringIO(out)) if r["source"]]
        assert sorted(r["query_id"] for r in rows) == ["0", "1", "2"]

    def test_summary_rows_present(self, capsys, g1_files):
        p1, p2 = g1_files
        _, out, _ = run_cli(
            capsys, "bench", "--gr1", str(p1), "--gr2", str(p2),
            "--queries", "2", "--seed", "0", "--eps-grid", "0", "--algs", "ppa",
        )
        summary = [r for r in csv.DictReader(io.StringIO(out)) if not r["source"]]
        assert [r["query_id"] for r in summary] == ["avg", "min", "max"]


    def test_boa_runs_once_per_query_at_zero_slack(self, capsys, g1_files):
        p1, p2 = g1_files
        code, out, err = run_cli(
            capsys, "bench", "--gr1", str(p1), "--gr2", str(p2),
            "--queries", "3", "--seed", "0", "--eps-grid", "0.5,0",
            "--algs", "boa,boa-eps",
        )
        assert code == EXIT_OK, err
        rows = list(csv.DictReader(io.StringIO(out)))
        cells = [(r["query_id"], r["algorithm"], r["eps1"], r["eps2"]) for r in rows]
        assert cells == [
            *(
                cell
                for q in "012"
                for cell in (
                    (q, "boa", "0", "0"),
                    (q, "boa_eps", "0.5", "0.5"),
                    (q, "boa_eps", "0", "0"),
                )
            ),
            *(
                (kind, alg, e, e)
                for alg, e in (("boa", "0"), ("boa_eps", "0.5"), ("boa_eps", "0"))
                for kind in ("avg", "min", "max")
            ),
        ]


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

    def test_arcless_instances_verify(self, capsys):
        # Seed 23 draws no reachable pair of distinct vertices, so its
        # query falls back to a start that is also the goal.
        code, out, err = run_cli(
            capsys, "verify", "--instances", "1", "--seed", "23", "--max-degree", "0",
        )
        assert code == EXIT_OK, err
        assert "instances checked: 1/1" in out

    def test_repeated_grid_values_run_once(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--instances", "20", "--eps-grid", "0,0",
        )
        assert code == EXIT_OK, err
        cells = [line for line in out.splitlines() if line.startswith("eps=")]
        assert len(cells) == 2  # one slack setting x two engines
        assert all("20/20 passed" in line for line in cells)

    def test_tiny_grid_value_runs_at_that_slack(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--instances", "5", "--eps-grid", "0.0000004",
        )
        assert code == EXIT_OK, err
        cells = [line for line in out.splitlines() if line.startswith("eps=")]
        assert cells == [
            "eps=(4e-07,4e-07) boa_eps: 5/5 passed",
            "eps=(4e-07,4e-07) ppa: 5/5 passed",
        ]

    def test_failure_prints_a_repro_that_fails_the_same_way(self, capsys, monkeypatch):
        def drop_last_solution(*args):
            result = ppa_search(*args)
            del result.costs[-1:], result.solutions[-1:]
            return result

        monkeypatch.setattr("biroute.bench.ppa_search", drop_last_solution)
        code, _, err = run_cli(
            capsys, "verify", "--instances", "3", "--seed", "7", "--max-n", "8",
            "--eps-grid", "0,0.3",
        )
        assert code == EXIT_VERIFY
        lines = err.splitlines()
        assert len(lines) == 12  # 3 instances x 2 slacks, each a FAIL and a repro
        for fail, repro in zip(lines[::2], lines[1::2]):
            assert fail.startswith("FAIL seed ") and " ppa eps=" in fail
            seed = fail.split()[2]
            eps = "0.0" if "eps=(0,0)" in fail else "0.3"
            assert repro == (
                f"repro: biroute verify --instances 1 --seed {seed} --max-n 8 "
                f"--max-degree 4 --max-cost 10 --label-budget 100000 --eps-grid {eps}"
            )
            code, _, again = run_cli(capsys, *repro.split()[2:])
            assert code == EXIT_VERIFY
            assert again.splitlines() == [fail, repro]

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


class TestNegativeZeroSlack:
    def test_every_command_echoes_zero(self, capsys, g1_files):
        # "-0" parses to the double -0.0, which would print as "-0.0" or
        # "-0": a label that reads as a slack other than 0, and a repro
        # argument that argparse would take for an option.
        doc = solve_json(capsys, g1_files, "--eps=-0")
        assert (repr(doc["eps1"]), repr(doc["eps2"])) == ("0.0", "0.0")

        code, out, err = run_cli(capsys, "verify", "--instances", "3", "--eps-grid=-0")
        assert code == EXIT_OK, err
        cells = [line for line in out.splitlines() if line.startswith("eps=")]
        assert cells == ["eps=(0,0) boa_eps: 3/3 passed", "eps=(0,0) ppa: 3/3 passed"]

        p1, p2 = g1_files
        code, out, err = run_cli(
            capsys, "bench", "--gr1", str(p1), "--gr2", str(p2),
            "--queries", "2", "--eps-grid=-0", "--algs", "boa-eps,ppa",
        )
        assert code == EXIT_OK, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all((r["eps1"], r["eps2"]) == ("0", "0") for r in rows)


class TestSlackLabels:
    def test_every_command_labels_the_slack_that_ran(self, capsys, g1_files):
        # Six significant digits would label this slack 0.0123457, a slack
        # that did not run.
        typed = "0.0123456789"
        doc = solve_json(capsys, g1_files, "--eps", typed)
        assert (doc["eps1"], doc["eps2"]) == (0.0123456789, 0.0123456789)

        code, out, err = run_cli(capsys, "verify", "--instances", "3", "--eps-grid", typed)
        assert code == EXIT_OK, err
        cells = [line for line in out.splitlines() if line.startswith("eps=")]
        assert cells == [f"eps=({typed},{typed}) boa_eps: 3/3 passed",
                         f"eps=({typed},{typed}) ppa: 3/3 passed"]

        p1, p2 = g1_files
        code, out, err = run_cli(
            capsys, "bench", "--gr1", str(p1), "--gr2", str(p2),
            "--queries", "2", "--eps-grid", typed, "--algs", "ppa",
        )
        assert code == EXIT_OK, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5  # two queries, then avg, min and max
        assert all((r["eps1"], r["eps2"]) == (typed, typed) for r in rows)


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

    def test_boa_rejects_a_nonzero_slack(self, g1):
        h = compute_heuristics(g1, 3)
        assert run_engine(g1, h, 0, 3, "boa", ApproxFactor(0.0, 0.0)).costs == [
            CostVec(2, 8), CostVec(8, 2),
        ]
        for eps in (ApproxFactor(0.5, 0.5), ApproxFactor(0.0, 1e-20), ApproxFactor(0.1, 0.0)):
            with pytest.raises(ValueError, match="boa is exact"):
                run_engine(g1, h, 0, 3, "boa", eps)
        with pytest.raises(ValueError, match=r"at slack \(0, 0\.0123456789\)$"):
            run_engine(g1, h, 0, 3, "boa", ApproxFactor(0.0, 0.0123456789))

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


class TestReportFormat:
    """The exact text of the CSV table and the JSON answer."""

    REPORTS = (
        QueryReport(
            query_id=0, source=1, target=4, algorithm="ppa", eps1=4e-07, eps2=4e-07,
            n_solutions=2, n_expanded=1_234_567, n_generated=2_000_001,
            time_ms=1.23456, heuristic_ms=0.5,
            solution_costs=[CostVec(2, 8), CostVec(8, 2)],
        ),
        QueryReport(
            query_id=1, source=3, target=4, algorithm="ppa", eps1=4e-07, eps2=4e-07,
            n_solutions=1, n_expanded=7, n_generated=10,
            time_ms=0.0004, heuristic_ms=12.3456789,
            solution_costs=[CostVec(2**53 + 1, 3)],
        ),
        QueryReport(
            query_id=0, source=1, target=4, algorithm="boa_eps", eps1=0.3, eps2=0.3,
            n_solutions=0, n_expanded=0, n_generated=0,
            time_ms=0.0, heuristic_ms=0.0, solution_costs=[],
        ),
    )

    def test_render_csv_text(self):
        assert render_csv(list(self.REPORTS)) == (
            "query_id,source,target,algorithm,eps1,eps2,n_solutions,n_expanded,"
            "n_generated,time_ms,heuristic_ms,solution_costs\n"
            "0,1,4,ppa,4e-07,4e-07,2,1234567,2000001,1.235,0.500,2:8;8:2\n"
            "1,3,4,ppa,4e-07,4e-07,1,7,10,0.000,12.346,9007199254740993:3\n"
            "0,1,4,boa_eps,0.3,0.3,0,0,0,0.000,0.000,\n"
            "avg,,,ppa,4e-07,4e-07,1.5,617287,1.00001e+06,0.617,6.423,\n"
            "min,,,ppa,4e-07,4e-07,1,7,10,0.000,0.500,\n"
            "max,,,ppa,4e-07,4e-07,2,1234567,2000001,1.235,12.346,\n"
            "avg,,,boa_eps,0.3,0.3,0,0,0,0.000,0.000,\n"
            "min,,,boa_eps,0.3,0.3,0,0,0,0.000,0.000,\n"
            "max,,,boa_eps,0.3,0.3,0,0,0,0.000,0.000,\n"
        )

    def test_render_csv_without_reports_is_the_header(self):
        assert render_csv([]) == (
            "query_id,source,target,algorithm,eps1,eps2,n_solutions,n_expanded,"
            "n_generated,time_ms,heuristic_ms,solution_costs\n"
        )

    def test_json_keys_and_values(self):
        expected = [
            ("query_id", 0), ("source", 1), ("target", 4), ("algorithm", "ppa"),
            ("eps1", 4e-07), ("eps2", 4e-07), ("n_solutions", 2),
            ("n_expanded", 1234567), ("n_generated", 2000001),
            ("time_ms", 1.235), ("heuristic_ms", 0.5),
            ("solution_costs", [[2, 8], [8, 2]]),
        ]
        assert list(self.REPORTS[0].to_json_dict().items()) == expected
        paths = [[1, 2, 4], [1, 3, 4]]
        assert list(self.REPORTS[0].to_json_dict(paths).items()) == [
            *expected, ("solution_paths", paths)
        ]

    def test_json_text(self):
        assert json.dumps(self.REPORTS[1].to_json_dict()) == (
            '{"query_id": 1, "source": 3, "target": 4, "algorithm": "ppa", '
            '"eps1": 4e-07, "eps2": 4e-07, "n_solutions": 1, "n_expanded": 7, '
            '"n_generated": 10, "time_ms": 0.0, "heuristic_ms": 12.346, '
            '"solution_costs": [[9007199254740993, 3]]}'
        )
        assert json.dumps(self.REPORTS[2].to_json_dict([])) == (
            '{"query_id": 0, "source": 1, "target": 4, "algorithm": "boa_eps", '
            '"eps1": 0.3, "eps2": 0.3, "n_solutions": 0, "n_expanded": 0, '
            '"n_generated": 0, "time_ms": 0.0, "heuristic_ms": 0.0, '
            '"solution_costs": [], "solution_paths": []}'
        )
