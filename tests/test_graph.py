"""DIMACS parsing, two-file pairing, serialization round-trips."""

import gzip
import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biroute import (
    ArcMismatchError,
    BiGraph,
    CostVec,
    DimacsParseError,
    bigraph_from_arcs,
    build_bigraph,
    load_bigraph,
    parse_dimacs_gr,
    write_gr_pair,
)
import biroute.graph as graph
from biroute.graph import Edge, dimacs_lines, load_gr
from conftest import G1_ARCS


def parse_text(text: str):
    return parse_dimacs_gr(io.StringIO(text))


class TestParse:
    def test_minimal(self):
        n, arcs = parse_text("p sp 2 1\na 1 2 803\n")
        assert n == 2
        assert arcs == [(0, 1, 803)]

    def test_comments_and_empty_graph(self):
        n, arcs = parse_text("c comment\np sp 3 0\n")
        assert n == 3
        assert arcs == []

    def test_blank_lines_ignored(self):
        n, arcs = parse_text("\np sp 2 1\n\na 1 2 5\n\n")
        assert arcs == [(0, 1, 5)]

    def test_vertex_out_of_range(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_text("p sp 2 1\na 1 3 5\n")
        assert "line 2" in str(exc.value)
        assert exc.value.line_no == 2

    def test_arc_before_problem_line(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_text("a 1 2 5\np sp 2 1\n")
        assert "line 1" in str(exc.value)

    def test_negative_weight(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_text("p sp 2 1\na 1 2 -4\n")
        assert "line 2" in str(exc.value)

    def test_zero_weight_allowed(self):
        _, arcs = parse_text("p sp 2 1\na 1 2 0\n")
        assert arcs == [(0, 1, 0)]

    def test_declared_arc_count_mismatch(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_text("p sp 2 2\na 1 2 5\n")
        assert "declares 2 arcs but file contains 1" in str(exc.value)

    def test_duplicate_problem_line(self):
        with pytest.raises(DimacsParseError):
            parse_text("p sp 2 1\np sp 2 1\na 1 2 5\n")

    def test_missing_problem_line(self):
        with pytest.raises(DimacsParseError):
            parse_text("c nothing else\n")

    def test_unrecognized_line(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_text("p sp 2 1\nq 1 2 5\n")
        assert "line 2" in str(exc.value)

    def test_malformed_arc_line(self):
        with pytest.raises(DimacsParseError):
            parse_text("p sp 2 1\na 1 2\n")

    def test_duplicate_arcs_preserved(self):
        _, arcs = parse_text("p sp 2 3\na 1 2 5\na 1 2 7\na 1 2 5\n")
        assert arcs == [(0, 1, 5), (0, 1, 7), (0, 1, 5)]

    def test_self_loop_allowed(self):
        _, arcs = parse_text("p sp 2 1\na 1 1 5\n")
        assert arcs == [(0, 0, 5)]


class TestPairing:
    def test_matching_files(self):
        g = build_bigraph(3, [(0, 1, 7), (1, 2, 3)], [(1, 2, 9), (0, 1, 2)])
        assert g.vertex_count == 3
        assert g.edges[0][0].cost == CostVec(7, 2)
        assert g.edges[1][0].cost == CostVec(3, 9)

    def test_pairing_is_order_insensitive(self):
        arcs = [(0, 1, 5), (0, 2, 6), (1, 2, 7)]
        shuffled = [arcs[2], arcs[0], arcs[1]]
        g = build_bigraph(3, arcs, [(u, v, w + 10) for (u, v, w) in shuffled])
        for u in range(3):
            for e in g.edges[u]:
                assert e.cost.c2 == e.cost.c1 + 10

    def test_parallel_arcs_pair_by_position(self):
        # Two arcs on the same (u, v): sort is stable, so file order decides.
        g = build_bigraph(2, [(0, 1, 5), (0, 1, 9)], [(0, 1, 50), (0, 1, 90)])
        costs = sorted(e.cost for e in g.edges[0])
        assert costs == [CostVec(5, 50), CostVec(9, 90)]

    def test_structure_mismatch(self):
        with pytest.raises(ArcMismatchError) as exc:
            build_bigraph(3, [(0, 1, 5)], [(0, 2, 5)])
        assert "arc 1 differs" in str(exc.value)

    def test_arc_count_mismatch(self):
        with pytest.raises(ArcMismatchError):
            build_bigraph(3, [(0, 1, 5), (1, 2, 5)], [(0, 1, 5)])

    def test_vertex_count_mismatch_between_files(self, tmp_path):
        p1 = tmp_path / "a.gr"
        p2 = tmp_path / "b.gr"
        p1.write_text("p sp 2 1\na 1 2 5\n")
        p2.write_text("p sp 3 1\na 1 2 5\n")
        with pytest.raises(ArcMismatchError):
            load_bigraph(p1, p2)


class TestGzip:
    def test_gzip_detected_by_magic(self, tmp_path):
        # Deliberately misleading extension: detection is by content.
        path = tmp_path / "plain.gr"
        path.write_bytes(gzip.compress(b"p sp 2 1\na 1 2 42\n"))
        n, arcs = load_gr(path)
        assert (n, arcs) == (2, [(0, 1, 42)])

    def test_plain_text_still_loads(self, tmp_path):
        path = tmp_path / "x.gr.gz"
        path.write_text("p sp 2 1\na 1 2 42\n")
        n, arcs = load_gr(path)
        assert (n, arcs) == (2, [(0, 1, 42)])


class TestRoundTrip:
    def test_g1_round_trip(self, g1, g1_files):
        g = load_bigraph(*g1_files)
        assert g.vertex_count == g1.vertex_count
        assert g.edges == g1.edges

    def test_dimacs_lines_shape(self, g1):
        lines = [line.rstrip("\n") for line in dimacs_lines(g1, 1)]
        assert lines[0] == "p sp 4 5"
        assert all(line.startswith("a ") for line in lines[1:])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_write_parse_identity(self, tmp_path_factory, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        arcs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.integers(0, 50),
                    st.integers(0, 50),
                ),
                max_size=16,
            )
        )
        g = bigraph_from_arcs(n, arcs)
        tmp = tmp_path_factory.mktemp("rt")
        write_gr_pair(g, tmp / "1.gr", tmp / "2.gr")
        # Loading sorts each adjacency by target, so compare as multisets.
        loaded = load_bigraph(tmp / "1.gr", tmp / "2.gr")
        assert [sorted(adj) for adj in loaded.edges] == [
            sorted(adj) for adj in g.edges
        ]


class TestReverse:
    def test_reverse_edges_swap_endpoints(self):
        # G1, then G1 plus a doubled arc, a parallel arc with other costs
        # and a self loop: a set compare would miss a lost or extra copy.
        for arcs in (G1_ARCS, G1_ARCS + [(0, 1, 1, 4), (0, 1, 2, 3), (2, 2, 0, 5)]):
            g = bigraph_from_arcs(4, arcs)
            fwd = Counter(
                (u, e.target, e.cost.c1, e.cost.c2) for u in range(4) for e in g.edges[u]
            )
            bwd = Counter(
                (source, v, c1, c2)
                for v in range(4)
                for source, c1, c2 in g.reverse_edges[v]
            )
            assert fwd == bwd == Counter(arcs)
            for adj in g.reverse_edges:
                for arc in adj:
                    assert type(arc) is tuple and len(arc) == 3
                    assert all(type(x) is int for x in arc)

    def test_equality_and_repr_ignore_reverse_edges(self, g1):
        twin = bigraph_from_arcs(4, G1_ARCS)
        twin.reverse_edges = [[] for _ in range(4)]
        assert g1 == twin and repr(g1) == repr(twin)
        assert "reverse_edges" not in repr(g1)

    def test_reverse_edges_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            BiGraph(vertex_count=0, edges=[], reverse_edges=[])

    def test_edge_count(self, g1):
        assert g1.edge_count == 5


class TestValidation:
    def test_negative_vertex_count(self):
        with pytest.raises(ValueError):
            BiGraph(vertex_count=-1, edges=[])

    def test_edges_length_must_match(self):
        with pytest.raises(ValueError):
            BiGraph(vertex_count=2, edges=[[]])

    def test_arc_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            bigraph_from_arcs(2, [(0, 2, 1, 1)])

    @pytest.mark.parametrize("target", [-1, 3])
    def test_arc_target_out_of_range(self, target):
        # The check runs before the reverse adjacency is indexed, so a
        # negative target cannot wrap around to the last vertex.
        with pytest.raises(ValueError, match=f"arc 1->{target} leaves"):
            bigraph_from_arcs(3, [(0, 1, 1, 1), (1, target, 1, 1)])
        with pytest.raises(ValueError, match=f"arc 1->{target} leaves"):
            BiGraph(
                vertex_count=3,
                edges=[[], [Edge(target, CostVec(1, 1))], []],
            )

    @pytest.mark.parametrize("cost", [(-1, 9), (9, -1)])
    def test_negative_arc_cost(self, cost):
        # A table would read h1 = -1 as UNREACHABLE, and the engines would
        # answer [] where the oracle finds a path.
        with pytest.raises(ValueError, match="arc 0->1 has a negative cost"):
            bigraph_from_arcs(2, [(0, 1, *cost)])
        with pytest.raises(ValueError, match="arc 0->1 has a negative cost"):
            BiGraph(vertex_count=2, edges=[[Edge(1, CostVec(*cost))], []])

    @pytest.mark.parametrize("cost", [(1.5, 2), (2, 1.0), ("1", 2)])
    def test_non_integer_arc_cost(self, cost):
        # The backward Dijkstras pack distances into int heap keys, so a
        # float cost would build a graph that crashes compute_heuristics.
        arcs = [(0, 1, *cost), (1, 2, 1, 1), (0, 2, 3, 1)]
        with pytest.raises(ValueError, match=r"arc 0->1 has a non-integer cost \("):
            bigraph_from_arcs(3, arcs)
        with pytest.raises(ValueError, match=r"arc 0->1 has a non-integer cost \("):
            BiGraph(vertex_count=3, edges=[[Edge(1, CostVec(*cost))], [], []])

    @pytest.mark.parametrize("source", [-1, 3])
    def test_arc_source_out_of_range(self, source):
        # A negative source must not wrap around to the last vertex.
        with pytest.raises(ValueError, match=f"arc {source}->0 leaves"):
            bigraph_from_arcs(3, [(0, 1, 1, 1), (source, 0, 1, 1)])


def line_parser_load(data1: bytes, data2: bytes):
    """Reference loader: the line parser on each file, then ``build_bigraph``."""
    n1, arcs1 = parse_dimacs_gr(io.StringIO(data1.decode("ascii"), newline=None))
    n2, arcs2 = parse_dimacs_gr(io.StringIO(data2.decode("ascii"), newline=None))
    if n1 != n2:
        raise ArcMismatchError(f"vertex count mismatch: {n1} vs {n2}")
    return build_bigraph(n1, arcs1, arcs2)


def outcome(call):
    """A call's graph, or its exception's type and message."""
    try:
        return call()
    except (DimacsParseError, ArcMismatchError) as exc:
        return type(exc), str(exc)


def arc_line(u, v, w):
    return f"a {u + 1} {v + 1} {w}\n"


# Each edit sends the file it touches to the line parser, except
# "leading_zero", which the fast path reads as the line parser does.
EDITS = [
    "comment_among_arcs", "blank_among_arcs", "crlf", "no_final_newline",
    "count_mismatch", "unequal_n", "id_out_of_range", "plus_sign",
    "underscore", "leading_zero", "weight_past_2_63",
]
COMMENTS = ["c x\n", "c\n", "c p sp 1 1\n", "c x\rp sp 1 1\n"]


def edit_file(kind, n, header, arcs, rng):
    """Apply one edit to a file given as header and arc lines (lists of str).

    The edit's position comes from ``rng``, so the same seed edits two
    files with the same line counts in the same place.
    """
    if kind in ("comment_among_arcs", "blank_among_arcs"):
        line = "c among arcs\n" if kind == "comment_among_arcs" else "\n"
        arcs.insert(rng.randint(0, len(arcs)), line)
    elif kind == "crlf":
        header[:] = [line.replace("\n", "\r\n") for line in header]
        arcs[:] = [line.replace("\n", "\r\n") for line in arcs]
    elif kind == "no_final_newline":
        if arcs:
            arcs[-1] = arcs[-1].rstrip("\n")
    elif kind == "count_mismatch":
        header[-1] = f"p sp {n} {len(arcs) + rng.choice([-1, 1])}\n"
    elif kind == "unequal_n":
        header[-1] = f"p sp {n + 1} {len(arcs)}\n"
    else:
        arc_lines = [i for i, line in enumerate(arcs) if line.startswith("a ")]
        if not arc_lines:
            return
        at = rng.choice(arc_lines)
        fields = arcs[at].split()
        col = rng.randint(1, 3)
        if kind == "id_out_of_range":
            fields[rng.randint(1, 2)] = rng.choice(["0", str(n + 1)])
        elif kind == "plus_sign":
            fields[col] = "+" + fields[col]
        elif kind == "underscore":
            fields[col] = "0_" + fields[col]
        elif kind == "leading_zero":
            fields[col] = "00" + fields[col]
        elif kind == "weight_past_2_63":  # 19 digits, past array('q')
            fields[3] = str(2**63 + int(fields[3]))
        arcs[at] = " ".join(fields) + "\n"


class TestFastLoad:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_line_parser(self, tmp_path_factory, data):
        draw = data.draw
        n = draw(st.integers(1, 6))
        arcs = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1),
                    st.integers(0, 50), st.integers(0, 50),
                ),
                max_size=12,
            )
        )
        # A permuted second file has other (u, v) columns unless the
        # permutation only swaps equal endpoints.
        order2 = draw(st.one_of(st.just(range(len(arcs))), st.permutations(range(len(arcs)))))
        # Often both files get the same edits in the same places, so an
        # edit that leaves the columns equal reaches the pairing step.
        edits = draw(st.lists(st.sampled_from(EDITS), max_size=2))
        seed = draw(st.integers(0, 2**32))
        same = draw(st.booleans())
        files = []
        for k, order in ((0, range(len(arcs))), (1, order2)):
            if k and not same:
                edits = draw(st.lists(st.sampled_from(EDITS), max_size=2))
                seed = draw(st.integers(0, 2**32))
            header = draw(st.lists(st.sampled_from(COMMENTS), max_size=2))
            header.append(f"p sp {n} {len(arcs)}\n")
            lines = [arc_line(arcs[i][0], arcs[i][1], arcs[i][2 + k]) for i in order]
            rng = random.Random(seed)
            for kind in edits:
                edit_file(kind, n, header, lines, rng)
            lines.append(draw(st.sampled_from(["", "c after the arcs\n"])))
            files.append("".join(header + lines).encode("ascii"))
        tmp = tmp_path_factory.mktemp("fast")
        paths = [tmp / "1.gr", tmp / "2.gr"]
        for path, content in zip(paths, files):
            path.write_bytes(gzip.compress(content) if draw(st.booleans()) else content)
        expected = outcome(lambda: line_parser_load(*files))
        assert outcome(lambda: load_bigraph(*paths)) == expected

    @pytest.mark.parametrize("compress", [False, True])
    def test_challenge_layout_skips_the_line_parser(self, tmp_path, monkeypatch, compress):
        def refuse(stream):
            raise AssertionError("the line parser ran")

        header = "c 9th DIMACS Implementation Challenge\nc graph G1\np sp 4 5\nc arcs follow\n"
        paths = []
        for component in (1, 2):
            text = header + "".join(
                arc_line(u, v, (c1, c2)[component - 1]) for u, v, c1, c2 in G1_ARCS
            )
            path = tmp_path / f"g1.{component}.gr"
            path.write_bytes(gzip.compress(text.encode()) if compress else text.encode())
            paths.append(path)
        monkeypatch.setattr(graph, "parse_dimacs_gr", refuse)
        g = load_bigraph(*paths)
        assert g == bigraph_from_arcs(4, sorted(G1_ARCS))
        for adj in g.edges:
            for edge in adj:
                assert type(edge) is Edge and type(edge.cost) is CostVec
                assert all(type(x) is int for x in (edge.target, *edge.cost))

    # The second order keeps the source column and changes the targets.
    @pytest.mark.parametrize("order", [(2, 0, 3, 1), (1, 0, 2, 3)])
    def test_arcs_in_other_orders_still_pair(self, tmp_path, order):
        arcs = [(0, 1, 5), (0, 2, 6), (1, 2, 7), (0, 1, 8)]
        shuffled = [arcs[i] for i in order]
        p1, p2 = tmp_path / "1.gr", tmp_path / "2.gr"
        p1.write_text("p sp 3 4\n" + "".join(arc_line(*a) for a in arcs))
        p2.write_text(
            "p sp 3 4\n" + "".join(arc_line(u, v, w + 10) for u, v, w in shuffled)
        )
        g = load_bigraph(p1, p2)
        assert [[(e.target, *e.cost) for e in adj] for adj in g.edges] == [
            [(1, 5, 15), (1, 8, 18), (2, 6, 16)], [(2, 7, 17)], [],
        ]

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("p sp 2 1\na 1 3 5\n", 2),
            ("a 1 2 5\np sp 2 1\n", 1),
            ("p sp 2 1\na 1 2 -4\n", 2),
            ("p sp 2 2\na 1 2 5\n", None),
            ("p sp 2 1\np sp 2 1\na 1 2 5\n", 2),
            ("c nothing else\n", None),
            ("p sp 2 1\nq 1 2 5\n", 2),
            ("p sp 2 1\na 1 2\n", 2),
        ],
    )
    def test_parse_errors_keep_their_line(self, tmp_path, text, line_no):
        with pytest.raises(DimacsParseError) as direct:
            parse_text(text)
        good, bad = tmp_path / "good.gr", tmp_path / "bad.gr"
        good.write_text("p sp 2 1\na 1 2 5\n")
        bad.write_text(text)
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(DimacsParseError) as exc:
                load_bigraph(*pair)
            assert exc.value.line_no == line_no
            assert str(exc.value) == str(direct.value)

    # The same bad id in both files keeps their columns equal, so only the
    # fast path's own range check sends the pair to the line parser.
    @pytest.mark.parametrize("arc", ["a 0 1 3", "a 3 1 3", "a 1 0 3", "a 1 3 3"])
    def test_same_bad_id_in_both_files(self, tmp_path, arc):
        paths = [tmp_path / "1.gr", tmp_path / "2.gr"]
        for path in paths:
            path.write_text(f"p sp 2 2\na 1 2 5\n{arc}\n")
        with pytest.raises(DimacsParseError, match="vertex id out of range") as exc:
            load_bigraph(*paths)
        assert exc.value.line_no == 3

    @pytest.mark.parametrize(
        "data, line_no",
        [
            (b"\xa9 p sp 2 1\n", 1),
            ("c \u00a9 2026\np sp 2 1\na 1 2 5\n".encode(), 1),
            (b"p sp 2 1\na 1 2 5\nc \xff\n", 3),
            (b"c one\rc two\r\nc \x80\np sp 2 0\n", 3),
        ],
    )
    def test_non_ascii_byte_names_its_line(self, tmp_path, data, line_no):
        path = tmp_path / "x.gr"
        path.write_bytes(data)
        with pytest.raises(DimacsParseError, match="non-ASCII byte") as exc:
            load_bigraph(path, path)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("damage", ["truncated", "corrupt", "bad_crc"])
    def test_damaged_gzip_is_a_parse_error(self, tmp_path, damage):
        packed = gzip.compress(b"p sp 2 1\na 1 2 5\n" * 50)
        packed = {
            "truncated": packed[: len(packed) // 2],
            "corrupt": packed[:10] + b"\xff" * 8 + packed[18:],
            "bad_crc": packed[:-8] + bytes(8),
        }[damage]
        path = tmp_path / "x.gr.gz"
        path.write_bytes(packed)
        with pytest.raises(DimacsParseError, match="corrupt gzip data"):
            load_gr(path)
