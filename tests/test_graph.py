"""DIMACS parsing, two-file pairing, serialization round-trips."""

import gzip
import io
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

    @pytest.mark.parametrize("source", [-1, 3])
    def test_arc_source_out_of_range(self, source):
        # A negative source must not wrap around to the last vertex.
        with pytest.raises(ValueError, match=f"arc {source}->0 leaves"):
            bigraph_from_arcs(3, [(0, 1, 1, 1), (source, 0, 1, 1)])
