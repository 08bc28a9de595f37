"""Shared fixtures: a small hand-checkable graph and on-disk .gr pairs."""

import pytest

from biroute import BiGraph, CostVec, bigraph_from_arcs, write_gr_pair

# Four-vertex diamond with a direct long arc.  Vertices: 0=s, 1=a, 2=b, 3=g.
# Arcs (u, v, c1, c2):
#   s->a (1,4), a->g (1,4)   cheap on c1, expensive on c2
#   s->b (4,1), b->g (4,1)   the mirror image
#   s->g (9,9)               dominated direct arc
# Exact frontier s->g is {(2,8), (8,2)}.
G1_ARCS = [
    (0, 1, 1, 4),
    (1, 3, 1, 4),
    (0, 2, 4, 1),
    (2, 3, 4, 1),
    (0, 3, 9, 9),
]


def pair_record(seq, tl_cost, br_cost, h=(0, 0)):
    """A pair record in the path-pair search loop's flat layout.

    ``h`` is the heuristic pair at the record's vertex (vertex 0). The arena
    indices are stand-ins: 2*seq for tl, 2*seq + 1 for br, or 2*seq for
    both when the corners coincide.
    """
    (tl1, tl2), (br1, br2) = tl_cost, br_cost
    br = 2 * seq if tuple(tl_cost) == tuple(br_cost) else 2 * seq + 1
    return [tl1 + h[0], br2 + h[1], seq, 0, 2 * seq, br, tl1, tl2, br1, br2, True]


def record_corners(rec):
    """The (tl, br) corner costs of a pair record."""
    return CostVec(rec[6], rec[7]), CostVec(rec[8], rec[9])


@pytest.fixture
def g1() -> BiGraph:
    return bigraph_from_arcs(4, G1_ARCS)


@pytest.fixture
def g1_files(g1, tmp_path):
    """G1 written out as a DIMACS .gr pair, returned as (path1, path2)."""
    p1 = tmp_path / "g1.c1.gr"
    p2 = tmp_path / "g1.c2.gr"
    write_gr_pair(g1, p1, p2)
    return p1, p2
