"""Seeded 4-neighbour grid maps with two cost models, and their queries.

The generator lives with the benchmark so that the package under test only
ever sees its output: a ``.gr`` pair on disk, read back through the real
loader.
"""

from __future__ import annotations

import random

from biroute import BiGraph, bigraph_from_arcs

COST_MODELS = ("anticorrelated", "correlated")


def grid_graph(rows: int, cols: int, costs: str, rng: random.Random) -> BiGraph:
    """Both directions of every horizontal and vertical neighbour pair.

    ``anticorrelated``: c1 in [1, 100], c2 = max(1, 110 - c1 + U[-10, 10]),
    so an arc cheap on one cost is dear on the other and frontiers are wide.
    ``correlated``: c1 in [1, 100], c2 = round(c1 * U[0.8, 1.25]), like
    travel time against distance on roads, so frontiers stay narrow.
    Each directed arc draws its own costs.
    """
    if costs not in COST_MODELS:
        raise ValueError(f"unknown cost model {costs!r}")
    arcs = []
    for r in range(rows):
        for c in range(cols):
            for rr, cc in ((r, c + 1), (r + 1, c), (r, c - 1), (r - 1, c)):
                if 0 <= rr < rows and 0 <= cc < cols:
                    c1 = rng.randint(1, 100)
                    if costs == "anticorrelated":
                        c2 = max(1, 110 - c1 + rng.randint(-10, 10))
                    else:
                        c2 = max(1, round(c1 * rng.uniform(0.8, 1.25)))
                    arcs.append((r * cols + c, rr * cols + cc, c1, c2))
    return bigraph_from_arcs(rows * cols, arcs)


def grid_queries(
    rows: int, cols: int, n: int, rng: random.Random, offset: tuple[int, int] | None = None
) -> list[tuple[int, int]]:
    """``n`` (start, goal) pairs with 0-based ids and start != goal.

    With ``offset=(a, b)`` the goal lies a rows and b columns from the start,
    or b rows and a columns, in any of the four diagonal directions; a draw
    that leaves the grid is redrawn. Without it both ends are uniform. A
    grid is strongly connected, so every query is reachable.
    """
    queries = []
    while len(queries) < n:
        start = rng.randrange(rows * cols)
        if offset is None:
            goal = rng.randrange(rows * cols)
        else:
            dr, dc = offset if rng.random() < 0.5 else offset[::-1]
            r = start // cols + rng.choice((-dr, dr))
            c = start % cols + rng.choice((-dc, dc))
            goal = r * cols + c if 0 <= r < rows and 0 <= c < cols else start
        if goal != start:
            queries.append((start, goal))
    return queries
