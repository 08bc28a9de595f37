"""Backward-distance tables: hand values, admissibility, consistency, caching."""

import hashlib
import heapq
import os
import pickle
import random
import types

import pytest

import biroute.heuristics as heuristics_module
from biroute import (
    UNREACHABLE,
    Edge,
    HeuristicTable,
    bigraph_from_arcs,
    compute_heuristics,
    graph_digest,
    load_or_compute_heuristics,
)
from conftest import G1_ARCS


def forward_dijkstra(adjacency, source, component):
    # Independent single-criterion reference, deliberately not reusing
    # the backward implementation under test.
    dist = [UNREACHABLE] * len(adjacency)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for e in adjacency[u]:
            w = e.cost[component]
            if d + w < dist[e.target]:
                dist[e.target] = d + w
                heapq.heappush(heap, (d + w, e.target))
    return dist


def transposed(g):
    # The reference transposition, built from the forward arcs here so
    # that it shares no code with the reverse adjacency under test.
    rev = [[] for _ in range(g.vertex_count)]
    for u in range(g.vertex_count):
        for e in g.edges[u]:
            rev[e.target].append(Edge(u, e.cost))
    return rev


def random_graph(rng):
    n = rng.randint(1, 15)
    arcs = [
        (rng.randrange(n), rng.randrange(n), rng.randint(0, 9), rng.randint(0, 9))
        for _ in range(rng.randint(0, 30))
    ]
    return bigraph_from_arcs(n, arcs)


class TestHandValues:
    def test_g1_tables(self, g1):
        h = compute_heuristics(g1, goal=3)
        assert h.h1 == [2, 1, 4, 0]
        assert h.h2 == [2, 4, 1, 0]

    def test_goal_is_zero(self, g1):
        h = compute_heuristics(g1, goal=0)
        assert h.h1[0] == 0 and h.h2[0] == 0

    def test_unreachable_is_inf(self):
        g = bigraph_from_arcs(3, [(0, 1, 1, 1)])
        h = compute_heuristics(g, goal=1)
        assert h.h1[2] == UNREACHABLE
        assert not h.reachable(2)
        assert h.reachable(0)

    def test_goal_out_of_range(self, g1):
        with pytest.raises(ValueError):
            compute_heuristics(g1, goal=4)
        with pytest.raises(ValueError):
            compute_heuristics(g1, goal=-1)


class TestAgainstForwardDijkstra:
    def test_matches_reverse_graph_forward_search(self):
        # h(v) must equal the forward distance from the goal in the
        # transposed graph, for both components.
        rng = random.Random(1)
        for _ in range(150):
            g = random_graph(rng)
            goal = rng.randrange(g.vertex_count)
            h = compute_heuristics(g, goal)
            rev = transposed(g)
            assert h.h1 == forward_dijkstra(rev, goal, 0)
            assert h.h2 == forward_dijkstra(rev, goal, 1)

    def test_costs_above_2_62_stay_exact(self):
        # Heap keys d * n + v exceed 2^63 here; ints keep them exact.
        big = 2**62

        def shifted(g):
            return bigraph_from_arcs(g.vertex_count, [
                (u, e.target, e.cost.c1 + big, e.cost.c2 + big)
                for u in range(g.vertex_count) for e in g.edges[u]
            ])

        rng = random.Random(3)
        # Random graphs add multi-hop distances, where a rounded key or
        # distance would lose the low bits.
        graphs = [shifted(bigraph_from_arcs(4, G1_ARCS))]
        graphs += [shifted(random_graph(rng)) for _ in range(50)]
        # One shift per arc makes the direct arc 0->3 the cheapest in both.
        h = compute_heuristics(graphs[0], 3)
        assert h.h1 == [9 + big, 1 + big, 4 + big, 0]
        assert h.h2 == [9 + big, 4 + big, 1 + big, 0]
        for g in graphs:
            rev = transposed(g)
            for goal in range(g.vertex_count):
                h = compute_heuristics(g, goal)
                assert h.h1 == forward_dijkstra(rev, goal, 0)
                assert h.h2 == forward_dijkstra(rev, goal, 1)


class TestConsistency:
    def test_triangle_inequality_on_every_arc(self):
        # Consistency: h(u) <= w(u, v) + h(v) whenever h(v) is finite.
        rng = random.Random(2)
        for _ in range(150):
            g = random_graph(rng)
            goal = rng.randrange(g.vertex_count)
            h = compute_heuristics(g, goal)
            for u in range(g.vertex_count):
                for e in g.edges[u]:
                    if h.h1[e.target] < UNREACHABLE:
                        assert h.h1[u] <= e.cost.c1 + h.h1[e.target]
                    if h.h2[e.target] < UNREACHABLE:
                        assert h.h2[u] <= e.cost.c2 + h.h2[e.target]


class TestCache:
    def test_cache_round_trip(self, g1, tmp_path):
        fresh = load_or_compute_heuristics(g1, 3, cache_dir=tmp_path)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        cached = load_or_compute_heuristics(g1, 3, cache_dir=tmp_path)
        assert cached.h1 == fresh.h1 and cached.h2 == fresh.h2
        assert list(tmp_path.iterdir()) == files

    def test_distinct_goals_get_distinct_entries(self, g1, tmp_path):
        load_or_compute_heuristics(g1, 3, cache_dir=tmp_path)
        load_or_compute_heuristics(g1, 0, cache_dir=tmp_path)
        assert len(list(tmp_path.iterdir())) == 2

    @pytest.mark.parametrize(
        "content",
        [b"", b"garbage\n", pickle.dumps(HeuristicTable(goal=3, h1=[0], h2=[0]))],
        ids=["empty", "garbage", "misshapen"],
    )
    def test_bad_entry_is_recomputed_and_rewritten(self, g1, tmp_path, content):
        load_or_compute_heuristics(g1, 3, cache_dir=tmp_path)
        (entry,) = tmp_path.iterdir()
        entry.write_bytes(content)
        h = load_or_compute_heuristics(g1, 3, cache_dir=tmp_path)
        assert h.h1 == [2, 1, 4, 0] and h.h2 == [2, 4, 1, 0]
        # The entry is rewritten in place and no temp file is left behind.
        assert list(tmp_path.iterdir()) == [entry]
        with open(entry, "rb") as fh:
            assert pickle.load(fh) == h

    def test_no_cache_dir_means_no_files(self, g1, tmp_path):
        h = load_or_compute_heuristics(g1, 3, cache_dir=None)
        assert h.h1 == [2, 1, 4, 0]
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_that_is_a_file_leaves_the_table_uncached(self, g1, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"not a directory\n")
        h = load_or_compute_heuristics(g1, 3, cache_dir=blocker)
        assert h == compute_heuristics(g1, 3)
        assert blocker.read_bytes() == b"not a directory\n"
        assert list(tmp_path.iterdir()) == [blocker]

    @pytest.mark.parametrize("step", ["mkstemp", "write", "replace"])
    def test_write_error_leaves_the_table_uncached(self, g1, tmp_path, monkeypatch, step):
        def fail(*args, **kwargs):
            raise PermissionError(13, "simulated", step)

        patched = {
            "mkstemp": ("tempfile", types.SimpleNamespace(mkstemp=fail)),
            "write": ("pickle", types.SimpleNamespace(load=pickle.load, dump=fail)),
            "replace": (
                "os",
                types.SimpleNamespace(fdopen=os.fdopen, replace=fail, unlink=os.unlink),
            ),
        }
        monkeypatch.setattr(heuristics_module, *patched[step])
        h = load_or_compute_heuristics(g1, 3, cache_dir=tmp_path)
        assert h == compute_heuristics(g1, 3)
        # A temp file that was created is unlinked again.
        assert list(tmp_path.iterdir()) == []

    def test_interrupt_during_write_still_raises(self, g1, tmp_path, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            heuristics_module,
            "os",
            types.SimpleNamespace(fdopen=os.fdopen, replace=interrupt, unlink=os.unlink),
        )
        with pytest.raises(KeyboardInterrupt):
            load_or_compute_heuristics(g1, 3, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_digest_sensitive_to_costs(self, g1):
        other = bigraph_from_arcs(
            4, [(0, 1, 1, 4), (1, 3, 1, 4), (0, 2, 4, 1), (2, 3, 4, 1), (0, 3, 9, 8)]
        )
        assert graph_digest(g1) != graph_digest(other)


class TestDigestMemo:
    def test_digest_is_pinned(self):
        # Cache keys embed this hash; a change would orphan every entry.
        assert graph_digest(bigraph_from_arcs(4, G1_ARCS)) == (
            "0b2bb4171c8f2273d57b763181902187077a57924ccb023b477427d97790f9ab"
        )

    def test_repeated_cache_calls_hash_the_graph_once(self, g1, tmp_path, monkeypatch):
        calls = []

        def counting_sha256(*args):
            calls.append(args)
            return hashlib.sha256(*args)

        monkeypatch.setattr(
            heuristics_module, "hashlib", types.SimpleNamespace(sha256=counting_sha256)
        )
        for _ in range(3):  # a miss, then two hits
            h = load_or_compute_heuristics(g1, 3, cache_dir=tmp_path)
        load_or_compute_heuristics(g1, 0, cache_dir=tmp_path)
        assert h.h1 == [2, 1, 4, 0]
        assert len(list(tmp_path.iterdir())) == 2
        assert len(calls) == 1

    def test_equal_graph_built_apart_reads_the_same_entry(self, g1, tmp_path, monkeypatch):
        fresh = load_or_compute_heuristics(g1, 3, cache_dir=tmp_path)
        twin = bigraph_from_arcs(4, G1_ARCS)
        assert twin is not g1 and graph_digest(twin) == graph_digest(g1)

        def no_compute(*args):
            raise AssertionError("cache entry was not read")

        monkeypatch.setattr(heuristics_module, "compute_heuristics", no_compute)
        cached = load_or_compute_heuristics(twin, 3, cache_dir=tmp_path)
        assert cached == fresh
        assert len(list(tmp_path.iterdir())) == 1

    def test_equality_and_repr_ignore_the_digest(self, g1):
        twin = bigraph_from_arcs(4, G1_ARCS)
        before = repr(g1)
        graph_digest(g1)
        assert g1 == twin and repr(g1) == repr(twin) == before
        assert "digest" not in before
