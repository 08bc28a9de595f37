"""Backward-distance tables: hand values, admissibility, consistency, caching."""

import ast
import hashlib
import heapq
import inspect
import math
import os
import pickle
import random
import types
import zlib
from array import array

import pytest

import biroute.heuristics as heuristics_module
from biroute import (
    EXACT,
    UNREACHABLE,
    ApproxFactor,
    HeuristicTable,
    bigraph_from_arcs,
    boa_search,
    compute_heuristics,
    graph_digest,
    load_or_compute_heuristics,
    ppa_search,
    random_instance,
    store_heuristics,
)
from biroute.bench import solve_query
from biroute.graph import Edge
from biroute.heuristics import _cache_path, _load_entry
from conftest import G1_ARCS, _backward_dijkstra, anticorrelated_grid


def forward_dijkstra(adjacency, source, component):
    # Independent single-criterion reference, deliberately not reusing
    # the backward implementation under test.
    dist = [math.inf] * len(adjacency)
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
    return [UNREACHABLE if d == math.inf else d for d in dist]


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


def shifted(g, by):
    """``g`` with every arc cost raised by ``by`` in both components."""
    return bigraph_from_arcs(g.vertex_count, [
        (u, e.target, e.cost.c1 + by, e.cost.c2 + by)
        for u in range(g.vertex_count) for e in g.edges[u]
    ])


def published(h):
    return sum(d != UNREACHABLE for d in h.h1)


def grid_vertex(side, row, col):
    return row * side + col


@pytest.fixture(scope="module")
def partial_queries():
    """(graph, start, goal) queries whose tables a search grows on demand.

    ``random_instance`` at its default costs, at costs up to 10^6 and with
    every cost shifted by 2^53, plus 10x10 and 20x20 anticorrelated grids
    from a corner and from inner starts.
    """
    queries = [random_instance(seed) for seed in range(60)]
    queries += [random_instance(seed, cost_max=10**6) for seed in range(30)]
    for seed in range(30):
        g, s, t = random_instance(seed, n_max=50, out_degree_max=4, cost_max=10)
        queries.append((shifted(g, 2**53), s, t))
    for side in (10, 20):
        g = anticorrelated_grid(side, random.Random(2021))
        corner = ((0, 0), (side - 1, side - 1))
        inner = (((2, 2), (6, 5)), ((1, side - 2), (4, side - 4)))
        for start, goal in (corner, *inner):
            queries.append((g, grid_vertex(side, *start), grid_vertex(side, *goal)))
    return queries


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
        assert not h.settle(2)
        assert h.settle(0)

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
        rng = random.Random(3)
        # Random graphs add multi-hop distances, where a rounded key or
        # distance would lose the low bits.
        graphs = [shifted(bigraph_from_arcs(4, G1_ARCS), big)]
        graphs += [shifted(random_graph(rng), big) for _ in range(50)]
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
        # Consistency: h(u) <= w(u, v) + h(v) whenever h(v) is a distance;
        # u then reaches the goal too, so h(u) is a distance as well.
        rng = random.Random(2)
        checked = 0
        for _ in range(150):
            g = random_graph(rng)
            goal = rng.randrange(g.vertex_count)
            h = compute_heuristics(g, goal)
            for u in range(g.vertex_count):
                for e in g.edges[u]:
                    if h.h1[e.target] != UNREACHABLE:
                        assert UNREACHABLE != h.h1[u] <= e.cost.c1 + h.h1[e.target]
                        checked += 1
                    if h.h2[e.target] != UNREACHABLE:
                        assert UNREACHABLE != h.h2[u] <= e.cost.c2 + h.h2[e.target]
                        checked += 1
        assert checked > 0


MAGIC = int.from_bytes(b"biroute", "little")


def encode_entry(goal, h1, h2, complete=True, magic=MAGIC, version=3, n=None, header_goal=None):
    """A version 3 cache entry, encoded apart from the writer under test.

    The keywords after ``complete`` override header words.
    """
    payload = array("q", h1 + h2).tobytes()
    n = len(h1) if n is None else n
    header_goal = goal if header_goal is None else header_goal
    header = (magic, version, n, header_goal, int(complete), zlib.crc32(payload))
    return array("q", header).tobytes() + payload


def published_entry(path, g, goal):
    """The table stored at ``path`` with its whole payload published, or None.

    A hit publishes entries as a search reads them; ``_publish`` is the
    step that ``settle_all`` and a restart take before they grow.
    """
    table = _load_entry(path, g, goal)
    if table is not None:
        table._publish()
    return table


def flip_bit(data, index):
    flipped = bytearray(data)
    flipped[index] ^= 1
    return bytes(flipped)


G1_H1, G1_H2 = [2, 1, 4, 0], [2, 4, 1, 0]


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

    def test_entry_layout_is_pinned(self, g1, tmp_path):
        # Entries written by one version must read back in the next.
        h = load_or_compute_heuristics(g1, 3, cache_dir=tmp_path)
        (entry,) = tmp_path.iterdir()
        assert entry.name == f"h-{graph_digest(g1)}-3-v3.bin"
        assert entry.read_bytes() == encode_entry(3, G1_H1, G1_H2)
        assert published_entry(entry, g1, 3) == h

    def test_unreachable_is_stored_as_is(self, tmp_path):
        g = bigraph_from_arcs(3, [(0, 1, 1, 1)])
        h = load_or_compute_heuristics(g, 1, cache_dir=tmp_path)
        (entry,) = tmp_path.iterdir()
        assert entry.read_bytes() == encode_entry(1, [1, 0, UNREACHABLE], [1, 0, UNREACHABLE])
        assert published_entry(entry, g, 1) == h

    @pytest.mark.parametrize(
        "content",
        [
            b"",
            b"garbage\n",
            encode_entry(3, [0], [0]),
            encode_entry(3, G1_H1, G1_H2, complete=2),
            encode_entry(3, G1_H1, G1_H2, complete=False)[:-8],
            encode_entry(3, [2, 1, 4, 1], G1_H2, complete=False),
            encode_entry(3, G1_H1, G1_H2, magic=MAGIC + 1),
            encode_entry(3, G1_H1, G1_H2, version=2),
            encode_entry(3, G1_H1, G1_H2, n=3),
            encode_entry(3, G1_H1, G1_H2, header_goal=0),
            # A byte of h1[1], so only the CRC tells.
            flip_bit(encode_entry(3, G1_H1, G1_H2), 8 * (6 + 1)),
        ],
        ids=[
            "empty",
            "garbage",
            "misshapen",
            "non_bool_complete",
            "short_h2",
            "goal_not_zero",
            "wrong_magic",
            "version_2",
            "wrong_n_in_header",
            "wrong_goal_in_header",
            "flipped_payload_byte",
        ],
    )
    def test_bad_entry_is_recomputed_and_rewritten(self, g1, tmp_path, content):
        load_or_compute_heuristics(g1, 3, cache_dir=tmp_path)
        (entry,) = tmp_path.iterdir()
        entry.write_bytes(content)
        assert _load_entry(entry, g1, 3) is None
        h = load_or_compute_heuristics(g1, 3, cache_dir=tmp_path)
        assert h.h1 == G1_H1 and h.h2 == G1_H2
        # The entry is rewritten in place and no temp file is left behind.
        assert list(tmp_path.iterdir()) == [entry]
        assert entry.read_bytes() == encode_entry(3, G1_H1, G1_H2)
        assert published_entry(entry, g1, 3) == h

    def test_loading_never_unpickles(self, g1, tmp_path):
        # A shared cache directory must not be a way to run code: plant a
        # pickle that would create a marker file, under the version 2 name
        # and the version 3 name of the entry a load reads.
        class Planted:
            def __init__(self, marker):
                self.marker = marker

            def __reduce__(self):
                return open, (str(self.marker), "w")

        live = tmp_path / "live"
        with pickle.loads(pickle.dumps(Planted(live))):
            pass
        assert live.exists()  # the planted bytes do run code when unpickled
        marker = tmp_path / "marker"
        cache = tmp_path / "cache"
        cache.mkdir()
        stem = f"h-{graph_digest(g1)}-3"
        for name in (f"{stem}-v2.pkl", f"{stem}-v3.bin"):
            (cache / name).write_bytes(pickle.dumps(Planted(marker)))
        h = load_or_compute_heuristics(g1, 3, cache_dir=cache)
        assert h == compute_heuristics(g1, 3)
        assert not marker.exists()
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(heuristics_module))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert "pickle" not in imported and "hashlib" in imported

    def test_distances_from_2_63_are_not_cached(self, tmp_path):
        # The graphs of test_costs_above_2_62_stay_exact: a table whose
        # distances fit int64 round-trips exactly; one with a distance of
        # 2^63 or more writes nothing, and a reload recomputes it.
        big = 2**62
        rng = random.Random(3)
        graphs = [shifted(bigraph_from_arcs(4, G1_ARCS), big)]
        graphs += [shifted(random_graph(rng), big) for _ in range(50)]
        stored = skipped = 0
        for i, g in enumerate(graphs):
            cache = tmp_path / str(i)
            for goal in range(g.vertex_count):
                fresh = compute_heuristics(g, goal)
                h = load_or_compute_heuristics(g, goal, cache_dir=cache)
                assert h == fresh
                entry = _cache_path(g, goal, cache)
                if max(fresh.h1 + fresh.h2) >= 2**63:
                    skipped += 1
                    assert not entry.exists()
                else:
                    stored += 1
                    assert published_entry(entry, g, goal) == fresh
                assert load_or_compute_heuristics(g, goal, cache_dir=cache) == fresh
        assert stored > 0 and skipped > 0

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

        def fdopen_failing_write(fd, mode):
            fh = os.fdopen(fd, mode)
            fh.write = fail
            return fh

        patched = {
            "mkstemp": ("tempfile", types.SimpleNamespace(mkstemp=fail)),
            "write": (
                "os",
                types.SimpleNamespace(
                    fdopen=fdopen_failing_write, replace=os.replace, unlink=os.unlink
                ),
            ),
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


def engine_outputs(res):
    stats = res.stats
    counters = (stats.n_expanded, stats.n_generated, stats.n_merges)
    return counters, res.arena, res.pairs, res.solutions, res.costs


class TestPartialTables:
    """Tables settled through a start and grown on demand, against the reference."""

    @staticmethod
    def assert_published_entries_exact(h, ref1, ref2):
        # An entry is published in both components or in neither.
        for v, (d1, d2) in enumerate(zip(h.h1, h.h2)):
            assert (d1, d2) in ((UNREACHABLE, UNREACHABLE), (ref1[v], ref2[v])), v

    def test_published_entries_are_exact(self, partial_queries):
        rng = random.Random(4)
        for g, s, t in partial_queries:
            ref1, ref2 = _backward_dijkstra(g, t, 1), _backward_dijkstra(g, t, 2)
            h = compute_heuristics(g, t, s)
            assert (h.h1[s], h.h2[s]) == (ref1[s], ref2[s])
            self.assert_published_entries_exact(h, ref1, ref2)
            for v in rng.sample(range(g.vertex_count), min(5, g.vertex_count)):
                assert h.settle(v) == (ref1[v] != UNREACHABLE)
                self.assert_published_entries_exact(h, ref1, ref2)

    def test_build_settles_the_floor_in_each_component(self, partial_queries):
        # Past the start, each search of a build settles SETTLE_FLOOR of
        # the vertices, or all that reach the goal (the table is then
        # complete).
        partial = 0
        for g, s, t in partial_queries:
            h = compute_heuristics(g, t, s)
            if h.complete:
                continue
            partial += 1
            floor = math.ceil(heuristics_module.SETTLE_FLOOR * g.vertex_count)
            for component in (1, 2):
                assert sum(mark & component > 0 for mark in h._marks) >= floor
        assert partial > 0

    def test_settling_every_vertex_reproduces_the_reference(self, partial_queries):
        rng = random.Random(5)
        # Random graphs leave vertices unreachable; the 2^62 shift puts
        # heap keys above 2^63.
        queries = list(partial_queries)
        for _ in range(100):
            g = shifted(random_graph(rng), 2**62)
            queries.append((g, rng.randrange(g.vertex_count), rng.randrange(g.vertex_count)))
        for g, s, t in queries:
            ref1, ref2 = _backward_dijkstra(g, t, 1), _backward_dijkstra(g, t, 2)
            one_by_one = compute_heuristics(g, t, s)
            order = list(range(g.vertex_count))
            rng.shuffle(order)
            for v in order:
                one_by_one.settle(v)
            assert one_by_one.h1 == ref1 and one_by_one.h2 == ref2
            at_once = compute_heuristics(g, t, s)
            for h in (one_by_one, at_once):
                # Stale heap entries may keep a fully published table
                # partial until its heaps are drained.
                h.settle_all()
                assert h.complete
                assert h.h1 == ref1 and h.h2 == ref2
                assert h == compute_heuristics(g, t)

    @pytest.mark.parametrize(
        "eps", [(0, 0), (0.01, 0.01), (0.1, 0.1), (0, 0.5)], ids=lambda e: f"{e[0]}-{e[1]}"
    )
    def test_engines_answer_the_same_from_every_table(self, partial_queries, tmp_path, eps):
        # Complete, fresh partial, and partial for another start, stored,
        # reloaded and grown from its published entries.
        eps = ApproxFactor(*eps)
        rng = random.Random(6)
        grown = 0
        for g, s, t in partial_queries:
            other = compute_heuristics(g, t, rng.randrange(g.vertex_count))
            other_published = published(other)
            store_heuristics(g, other, tmp_path)
            for engine in (boa_search, ppa_search):
                tables = [
                    compute_heuristics(g, t),
                    compute_heuristics(g, t, s),
                    load_or_compute_heuristics(g, t, tmp_path, start=s),
                ]
                outputs = [engine_outputs(engine(g, h, s, t, eps)) for h in tables]
                assert outputs[0] == outputs[1] == outputs[2]
                grown += published(tables[2]) > other_published
        assert grown > 0

    def test_engines_from_a_start_the_build_did_not_settle(self, partial_queries):
        # The table is built for another start; the engine must settle its
        # own start first, or return nothing if that start cannot reach the
        # goal.
        rng = random.Random(7)
        reachable = unreachable = 0
        for g, s, t in partial_queries:
            h = compute_heuristics(g, t, s)
            unsettled = [v for v, d in enumerate(h.h1) if d == UNREACHABLE]
            if h.complete or not unsettled:
                continue
            v = rng.choice(unsettled)
            complete = compute_heuristics(g, t)
            for engine in (boa_search, ppa_search):
                got = engine_outputs(engine(g, compute_heuristics(g, t, s), v, t))
                if complete.h1[v] == UNREACHABLE:
                    unreachable += 1
                    assert got == ((0, 0, 0), [], [], [], [])
                else:
                    reachable += 1
                    assert got == engine_outputs(engine(g, complete, v, t))
        assert reachable > 0 and unreachable > 0

    def test_partial_table_without_its_graph_cannot_grow(self, g1):
        h = compute_heuristics(g1, 3, 1)
        assert not h.complete
        bare = HeuristicTable(h.goal, h.h1, h.h2, complete=False)
        unsettled = bare.h1.index(UNREACHABLE)
        with pytest.raises(ValueError):
            bare.settle(unsettled)

    def test_start_out_of_range(self, g1, tmp_path):
        for start in (-1, 4):
            with pytest.raises(ValueError):
                compute_heuristics(g1, 3, start)
            with pytest.raises(ValueError):
                load_or_compute_heuristics(g1, 3, tmp_path, start=start)


class TestPartialCache:
    """What ``solve_query`` writes to the cache, and when."""

    SIDE = 10
    START, FARTHER, GOAL = (1, 8), (9, 0), (4, 6)

    @pytest.fixture
    def grid(self):
        return anticorrelated_grid(self.SIDE, random.Random(2021))

    @pytest.fixture
    def writes(self, monkeypatch):
        calls = []

        def replace(src, dst):
            calls.append(dst)
            os.replace(src, dst)

        monkeypatch.setattr(
            heuristics_module,
            "os",
            types.SimpleNamespace(fdopen=os.fdopen, replace=replace, unlink=os.unlink),
        )
        return calls

    def solve(self, g, start, cache):
        goal = grid_vertex(self.SIDE, *self.GOAL)
        return solve_query(g, grid_vertex(self.SIDE, *start), goal, "ppa", EXACT, h_cache_dir=cache)

    def entry(self, cache, grid):
        (path,) = cache.iterdir()
        table = published_entry(path, grid, grid_vertex(self.SIDE, *self.GOAL))
        assert table is not None
        return table

    def test_miss_writes_one_entry_after_its_search(self, grid, tmp_path, writes):
        self.solve(grid, self.START, tmp_path)
        assert len(writes) == 1
        stored = self.entry(tmp_path, grid)
        built = compute_heuristics(
            grid, grid_vertex(self.SIDE, *self.GOAL), grid_vertex(self.SIDE, *self.START)
        )
        # The entry carries what the search settled past the start.
        assert not stored.complete and published(stored) > published(built)

    def test_hit_that_settles_nothing_writes_nothing(self, grid, tmp_path, writes):
        self.solve(grid, self.START, tmp_path)
        before = self.entry(tmp_path, grid)
        writes.clear()
        report, _ = self.solve(grid, self.START, tmp_path)
        assert writes == [] and self.entry(tmp_path, grid) == before

    def test_farther_start_grows_and_rewrites(self, grid, tmp_path, writes):
        self.solve(grid, self.START, tmp_path)
        before = self.entry(tmp_path, grid)
        writes.clear()
        self.solve(grid, self.FARTHER, tmp_path)
        assert len(writes) == 1
        after = self.entry(tmp_path, grid)
        farther = grid_vertex(self.SIDE, *self.FARTHER)
        assert before.h1[farther] == UNREACHABLE != after.h1[farther]
        assert published(after) > published(before)
        assert all(a == b for a, b in zip(after.h1, before.h1) if b != UNREACHABLE)

    def test_partial_entry_loads_complete_without_start(self, grid, tmp_path):
        self.solve(grid, self.START, tmp_path)
        goal = grid_vertex(self.SIDE, *self.GOAL)
        assert not self.entry(tmp_path, grid).complete
        h = load_or_compute_heuristics(grid, goal, tmp_path)
        assert h.complete and h == compute_heuristics(grid, goal)
        assert self.entry(tmp_path, grid) == h

    def test_lazy_hit_writes_only_what_it_grew(self, grid, tmp_path, writes):
        # A hit publishes entries as its search reads them. One whose search
        # reads only published entries writes nothing; one that reads past
        # the entry writes the payload plus what it grew.
        self.solve(grid, self.START, tmp_path)
        (path,) = tmp_path.iterdir()
        stored = path.read_bytes()
        before = self.entry(tmp_path, grid)
        goal = grid_vertex(self.SIDE, *self.GOAL)
        writes.clear()
        for start, grows in ((self.START, False), (self.FARTHER, True)):
            s = grid_vertex(self.SIDE, *start)
            h = load_or_compute_heuristics(grid, goal, tmp_path, start=s)
            ppa_search(grid, h, s, goal)
            store_heuristics(grid, h, tmp_path)
            if not grows:
                assert 0 < published(h) < published(before)
                assert writes == [] and path.read_bytes() == stored
                continue
            assert len(writes) == 1
            after = self.entry(tmp_path, grid)
            assert after == h and published(after) > published(before)
            assert all(
                (after.h1[v], after.h2[v]) == (d1, before.h2[v])
                for v, d1 in enumerate(before.h1)
                if d1 != UNREACHABLE
            )


class TestLazyHit:
    """A loaded entry publishes a vertex from its payload when a search reads it."""

    def test_complete_entry_reads_unreachable_without_growing(self, tmp_path):
        g = bigraph_from_arcs(3, [(0, 1, 1, 1)])
        load_or_compute_heuristics(g, 1, cache_dir=tmp_path)
        (entry,) = tmp_path.iterdir()
        stored, inode = entry.read_bytes(), entry.stat().st_ino
        h = _load_entry(entry, g, 1)
        assert not h.complete and h.h1 == h.h2 == [UNREACHABLE] * 3
        assert not h.settle(2)
        assert h.settle(0)
        assert h.h1 == h.h2 == [1, UNREACHABLE, UNREACHABLE]
        assert h._fronts is None  # no backward search was resumed
        store_heuristics(g, h, tmp_path)
        h.settle_all()
        assert h._fronts is None and h == compute_heuristics(g, 1)
        store_heuristics(g, h, tmp_path)
        # Neither store rewrote the entry: a rewrite replaces its inode.
        assert list(tmp_path.iterdir()) == [entry]
        assert (entry.read_bytes(), entry.stat().st_ino) == (stored, inode)

    def test_engines_answer_the_same_from_a_lazy_complete_entry(self, partial_queries, tmp_path):
        unreachable = 0
        for g, s, t in partial_queries:
            complete = compute_heuristics(g, t)
            store_heuristics(g, complete, tmp_path)
            unreachable += UNREACHABLE in complete.h1
            for engine in (boa_search, ppa_search):
                lazy = load_or_compute_heuristics(g, t, tmp_path, start=s)
                assert engine_outputs(engine(g, lazy, s, t)) == engine_outputs(
                    engine(g, complete, s, t)
                )
                assert lazy._fronts is None and not lazy.complete
                for got, ref in ((lazy.h1, complete.h1), (lazy.h2, complete.h2)):
                    assert all(d in (UNREACHABLE, r) for d, r in zip(got, ref))
        assert unreachable > 0

    def test_partial_entry_grows_from_an_unpublished_start(self, partial_queries, tmp_path):
        rng = random.Random(8)
        grown = 0
        for g, s, t in partial_queries:
            stored = compute_heuristics(g, t, s)
            unpublished = [v for v, d in enumerate(stored.h1) if d == UNREACHABLE]
            if stored.complete or not unpublished:
                continue
            store_heuristics(g, stored, tmp_path)
            v = rng.choice(unpublished)
            complete = compute_heuristics(g, t)
            h = load_or_compute_heuristics(g, t, tmp_path, start=v)
            assert h._payload is None and (published(h) > published(stored) or h.complete)
            assert (h.h1[v], h.h2[v]) == (complete.h1[v], complete.h2[v])
            grown += 1
            h.settle_all()
            assert h == complete
        assert grown > 0

    def test_restart_from_the_payload_keeps_every_published_entry(
        self, partial_queries, tmp_path
    ):
        # Settling every vertex in turn, the lazy table publishes exactly
        # what a table holding the whole entry publishes once it has
        # restarted, and no entry changes once published.
        rng = random.Random(9)
        restarted = 0
        for g, s, t in partial_queries:
            stored = compute_heuristics(g, t, s)
            store_heuristics(g, stored, tmp_path)
            lazy = _load_entry(_cache_path(g, t, tmp_path), g, t)
            whole = HeuristicTable(t, stored.h1.copy(), stored.h2.copy(), stored.complete)
            whole._graph = g
            order = list(range(g.vertex_count))
            rng.shuffle(order)
            seen = {}
            for v in order:
                assert lazy.settle(v) == whole.settle(v)
                for w, d1 in enumerate(lazy.h1):
                    if d1 != UNREACHABLE:
                        assert (whole.h1[w], whole.h2[w]) == (d1, lazy.h2[w])
                        assert seen.setdefault(w, (d1, lazy.h2[w])) == (d1, lazy.h2[w])
                if lazy._payload is None:
                    assert lazy == whole
            restarted += lazy._payload is None and not stored.complete
            lazy.settle_all()
            assert lazy == compute_heuristics(g, t)
        assert restarted > 0
