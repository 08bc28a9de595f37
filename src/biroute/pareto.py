"""Dominance vocabulary shared by the search engines and the oracle.

Costs are nonnegative integers, so all exact comparisons stay in integer
arithmetic. Approximate comparisons follow the convention that a factor
``eps`` relaxes the right-hand side multiplicatively: ``x`` approximately
dominates ``y`` componentwise when ``x <= (1 + eps) * y``, evaluated as
``x <= y + eps * y`` in double precision so that ``eps = 0`` stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .graph import CostVec


@dataclass(frozen=True)
class ApproxFactor:
    """Per-criterion relative slack (eps1, eps2), both finite and nonnegative."""

    eps1: float = 0.0
    eps2: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.eps1) and math.isfinite(self.eps2)):
            raise ValueError(f"approximation factors must be finite: {self}")
        if self.eps1 < 0 or self.eps2 < 0:
            raise ValueError(f"approximation factors must be nonnegative: {self}")

    @classmethod
    def uniform(cls, eps: float) -> "ApproxFactor":
        return cls(eps, eps)


EXACT = ApproxFactor(0.0, 0.0)


def weakly_dominates(p: CostVec, q: CostVec) -> bool:
    """True iff p is at most q in both components."""
    return p[0] <= q[0] and p[1] <= q[1]


def strictly_dominates(p: CostVec, q: CostVec) -> bool:
    """True iff p weakly dominates q and improves at least one component."""
    return p[0] <= q[0] and p[1] <= q[1] and (p[0] < q[0] or p[1] < q[1])


def approx_dominates(p: CostVec, q: CostVec, eps: ApproxFactor) -> bool:
    """True iff p is within the (eps1, eps2) relaxation of dominating q."""
    return p[0] <= q[0] + eps.eps1 * q[0] and p[1] <= q[1] + eps.eps2 * q[1]


class SearchPath(NamedTuple):
    """One node of the path arena: last vertex, accumulated cost, parent index."""

    vertex: int
    g: CostVec
    parent: int | None


class PathArena:
    """Append-only store of SearchPath records indexed by dense integers.

    Paths never own their predecessors; they reference them by index, so
    extending a path is O(1) and reconstruction walks parent links. An
    arena is confined to a single search run.
    """

    def __init__(self):
        self.paths: list[SearchPath] = []

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, idx: int) -> SearchPath:
        return self.paths[idx]

    def add(self, vertex: int, g: CostVec, parent: int | None = None) -> int:
        self.paths.append(SearchPath(vertex, g, parent))
        return len(self.paths) - 1

    def vertex_sequence(self, idx: int) -> list[int]:
        """The vertices of path ``idx`` from the search start to its end."""
        seq = []
        cursor: int | None = idx
        while cursor is not None:
            node = self.paths[cursor]
            seq.append(node.vertex)
            cursor = node.parent
        seq.reverse()
        return seq


class PathPair(NamedTuple):
    """Two same-vertex paths bracketing a segment of the Pareto frontier.

    ``tl`` (top-left) has the smaller first cost and larger second cost,
    ``br`` (bottom-right) the opposite; the two may be the same path. Costs
    are cached in the tuple so dominance tests skip arena lookups. ``tl``
    and ``br`` are arena indices. The path-pair engine returns its
    solution pairs in this form; inside its loop a pair is a flat record.
    """

    vertex: int
    tl: int
    br: int
    tl_cost: CostVec
    br_cost: CostVec


def apex(pp: PathPair) -> CostVec:
    """The componentwise-best corner spanned by the pair's two paths."""
    return CostVec(pp.tl_cost.c1, pp.br_cost.c2)


def is_bounded(pp: PathPair, eps: ApproxFactor) -> bool:
    """True iff the pair's spread stays within the per-criterion slack.

    Componentwise this requires c1(br) <= (1 + eps1) * c1(tl) and
    c2(tl) <= (1 + eps2) * c2(br); a zero reference component therefore
    admits only a zero counterpart.
    """
    c1_tl = pp.tl_cost.c1
    c2_br = pp.br_cost.c2
    return (
        pp.br_cost.c1 <= c1_tl + eps.eps1 * c1_tl
        and pp.tl_cost.c2 <= c2_br + eps.eps2 * c2_br
    )


def pareto_filter(costs: Iterable[CostVec]) -> list[CostVec]:
    """The mutually non-dominated subset of ``costs``, deduplicated.

    Returned sorted by ascending first component (hence strictly
    descending second component).
    """
    kept: list[CostVec] = []
    for c in sorted(set(costs)):
        if not kept or c[1] < kept[-1][1]:
            kept.append(c)
    return kept


@dataclass
class SearchStats:
    """Work counters for one search run.

    ``n_expanded`` counts queue extractions that survive the extraction-time
    pruning test; ``n_generated`` counts entries handed to the queue
    (including the initial one). Extractions of lazily invalidated entries
    count toward neither.
    """

    n_expanded: int = 0
    n_generated: int = 0
    n_merges: int = 0


@dataclass
class SearchResult:
    """Solutions plus counters from one engine run.

    ``solutions`` holds arena indices of the returned goal paths in
    discovery order; ``pairs`` is populated only by the path-pair engine
    and keeps the stored solution pairs backing those paths.
    """

    arena: PathArena
    solutions: list[int]
    stats: SearchStats
    pairs: list[PathPair] = field(default_factory=list)

    def solution_costs(self) -> list[CostVec]:
        return [self.arena[idx].g for idx in self.solutions]

    def solution_vertices(self, position: int) -> list[int]:
        return self.arena.vertex_sequence(self.solutions[position])
