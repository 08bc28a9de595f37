"""Dominance vocabulary shared by the search engines and the oracle.

Costs are nonnegative integers, so all exact comparisons stay in integer
arithmetic. Approximate comparisons follow the convention that a factor
``eps`` relaxes the right-hand side multiplicatively: ``x`` approximately
dominates ``y`` componentwise when ``x <= (1 + eps) * y``, evaluated as
``x <= y + eps * y``. A zero slack is read as the int 0 (``eps.eps1 or 0``)
so that ``eps = 0`` stays exact in integers even above 2**53, where
``y + 0.0 * y`` would round; a positive slack is applied in double
precision. The engines read their slack the same way, through
``ApproxFactor.search_slack``, which also caps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

from .graph import CostVec

# The largest slack an engine searches at. A larger float slack makes
# ``f + e * f`` overflow to inf at small costs (1e308 * 2 already does),
# and an inf bound meets the goal-bound prune before any goal path is
# found. Under the cap, costs up to about 2**1024 / 2**52, roughly
# 10^292, keep every bound finite.
SLACK_CAP = 2**52


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

    @cached_property
    def search_slack(self) -> tuple[int | float, int | float]:
        """The (e1, e2) an engine applies, read once per search.

        Each component is capped at ``SLACK_CAP`` and a zero slack is the
        int 0, as the module docstring describes. An answer within the
        capped slack is within the requested one too.
        """
        return min(self.eps1, SLACK_CAP) or 0, min(self.eps2, SLACK_CAP) or 0


EXACT = ApproxFactor(0.0, 0.0)


def approx_dominates(p: CostVec, q: CostVec, eps: ApproxFactor) -> bool:
    """True iff p is within the (eps1, eps2) relaxation of dominating q."""
    e1, e2 = eps.eps1 or 0, eps.eps2 or 0
    return p[0] <= q[0] + e1 * q[0] and p[1] <= q[1] + e2 * q[1]


class PathPair(NamedTuple):
    """Two same-vertex paths bracketing a segment of the Pareto frontier.

    ``tl`` (top-left) has the smaller first cost and larger second cost,
    ``br`` (bottom-right) the opposite; the two may be the same path. ``tl``
    and ``br`` are arena indices; the arena keeps no costs, so the pair
    carries them. The path-pair engine returns its solution pairs in this
    form; inside its loop a pair is a flat record.
    """

    vertex: int
    tl: int
    br: int
    tl_cost: CostVec
    br_cost: CostVec


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

    ``arena`` holds a ``(vertex, parent)`` tuple per stored path, ``parent``
    being an arena index or None at the start. ``solutions`` holds arena
    indices of the returned goal paths in discovery order, ``costs`` their
    costs. ``pairs`` is populated only by the path-pair engine and keeps
    the stored solution pairs backing those paths.
    """

    arena: list[tuple[int, int | None]] = field(default_factory=list)
    solutions: list[int] = field(default_factory=list)
    costs: list[CostVec] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)
    pairs: list[PathPair] = field(default_factory=list)

    def solution_costs(self) -> list[CostVec]:
        return list(self.costs)

    def solution_vertices(self, position: int) -> list[int]:
        """The vertices of solution ``position``, from the search start to the goal."""
        arena = self.arena
        seq = []
        cursor = self.solutions[position]
        while cursor is not None:
            vertex, cursor = arena[cursor]
            seq.append(vertex)
        seq.reverse()
        return seq
