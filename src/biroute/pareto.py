"""Dominance vocabulary shared by the search engines and the oracle.

Costs are nonnegative integers, so all exact comparisons stay in integer
arithmetic. Approximate comparisons follow the convention that a factor
``eps`` relaxes the right-hand side multiplicatively: ``x`` approximately
dominates ``y`` componentwise when ``x <= (1 + eps) * y``. A slack means
the decimal it prints as (``slack_label``: the shortest decimal that reads
back as the same float), so ``0.3`` is 3/10 and ``0.01`` is 1/100, not
their doubles' binary fractions. ``ApproxFactor`` holds that decimal as
the exact integer ratio ``num / den`` (zero is ``(0, 1)``), and every
slack test in the package runs in integers on those ratios:
``approx_dominates`` tests ``x * den <= y * (den + num)``, the engines'
goal-bound prune compares an int f2 with ``goal_cut`` of the goal's
second cost, and PP-A*'s merge tests compare costs with the same
products. Each is exact at every slack and every cost, above 2**53
included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
        # -0.0 passes as zero but would print as "-0.0"; keep +0.0.
        object.__setattr__(self, "eps1", abs(self.eps1))
        object.__setattr__(self, "eps2", abs(self.eps2))

    @classmethod
    def uniform(cls, eps: float) -> "ApproxFactor":
        return cls(eps, eps)

    @cached_property
    def ratios(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Each criterion's slack as the exact ``(num, den)`` of its label.

        ``0.01`` is ``(1, 100)`` and ``1e-20`` is ``(1, 10**20)``: the decimal
        the slack prints as, which is the value the reports show.
        """
        return tuple(
            Fraction(slack_label(e)).as_integer_ratio() for e in (self.eps1, self.eps2)
        )


EXACT = ApproxFactor(0.0, 0.0)


def slack_label(eps: float) -> str:
    """``eps`` as text, without a trailing ``.0``.

    A float prints as the shortest decimal that reads back as it; an int or
    a ``Fraction`` prints exactly.
    """
    text = str(eps)
    return text[:-2] if text.endswith(".0") else text


def approx_dominates(p: CostVec, q: CostVec, eps: ApproxFactor) -> bool:
    """True iff p is within the (eps1, eps2) relaxation of dominating q."""
    (n1, d1), (n2, d2) = eps.ratios
    return p[0] * d1 <= q[0] * (d1 + n1) and p[1] * d2 <= q[1] * (d2 + n2)


def goal_cut(bound: int, ratio: tuple[int, int]) -> int:
    """The least int ``x`` with ``x * (1 + num/den) >= bound``.

    ``ratio`` is ``(num, den)``. An engine prunes a path whose f2 reaches
    the cut of the goal's second cost ``bound``: that goal path is within
    the slack of it. Zero slack gives ``bound`` itself.
    """
    num, den = ratio
    return -(-bound * den // (den + num))


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
