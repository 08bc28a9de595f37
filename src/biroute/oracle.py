"""Reference frontier computation, frontier checking, and instance generation.

The oracle is an intentionally plain label-correcting search with full
per-vertex dominance filtering: no heuristic, no pruning against the goal,
no approximation. It is slow but easy to trust, which makes it the
independent referee for both search engines on instances small enough to
enumerate. Its loop works on plain ``(c1, c2)`` int pairs, with queue
entries ``(vertex, c1, c2)`` and the dominance tests written inline; only
the returned frontier is made of ``CostVec``. Labels are visited in FIFO
order and every inserted label, the start label included, counts against
the budget; ``biroute verify`` skips an instance whose count exceeds it.
The checker compares plain tuples too, but every slack test goes through
``approx_dominates``, the one definition of the slack comparison.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .graph import BiGraph, CostVec, bigraph_from_arcs, check_endpoints
from .pareto import ApproxFactor, approx_dominates, pareto_filter


class LabelBudgetError(RuntimeError):
    """Raised when the label-correcting search outgrows its label budget."""


class GenerationError(RuntimeError):
    """Raised by ``bench.sample_queries`` when a graph cannot supply its queries."""


@dataclass(frozen=True)
class FrontierSet:
    """An exact Pareto frontier: cost vectors ascending in c1, descending in c2."""

    costs: tuple[CostVec, ...]

    @classmethod
    def from_costs(cls, costs) -> "FrontierSet":
        return cls(tuple(pareto_filter(costs)))

    def __len__(self) -> int:
        return len(self.costs)

    def __iter__(self):
        return iter(self.costs)


def exact_frontier(
    g: BiGraph, start: int, goal: int, label_budget: int = 100_000
) -> FrontierSet:
    """Every Pareto-optimal cost vector from start to goal.

    Label-correcting over per-vertex non-dominated label sets; a label is
    re-queued whenever it survives insertion. The budget caps total labels
    ever inserted so oversized instances fail fast instead of thrashing.
    """
    check_endpoints(g, start, goal)
    n = g.vertex_count
    edges = g.edges
    labels: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    labels[start].append((0, 0))
    inserted = 1
    queue: deque[tuple[int, int, int]] = deque([(start, 0, 0)])
    pop, push = queue.popleft, queue.append
    while queue:
        u, c1, c2 = pop()
        if (c1, c2) not in labels[u]:
            continue
        for target, (d1, d2) in edges[u]:
            x1 = c1 + d1
            x2 = c2 + d2
            bucket = labels[target]
            # Drop the candidate if a label weakly dominates it; otherwise
            # evict the labels it weakly dominates and insert it.
            for o1, o2 in bucket:
                if o1 <= x1 and o2 <= x2:
                    break
            else:
                for o1, o2 in bucket:
                    if x1 <= o1 and x2 <= o2:
                        bucket[:] = [o for o in bucket if o[0] < x1 or o[1] < x2]
                        break
                bucket.append((x1, x2))
                inserted += 1
                if inserted > label_budget:
                    raise LabelBudgetError(
                        f"label budget of {label_budget} exceeded; instance too large"
                    )
                push((target, x1, x2))
    return FrontierSet.from_costs(map(CostVec._make, labels[goal]))


@dataclass
class ApproxCheckReport:
    """Outcome of validating a candidate set against an exact frontier.

    ``ok`` when no exact cost is ``uncovered`` and no candidate weakly
    dominates another (``dominated_pairs``). ``n_members``, the candidates
    on the exact frontier, is reported but not judged, since approximate
    engines may legitimately return non-frontier paths.
    """

    uncovered: tuple[CostVec, ...]
    dominated_pairs: tuple[tuple[CostVec, CostVec], ...]
    n_candidates: int
    n_members: int

    @property
    def ok(self) -> bool:
        return not (self.uncovered or self.dominated_pairs)


def check_approx_frontier(
    candidate_costs, exact: FrontierSet, eps: ApproxFactor
) -> ApproxCheckReport:
    """Judge a candidate cost set as an (eps1, eps2)-approximate frontier.

    Hard conditions: every exact frontier cost must be approximately
    dominated by some candidate, and no candidate may weakly dominate
    another. Candidates are deduplicated before checking. An empty
    candidate set passes only against an empty frontier.
    """
    candidates = sorted(set(map(CostVec._make, candidate_costs)))
    uncovered = []
    for p in exact.costs:
        for c in candidates:
            if approx_dominates(c, p, eps):
                break
        else:
            uncovered.append(p)
    # Candidates are distinct and sorted, so only an earlier one can
    # weakly dominate a later one.
    dominated = []
    for i, victim in enumerate(candidates):
        v1, v2 = victim
        for other in candidates[:i]:
            if other[0] <= v1 and other[1] <= v2:
                dominated.append((victim, other))
    return ApproxCheckReport(
        uncovered=tuple(uncovered),
        dominated_pairs=tuple(dominated),
        n_candidates=len(candidates),
        n_members=len(set(exact.costs).intersection(candidates)),
    )


INSTANCE_DRAWS = 200


def random_instance(
    seed: int,
    n_max: int = 50,
    out_degree_max: int = 4,
    cost_max: int = 10,
) -> tuple[BiGraph, int, int]:
    """A seeded random digraph plus a reachable (start, goal) query.

    The same seed always yields the same instance. Vertex count is drawn
    from [1, n_max]; each vertex gets up to out_degree_max arcs to uniform
    targets (self loops and parallel arcs allowed) with costs in
    [1, cost_max]. Endpoints are re-drawn until the goal is reachable from
    the start. If ``INSTANCE_DRAWS`` draws find no such pair (say, on a
    graph without arcs), the last drawn start is both endpoints, since a
    vertex reaches itself.
    """
    if n_max < 1 or out_degree_max < 0 or cost_max < 1:
        raise ValueError("n_max and cost_max must be >= 1, out_degree_max >= 0")
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    arcs = []
    for u in range(n):
        for _ in range(rng.randint(0, out_degree_max)):
            arcs.append(
                (u, rng.randrange(n), rng.randint(1, cost_max), rng.randint(1, cost_max))
            )
    g = bigraph_from_arcs(n, arcs)
    for _ in range(INSTANCE_DRAWS):
        start = rng.randrange(n)
        goal = rng.randrange(n)
        if _reaches(g, start, goal):
            return g, start, goal
    return g, start, start


def _reaches(g: BiGraph, start: int, goal: int) -> bool:
    if start == goal:
        return True
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for target, _ in g.edges[u]:
            if target == goal:
                return True
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return False
