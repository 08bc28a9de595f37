"""How fast the host runs Python right now, from a fixed reference workload.

The CPU speed a shared VM gets moves by up to 1.5x within minutes, the same
for every process in it, so two runs of the same code minutes apart read
times that far apart. ``HostClock`` runs a fixed reference chunk between the
timed ops, for a fixed share of the time they take, and so samples the
host's speed evenly over the run. Chunks run in bursts of at least
``BURST_S``, and the first chunk of a burst only warms the caches the ops
left cold: it is not timed, so the reference does not depend on what the
ops did to the caches. A time measured in the run, divided by
``HostClock.slowdown()``, is that time at the reference speed: the speed at
which one chunk takes ``NOMINAL_CHUNK_S``.

The chunk touches nothing of the package under test, so a change to the
package moves the ops and not the reference. It does the kinds of
interpreter work the package does: heap pushes and pops of tuples, dict and
list updates, attribute reads on small objects, string formatting and
hashing.
"""

from __future__ import annotations

import hashlib
import heapq
import time

# A typical chunk time on the 2-vCPU VM where the benchmark was written.
# Any constant would do; this one keeps scaled times close to the times
# measured there.
NOMINAL_CHUNK_S = 0.35e-3
BURST_S = 0.01


class _Item:
    __slots__ = ("key", "cost")

    def __init__(self, key: int, cost: int):
        self.key = key
        self.cost = cost


_ITEMS = [_Item(i, (i * 7919) % 1009) for i in range(400)]


def reference_chunk() -> int:
    """A fixed piece of interpreter work; returns a checksum so none is skipped."""
    heap: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    for item in _ITEMS:
        heapq.heappush(heap, (item.cost, item.key))
        seen[item.cost] = seen.get(item.cost, 0) + item.key
    out = []
    while heap:
        cost, key = heapq.heappop(heap)
        if seen[cost] >= key:
            out.append(cost ^ key)
    hasher = hashlib.sha256()
    for value in out[:200]:
        hasher.update(f";{value},{value >> 1}".encode())
    return len(out) + hasher.digest()[0]


class HostClock:
    """Runs timed reference chunks for ``duty`` times the time reported to ``pace``."""

    def __init__(self, duty: float):
        self.duty = duty
        self.busy_s = 0.0
        self.chunk_s = 0.0
        self.chunks = 0

    def pace(self, dt: float) -> None:
        """Count ``dt`` seconds of timed work, then catch up on reference chunks."""
        self.busy_s += dt
        if self.chunk_s + BURST_S > self.duty * self.busy_s:
            return
        reference_chunk()
        while self.chunk_s < self.duty * self.busy_s:
            self._chunk()

    def slowdown(self) -> float:
        """Mean chunk time over ``NOMINAL_CHUNK_S``: above 1 on a slower host."""
        if not self.chunks:
            reference_chunk()
            self._chunk()
        return self.chunk_s / self.chunks / NOMINAL_CHUNK_S

    def _chunk(self) -> None:
        t0 = time.perf_counter()
        reference_chunk()
        self.chunk_s += time.perf_counter() - t0
        self.chunks += 1
