"""Incrementally-maintained Pareto front (streaming inserts).

:func:`~repro.core.pareto.pareto_front` re-sorts the world on every
call — fine for a figure rendered once, wasteful for a search loop
that grows its candidate set one evaluation at a time
(:func:`~repro.core.biobjective.greedy_front_search`).
:class:`IncrementalParetoFront` maintains the front *under insertion*:

* the front invariant — strictly increasing time, strictly decreasing
  energy — makes both the dominance test and the dominated-run removal
  binary searches over the sorted front;
* each insert is O(log n) plus the removals it causes, and every point
  is removed at most once over the front's lifetime, so a stream of n
  inserts costs O(n log n) amortized — the same total as one batch
  sort, without ever re-sorting;
* after *any* insert sequence (orders, duplicates, objective ties) the
  maintained front equals ``pareto_front`` over the same multiset
  (``tests/test_incremental_front.py`` property-checks this).

Duplicate objective vectors collapse to the first representative
inserted, matching ``pareto_front``'s first-in-sorted-order rule.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator
from typing import Any

import numpy as np

from repro.core.pareto import ParetoPoint

__all__ = ["IncrementalParetoFront"]


class IncrementalParetoFront:
    """A bi-objective (time, energy) Pareto front under streaming inserts."""

    __slots__ = ("_times", "_energies", "_configs", "inserted", "accepted")

    def __init__(self, points: Iterable[ParetoPoint | tuple] = ()) -> None:
        #: Parallel lists sorted by strictly increasing time; energies
        #: strictly decrease along them (the staircase invariant).
        self._times: list[float] = []
        self._energies: list[float] = []
        self._configs: list[Any] = []
        #: Stream accounting: points offered / points currently needed.
        self.inserted = 0
        self.accepted = 0
        for p in points:
            if isinstance(p, ParetoPoint):
                self.insert(p.time_s, p.energy_j, p.config)
            else:
                t, e, *rest = p
                self.insert(float(t), float(e), rest[0] if rest else None)

    def insert(self, time_s: float, energy_j: float, config: Any = None) -> bool:
        """Offer one point; returns True if it joined the front.

        A point is rejected iff some current member weakly dominates it
        (no worse in both objectives — including an exact duplicate);
        an accepted point evicts every member it weakly dominates.
        """
        time_s = float(time_s)
        energy_j = float(energy_j)
        self.inserted += 1
        times, energies = self._times, self._energies
        pos = bisect_left(times, time_s)
        # Weak dominance check against the only possible dominators:
        # the nearest member at strictly smaller time (minimal energy
        # among them, by the invariant) and an exact time tie at pos.
        if pos > 0 and energies[pos - 1] <= energy_j:
            return False
        if pos < len(times) and times[pos] == time_s and energies[pos] <= energy_j:
            return False
        # Members from pos on have time >= time_s; those the new point
        # weakly dominates (energy >= energy_j) are a contiguous run
        # at the head — find its end by binary search on the strictly
        # decreasing energies.
        lo, hi = pos, len(times)
        while lo < hi:
            mid = (lo + hi) // 2
            if energies[mid] >= energy_j:
                lo = mid + 1
            else:
                hi = mid
        del times[pos:lo], energies[pos:lo], self._configs[pos:lo]
        times.insert(pos, time_s)
        energies.insert(pos, energy_j)
        self._configs.insert(pos, config)
        self.accepted += 1
        return True

    def insert_point(self, point: ParetoPoint) -> bool:
        return self.insert(point.time_s, point.energy_j, point.config)

    def extend(self, points: Iterable[ParetoPoint | tuple]) -> int:
        """Offer many points; returns how many joined the front.

        Counts acceptances, not net growth — an accepted point may
        evict earlier members.
        """
        joined = 0
        for p in points:
            if isinstance(p, ParetoPoint):
                joined += self.insert(p.time_s, p.energy_j, p.config)
            else:
                t, e, *rest = p
                joined += self.insert(
                    float(t), float(e), rest[0] if rest else None
                )
        return joined

    def points(self) -> list[ParetoPoint]:
        """The current front as ParetoPoints (reporting boundary only)."""
        return [
            ParetoPoint(time_s=t, energy_j=e, config=c)
            for t, e, c in zip(self._times, self._energies, self._configs)
        ]

    def configs(self) -> list[Any]:
        """The members' configs in time order, without building points."""
        return list(self._configs)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The current front as ``(time_s, energy_j)`` float64 columns."""
        return (
            np.asarray(self._times, dtype=np.float64),
            np.asarray(self._energies, dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[ParetoPoint]:
        return iter(self.points())

    def __bool__(self) -> bool:
        return bool(self._times)
