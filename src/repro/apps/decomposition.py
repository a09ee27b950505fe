"""Matrix decomposition for the threadgroup-parallel DGEMM (Fig. 3).

The paper's weak-EP definition imposes application constraints: "the
application must be a load-balanced multithreaded parallel application
where all the application configurations run one thread per core and
distribute the workload equally between threads.  Ideally, there should
be no communications or synchronization between the threads."

Fig. 3 shows the decomposition satisfying them: A and C are partitioned
horizontally into ``p`` equal slabs (one per threadgroup), B is shared
read-only, and each group's slab is split equally among its ``t``
threads.  This module computes those index ranges explicitly and
provides :func:`verify_weak_ep_constraints`, the machine-checkable
version of the paper's constraint list — used by the CPU application
tests and available to users building their own weak-EP studies.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "ThreadAssignment",
    "GroupAssignment",
    "DecompositionError",
    "decompose",
    "verify_weak_ep_constraints",
]


class DecompositionError(ValueError):
    """A configuration cannot satisfy the weak-EP constraints."""


class ThreadAssignment(NamedTuple):
    """Row range of A and C one thread computes.

    The thread computes ``C[row_start:row_end, :] = alpha ·
    A[row_start:row_end, :] @ B + beta · C[row_start:row_end, :]`` —
    a private row slab, all of shared B, no overlap with any other
    thread.
    """

    group: int
    thread: int
    row_start: int
    row_end: int  # exclusive

    @property
    def rows(self) -> int:
        return self.row_end - self.row_start

    def flops(self, n: int) -> float:
        """Useful flops of this thread's slab product."""
        return 2.0 * self.rows * n * n


class GroupAssignment(NamedTuple):
    """One threadgroup's slab and its per-thread split."""

    group: int
    row_start: int
    row_end: int
    threads: tuple[ThreadAssignment, ...]


def decompose(n: int, groups: int, threads_per_group: int) -> list[GroupAssignment]:
    """Fig. 3 decomposition of an N×N product over p groups × t threads.

    Requires ``p·t`` to divide N so every thread receives exactly the
    same number of rows — the paper's equal-distribution constraint is
    *exact*, not approximate, by construction of its experiments (the
    matrix sizes are chosen divisible by the configuration grid).

    Raises
    ------
    DecompositionError
        If the workload cannot be split exactly equally.
    """
    if n < 1 or groups < 1 or threads_per_group < 1:
        raise DecompositionError("sizes must be positive")
    total_threads = groups * threads_per_group
    if n % total_threads != 0:
        raise DecompositionError(
            f"N={n} is not divisible by p·t={total_threads}; the "
            "configuration cannot distribute the workload equally"
        )
    rows_per_group = n // groups
    rows_per_thread = n // total_threads
    out = []
    for g in range(groups):
        g_start = g * rows_per_group
        threads = []
        for t in range(threads_per_group):
            start = g_start + t * rows_per_thread
            threads.append(
                ThreadAssignment(
                    group=g,
                    thread=t,
                    row_start=start,
                    row_end=start + rows_per_thread,
                )
            )
        out.append(
            GroupAssignment(
                group=g,
                row_start=g_start,
                row_end=g_start + rows_per_group,
                threads=tuple(threads),
            )
        )
    return out


def verify_weak_ep_constraints(
    n: int, assignments: list[GroupAssignment]
) -> None:
    """Check the paper's weak-EP application constraints.

    Verifies: full coverage of the N rows, no overlap between threads
    (no communication is needed because no thread reads another's C
    slab), and exactly equal workload per thread.

    Raises
    ------
    DecompositionError
        Describing the violated constraint.
    """
    threads = [t for g in assignments for t in g.threads]
    if not threads:
        raise DecompositionError("no threads in the decomposition")

    sizes = {t.rows for t in threads}
    if len(sizes) != 1:
        raise DecompositionError(
            f"unequal workload distribution: row counts {sorted(sizes)}"
        )

    covered = sorted(threads, key=lambda t: t.row_start)
    cursor = 0
    for t in covered:
        if t.row_start != cursor:
            raise DecompositionError(
                f"gap or overlap at row {cursor}: thread "
                f"({t.group},{t.thread}) starts at {t.row_start}"
            )
        if t.row_end <= t.row_start:
            raise DecompositionError("empty thread slab")
        cursor = t.row_end
    if cursor != n:
        raise DecompositionError(
            f"decomposition covers {cursor} of {n} rows"
        )
