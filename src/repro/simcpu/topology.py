"""CPU topology and thread placement.

The Haswell platform is 2 sockets × 12 physical cores × 2 hyperthreads
= 48 logical CPUs.  The paper's DGEMM application binds each thread to
a separate logical CPU ("each thread is bound to a separate core"),
one thread per logical CPU, so a configuration's placement decides how
many *physical* cores are active and how many of them run two
hyperthreads — both matter for throughput and power.

:func:`place_threads` uses the scatter policy (the HPC default:
breadth-first over sockets, then physical cores, hyperthreads last),
which matches how the paper's applications were pinned.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from repro.machines.specs import CPUSpec

__all__ = ["LogicalCPU", "Placement", "place_threads"]


class LogicalCPU(NamedTuple):
    """Identity of one logical CPU in the topology."""

    index: int  # 0 .. logical_cpus-1, OS numbering
    socket: int
    physical_core: int  # global physical-core id
    hyperthread: int  # 0 or 1


@dataclass(frozen=True)
class Placement:
    """Where a configuration's threads landed.

    Attributes
    ----------
    cpus:
        The logical CPUs hosting threads, in placement order.
    threads_per_core:
        Threads on each active physical core, in the order the cores
        first receive a thread.
    active_physical_cores:
        Number of distinct physical cores with ≥ 1 thread.
    smt_cores:
        Number of physical cores running two threads.
    active_sockets:
        Number of sockets with ≥ 1 thread.

    The counts and the index column are computed on first use and
    kept: a placement is immutable, and :func:`place_threads` hands out
    one instance per thread count.
    """

    cpus: tuple[LogicalCPU, ...]

    @property
    def n_threads(self) -> int:
        return len(self.cpus)

    @cached_property
    def threads_per_core(self) -> tuple[int, ...]:
        return tuple(Counter(c.physical_core for c in self.cpus).values())

    @cached_property
    def active_physical_cores(self) -> int:
        return len(self.threads_per_core)

    @cached_property
    def smt_cores(self) -> int:
        return sum(1 for v in self.threads_per_core if v >= 2)

    @cached_property
    def active_sockets(self) -> int:
        return len({c.socket for c in self.cpus})

    @cached_property
    def cpu_indices(self) -> np.ndarray:
        """Read-only index column of :attr:`cpus`, in placement order."""
        indices = np.fromiter(
            (c.index for c in self.cpus), dtype=np.intp, count=len(self.cpus)
        )
        indices.flags.writeable = False
        return indices


def enumerate_topology(spec: CPUSpec) -> list[LogicalCPU]:
    """All logical CPUs of the machine, in OS order.

    OS numbering on Linux/Haswell enumerates one hyperthread of every
    physical core first (0..23), then the siblings (24..47).
    """
    cpus = []
    for ht in range(spec.smt):
        for socket in range(spec.sockets):
            for core in range(spec.cores_per_socket):
                phys = socket * spec.cores_per_socket + core
                index = ht * spec.physical_cores + phys
                cpus.append(
                    LogicalCPU(
                        index=index,
                        socket=socket,
                        physical_core=phys,
                        hyperthread=ht,
                    )
                )
    return cpus


@lru_cache(maxsize=1024)
def place_threads(spec: CPUSpec, n_threads: int) -> Placement:
    """Scatter-place ``n_threads`` threads, one per logical CPU.

    Breadth-first: alternate sockets across physical cores, using
    second hyperthreads only once every physical core hosts a thread.

    Memoized per ``(spec, n_threads)``: a placement depends on nothing
    else, and a configuration sweep places the same few thread counts
    once per (partition, p, t) configuration.

    Raises
    ------
    ValueError
        If more threads are requested than logical CPUs exist — the
        paper's configurations never oversubscribe.
    """
    if n_threads < 1:
        raise ValueError("need at least one thread")
    if n_threads > spec.logical_cpus:
        raise ValueError(
            f"{n_threads} threads exceed {spec.logical_cpus} logical CPUs"
        )
    topo = enumerate_topology(spec)

    # Scatter order: hyperthread-major is already OS order ht0 first;
    # within a hyperthread level, alternate sockets.
    def order_key(c: LogicalCPU) -> tuple[int, int, int]:
        core_in_socket = c.physical_core % spec.cores_per_socket
        return (c.hyperthread, core_in_socket, c.socket)

    ordered = sorted(topo, key=order_key)
    return Placement(cpus=tuple(ordered[:n_threads]))
