"""Per-core utilization accounting with contention-induced imbalance.

The paper's weak-EP application constraints guarantee the *workload*
is balanced: every thread gets ``N/(p·t)`` rows and there is no
inter-thread communication.  Nevertheless the measured per-core
utilizations differ across configurations, which the paper attributes
"entirely to the complexity of the system architecture (mainly due to
contention for shared resources)".

This module models that mechanism deterministically: each thread's
completion time is the balanced time scaled by ``1 + jitter_i`` where
``jitter_i`` is a reproducible pseudo-random draw keyed by the
configuration (so repeated runs of the same configuration land on the
same utilization vector, like a real machine's systematic contention
pattern, while different configurations land on different vectors).
The jitter magnitude grows with the number of threadgroups — each
group streams the shared B matrix independently, and the resulting
cache/TLB interference is the paper's nonproportionality driver.

A core's utilization over the application window is
``thread_time / wall_time`` (the /proc/stat busy fraction); the wall
time is the slowest thread (the application ends when the last thread
finishes); idle logical CPUs contribute a small OS-noise utilization.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import numpy as np

from repro.machines.specs import CPUSpec
from repro.simcpu.calibration import CPUCalibration
from repro.simcpu.topology import Placement

__all__ = ["UtilizationVector", "contention_jitter", "utilization_vector"]


class UtilizationVector(NamedTuple):
    """Utilization of every logical CPU over one application run."""

    per_cpu: tuple[float, ...]
    wall_time_scale: float  # slowest thread's 1+jitter (scales wall time)
    #: Average utilization over all logical CPUs, ∈ [0, 1]: ``np.mean``'s
    #: own arithmetic (NumPy's pairwise sum, then one division) over
    #: ``per_cpu``, computed once by :func:`utilization_vector`.
    average: float

    def active(self, threshold: float = 0.05) -> list[float]:
        """Utilizations of CPUs above an idle threshold."""
        return [u for u in self.per_cpu if u > threshold]


def contention_jitter(
    config_key: str, n_threads: int, n_groups: int, cal: CPUCalibration
) -> np.ndarray:
    """Deterministic per-thread completion-time jitter (≥ 0).

    Uses a SHA-256-seeded generator over the configuration key so the
    same configuration always sees the same contention pattern.  The
    spread grows with the number of threadgroups.
    """
    if n_threads < 1 or n_groups < 1:
        raise ValueError("threads and groups must be positive")
    digest = hashlib.sha256(config_key.encode()).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    scale = cal.imbalance_base + cal.imbalance_per_group * (n_groups - 1)
    # Half-normal: threads only ever finish late relative to the
    # contention-free time, never early.
    return np.abs(rng.normal(0.0, scale, n_threads))


def utilization_vector(
    spec: CPUSpec,
    placement: Placement,
    jitter: np.ndarray,
    *,
    os_noise: float = 0.004,
) -> UtilizationVector:
    """Per-logical-CPU utilizations for one run.

    ``jitter[i]`` is thread i's completion-time excess; the wall time
    is set by the slowest thread, and each hosting CPU's busy fraction
    is its thread's completion time over the wall time.
    """
    if len(jitter) != placement.n_threads:
        raise ValueError("jitter length must equal the number of threads")
    completion = 1.0 + np.asarray(jitter, dtype=float)
    # ``ndarray.max`` and ``np.full`` without their Python wrappers.
    wall = float(np.maximum.reduce(completion))
    per_cpu = np.empty(spec.logical_cpus)
    per_cpu.fill(os_noise)
    per_cpu[placement.cpu_indices] = completion / wall
    average = float(np.add.reduce(per_cpu) / len(per_cpu))
    return UtilizationVector(tuple(per_cpu.tolist()), wall, average)
