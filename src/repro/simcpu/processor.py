"""Multicore CPU facade: run a DGEMM configuration, report the
(time, utilization, power, energy) tuple the paper's Fig. 4 plots.

Performance model (roofline with SMT and shape effects):

* Each thread computes ``2·N³/(p·t)`` flops at
  ``clock · flops_per_cycle · eff`` where ``eff`` combines the BLAS
  library's peak efficiency, a skinny-block penalty when the
  per-thread row block is shallow, and the partition type.
* Two hyperthreads sharing a physical core share its ports: combined
  throughput is ``smt_throughput`` of a solo thread (clamped to the
  core's peak).
* The aggregate is capped by the DRAM roofline
  (``traffic_bytes_per_flop``); the plateau near 700 GFLOPs in Fig. 4
  is the compute roofline of 24 Haswell cores at MKL efficiency.
* Wall time is the slowest thread's completion
  (:mod:`repro.simcpu.utilization` provides the deterministic
  contention imbalance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.machines.specs import CPUSpec
from repro.simcpu.calibration import (
    CPUCalibration,
    HASWELL_CAL,
    LIBRARIES,
    LibraryProfile,
)
from repro.simcpu.power import CPUPowerBreakdown, cpu_power
from repro.simcpu.topology import Placement, place_threads
from repro.simcpu.utilization import (
    UtilizationVector,
    contention_jitter,
    utilization_vector,
)

__all__ = ["DGEMMConfig", "CPURunResult", "MulticoreCPU"]

#: Admissible partition types ("type of matrix partitioning" in Fig. 4).
PARTITIONS = ("row", "col", "block")


@dataclass(frozen=True)
class DGEMMConfig:
    """One application configuration of the parallel DGEMM.

    Attributes
    ----------
    partition:
        Matrix partitioning type: ``"row"`` (the paper's Fig. 3
        decomposition), ``"col"``, or ``"block"`` (2-D).
    groups:
        Number of threadgroups ``p``.
    threads_per_group:
        Threads per group ``t``; total threads = ``p·t``.
    library:
        ``"mkl"`` or ``"openblas"``.
    """

    partition: str
    groups: int
    threads_per_group: int
    library: str = "mkl"

    def __post_init__(self) -> None:
        if self.partition not in PARTITIONS:
            raise ValueError(
                f"partition must be one of {PARTITIONS}, got {self.partition!r}"
            )
        if self.groups < 1 or self.threads_per_group < 1:
            raise ValueError("groups and threads_per_group must be positive")
        if self.library not in LIBRARIES:
            raise ValueError(f"unknown library {self.library!r}")

    @property
    def n_threads(self) -> int:
        return self.groups * self.threads_per_group

    def key(self) -> str:
        return (
            f"{self.library}:{self.partition}:p{self.groups}:t{self.threads_per_group}"
        )


class CPURunResult(NamedTuple):
    """Modelled outcome of one DGEMM run."""

    time_s: float
    dynamic_energy_j: float
    gflops: float
    avg_utilization: float  # percent, 0..100
    utilization: UtilizationVector
    power: CPUPowerBreakdown
    placement: Placement
    config: DGEMMConfig
    n: int


#: Partition-type multipliers: (efficiency, traffic, page-walk factor).
#: Column partitioning strides accesses across pages (heavy walk cost);
#: 2-D blocks tile the address space and walk least.
_PARTITION_FACTORS = {
    "row": (1.00, 1.00, 1.0),
    "col": (0.97, 1.08, 3.0),
    "block": (0.99, 0.88, 0.6),
}


#: At most this many specs keep a placement table (the oldest is
#: dropped first); a table holds one entry per valid thread count, so
#: at most ``spec.logical_cpus``.
PLACEMENT_TABLES = 64

#: ``spec`` -> thread count -> :class:`Placement` (docs/MODEL.md §1.9).
_placement_tables: dict[CPUSpec, dict[int, Placement]] = {}


def _placement_table(spec: CPUSpec) -> dict[int, Placement]:
    """The placement table of ``spec``, shared by every processor built
    with an equal spec; the one place a processor hashes its spec."""
    table = _placement_tables.get(spec)
    if table is None:
        if len(_placement_tables) >= PLACEMENT_TABLES:
            del _placement_tables[next(iter(_placement_tables))]
        table = _placement_tables[spec] = {}
    return table


class MulticoreCPU:
    """Analytical model of the dual-socket Haswell node running DGEMM.

    A processor resolves its spec's placement table once, when it is
    built, and finds each thread count's :class:`Placement` there;
    :func:`place_threads` places a thread count only on a miss.
    """

    def __init__(self, spec: CPUSpec, cal: CPUCalibration | None = None) -> None:
        self.spec = spec
        self.cal = cal if cal is not None else HASWELL_CAL
        self._placements = _placement_table(spec)

    # -- throughput ---------------------------------------------------------

    def _shape_efficiency(self, lib: LibraryProfile, rows_per_thread: float) -> float:
        """Efficiency including the skinny-block penalty."""
        if rows_per_thread >= lib.skinny_rows:
            return lib.peak_efficiency
        frac = max(rows_per_thread - 1.0, 0.0) / (lib.skinny_rows - 1.0)
        return lib.peak_efficiency * (lib.skinny_floor + (1.0 - lib.skinny_floor) * frac)

    def aggregate_flops(
        self, n: int, config: DGEMMConfig, *, freq_scale: float = 1.0
    ) -> tuple[float, Placement]:
        """Aggregate DP flop rate (flops/s) and the thread placement."""
        eff_part, traffic_part, _ = _PARTITION_FACTORS[config.partition]
        return self._aggregate_flops(
            n, config.n_threads, LIBRARIES[config.library], eff_part,
            traffic_part, freq_scale,
        )

    def _aggregate_flops(
        self,
        n: int,
        n_threads: int,
        lib: LibraryProfile,
        eff_part: float,
        traffic_part: float,
        freq_scale: float,
    ) -> tuple[float, Placement]:
        """:meth:`aggregate_flops` with the configuration's library
        profile and partition factors already looked up."""
        spec, cal = self.spec, self.cal
        placement = self._placements.get(n_threads)
        if placement is None:
            placement = place_threads(spec, n_threads)
            self._placements[n_threads] = placement

        rows = n / n_threads
        eff = self._shape_efficiency(lib, rows) * eff_part
        core_peak = freq_scale * spec.base_clock_hz * spec.dp_flops_per_cycle

        # Apply the SMT share per physical core.
        solo = core_peak * eff
        shared = min(core_peak, core_peak * eff * cal.smt_throughput)
        agg = 0.0
        for threads in placement.threads_per_core:
            agg += solo if threads == 1 else shared

        # DRAM roofline.
        traffic_per_flop = cal.traffic_bytes_per_flop * traffic_part
        demand = agg * traffic_per_flop
        if demand > spec.mem_bandwidth_bps:
            agg = spec.mem_bandwidth_bps / traffic_per_flop
        return agg, placement

    # -- public API ----------------------------------------------------------

    def run_dgemm(
        self,
        n: int,
        config: DGEMMConfig,
        *,
        rng: np.random.Generator | None = None,
        freq_scale: float = 1.0,
    ) -> CPURunResult:
        """Model one run of the configuration on matrix size N.

        With ``rng`` supplied, wall time gets run-to-run jitter on top
        of the deterministic contention imbalance (the systematic
        component stays fixed per configuration, as on a real machine).

        ``freq_scale`` applies DVFS: the core clock is scaled to
        ``freq_scale × base`` (the ``userspace`` governor / ``cpupower``
        path the system-level methods of [16]-[18] drive).  Compute
        throughput scales with f; core-clocked power scales ≈ f^2.5
        (V²f along the voltage ladder); memory-side power and the
        memory roofline do not scale.
        """
        if n < 1:
            raise ValueError("N must be positive")
        if not (0.4 <= freq_scale <= 1.1):
            raise ValueError(
                "freq_scale must lie in the part's DVFS range [0.4, 1.1]"
            )
        spec, cal = self.spec, self.cal
        lib = LIBRARIES[config.library]
        eff_part, traffic_part, walk_part = _PARTITION_FACTORS[config.partition]
        n_threads, groups = config.n_threads, config.groups
        agg_flops, placement = self._aggregate_flops(
            n, n_threads, lib, eff_part, traffic_part, freq_scale
        )

        jitter = contention_jitter(config.key(), n_threads, groups, cal)
        util = utilization_vector(spec, placement, jitter)

        flops_total = 2.0 * float(n) ** 3
        time_s = flops_total / agg_flops * util.wall_time_scale
        if rng is not None:
            time_s *= max(0.5, 1.0 + cal.time_jitter * rng.standard_normal())

        achieved_flops = flops_total / time_s
        traffic_rate = achieved_flops * cal.traffic_bytes_per_flop * traffic_part
        power = cpu_power(
            spec,
            cal,
            placement,
            flops_per_s=achieved_flops,
            traffic_bytes_per_s=traffic_rate,
            n_groups=groups,
            walk_factor=walk_part * lib.walk_factor,
        )
        if freq_scale != 1.0:
            # V²f scaling of the core-clocked components.  e_flop is
            # defined at base clock; at scaled clock the same flop rate
            # costs f^1.5 per op, and the per-core wake power follows
            # f^2.5.  Memory-side (DRAM, dTLB walk, uncore) power is
            # clock-domain independent.
            volt = freq_scale**1.5
            power = CPUPowerBreakdown(
                power.cores_w * freq_scale**2.5,
                power.flops_w * volt,
                power.uncore_w,
                power.dram_w,
                power.dtlb_w,
            )
        energy = power.dynamic_w * time_s
        return CPURunResult(
            time_s, energy, achieved_flops / 1e9, util.average * 100.0, util,
            power, placement, config, n,
        )
