"""Machine specification registry (Table I of the paper).

The paper's experimental platforms are:

* a dual-socket Intel Haswell E5-2670 v3 multicore CPU (24 physical
  cores, 48 logical CPUs with hyperthreading, 64 GB DDR4),
* an Nvidia K40c GPU (Kepler GK110B, 2880 CUDA cores @ 745 MHz, 12 GB
  GDDR5, TDP 235 W), and
* an Nvidia P100 PCIe GPU (Pascal GP100, 3584 CUDA cores @ 1328 MHz,
  12 GB HBM2, TDP 250 W).

This module records those specifications as frozen dataclasses, plus
the derived architectural quantities the simulators need (peak
double-precision throughput, memory bandwidth, shared-memory limits,
occupancy limits).  Quantities not present in Table I are taken from
the vendor datasheets for the same parts and documented inline.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheSpec:
    """Capacity-oriented description of one cache level.

    Attributes
    ----------
    capacity_bytes:
        Usable capacity in bytes.  For per-core caches this is the
        per-core figure; ``shared_by`` records how many hardware
        threads share one instance.
    line_bytes:
        Cache line size in bytes.
    shared_by:
        Number of logical CPUs sharing one instance of the cache.
    """

    capacity_bytes: int
    line_bytes: int = 64
    shared_by: int = 1


@dataclass(frozen=True)
class CPUSpec:
    """Specification of a multicore CPU platform (Table I, first block)."""

    name: str
    sockets: int
    cores_per_socket: int
    smt: int  # hardware threads per physical core
    base_clock_hz: float
    #: Double-precision FLOPs per cycle per core (Haswell: 2 AVX2 FMA
    #: ports x 4 doubles x 2 flops = 16).
    dp_flops_per_cycle: float
    l1d: CacheSpec
    l2: CacheSpec
    l3: CacheSpec
    #: Aggregate sustainable DRAM bandwidth (bytes/s) across sockets.
    mem_bandwidth_bps: float
    mem_capacity_bytes: int
    #: Idle (static) power of the host node in watts, as seen at the
    #: wall by a WattsUp-style meter.
    idle_power_w: float
    tdp_w: float
    #: dTLB entries for 4 KiB pages (per core).  Haswell: 64-entry L1
    #: dTLB + 1024-entry unified L2 TLB; we model the L2 TLB reach.
    dtlb_entries: int = 1024
    page_bytes: int = 4096

    @property
    def physical_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def logical_cpus(self) -> int:
        return self.physical_cores * self.smt

    @property
    def peak_dp_flops(self) -> float:
        """Peak double-precision FLOP/s with all physical cores active."""
        return self.physical_cores * self.base_clock_hz * self.dp_flops_per_cycle

    @property
    def dtlb_reach_bytes(self) -> int:
        """Bytes covered by the modelled dTLB without page walks."""
        return self.dtlb_entries * self.page_bytes


@dataclass(frozen=True)
class GPUSpec:
    """Specification of an Nvidia GPU platform (Table I, GPU blocks)."""

    name: str
    cuda_cores: int
    base_clock_hz: float
    #: Maximum boost clock.  The K40c has GPU Boost but the paper's
    #: cluster ran it at the base clock; the P100 autoboosts to 1480 MHz.
    boost_clock_hz: float
    sm_count: int
    #: Ratio of double-precision to single-precision throughput
    #: (K40c/GK110B: 1/3; P100/GP100: 1/2).
    dp_ratio: float
    mem_bandwidth_bps: float
    mem_capacity_bytes: int
    l2_bytes: int
    shared_mem_per_sm_bytes: int
    shared_mem_per_block_bytes: int
    max_threads_per_sm: int
    max_threads_per_block: int
    max_blocks_per_sm: int
    warp_size: int
    #: Width of one DRAM access transaction (sector) in bytes.
    dram_sector_bytes: int
    tdp_w: float
    #: Idle power of the GPU board itself (W).
    idle_power_w: float
    #: Whether the part runs an autoboost/power-cap DVFS loop.
    has_autoboost: bool
    #: Matrix size beyond which the auxiliary-component non-additivity
    #: of dynamic energy vanishes (paper, Section V.A).
    additivity_threshold_n: int

    @property
    def peak_sp_flops(self) -> float:
        """Peak single-precision FLOP/s at base clock (2 flops/FMA)."""
        return 2.0 * self.cuda_cores * self.base_clock_hz

    @property
    def peak_dp_flops(self) -> float:
        """Peak double-precision FLOP/s at base clock."""
        return self.peak_sp_flops * self.dp_ratio

    @property
    def cores_per_sm(self) -> int:
        return self.cuda_cores // self.sm_count


#: Dual-socket Intel Haswell E5-2670 v3 (Table I).  The "CPU MHz
#: 1200.402" row in Table I is the idle-governor reading; the nominal
#: base clock of the part is 2.3 GHz, which is what throughput scales
#: with under load.
HASWELL = CPUSpec(
    name="Intel Haswell E5-2670 v3 (dual socket)",
    sockets=2,
    cores_per_socket=12,
    smt=2,
    base_clock_hz=2.3e9,
    dp_flops_per_cycle=16.0,
    l1d=CacheSpec(capacity_bytes=32 * 1024, shared_by=2),
    l2=CacheSpec(capacity_bytes=256 * 1024, shared_by=2),
    l3=CacheSpec(capacity_bytes=30720 * 1024, shared_by=24),
    # Four DDR4-2133 channels per socket ~ 68 GB/s; two sockets.  We use
    # the sustainable (STREAM-like) figure rather than the pin rate.
    mem_bandwidth_bps=2 * 59e9,
    mem_capacity_bytes=64 * 1024**3,
    idle_power_w=110.0,
    tdp_w=2 * 120.0,
)

#: Nvidia K40c (Kepler GK110B).  15 SMX units x 192 cores.
K40C = GPUSpec(
    name="Nvidia K40c",
    cuda_cores=2880,
    base_clock_hz=745e6,
    boost_clock_hz=875e6,
    sm_count=15,
    dp_ratio=1.0 / 3.0,
    mem_bandwidth_bps=288e9,
    mem_capacity_bytes=12 * 1024**3,
    l2_bytes=1536 * 1024,
    shared_mem_per_sm_bytes=48 * 1024,
    shared_mem_per_block_bytes=48 * 1024,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=16,
    warp_size=32,
    dram_sector_bytes=32,
    tdp_w=235.0,
    idle_power_w=20.0,
    has_autoboost=False,
    additivity_threshold_n=10240,
)

#: Nvidia P100 PCIe (Pascal GP100).  56 SMs x 64 cores.
P100 = GPUSpec(
    name="Nvidia P100 PCIe",
    cuda_cores=3584,
    base_clock_hz=1328e6,
    boost_clock_hz=1480e6,
    sm_count=56,
    dp_ratio=1.0 / 2.0,
    mem_bandwidth_bps=732e9,
    mem_capacity_bytes=12 * 1024**3,
    l2_bytes=4096 * 1024,
    shared_mem_per_sm_bytes=64 * 1024,
    shared_mem_per_block_bytes=48 * 1024,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=32,
    warp_size=32,
    dram_sector_bytes=32,
    tdp_w=250.0,
    idle_power_w=25.0,
    has_autoboost=True,
    additivity_threshold_n=15360,
)

#: Registry keyed by short name: the device registry's built-in entries.
MACHINES: dict[str, CPUSpec | GPUSpec] = {
    "haswell": HASWELL,
    "k40c": K40C,
    "p100": P100,
}


def get_machine(name: str) -> CPUSpec | GPUSpec:
    """Look up a machine spec by short name (``haswell``/``k40c``/``p100``)
    or by any name registered with the device registry.

    The in-code constants resolve first (identity-preserving: callers
    compare ``get_machine("p100") is P100``); anything else falls
    through to :func:`repro.devices.registry.default_registry`, which
    is how data-file devices (``$REPRO_DEVICE_DIR``) become first-class
    sweep targets without a code change.

    Raises
    ------
    KeyError
        If the name is unknown to both sources; the message lists
        every available device.
    """
    spec = MACHINES.get(name.lower())
    if spec is not None:
        return spec
    # Lazy import: repro.devices depends on this module at load time.
    from repro.devices.registry import default_registry
    from repro.devices.schema import DeviceError

    try:
        entry = default_registry().find(name)
    except DeviceError as exc:
        raise KeyError(
            f"unknown machine {name!r} and the device registry failed to "
            f"load: {exc}"
        ) from None
    if entry is not None:
        return entry.spec
    raise KeyError(
        f"unknown machine {name!r}; registered devices: "
        f"{default_registry().describe()}"
    ) from None
