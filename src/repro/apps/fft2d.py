"""2D-FFT application model for the strong-EP study (Fig. 1, from [12]).

The application computes a 2D DFT of an ``N×N`` complex signal matrix
(MKL FFT on the CPU, CUFFT on the GPUs).  The amount of work is
defined, as in the paper, as ``W = 5·N²·log2(N)``.

Fig. 1's finding: dynamic energy is a *complex non-linear* function of
W on all three platforms.  The model carries the two mechanisms that
make a real FFT's energy-per-op vary with N:

* **Radix mix** — mixed-radix FFTs handle N whose factors are in
  {2,3,5,7} efficiently; a large prime factor forces a Bluestein-style
  fallback with a multiple of the flops and much worse locality.  This
  produces the jagged structure as N sweeps 125..44000.
* **Cache-hierarchy crossings** — the transpose between the row and
  column passes streams the full 16·N² working set; energy per op
  steps up as the set crosses L2 → L3/L2(gpu) → DRAM reach.

Each device has a throughput/power profile derived from its spec;
``run`` returns (time, dynamic energy) for the strong-EP analysis in
``repro.experiments.fig1_strong_ep``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.machines.specs import HASWELL, K40C, P100

__all__ = [
    "fft_work",
    "radix_penalty",
    "FFTDeviceProfile",
    "FFT2DApp",
    "FFTRunResult",
]

#: Radices a mixed-radix FFT implements natively.
_NATIVE_RADICES = (2, 3, 5, 7)


def fft_work(n: int) -> float:
    """The paper's work metric: ``W = 5·N²·log2(N)``."""
    if n < 2:
        raise ValueError("N must be at least 2")
    return 5.0 * float(n) * n * math.log2(n)


def radix_penalty(n: int, *, bluestein_factor: float = 2.2) -> float:
    """Relative cost multiplier of the radix mix of N.

    1.0 for pure powers of native radices; a mild penalty for mixed
    native radices; a steep one once a non-native prime factor forces
    the generic (Bluestein/Rader) path.  ``bluestein_factor`` is the
    library-specific base cost of that generic path (MKL's Rader/
    Bluestein hybrid is leaner than CUFFT's, whose Kepler-era path is
    the slowest).
    """
    if n < 2:
        raise ValueError("N must be at least 2")
    if bluestein_factor < 1.0:
        raise ValueError("bluestein_factor must be at least 1")
    m = n
    non_native = 1
    mix = 0
    for r in _NATIVE_RADICES:
        while m % r == 0:
            m //= r
            if r != 2:
                mix += 1
    if m > 1:
        non_native = m  # residual contains only non-native primes
    penalty = 1.0 + 0.04 * min(mix, 8)
    if non_native > 1:
        # Generic-path blowup grows (slowly) with the residual factor.
        penalty *= bluestein_factor + 0.25 * math.log2(non_native)
    return penalty


class FFTDeviceProfile(NamedTuple):
    """FFT throughput/power profile of one platform.

    Attributes
    ----------
    name:
        Short platform name (matches ``repro.machines`` keys).
    base_gflops:
        Sustained FFT throughput on a cache-resident, power-of-two
        transform.
    dynamic_power_w:
        Average dynamic power during the transform at that throughput.
    cache_bytes:
        On-chip capacity whose crossing bumps energy/op (L3 for the
        CPU, L2 for the GPUs).
    dram_energy_scale:
        Multiplier on energy/op once the working set is DRAM-resident.
    dram_throughput_scale:
        Multiplier on throughput once DRAM-resident.
    bluestein_factor:
        Library-specific base cost of the generic large-prime path.
    """

    name: str
    base_gflops: float
    dynamic_power_w: float
    cache_bytes: float
    dram_energy_scale: float
    dram_throughput_scale: float
    bluestein_factor: float = 2.2


def _default_profiles() -> dict[str, FFTDeviceProfile]:
    return {
        "haswell": FFTDeviceProfile(
            name="haswell",
            # MKL 2D FFT sustains ~5% of DP peak across 24 cores.
            base_gflops=HASWELL.peak_dp_flops / 1e9 * 0.05 * 8,
            dynamic_power_w=95.0,
            cache_bytes=HASWELL.sockets * HASWELL.l3.capacity_bytes,
            dram_energy_scale=1.9,
            dram_throughput_scale=0.55,
            bluestein_factor=2.2,
        ),
        "k40c": FFTDeviceProfile(
            name="k40c",
            base_gflops=K40C.peak_dp_flops / 1e9 * 0.18,
            dynamic_power_w=150.0,
            cache_bytes=K40C.l2_bytes,
            dram_energy_scale=1.6,
            dram_throughput_scale=0.6,
            bluestein_factor=3.1,
        ),
        "p100": FFTDeviceProfile(
            name="p100",
            base_gflops=P100.peak_dp_flops / 1e9 * 0.18,
            dynamic_power_w=170.0,
            cache_bytes=P100.l2_bytes,
            dram_energy_scale=1.5,
            dram_throughput_scale=0.65,
            bluestein_factor=2.6,
        ),
    }


class FFTRunResult(NamedTuple):
    """Modelled (time, energy) of one 2D FFT."""

    n: int
    work: float
    time_s: float
    dynamic_energy_j: float
    device: str


class FFT2DApp:
    """The 2D-FFT application across the paper's three platforms."""

    def __init__(self, profiles: dict[str, FFTDeviceProfile] | None = None) -> None:
        self.profiles = profiles if profiles is not None else _default_profiles()

    def devices(self) -> list[str]:
        return sorted(self.profiles)

    def _mem_factors(self, profile: FFTDeviceProfile, n: int) -> tuple[float, float]:
        """(energy multiplier, throughput multiplier) for the working set.

        Smooth-steps between cache-resident and DRAM-resident as the
        16·N² complex matrix outgrows the on-chip capacity.
        """
        working_set = 16.0 * n * n
        x = working_set / profile.cache_bytes
        # Logistic blend centred where the set is ~4x the cache.
        blend = 1.0 / (1.0 + (4.0 / x) ** 2) if x > 0 else 0.0
        e_mult = 1.0 + (profile.dram_energy_scale - 1.0) * blend
        t_mult = 1.0 + (1.0 / profile.dram_throughput_scale - 1.0) * blend
        return e_mult, t_mult

    def run(self, device: str, n: int) -> FFTRunResult:
        """Model one 2D FFT of size N on a device.

        Raises
        ------
        KeyError
            For unknown device names.
        ValueError
            For N < 2 or a transform that does not fit device memory
            (GPUs hold 12 GB; CUFFT needs ~3 working copies).
        """
        profile = self.profiles[device]
        w = fft_work(n)
        if device in ("k40c", "p100"):
            spec = K40C if device == "k40c" else P100
            if 3 * 16.0 * n * n > spec.mem_capacity_bytes:
                raise ValueError(
                    f"N={n} does not fit {spec.name} memory for CUFFT"
                )
        rp = radix_penalty(n, bluestein_factor=profile.bluestein_factor)
        e_mult, t_mult = self._mem_factors(profile, n)
        time_s = w / (profile.base_gflops * 1e9) * rp * t_mult
        # Power sags slightly on the generic path (latency bound), so
        # energy grows less than time does — still strongly non-linear.
        power = profile.dynamic_power_w * (1.0 / rp) ** 0.25
        energy = power * time_s * e_mult
        return FFTRunResult(
            n=n, work=w, time_s=time_s, dynamic_energy_j=energy, device=device
        )

    def sweep(self, device: str, sizes: list[int]) -> list[FFTRunResult]:
        """Run a size sweep on one device (skipping out-of-memory sizes)."""
        out = []
        for n in sizes:
            try:
                out.append(self.run(device, n))
            except ValueError:
                continue
        if not out:
            raise ValueError("no size in the sweep fits the device")
        return out
