"""The paper's GPU matrix-multiplication application (Section IV).

The application computes ``G × R`` matrix products ``C = A·B`` of two
dense square ``N×N`` double matrices, with three application-level
decision variables:

* ``BS`` — per-block shared-memory tile dimension (1..32, template
  parameter of the device code in Fig. 5);
* ``G``  — size of a group of device matmul codes repeated textually
  one after the other inside one kernel (dgemmG1..dgemmG8 ⇒ G ≤ 8);
* ``R``  — number of runs (kernel launches) of a group.

All configurations compared for one workload solve the *same* total
number of products ``T = G·R`` (weak-EP requirement: equal work), so
admissible G are the divisors of T that also respect the per-block
shared-memory limit for the given BS.

:class:`MatmulGPUApp` enumerates the valid configuration space and
evaluates each configuration on the GPU simulator, yielding the
(time, dynamic energy) points the paper's Figs. 2, 7 and 8 plot.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.core.biobjective import ConfigurationSpace
from repro.core.pareto import ParetoPoint
from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration
from repro.simgpu.device import GPUDevice, KernelRunResult
from repro.simgpu.kernel import max_group_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sweep.plan import SweepRequest
    from repro.sweep.planner import EvalPlanner

__all__ = [
    "ConfigEnumeration",
    "MatmulConfig",
    "MatmulGPUApp",
    "config_enumeration",
    "divisors",
]


def divisors(n: int) -> list[int]:
    """Positive divisors of ``n`` in increasing order."""
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


@dataclass(frozen=True)
class MatmulConfig:
    """One application configuration (BS, G, R)."""

    bs: int
    g: int
    r: int

    def as_dict(self) -> dict[str, int]:
        return {"bs": self.bs, "g": self.g, "r": self.r}


class ConfigEnumeration(tuple):
    """One memoized ``(BS, G, R)`` enumeration, in the reference order.

    An immutable tuple of :class:`MatmulConfig`, shared by every caller
    that enumerates the same space (:func:`config_enumeration`), with
    the space's packed key columns built once on first use
    (:attr:`columns`).
    """

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(packed, bs, g, r)`` int64 key columns.

        What :func:`repro.sweep.keys.pack_configs` returns for these
        configs; the planner reads them instead of packing the same
        list again on every request.
        """
        # repro.sweep imports this module at load time, so its key
        # layout is imported here, on first use.
        from repro.sweep.keys import pack_configs

        columns = pack_configs(self)
        for column in columns:
            column.flags.writeable = False
        return columns


@lru_cache(maxsize=256)
def config_enumeration(
    spec: GPUSpec,
    total_products: int,
    bs_range: tuple[int, int],
    g_cap: int,
    min_bs: int,
) -> ConfigEnumeration:
    """All valid ``(BS, G, R)`` of one space, enumerated once per process.

    The key is everything the enumeration reads; the calibration and
    the matrix size do not change which configurations are valid, so
    e.g. every perturbed calibration of the sensitivity study shares
    one entry.  The result is immutable because it is shared.
    """
    lo, hi = bs_range
    lo = max(lo, min_bs)
    divs = divisors(total_products)
    configs = []
    for bs in range(lo, hi + 1):
        gmax = max_group_size(spec, bs, g_cap)
        configs.extend(
            MatmulConfig(bs=bs, g=g, r=total_products // g)
            for g in divs
            if g <= gmax
        )
    return ConfigEnumeration(configs)


class MatmulGPUApp:
    """The (BS, G, R) matmul application on one simulated GPU.

    Parameters
    ----------
    spec:
        GPU to run on.
    total_products:
        The workload: total matrix products T = G·R each configuration
        must compute.  Defaults to 24, which admits G ∈ {1,2,3,4,6,8}.
    bs_range:
        Tile dimensions to sweep (paper: 1..32).
    g_cap:
        Largest group size in the kernel source (dgemmG8 ⇒ 8).
    min_bs:
        Smallest tile admitted into sweeps.  BS ∈ {1..3} are valid
        configurations but three orders of magnitude slower; sweeps for
        front analysis typically start at 4 to keep runtime sensible,
        matching the paper's focus on the populated regions.
    """

    def __init__(
        self,
        spec: GPUSpec,
        cal: GPUCalibration | None = None,
        *,
        total_products: int = 24,
        bs_range: tuple[int, int] = (1, 32),
        g_cap: int = 8,
        min_bs: int | None = None,
    ) -> None:
        if total_products < 1:
            raise ValueError("total_products must be positive")
        lo, hi = bs_range
        if not (1 <= lo <= hi <= 32):
            raise ValueError("bs_range must satisfy 1 <= lo <= hi <= 32")
        self.spec = spec
        self.device = GPUDevice(spec, cal)
        self.total_products = total_products
        self.bs_range = bs_range
        self.g_cap = g_cap
        self.min_bs = lo if min_bs is None else min_bs

    # -- configuration enumeration ----------------------------------------

    def valid_configs(self, *, min_bs: int | None = None) -> Iterator[MatmulConfig]:
        """All valid (BS, G, R) with G·R = total_products.

        G must divide the workload and respect the shared-memory limit
        for BS (``repro.simgpu.kernel.max_group_size``).  Served from
        the process-wide memo (:func:`config_enumeration`).
        """
        return iter(
            self._enumeration(self.min_bs if min_bs is None else min_bs)
        )

    def _enumeration(self, min_bs: int) -> ConfigEnumeration:
        return config_enumeration(
            self.spec, self.total_products, self.bs_range, self.g_cap, min_bs
        )

    def config_space(self) -> ConfigurationSpace:
        """The decision-variable space as a
        :class:`~repro.core.biobjective.ConfigurationSpace`.

        Its valid configurations are read from the enumeration memo,
        which holds what ``valid`` keeps of the BS × G × R product, in
        the product's order: BS, then G, and R = T/G is the one valid
        R of each G.
        """
        lo, hi = self.bs_range
        lo = max(lo, self.min_bs)
        divs = divisors(self.total_products)

        def valid(cfg) -> bool:
            if cfg["g"] > max_group_size(self.spec, cfg["bs"], self.g_cap):
                return False
            return cfg["r"] == self.total_products // cfg["g"]

        return ConfigurationSpace.enumerated(
            {"bs": list(range(lo, hi + 1)), "g": divs, "r": divs[::-1]},
            valid,
            [(c.bs, c.g, c.r) for c in self._enumeration(self.min_bs)],
        )

    def sweep_enumeration(self, *, min_bs: int | None = None) -> ConfigEnumeration:
        """The sweep's configurations as the shared, immutable memo entry.

        Applies the sweep default floor (BS ≥ 4 — the paper's populated
        region) when ``min_bs`` is None.  This single enumeration is
        shared by the scalar path and the planner
        (:class:`repro.sweep.planner.EvalPlanner`), which is what makes
        their outputs comparable point-for-point.
        """
        if min_bs is None:
            min_bs = max(self.min_bs, 4)
        return self._enumeration(min_bs)

    def sweep_configs(self, *, min_bs: int | None = None) -> list[MatmulConfig]:
        """The sweep's configuration list, in the reference order
        (a fresh list of :meth:`sweep_enumeration`)."""
        return list(self.sweep_enumeration(min_bs=min_bs))

    # -- evaluation ---------------------------------------------------------

    def run(
        self,
        n: int,
        config: MatmulConfig,
        *,
        rng: np.random.Generator | None = None,
    ) -> KernelRunResult:
        """Run one configuration of the workload (noiselessly by default)."""
        return self.device.run_matmul(n, config.bs, config.g, config.r, rng=rng)

    def evaluate(
        self,
        n: int,
        config: MatmulConfig,
        *,
        rng: np.random.Generator | None = None,
    ) -> ParetoPoint:
        """(time, dynamic energy) point of one configuration."""
        result = self.run(n, config, rng=rng)
        return ParetoPoint(
            time_s=result.time_s,
            energy_j=result.dynamic_energy_j,
            config=config.as_dict(),
        )

    def sweep_points(
        self,
        n: int,
        *,
        min_bs: int | None = None,
        rng: np.random.Generator | None = None,
        engine: "EvalPlanner | None" = None,
    ) -> list[ParetoPoint]:
        """Evaluate every valid configuration for matrix size N.

        This is the paper's exhaustive methodology; the resulting point
        cloud is what Figs. 2, 7 and 8 plot.  With ``engine`` given the
        sweep is served by the planner (vectorized batch model, optional
        columnar store); without it each point runs through the scalar
        model of record.  Noise-injected sweeps (``rng``) always run
        in-process — noise must not be stored.
        """
        configs = self.sweep_enumeration(min_bs=min_bs)
        if engine is not None and rng is None:
            return engine.evaluate_configs(self._request(n, min_bs), configs)
        return [self.evaluate(n, cfg, rng=rng) for cfg in configs]

    def sweep_table(
        self,
        n: int,
        *,
        min_bs: int | None = None,
        engine: "EvalPlanner | None" = None,
    ) -> np.ndarray:
        """The sweep as a ``POINT_DTYPE`` structured array (columnar path).

        Same enumeration, same order and same values as
        :meth:`sweep_points`, but no per-point dicts or
        :class:`ParetoPoint` objects — the figure experiments operate
        directly on the columns and materialize points only at the
        reporting boundary.  With an ``engine`` the planner serves the
        array zero-copy end to end.
        """
        from repro.sweep.planner import POINT_DTYPE

        configs = self.sweep_enumeration(min_bs=min_bs)
        if engine is not None:
            return engine.table(self._request(n, min_bs), configs)
        out = np.empty(len(configs), dtype=POINT_DTYPE)
        for i, cfg in enumerate(configs):
            result = self.run(n, cfg)
            out["time_s"][i] = result.time_s
            out["energy_j"][i] = result.dynamic_energy_j
        out["bs"] = [c.bs for c in configs]
        out["g"] = [c.g for c in configs]
        out["r"] = [c.r for c in configs]
        return out

    def _request(self, n: int, min_bs: int | None) -> "SweepRequest":
        """The planner request of this app's sweep at matrix size N."""
        from repro.sweep.plan import SweepRequest

        return SweepRequest(
            device=self.spec,
            n=n,
            total_products=self.total_products,
            min_bs=min_bs,
            cal=self.device.cal,
        )
