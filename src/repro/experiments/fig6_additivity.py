"""Fig. 6: non-additivity of dynamic energy as G grows.

The paper fixes (N, BS, R) and raises the group size G from 1 to 4.
The *additive* prediction (red lines in Fig. 6) is ``G × E_g1``.
Findings:

* execution times are additive;
* dynamic energies are highly non-additive at N = 5120, the
  non-additivity decreases with N and vanishes beyond N = 15360
  (P100) / N = 10240 (K40c);
* the non-additivity is "due to an energy-expensive component
  consuming constant dynamic power consumption of 58 W.  If we include
  this dynamic power in the static power consumption, then the
  resulting dynamic energy consumption becomes additive."

The experiment reproduces the sweep, computes per-(N, G) additivity
errors for energy and time, and verifies the 58 W reattribution claim
by subtracting the auxiliary window energy and re-testing.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.analysis.report import format_pct, format_table
from repro.energymodel.additivity import additivity_error
from repro.machines.specs import GPUSpec, P100
from repro.simgpu.device import GPUDevice
from repro.simgpu.power import aux_decay

__all__ = ["AdditivityCell", "Fig6Result", "run", "DEFAULT_SIZES"]

#: The paper's Fig. 6 size sweep (P100 panels).
DEFAULT_SIZES = (5120, 7168, 10240, 12288, 15360, 17408)


class AdditivityCell(NamedTuple):
    """Additivity of one (N, G) cell against G × the G=1 run."""

    n: int
    g: int
    energy_error: float
    time_error: float
    #: Energy error after attributing the 58 W component to static power.
    energy_error_reattributed: float


class Fig6Result(NamedTuple):
    device: str
    bs: int
    cells: tuple[AdditivityCell, ...]
    threshold_n: int

    def render(self) -> str:
        rows = [
            (
                c.n,
                c.g,
                format_pct(c.energy_error),
                format_pct(c.time_error),
                format_pct(c.energy_error_reattributed),
            )
            for c in self.cells
        ]
        return format_table(
            [
                "N",
                "G",
                "energy non-additivity",
                "time non-additivity",
                "after 58W reattribution",
            ],
            rows,
        )

    def max_energy_error(self, n: int) -> float:
        errs = [c.energy_error for c in self.cells if c.n == n]
        if not errs:
            raise KeyError(f"no cells for N={n}")
        return max(errs)


#: Tile dimension for the additivity study, chosen so the resident
#: blocks-per-SM count is *identical* for G = 1..4 on both devices
#: (BS = 4: the max-blocks limit binds, far from the shared-memory
#: limit) — otherwise occupancy (and its activity power) would shift
#: with G and confound the measurement, which isolates the auxiliary
#: component.
BS_FOR_ADDITIVITY = 4


def run(
    spec: GPUSpec = P100,
    *,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    bs: int | None = None,
    g_values: tuple[int, ...] = (2, 3, 4),
) -> Fig6Result:
    """Regenerate the Fig. 6 additivity study on one GPU.

    BS defaults to a tile whose occupancy is invariant over G ∈ [1, 4]
    on both devices (see ``BS_FOR_ADDITIVITY``).
    """
    if bs is None:
        bs = BS_FOR_ADDITIVITY
    device = GPUDevice(spec)
    cells = []
    for n in sizes:
        # Clocks pinned (nvidia-smi -ac style): autoboost wander would
        # couple power to launch duration and confound the additivity
        # signal the study isolates.
        base = device.run_matmul(n, bs, g=1, r=1, fixed_clock=True)
        for g in g_values:
            grouped = device.run_matmul(n, bs, g=g, r=1, fixed_clock=True)
            e_err = additivity_error(
                g * base.dynamic_energy_j, grouped.dynamic_energy_j
            )
            t_err = additivity_error(g * base.time_s, grouped.time_s)
            # Reattribute the auxiliary component: subtract its window
            # energy (58 W × decay × (G−1) × product time) from the
            # grouped run, as the paper's static-power bookkeeping does.
            aux_j = (
                device.cal.aux_power_w
                * aux_decay(spec, n)
                * (g - 1)
                * grouped.product_time_s
            )
            e_err_re = additivity_error(
                g * base.dynamic_energy_j,
                grouped.dynamic_energy_j - aux_j,
            )
            cells.append(
                AdditivityCell(
                    n=n,
                    g=g,
                    energy_error=e_err,
                    time_error=t_err,
                    energy_error_reattributed=e_err_re,
                )
            )
    return Fig6Result(
        device=spec.name,
        bs=bs,
        cells=tuple(cells),
        threshold_n=spec.additivity_threshold_n,
    )
