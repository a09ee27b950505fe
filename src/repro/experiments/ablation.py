"""Ablation studies of the simulator's design choices (DESIGN.md §6).

Each ablation disables one mechanism the calibration relies on and
re-runs the affected headline analysis, demonstrating that the paper's
observed structure *emerges from the mechanism* rather than from tuned
answers:

* **aux-off** — remove the 58 W auxiliary component: Fig. 6's energy
  non-additivity must vanish at every N.
* **flat-activity** — force the P100's occupancy exponent to 1 with the
  K40c's flat-gating profile: the P100's multi-point global fronts
  collapse (the bi-objective opportunity disappears).
* **no-thermal-inertia** — make throttling instantaneous
  (``thermal_tau_s → 0``): the P100's savings lose their decrease-with-N
  trend because small-N kernels no longer enjoy the cold-boost window.
* **no-imbalance** — zero the CPU contention-imbalance model: the
  utilization axis of Fig. 4 collapses (every configuration with the
  same thread count lands on exactly the same average utilization, so
  the paper's points-A/B phenomenon — equal work, different per-core
  utilizations — disappears).  The dTLB/partition power gaps remain:
  the two nonproportionality ingredients are separable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.apps.dgemm_cpu import DGEMMCPUApp
from repro.apps.matmul_gpu import MatmulGPUApp
from repro.core.pareto import pareto_front
from repro.core.tradeoff import max_energy_saving
from repro.machines.specs import HASWELL, P100
from repro.simcpu.calibration import HASWELL_CAL
from repro.simgpu.calibration import P100_CAL
from repro.simgpu.device import GPUDevice

__all__ = ["AblationRow", "AblationResult", "run"]


@dataclass(frozen=True)
class AblationRow:
    """One ablation: the mechanism, the observable, baseline vs ablated."""

    mechanism: str
    observable: str
    baseline: str
    ablated: str
    structure_lost: bool


@dataclass(frozen=True)
class AblationResult:
    rows: tuple[AblationRow, ...]

    def render(self) -> str:
        return format_table(
            ["mechanism removed", "observable", "baseline", "ablated",
             "structure lost?"],
            [
                (r.mechanism, r.observable, r.baseline, r.ablated,
                 "yes" if r.structure_lost else "NO (unexpected)")
                for r in self.rows
            ],
        )


def _fig6_max_error(cal, n=5120, bs=4) -> float:
    device = GPUDevice(P100, cal)
    base = device.run_matmul(n, bs, g=1, fixed_clock=True)
    errors = []
    for g in (2, 3, 4):
        grouped = device.run_matmul(n, bs, g=g, fixed_clock=True)
        errors.append(
            abs(grouped.dynamic_energy_j - g * base.dynamic_energy_j)
            / (g * base.dynamic_energy_j)
        )
    return max(errors)


def _p100_front_stats(cal, n=10240) -> tuple[int, float]:
    app = MatmulGPUApp(P100, cal)
    points = app.sweep_points(n)
    front = pareto_front(points)
    return len(front), max_energy_saving(points).energy_saving


def _utilization_spread_pp(cal) -> float:
    """Max spread (percentage points) of average utilization among
    configurations with the same total thread count."""
    app = DGEMMCPUApp(HASWELL, cal, libraries=("mkl",))
    by_threads: dict[int, list[float]] = {}
    for r in app.sweep(17408, "mkl"):
        by_threads.setdefault(r.config.n_threads, []).append(
            r.avg_utilization
        )
    return max(
        max(us) - min(us) for us in by_threads.values() if len(us) > 1
    )


def run() -> AblationResult:
    """Run the four ablations and report structure loss."""
    rows = []

    # 1. Auxiliary 58 W component off -> Fig. 6 non-additivity vanishes.
    base_err = _fig6_max_error(P100_CAL)
    no_aux = dataclasses.replace(P100_CAL, aux_power_w=0.0)
    abl_err = _fig6_max_error(no_aux)
    rows.append(
        AblationRow(
            mechanism="58 W auxiliary component",
            observable="Fig. 6 max energy non-additivity at N=5120",
            baseline=f"{base_err:.1%}",
            ablated=f"{abl_err:.1%}",
            structure_lost=abl_err < 0.05 <= base_err,
        )
    )

    # 2. Flat activity gating -> P100 fronts collapse toward K40c shape.
    base_front, base_save = _p100_front_stats(P100_CAL)
    flat = dataclasses.replace(
        P100_CAL, occ_exp=1.0, p_act1_w=10.0, p_act0_w=110.0
    )
    abl_front, abl_save = _p100_front_stats(flat)
    rows.append(
        AblationRow(
            mechanism="occupancy-superlinear activity power (Pascal gating)",
            observable="P100 N=10240 global front size / max saving",
            baseline=f"{base_front} pts / {base_save:.1%}",
            ablated=f"{abl_front} pts / {abl_save:.1%}",
            structure_lost=abl_save < 0.5 * base_save,
        )
    )

    # 3. No thermal inertia -> savings N-trend flattens or inverts.
    quick = dataclasses.replace(P100_CAL, thermal_tau_s=1e-6)
    _, save_small = _p100_front_stats(P100_CAL, 10240)
    _, save_large = _p100_front_stats(P100_CAL, 18432)
    _, abl_small = _p100_front_stats(quick, 10240)
    _, abl_large = _p100_front_stats(quick, 18432)
    base_trend = save_small - save_large
    abl_trend = abl_small - abl_large
    rows.append(
        AblationRow(
            mechanism="thermal inertia (cold-boost window)",
            observable="P100 savings trend (N=10240 minus N=18432)",
            baseline=f"{base_trend:+.1%}",
            ablated=f"{abl_trend:+.1%}",
            structure_lost=abl_trend < 0.5 * base_trend,
        )
    )

    # 4. No contention imbalance -> the utilization axis collapses:
    # configurations with equal thread counts all land on the same
    # average utilization (points A/B of Fig. 4 vanish).
    base_spread = _utilization_spread_pp(HASWELL_CAL)
    no_imb = dataclasses.replace(
        HASWELL_CAL, imbalance_base=0.0, imbalance_per_group=0.0
    )
    abl_spread = _utilization_spread_pp(no_imb)
    rows.append(
        AblationRow(
            mechanism="contention-induced utilization imbalance",
            observable="Fig. 4 utilization spread at fixed thread count",
            baseline=f"{base_spread:.1f} pp",
            ablated=f"{abl_spread:.1f} pp",
            structure_lost=abl_spread < 0.25 * base_spread,
        )
    )

    return AblationResult(rows=tuple(rows))
