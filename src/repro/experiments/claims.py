"""The paper's claims against the reproduction, one table per experiment.

:func:`page` is ``repro experiment ID``'s output: the experiment's
paper-vs-measured table, where :data:`CLAIMS` has one, a blank line,
then the experiment's render, all from one run.  Each page is the
golden ``benchmarks/output/ID.txt`` byte for byte.

Each entry of :data:`CLAIMS` takes the experiment's results, as
:meth:`repro.experiments.Experiment.results` returns them (one per
device of the table entry, else one), and gives its rows of
(quantity, paper, measured).  ``repro all`` and ``repro report`` print
the render alone and never load this module; loading it imports no
experiment module.
"""

from __future__ import annotations

from repro.analysis.report import format_pct, paper_vs_measured
from repro.experiments import EXPERIMENTS

__all__ = ["CLAIMS", "page"]


def _fig1(result):
    return [
        (
            f"{s.device}: strong EP",
            "violated (complex non-linear E_d(W))",
            "violated" if not s.result.holds else "holds",
        )
        for s in result.studies
    ]


def _fig2(result):
    return [
        ("global front size", 2, len(result.global_front)),
        (
            "max saving @ degradation",
            "12.5% @ 2.5%",
            f"{format_pct(result.global_headline.energy_saving)} @ "
            f"{format_pct(result.global_headline.perf_degradation)}",
        ),
        (
            "BS<=30 saving @ degradation",
            "24% @ 8%",
            f"{format_pct(result.bs30_headline.energy_saving)} @ "
            f"{format_pct(result.bs30_headline.perf_degradation)}",
        ),
        (
            "BS 1-20 region",
            "energy monotone in time",
            f"rank corr {result.low_bs_rank_correlation:.2f}",
        ),
    ]


def _fig4(result):
    rows = []
    for s in result.series:
        rows.append(
            (
                f"{s.library}: performance plateau",
                "~700 GFLOPs",
                f"{s.plateau_gflops:.0f} GFLOPs",
            )
        )
        rows.append(
            (
                f"{s.library}: power vs utilization",
                "nonfunctional (same util, different power)",
                f"{s.n_witness_pairs} witness pairs, "
                f"max gap {s.max_power_gap_w:.0f} W",
            )
        )
    return rows


def _fig6(p100_result, k40c_result):
    cells = (*p100_result.cells, *k40c_result.cells)
    time_errors = [c.time_error for c in cells]
    residuals = [c.energy_error_reattributed for c in cells]
    return [
        (
            "P100: non-additivity at N=5120",
            "high",
            format_pct(p100_result.max_energy_error(5120)),
        ),
        (
            "P100: additive beyond",
            "N=15360",
            f"error {format_pct(p100_result.max_energy_error(15360))} at 15360",
        ),
        (
            "K40c: additive beyond",
            "N=10240",
            f"error {format_pct(k40c_result.max_energy_error(10240))} at 10240",
        ),
        (
            "time additivity",
            "additive",
            f"error up to {format_pct(max(time_errors))}",
        ),
        (
            "58 W reattribution",
            "restores additivity",
            f"residual up to {format_pct(max(residuals))}",
        ),
    ]


def _fig7(result):
    rows = []
    for s in result.studies:
        rows.append(
            (f"N={s.workload}: global front size", 1, len(s.front))
        )
        rows.append(
            (
                f"N={s.workload}: local front size",
                "4-5 (avg/max over range)",
                len(s.local_front),
            )
        )
        rows.append(
            (
                f"N={s.workload}: local saving @ degradation",
                "up to 18% @ 7%",
                f"{format_pct(s.local_headline.energy_saving)} @ "
                f"{format_pct(s.local_headline.perf_degradation)}",
            )
        )
    return rows


def _fig8(result):
    rows = []
    for s in result.studies:
        rows.append(
            (f"N={s.workload}: global front size", "2-3", len(s.front))
        )
        rows.append(
            (
                f"N={s.workload}: max saving @ degradation",
                "up to 50% @ 11% (N=10240)",
                f"{format_pct(s.headline.energy_saving)} @ "
                f"{format_pct(s.headline.perf_degradation)}",
            )
        )
    return rows


def _headline(result):
    by_name = {
        ("K40c" if "K40c" in d.device else "P100"): d
        for d in result.devices
    }
    k40c, p100 = by_name["K40c"], by_name["P100"]
    return [
        ("K40c global front", "1 point (BS=32)",
         f"{k40c.global_front_avg:.1f} avg / {k40c.global_front_max} max"
         + (", BS=32" if k40c.global_bs_always_32 else "")),
        ("K40c local fronts avg/max", "4 / 5",
         f"{k40c.local_front_avg:.1f} / {k40c.local_front_max}"),
        ("K40c max saving @ degradation", "18% @ 7%",
         f"{format_pct(k40c.max_saving)} @ "
         f"{format_pct(k40c.max_saving_degradation)}"),
        ("P100 global fronts avg/max", "2 / 3",
         f"{p100.global_front_avg:.1f} / {p100.global_front_max}"),
        ("P100 max saving @ degradation", "50% @ 11%",
         f"{format_pct(p100.max_saving)} @ "
         f"{format_pct(p100.max_saving_degradation)}"),
    ]


def _methods(result):
    return [
        (
            "system-level wall meter",
            "most accurate mainstream method [13]",
            f"worst error {format_pct(result.worst_error('wattsup'))}",
        ),
        (
            "NVML board sensor",
            "significant systematic error [13]",
            f"worst error {format_pct(result.worst_error('nvml'))}",
        ),
        (
            "RAPL",
            "significant systematic error [13]",
            f"worst error {format_pct(result.worst_error('rapl'))}",
        ),
    ]


def _energy_model(result):
    return [
        (
            "CUPTI counters at N > 2048",
            "overflow, inaccurate counts",
            f"{len(result.overflowed_at_large_n)} counters wrapped "
            f"at N={result.large_n}",
        ),
        (
            "CUPTI-based energy model at scale",
            "inadequate",
            f"prediction error "
            f"{result.large_n_prediction_error:.0%}",
        ),
    ]


#: Experiment id -> its rows, from its results; in table order.
CLAIMS = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig4": _fig4,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "headline": _headline,
    "methods": _methods,
    "energy-model": _energy_model,
}


def page(exp_id: str, engine=None) -> str:
    """``repro experiment ID``'s stdout, without its final newline.

    ``engine`` is passed on as in
    :meth:`repro.experiments.Experiment.results`; None runs a
    sweep-driven experiment on the scalar model of record.
    """
    exp = EXPERIMENTS[exp_id]
    results = exp.results(engine)
    body = exp.render_results(results)
    claims = CLAIMS.get(exp_id)
    if claims is None:
        return body
    return paper_vs_measured(claims(*results)) + "\n\n" + body
