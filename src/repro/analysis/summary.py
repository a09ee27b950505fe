"""One-call reproduction report.

:func:`generate_report` runs every experiment and assembles their
rendered outputs into a single markdown document — the "reproduce the
whole paper" entry point used by ``python -m repro report``.  The
extras (sensitivity, ablations, strategy studies) are optional.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ReportSection", "generate_report"]


@dataclass(frozen=True)
class ReportSection:
    title: str
    body: str


def _core_sections() -> list[ReportSection]:
    from repro.experiments import (
        fig1_strong_ep,
        fig2_p100_n18432,
        fig3_decomposition,
        fig4_cpu_utilization,
        fig5_source,
        fig6_additivity,
        fig7_k40c_pareto,
        fig8_p100_pareto,
        headline,
        table1_specs,
    )
    from repro.machines import K40C, P100

    return [
        ReportSection("Table I — platform specifications",
                      table1_specs.run().render()),
        ReportSection("Fig. 1 — strong EP (2D FFT)",
                      fig1_strong_ep.run().render().split("# series")[0].rstrip()),
        ReportSection("Fig. 2 — P100 EP plots, N=18432",
                      fig2_p100_n18432.run().render()),
        ReportSection("Fig. 3 — DGEMM decomposition",
                      fig3_decomposition.run().render()),
        ReportSection("Fig. 4 — CPU power/perf vs utilization",
                      fig4_cpu_utilization.run().render()),
        ReportSection("Fig. 5 — CUDA instrument",
                      fig5_source.run().render().split("source head:")[0].rstrip()),
        ReportSection(
            "Fig. 6 — energy non-additivity vs G",
            "P100:\n" + fig6_additivity.run(P100).render()
            + "\n\nK40c:\n" + fig6_additivity.run(K40C).render(),
        ),
        ReportSection("Fig. 7 — K40c Pareto structure",
                      fig7_k40c_pareto.run().render()),
        ReportSection("Fig. 8 — P100 Pareto structure",
                      fig8_p100_pareto.run().render()),
        ReportSection("Headline statistics", headline.run().render()),
    ]


def _extra_sections() -> list[ReportSection]:
    from repro.experiments import (
        ablation,
        budgeted_search,
        dvfs_comparison,
        ep_metrics_study,
        measurement_methods,
        sensitivity,
    )

    return [
        ReportSection("Ablations (design-choice load-bearing checks)",
                      ablation.run().render()),
        ReportSection("Calibration sensitivity (±20%)",
                      sensitivity.run().render()),
        ReportSection("EP-metric battery", ep_metrics_study.run().render()),
        ReportSection("Measurement-method comparison ([13])",
                      measurement_methods.run().render()),
        ReportSection("Budgeted front search", budgeted_search.run().render()),
        ReportSection("DVFS vs application-level knobs (CPU)",
                      dvfs_comparison.run().render()),
        ReportSection("DVFS vs application-level knobs (P100)",
                      dvfs_comparison.run_gpu().render()),
    ]


def generate_report(*, include_extras: bool = False) -> str:
    """Render the full reproduction report as markdown.

    ``include_extras`` adds the extension studies (ablation,
    sensitivity, metric battery, method comparison, budgeted search,
    strategy comparisons); ``repro report --extras`` takes about a
    second.
    """
    sections = _core_sections()
    if include_extras:
        sections += _extra_sections()
    parts = [
        "# Reproduction report — On Energy Nonproportionality of "
        "CPUs and GPUs",
        "",
        "Generated by `python -m repro report`.  Paper-vs-measured "
        "commentary lives in EXPERIMENTS.md; this document is the raw "
        "regenerated artifact set.",
        "",
    ]
    for s in sections:
        parts.append(f"## {s.title}")
        parts.append("")
        parts.append("```")
        parts.append(s.body)
        parts.append("```")
        parts.append("")
    return "\n".join(parts)
