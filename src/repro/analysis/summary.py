"""One-call reproduction report.

:func:`generate_report` runs every experiment and assembles their
rendered outputs into a single markdown document — the "reproduce the
whole paper" entry point used by ``python -m repro report``.  The
extras (sensitivity, ablations, strategy studies) are optional.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import EXPERIMENTS, Experiment

__all__ = ["ReportSection", "generate_report"]


@dataclass(frozen=True)
class ReportSection:
    title: str
    body: str


def _section(exp: Experiment) -> ReportSection:
    body = exp.render()
    if exp.report_cut is not None:
        body = body.split(exp.report_cut)[0].rstrip()
    return ReportSection(exp.title, body)


def generate_report(*, include_extras: bool = False) -> str:
    """Render the full reproduction report as markdown.

    ``include_extras`` adds the extension studies (ablation,
    sensitivity, metric battery, method comparison, budgeted search,
    strategy comparisons); ``repro report --extras`` takes about a
    second.
    """
    included = ("core", "extras") if include_extras else ("core",)
    sections = [
        _section(exp)
        for exp in EXPERIMENTS.values()
        if exp.section in included
    ]
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
