"""One-call reproduction report.

:func:`generate_report` runs every experiment and assembles their
rendered outputs into a single markdown document — the "reproduce the
whole paper" entry point used by ``python -m repro report``.  The
extras (sensitivity, ablations, strategy studies) are optional.

The sweep-driven sections run through one planner session per report,
filled by the scalar model of record (``EvalPlanner(scalar=True)``),
so a configuration that several sections sweep is evaluated once.
"""

from __future__ import annotations

from typing import NamedTuple

from repro import obs
from repro.experiments import EXPERIMENTS, Experiment
from repro.sweep.planner import EvalPlanner, session_planner

__all__ = ["ReportSection", "generate_report", "report_experiments"]


class ReportSection(NamedTuple):
    title: str
    body: str


def _section(exp: Experiment, session: EvalPlanner) -> ReportSection:
    with obs.span("report.section", id=exp.id):
        body = exp.render(engine=session)
    if exp.report_cut is not None:
        body = body.split(exp.report_cut)[0].rstrip()
    return ReportSection(exp.title, body)


def report_experiments(include_extras: bool = False) -> list[Experiment]:
    """The experiments a report renders, one section each, in order."""
    included = ("core", "extras") if include_extras else ("core",)
    return [exp for exp in EXPERIMENTS.values() if exp.section in included]


def generate_report(*, include_extras: bool = False) -> str:
    """Render the full reproduction report as markdown.

    ``include_extras`` adds the extension studies (ablation,
    sensitivity, metric battery, method comparison, budgeted search,
    strategy comparisons); ``repro report --extras`` takes about a
    second.

    Every call builds a new session, so a repeated report evaluates
    each distinct configuration again (docs/MODEL.md §1.9: no result
    memo across reports).
    """
    experiments = report_experiments(include_extras)
    session = session_planner(
        tuple(exp.id for exp in experiments if exp.sweep), scalar=True
    )
    sections = [_section(exp, session) for exp in experiments]
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
