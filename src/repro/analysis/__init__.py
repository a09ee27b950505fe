"""Higher-level EP analysis pipelines and report formatting.

Exports resolve lazily (PEP 562): ``from repro.analysis import
format_table`` imports only :mod:`repro.analysis.report`, not the
whole package, so a command loads only the analysis modules it uses.
"""

from __future__ import annotations

from repro import _lazy_exports

#: Exported name -> defining submodule.
_EXPORTS = {
    "ComparisonResult": "comparison",
    "MethodReading": "comparison",
    "compare_cpu_methods": "comparison",
    "compare_gpu_methods": "comparison",
    "additive_epsilon": "front_quality",
    "igd": "front_quality",
    "normalized_objectives": "front_quality",
    "NonfunctionalityVerdict": "nonfunctionality",
    "nonfunctionality_test": "nonfunctionality",
    "StrongEPStudy": "ep_analysis",
    "WeakEPStudy": "ep_analysis",
    "strong_ep_study": "ep_analysis",
    "weak_ep_study": "ep_analysis",
    "ReportSection": "summary",
    "generate_report": "summary",
    "format_pct": "report",
    "format_series": "report",
    "format_table": "report",
    "paper_vs_measured": "report",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
