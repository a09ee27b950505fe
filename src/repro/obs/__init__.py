"""``repro.obs`` — zero-dependency telemetry for the sweep pipeline.

Three pieces (see ``docs/MODEL.md`` §6 for the span taxonomy, the
metric namespace and the manifest schema):

* hierarchical **spans** with monotonic timings and attributes
  (:func:`span`),
* a process-wide **metrics registry** — counters, gauges, histogram
  summaries (:func:`count` / :func:`gauge` / :func:`observe`),
* a **run-provenance manifest** (:func:`repro.obs.provenance.run_manifest`)
  attached to every experiment output.

On top of those, the **performance observatory** (``docs/MODEL.md``
§6.6), one module per job:

* :mod:`repro.obs.ingest` — the tolerant JSONL reader of telemetry
  streams;
* :mod:`repro.obs.perf` — the span tree and everything rendered from
  it: ``repro trace``, self/total profiles, the critical path and
  folded-stack flamegraphs (``repro perf report|diff|flamegraph``);
* :mod:`repro.obs.sentinel` — the regression sentinel over two files
  of ``perfbench/run.py`` result lines (``repro perf check BASELINE
  CURRENT``): the paper's 95% CI protocol, then a Mann-Whitney test.

Off by default: the module-level helpers are no-ops until the CLI (or
a test) installs an enabled :class:`Telemetry` via :func:`configure`.
"""

from repro.obs.telemetry import (
    TELEMETRY_FORMAT,
    HistogramSummary,
    SpanRecord,
    Telemetry,
    configure,
    count,
    gauge,
    get_telemetry,
    observe,
    set_telemetry,
    span,
)

__all__ = [
    "TELEMETRY_FORMAT",
    "HistogramSummary",
    "SpanRecord",
    "Telemetry",
    "configure",
    "count",
    "gauge",
    "get_telemetry",
    "observe",
    "set_telemetry",
    "span",
]
