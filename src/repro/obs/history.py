"""Append-only bench history store (``repro-bench-history/1``).

``repro bench`` writes ``BENCH_sweep.json`` as the *latest-run view*;
this module gives the repo a perf **trajectory**: every run appends
one JSONL record to ``benchmarks/history/`` carrying

* a **host fingerprint** — CPU model, core count, machine arch,
  python/numpy versions — because cross-host timings are not
  comparable and the regression sentinel must refuse to compare them;
* the run's ``git_sha`` and the planner session's provenance
  ``inputs_digest`` (same hash ``repro.obs.provenance`` computes), so
  a timing shift can be tied to a code or an input change;
* **per-case repeated samples**, not just the min/median — the raw
  material the Mann-Whitney sentinel (:mod:`repro.obs.sentinel`)
  needs; single summary statistics cannot support a significance
  test;
* the process's ``host.peak_rss_kb`` high-water mark.

Records are one JSON object per line so appends are atomic-enough
(O_APPEND of one short line) and the file never needs rewriting; the
loader reads them with the telemetry reader
(:func:`repro.obs.ingest.read_jsonl`), so a truncated final line and
garbage are handled exactly as in a telemetry stream.
"""

from __future__ import annotations

import json
import platform
import warnings
from pathlib import Path
from typing import Any

__all__ = [
    "HISTORY_FORMAT",
    "DEFAULT_HISTORY_PATH",
    "host_fingerprint",
    "fingerprints_match",
    "history_record",
    "case_samples",
    "append_record",
    "load_history",
]

HISTORY_FORMAT = "repro-bench-history/1"

#: Where ``repro bench`` appends by default (repo-relative).
DEFAULT_HISTORY_PATH = Path("benchmarks") / "history" / "bench_history.jsonl"

#: Fingerprint keys that must be equal for two runs' timings to be
#: comparable.  Python/numpy versions are recorded but allowed to
#: differ at patch level — they are compared major.minor.
_STRICT_KEYS = ("cpu_model", "cpus", "machine")
_MINOR_KEYS = ("python", "numpy")


def _cpu_model() -> str:
    """Best-effort CPU model string (Linux /proc/cpuinfo, else platform)."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def host_fingerprint() -> dict[str, Any]:
    """The identity under which this host's timings are comparable."""
    import os

    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = "unknown"
    return {
        "cpu_model": _cpu_model(),
        "cpus": os.cpu_count() or 1,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _major_minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def fingerprints_match(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """True when two hosts' timings belong to the same baseline."""
    if any(a.get(k) != b.get(k) for k in _STRICT_KEYS):
        return False
    return all(
        _major_minor(str(a.get(k, ""))) == _major_minor(str(b.get(k, "")))
        for k in _MINOR_KEYS
    )


def case_samples(doc: dict[str, Any]) -> dict[str, list[float]]:
    """``case-key -> wall-time samples`` of one bench document/record.

    Case keys are stable strings (``p100/N10240/vectorized``,
    ``planner/warm`` …) so history records and fresh documents address
    the same measurement the same way.  Documents older than bench v5
    carry no samples and yield nothing — the sentinel reports those
    cases as insufficient history instead of inventing data.
    """
    out: dict[str, list[float]] = {}
    for case in doc.get("cases", ()):
        prefix = f"{case['device']}/N{case['n']}"
        for backend, values in (case.get("samples") or {}).items():
            if values:
                out[f"{prefix}/{backend}"] = [float(v) for v in values]
    planner = doc.get("planner") or {}
    for path_name, values in (planner.get("samples") or {}).items():
        if values:
            out[f"planner/{path_name}"] = [float(v) for v in values]
    return out


def history_record(
    doc: dict[str, Any], *, fingerprint: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Build the history line for one ``BENCH_sweep.json`` document."""
    from repro.obs.provenance import git_revision

    host = dict(fingerprint or host_fingerprint())
    peak = (doc.get("host") or {}).get("peak_rss_kb")
    if peak is not None:
        host["peak_rss_kb"] = peak
    return {
        "format": HISTORY_FORMAT,
        "bench_version": doc.get("version"),
        "git_sha": doc.get("git_sha") or git_revision(),
        "inputs_digest": doc.get("inputs_digest"),
        "repeats": doc.get("repeats"),
        "host": host,
        "cases": [
            {"case": key, "samples": samples}
            for key, samples in sorted(case_samples(doc).items())
        ],
    }


def append_record(path: str | Path, record: dict[str, Any]) -> Path:
    """Append one record line, creating parent directories as needed."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True))
        fh.write("\n")
    return target


def load_history(path: str | Path) -> list[dict[str, Any]]:
    """All records of a history file, oldest first.

    A missing file is an empty history (the first run ever has none).
    Otherwise :func:`repro.obs.ingest.read_jsonl` reads it: a truncated
    final line is dropped with a :func:`warnings.warn`, and garbage
    elsewhere, or a file with no valid record, is an error with
    file:line context.
    """
    from repro.obs.ingest import read_jsonl

    target = Path(path)
    if not target.exists():
        return []
    values, dropped = read_jsonl(target, "history record", "bench history")
    for message in dropped:
        warnings.warn(message, stacklevel=2)
    for lineno, record in values:
        if (
            not isinstance(record, dict)
            or record.get("format") != HISTORY_FORMAT
        ):
            raise ValueError(
                f"{target}:{lineno}: not a {HISTORY_FORMAT} record"
            )
    return [record for _, record in values]
