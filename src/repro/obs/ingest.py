"""Tolerant JSONL ingestion: telemetry streams and bench history.

:func:`read_jsonl` is the one reader of both JSONL files the repo
reads, ``repro-telemetry/1`` event streams (``repro trace``, ``repro
perf``) and ``repro-bench-history/1`` records (``repro perf check``).
A truncated final line (a run killed mid-write) is dropped with a
warning; garbage on any other line is a ``path:lineno`` error, and a
file with nothing valid in it an error naming the path.  Several runs
appended to one telemetry file are split at each ``header`` event.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "TelemetryStreamError",
    "TelemetryStream",
    "read_jsonl",
    "load_stream",
    "load_cli_stream",
]


class TelemetryStreamError(ValueError):
    """A telemetry stream or bench history that cannot be read."""


@dataclass
class TelemetryStream:
    """One parsed telemetry file: runs (split at headers) + warnings."""

    path: Path
    #: One event list per run; a run starts at each ``header`` event
    #: (events before the first header form a headerless run 0).
    runs: list[list[dict[str, Any]]] = field(default_factory=list)
    #: Non-fatal anomalies (truncated final line, headerless prefix).
    warnings: list[str] = field(default_factory=list)

    @property
    def events(self) -> list[dict[str, Any]]:
        """All events across all runs, in file order."""
        return [e for run in self.runs for e in run]


def read_jsonl(
    path: Path, item: str, kind: str
) -> tuple[list[tuple[int, Any]], list[str]]:
    """``(lineno, value)`` of every JSON line of ``path``, and warnings.

    Blank lines are skipped; a truncated final line after valid ones
    is dropped with a warning.  Raises :class:`TelemetryStreamError`
    for an unreadable file, for garbage on any other line (``item``
    names what a line should have been) and for a file with no valid
    line (``kind`` names the file).
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise TelemetryStreamError(f"{path}: {exc}") from None
    lines = text.splitlines()
    last_nonempty = max(
        (i for i, line in enumerate(lines, 1) if line.strip()), default=0
    )
    values: list[tuple[int, Any]] = []
    warnings: list[str] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append((lineno, json.loads(line)))
        except json.JSONDecodeError as exc:
            if lineno == last_nonempty and values:
                warnings.append(
                    f"{path}:{lineno}: dropped truncated final line "
                    f"({exc.msg})"
                )
                continue
            raise TelemetryStreamError(
                f"{path}:{lineno}: not a {item} ({exc})"
            ) from None
    if not values:
        raise TelemetryStreamError(f"{path}: empty {kind}")
    return values, warnings


def load_stream(path: str | Path) -> TelemetryStream:
    """Parse a telemetry JSONL file with :func:`read_jsonl`, split into
    runs; raises :class:`TelemetryStreamError` for a line that is not
    an event."""
    target = Path(path)
    values, warnings = read_jsonl(
        target, "JSON event line", "telemetry stream"
    )
    stream = TelemetryStream(path=target, warnings=warnings)
    current: list[dict[str, Any]] = []
    for lineno, event in values:
        if not isinstance(event, dict) or "event" not in event:
            raise TelemetryStreamError(
                f"{target}:{lineno}: not a telemetry event"
            )
        if event["event"] == "header" and current:
            stream.runs.append(current)
            current = []
        current.append(event)
    stream.runs.append(current)
    if stream.runs[0][0].get("event") != "header":
        stream.warnings.append(
            f"{target}: stream does not start with a header event"
        )
    return stream


def load_cli_stream(path: str | Path, command: str) -> TelemetryStream:
    """:func:`load_stream` for a CLI command such as ``"repro trace"``.

    A missing file or a :class:`TelemetryStreamError` exits with a
    message prefixed by ``command``; each warning goes to stderr under
    the same prefix.
    """
    target = Path(path)
    if not target.is_file():
        raise SystemExit(f"{command}: no such file: {target}")
    try:
        stream = load_stream(target)
    except TelemetryStreamError as exc:
        raise SystemExit(f"{command}: {exc}") from None
    for warning in stream.warnings:
        print(f"{command}: warning: {warning}", file=sys.stderr)
    return stream
