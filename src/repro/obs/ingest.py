"""Tolerant JSONL ingestion of telemetry streams.

:func:`load_stream` reads the ``repro-telemetry/1`` event streams that
``repro trace`` and ``repro perf`` render.  A truncated final line (a
run killed mid-write) is dropped with a warning; garbage on any other
line is a ``path:lineno`` error, and a file with nothing valid in it an
error naming the path.  Several runs appended to one file are split at
each ``header`` event.
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
    "load_stream",
    "load_cli_stream",
]


class TelemetryStreamError(ValueError):
    """A telemetry stream that cannot be read."""


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


def load_stream(path: str | Path) -> TelemetryStream:
    """Parse a telemetry JSONL file, split into runs.

    Blank lines are skipped; a truncated final line after valid ones
    is dropped with a warning.  Raises :class:`TelemetryStreamError`
    for a path that cannot be read (``PATH: reason``, the reason as
    the system words it) or decoded as text, for garbage or a
    non-event on any other line and for a file with no valid line.
    """
    target = Path(path)
    try:
        lines = target.read_text().splitlines()
    except OSError as exc:
        raise TelemetryStreamError(f"{target}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise TelemetryStreamError(f"{target}: {exc}") from None
    last_nonempty = max(
        (i for i, line in enumerate(lines, 1) if line.strip()), default=0
    )
    stream = TelemetryStream(path=target)
    current: list[dict[str, Any]] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == last_nonempty and (current or stream.runs):
                stream.warnings.append(
                    f"{target}:{lineno}: dropped truncated final line "
                    f"({exc.msg})"
                )
                continue
            raise TelemetryStreamError(
                f"{target}:{lineno}: not a JSON event line ({exc})"
            ) from None
        if not isinstance(event, dict) or "event" not in event:
            raise TelemetryStreamError(
                f"{target}:{lineno}: not a telemetry event"
            )
        if event["event"] == "header" and current:
            stream.runs.append(current)
            current = []
        current.append(event)
    if not current:
        raise TelemetryStreamError(f"{target}: empty telemetry stream")
    stream.runs.append(current)
    if stream.runs[0][0].get("event") != "header":
        stream.warnings.append(
            f"{target}: stream does not start with a header event"
        )
    return stream


def load_cli_stream(path: str | Path, command: str) -> TelemetryStream:
    """:func:`load_stream` for a CLI command such as ``"repro trace"``.

    A :class:`TelemetryStreamError`, an unreadable path among them,
    exits with its message prefixed by ``command``: for a directory,
    ``repro perf: DIR: Is a directory``.  Each warning goes to stderr
    under the same prefix.
    """
    try:
        stream = load_stream(path)
    except TelemetryStreamError as exc:
        raise SystemExit(f"{command}: {exc}") from None
    for warning in stream.warnings:
        print(f"{command}: warning: {warning}", file=sys.stderr)
    return stream
