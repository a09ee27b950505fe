"""JSON serialization for sweep results and Pareto fronts.

Sweeps are the expensive artifact of this methodology (the paper notes
exhaustive evaluation "can be expensive"); ``repro sweep --save``
persists one so that ``repro front`` can analyze it again and users
can exchange results.  The format is a small, versioned JSON document:

.. code-block:: json

    {
      "format": "repro-sweep/1",
      "device": "p100",
      "workload": 10240,
      "points": [
        {"time_s": 30.6, "energy_j": 7916.0, "config": {"bs": 32, ...}},
        ...
      ]
    }

Only JSON-representable configs are supported (the library's configs
are dicts/tuples of primitives by construction).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.pareto import ParetoPoint

__all__ = ["SweepDocument", "save_sweep", "load_sweep"]

FORMAT = "repro-sweep/1"


@dataclass(frozen=True)
class SweepDocument:
    """One persisted configuration sweep."""

    device: str
    workload: int
    points: tuple[ParetoPoint, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": FORMAT,
            "device": self.device,
            "workload": self.workload,
            "points": [
                {
                    "time_s": p.time_s,
                    "energy_j": p.energy_j,
                    "config": p.config,
                }
                for p in self.points
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "SweepDocument":
        if doc.get("format") != FORMAT:
            raise ValueError(
                f"unsupported document format {doc.get('format')!r}; "
                f"expected {FORMAT!r}"
            )
        for key in ("device", "workload", "points"):
            if key not in doc:
                raise ValueError(f"missing key {key!r}")
        try:
            points = tuple(
                ParetoPoint(
                    time_s=float(p["time_s"]),
                    energy_j=float(p["energy_j"]),
                    config=p.get("config"),
                )
                for p in doc["points"]
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"each point needs numeric 'time_s' and 'energy_j' "
                f"({type(exc).__name__}: {exc})"
            ) from None
        return cls(
            device=str(doc["device"]),
            workload=int(doc["workload"]),
            points=points,
        )


def save_sweep(path: str | Path, doc: SweepDocument) -> None:
    """Write a sweep document to ``path`` (pretty-printed JSON)."""
    Path(path).write_text(json.dumps(doc.to_dict(), indent=2) + "\n")


def load_sweep(path: str | Path) -> SweepDocument:
    """Read a sweep document written by :func:`save_sweep`.

    Raises
    ------
    ValueError
        On version/shape mismatches — a corrupted or foreign file must
        not silently produce an empty sweep.
    """
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("sweep document must be a JSON object")
    return SweepDocument.from_dict(raw)
