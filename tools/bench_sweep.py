"""Standalone runner for the sweep-backend benchmark.

Equivalent to ``python -m repro bench``; kept as a script so the
benchmark can run from a checkout without installing the package:

    PYTHONPATH=src python tools/bench_sweep.py [--quick] [--output FILE]

Times the scalar model of record against the NumPy-vectorized batch
model on the paper's P100 sweeps, the incremental-vs-batch Pareto
front, the cross-experiment planner session (per-experiment scalar
baseline vs cold-store vs warm-store on an enlarged devices x sizes x
total-products grid), and — behind ``--large`` — a million-point
mapped-shard build with a subprocess peak-RSS probe.  Writes
``BENCH_sweep.json`` and exits non-zero on any regression gate: the
vectorized model slower than scalar, the warm-store planner slower
than the per-experiment baseline, the incremental front diverging
from the batch kernel, telemetry overhead above its limit, or partial
mapped-shard lookups dragging whole shards into resident memory.

Every run also appends one ``repro-bench-history/1`` record (host
fingerprint + raw per-repeat samples) to
``benchmarks/history/bench_history.jsonl`` — the baseline ``repro
perf check`` tests later runs against; ``--history PATH`` redirects
it, ``--no-history`` skips it.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.sweep.bench import main

if __name__ == "__main__":
    sys.exit(main())
