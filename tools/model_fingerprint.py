"""Bit-level fingerprint of the GPU and CPU models.

Prints one tab-separated row per modelled configuration, with every
numeric result as ``float.hex``, from every evaluation path of the
models:

* scalar GPU: 43,680 calls of ``GPUDevice.run_matmul`` -- K40c and
  P100, seven matrix sizes, every valid BS and G, R in {1, 3, 8}, in
  five clock modes (default, fixed base clock, pinned to base, pinned
  to boost, seeded run-to-run jitter);
* batch GPU: the same 8,736 configurations through
  ``batch_run_matmul``, one call per device and size (mode ``batch``),
  and again in one call per device over every size with two
  calibrations as columns (mode ``batch-2cal``, 17,472 lanes);
* roofline: ``classify_matmul`` of the 2,912 ``(N, BS, G)``
  placements of the same grid;
* CPU: 4,752 calls of ``MulticoreCPU.run_dgemm`` -- Haswell, two
  matrix sizes, both BLAS libraries, every partition and (p, t) with
  p·t <= 48, at frequency scales 1.0 and 0.7.

A row is ``model, mode, configuration, value, value, ...``.  The
values are *named* attributes of each result (``power.compute_w``,
``utilization.average``, ...) read with ``getattr``, not a flattening
of the record's type, so a dataclass record and a named tuple with the
same fields print the same row, and an attribute prints the same
whether it is a property or a field.  Nested records (occupancy,
kernel resources, DGEMM configuration) print as ``Name(field=value,
...)`` with the same value formatting, whichever of the two kinds
they are.

Usage, from the root of a checkout::

    PYTHONPATH=src python tools/model_fingerprint.py > rows.tsv
    python tools/model_fingerprint.py --against HEAD~1

``--against REV`` extracts ``src/`` of REV with ``git archive``, runs
this same script on it and on this checkout's ``src/`` (two processes
side by side, each with its own random hash seed, about 10 s on two
CPUs), and prints the number of differing rows per model and mode.
It exits 1 if any row differs, so 0 differing rows means every field
of every call is bit-identical.  ``--against HEAD`` on a clean
checkout compares the code with itself under two hash seeds: CI runs
it to catch a result that depends on dict or hash order.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Matrix sizes of the GPU sweep: small, the paper's figure sizes, and
#: one above every additivity threshold.
GPU_SIZES = (1024, 5120, 8704, 10240, 14336, 18432, 30000)
GPU_REPEATS = (1, 3, 8)
CPU_SIZES = (1024, 17408)
CPU_FREQ_SCALES = (1.0, 0.7)

#: Attributes of a ``KernelRunResult`` printed on each GPU row.
GPU_ATTRS = (
    "time_s", "dynamic_energy_j", "dynamic_power_w", "clock_hz",
    "throttled", "r", "product_time_s",
    "power.compute_w", "power.dram_w", "power.activity_w", "power.aux_w",
    "power.leakage_w", "power.dynamic_w",
    "occupancy", "resources",
)
#: Fields of a ``BatchRunResult`` printed on each batch row.
BATCH_ATTRS = (
    "time_s", "dynamic_energy_j", "dynamic_power_w", "clock_hz", "throttled",
)
#: Calibration constants the second calibration of a ``batch-2cal``
#: call scales, so that each of them is a per-lane column.
SECOND_CAL_SCALES = {
    "power_cap_w": 0.9, "e_lane_j": 1.1, "p_act1_w": 1.1,
    "mem_latency_cycles": 1.2, "aux_power_w": 0.8,
}
#: Attributes of a ``RooflinePlacement`` printed on each roofline row.
ROOFLINE_ATTRS = (
    "arithmetic_intensity", "ridge_intensity", "bound", "issue_cycles",
    "memory_cycles", "blocks_per_sm", "classically_compute_bound",
)
#: Attributes of a ``CPURunResult`` printed on each CPU row.
CPU_ATTRS = (
    "time_s", "dynamic_energy_j", "gflops", "avg_utilization", "n",
    "utilization.per_cpu", "utilization.wall_time_scale",
    "utilization.average",
    "power.cores_w", "power.flops_w", "power.uncore_w", "power.dram_w",
    "power.dtlb_w", "power.dynamic_w",
    "placement.threads_per_core", "placement.active_physical_cores",
    "placement.smt_cores", "placement.active_sockets",
    "config",
)


def _format(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if hasattr(type(value), "_fields"):  # a named tuple
        names = type(value)._fields
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        names = [f.name for f in dataclasses.fields(value)]
    elif isinstance(value, (tuple, list)):
        return ",".join(_format(v) for v in value)
    else:
        return repr(value)
    return f"{type(value).__name__}(" + ", ".join(
        f"{name}={_format(getattr(value, name))}" for name in names
    ) + ")"


def _values(result, attrs: tuple[str, ...]) -> list[str]:
    out = []
    for path in attrs:
        value = result
        for name in path.split("."):
            value = getattr(value, name)
        out.append(_format(value))
    return out


def _gpu_grid(spec):
    """Every ``(n, bs, g)`` of the GPU sweep on ``spec``."""
    from repro.simgpu.kernel import max_group_size

    for n in GPU_SIZES:
        for bs in range(1, math.isqrt(spec.max_threads_per_block) + 1):
            for g in range(1, max_group_size(spec, bs) + 1):
                yield n, bs, g


def _gpu_rows():
    import numpy as np

    from repro.machines.specs import K40C, P100
    from repro.simgpu.device import GPUDevice

    i = 0
    for spec in (K40C, P100):
        dev = GPUDevice(spec)
        modes = (
            ("default", lambda: {}),
            ("fixed", lambda: {"fixed_clock": True}),
            ("pin-base", lambda: {"pinned_clock_hz": spec.base_clock_hz}),
            ("pin-boost", lambda: {"pinned_clock_hz": spec.boost_clock_hz}),
            ("rng", lambda: {"rng": np.random.default_rng(i)}),
        )
        for n, bs, g in _gpu_grid(spec):
            for r in GPU_REPEATS:
                i += 1
                for mode, kwargs in modes:
                    result = dev.run_matmul(n, bs, g, r, **kwargs())
                    yield (
                        spec.name, mode, f"n={n} bs={bs} g={g} r={r}",
                        *_values(result, GPU_ATTRS),
                    )


def _batch_lanes(spec, mode, cal, lanes):
    """Rows of one ``batch_run_matmul`` call over ``(n, bs, g, r)``
    lanes, tagged with their calibration's index."""
    from repro.simgpu.batch import batch_run_matmul

    n, bs, g, r, _ = zip(*lanes)
    out = batch_run_matmul(spec, cal, n, bs, g, r)
    columns = [getattr(out, name).tolist() for name in BATCH_ATTRS]
    for (n, bs, g, r, tag), *values in zip(lanes, *columns):
        yield (
            spec.name, mode, f"n={n} bs={bs} g={g} r={r}{tag}",
            *map(_format, values),
        )


def _batch_rows():
    import dataclasses

    from repro.machines.specs import K40C, P100
    from repro.simgpu.calibration import calibration_for

    for spec in (K40C, P100):
        cal = calibration_for(spec)
        grid = [
            (n, bs, g, r, "")
            for n, bs, g in _gpu_grid(spec)
            for r in GPU_REPEATS
        ]
        for size in GPU_SIZES:
            lanes = [lane for lane in grid if lane[0] == size]
            yield from _batch_lanes(spec, "batch", cal, lanes)
        second = dataclasses.replace(cal, **{
            name: getattr(cal, name) * scale
            for name, scale in SECOND_CAL_SCALES.items()
        })
        lanes = grid + [(*lane[:4], " cal=2") for lane in grid]
        runs = [(cal, len(grid)), (second, len(grid))]
        yield from _batch_lanes(spec, "batch-2cal", runs, lanes)


def _roofline_rows():
    from repro.machines.specs import K40C, P100
    from repro.simgpu.roofline import classify_matmul

    for spec in (K40C, P100):
        for n, bs, g in _gpu_grid(spec):
            yield (
                spec.name, "roofline", f"n={n} bs={bs} g={g}",
                *_values(classify_matmul(spec, n, bs, g), ROOFLINE_ATTRS),
            )


def _cpu_rows():
    from repro.machines.specs import HASWELL
    from repro.simcpu.processor import PARTITIONS, DGEMMConfig, MulticoreCPU

    cpu = MulticoreCPU(HASWELL)
    for n in CPU_SIZES:
        for library in ("mkl", "openblas"):
            for partition in PARTITIONS:
                for p in range(1, HASWELL.logical_cpus + 1):
                    for t in range(1, HASWELL.logical_cpus // p + 1):
                        config = DGEMMConfig(partition, p, t, library)
                        for f in CPU_FREQ_SCALES:
                            result = cpu.run_dgemm(n, config, freq_scale=f)
                            yield (
                                HASWELL.name, f"freq={f}",
                                f"n={n} {config.key()}",
                                *_values(result, CPU_ATTRS),
                            )


def dump(out) -> None:
    """Write the scalar GPU, batch, roofline and CPU rows to ``out``."""
    for rows in (_gpu_rows(), _batch_rows(), _roofline_rows(), _cpu_rows()):
        for row in rows:
            out.write("\t".join(row) + "\n")


def _dump_tree(src: Path, path: Path) -> subprocess.Popen:
    # Each dump draws its own hash seed, whatever the caller's
    # environment pins, so a result that depends on dict or hash order
    # differs between the two.
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="random")
    with path.open("w") as out:
        return subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            env=env, stdout=out,
        )


def compare(base: Path, change: Path) -> tuple[Counter, Counter]:
    """Rows and differing rows per ``(model, mode)`` of two dumps.

    Rows are paired by position; a row present on one side only
    counts as differing.
    """
    rows: Counter = Counter()
    differing: Counter = Counter()
    with base.open() as a, change.open() as b:
        while True:
            left, right = a.readline(), b.readline()
            if not left and not right:
                return rows, differing
            bucket = tuple((left or right).split("\t", 2)[:2])
            rows[bucket] += 1
            if left != right:
                differing[bucket] += 1


def against(rev: str) -> int:
    """Dump REV's ``src/`` and this checkout's, and report the diff."""
    with tempfile.TemporaryDirectory(prefix="model-fingerprint-") as tmp:
        tree = Path(tmp) / "tree"
        tree.mkdir()
        try:
            archive = subprocess.run(
                ["git", "archive", "--format=tar", rev, "src"],
                cwd=ROOT, capture_output=True, check=True,
            ).stdout
        except subprocess.CalledProcessError as exc:
            raise SystemExit(
                f"model_fingerprint: git archive {rev}: "
                f"{exc.stderr.decode().strip()}"
            ) from None
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        base, change = Path(tmp) / "base.tsv", Path(tmp) / "change.tsv"
        procs = [_dump_tree(tree / "src", base), _dump_tree(ROOT / "src", change)]
        codes = [proc.wait() for proc in procs]
        for code, side in zip(codes, (rev, "checkout")):
            if code != 0:
                raise SystemExit(f"model_fingerprint: the {side} dump failed")
        rows, differing = compare(base, change)
    table = [("model", "mode", "rows", "differing")]
    table += [(*key, str(rows[key]), str(differing[key])) for key in rows]
    total = sum(differing.values())
    table.append(("total", "", str(sum(rows.values())), str(total)))
    widths = [max(len(row[i]) for row in table) for i in range(4)]
    for row in table:
        print(
            f"{row[0]:<{widths[0]}}  {row[1]:<{widths[1]}}  "
            f"{row[2]:>{widths[2]}}  {row[3]:>{widths[3]}}"
        )
    return 1 if total else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fingerprint the GPU and CPU models bit by bit."
    )
    parser.add_argument(
        "--against", metavar="REV",
        help="compare this checkout with git revision REV and print the "
        "differing rows per model and mode",
    )
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args.against)
    dump(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
