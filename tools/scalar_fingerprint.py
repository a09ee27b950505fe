"""Bit-level fingerprint of the two scalar models of record.

Prints one tab-separated row per call of ``GPUDevice.run_matmul`` and
``MulticoreCPU.run_dgemm`` over a wide sweep, with every numeric
result as ``float.hex``:

* GPU: 43,680 calls -- K40c and P100, seven matrix sizes, every valid
  BS and G, R in {1, 3, 8}, in five clock modes (default, fixed base
  clock, pinned to base, pinned to boost, seeded run-to-run jitter);
* CPU: 4,752 calls -- Haswell, two matrix sizes, both BLAS libraries,
  every partition and (p, t) with p·t <= 48, at frequency scales 1.0
  and 0.7.

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

    PYTHONPATH=src python tools/scalar_fingerprint.py > rows.tsv
    python tools/scalar_fingerprint.py --against HEAD~1

``--against REV`` extracts ``src/`` of REV with ``git archive``, runs
this same script on it and on this checkout's ``src/`` (two processes
side by side, each with its own random hash seed, about 9 s on two
CPUs), and prints the number of differing rows per model and clock
mode.  It exits 1 if any row differs, so 0 differing rows means every
field of every call is bit-identical.  ``--against HEAD`` on a clean
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


def _gpu_rows():
    import numpy as np

    from repro.machines.specs import K40C, P100
    from repro.simgpu.device import GPUDevice
    from repro.simgpu.kernel import max_group_size

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
        for n in GPU_SIZES:
            for bs in range(1, math.isqrt(spec.max_threads_per_block) + 1):
                for g in range(1, max_group_size(spec, bs) + 1):
                    for r in GPU_REPEATS:
                        i += 1
                        for mode, kwargs in modes:
                            result = dev.run_matmul(n, bs, g, r, **kwargs())
                            yield (
                                spec.name, mode, f"n={n} bs={bs} g={g} r={r}",
                                *_values(result, GPU_ATTRS),
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
    """Write every GPU row, then every CPU row, to ``out``."""
    for rows in (_gpu_rows(), _cpu_rows()):
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
    with tempfile.TemporaryDirectory(prefix="scalar-fingerprint-") as tmp:
        tree = Path(tmp) / "tree"
        tree.mkdir()
        try:
            archive = subprocess.run(
                ["git", "archive", "--format=tar", rev, "src"],
                cwd=ROOT, capture_output=True, check=True,
            ).stdout
        except subprocess.CalledProcessError as exc:
            raise SystemExit(
                f"scalar_fingerprint: git archive {rev}: "
                f"{exc.stderr.decode().strip()}"
            ) from None
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        base, change = Path(tmp) / "base.tsv", Path(tmp) / "change.tsv"
        procs = [_dump_tree(tree / "src", base), _dump_tree(ROOT / "src", change)]
        codes = [proc.wait() for proc in procs]
        for code, side in zip(codes, (rev, "checkout")):
            if code != 0:
                raise SystemExit(f"scalar_fingerprint: the {side} dump failed")
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
        description="Fingerprint the scalar GPU and CPU models bit by bit."
    )
    parser.add_argument(
        "--against", metavar="REV",
        help="compare this checkout with git revision REV and print the "
        "differing rows per model and clock mode",
    )
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args.against)
    dump(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
