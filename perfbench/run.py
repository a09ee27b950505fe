"""Latency benchmark of three ``repro`` user commands, measured from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload all-mem --seed 1 --seconds 35 --trace 0

Workloads (see NOTES.md for why each exists):

``all-mem``    ``repro all`` with no store (planner fill, batch model,
               experiment analysis);
``all-store``  ``repro all --store-dir D`` with D empty in every fresh
               process (first pass writes the store, later passes read it);
``report``     ``repro report --output F`` (scalar GPU model, CPU
               simulator, report rendering).

The program is run from this checkout's ``src/``; Python needs no build
step.  Fresh interpreters are spawned one at a time.  Each one times
its own set-up (spawn until ``repro.cli`` is imported and its parser is
built) and its first ``repro.cli.main(argv)`` call, then runs warm
passes of the same command in the same process.  Every pass's output
is compared with the references in ``reference/``; a mismatch or an
exception is a failed operation.

``--trace 0`` prints the end-to-end metrics: median ``setup_s`` and
``first_s`` over the fresh processes, ``pass_p50_s`` and ``pass_p90_s``
over the pooled warm passes, and ``peak_rss_mb``.  Every timed interval
is bracketed by a host-speed probe, and times are reported at the
reference speed ``REF_PROBE_NS``, which takes the host's slow phases
out of the figures (NOTES.md).

``--trace 1`` runs one ``-X importtime`` process and one process with
the layer hooks of ``tracer.py`` installed, and prints the per-layer
metrics.  Nothing is generated: all three workloads run the paper's
fixed figure set, so ``--seed`` cannot change the inputs and is
accepted for the interface only.  The last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import HOOKS, RENDER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Bytecode cache and per-run scratch space, inside the checkout.
CACHE = ROOT / ".perfbench_cache"
REFERENCES = HERE / "reference"

#: workload -> (repro argv, output check, reference file).  ``{tmp}`` is
#: a directory of its own for each fresh process, removed after it.
WORKLOADS = {
    "all-mem": (["all"], "stdout", "all.txt"),
    "all-store": (["all", "--store-dir", "{tmp}/store"], "stdout", "all.txt"),
    "report": (["report", "--output", "{tmp}/report.md"], "output",
               "report.md"),
}

#: Passes per fresh process in a timed run: the first plus warm ones.
PASSES = 10
#: Fresh processes in a timed run, at the least.
MIN_PROCESSES = 2
#: Traced/untraced warm-pass pairs in a traced run, at the least.
MIN_PAIRS = 3
CHILD_TIMEOUT_S = 150
#: Typical time of ``child.probe_ns`` on the host the benchmark was
#: tuned on (2 vCPUs, x86-64, CPython 3.11).  End-to-end times are
#: reported as if the host ran at that speed throughout the run.
REF_PROBE_NS = 8_000_000

#: Environment that would change what a workload does or loads.
DROPPED_ENV = (
    "REPRO_STORE_DIR",  # would turn all-mem into all-store
    "REPRO_CACHE_DIR",
    "REPRO_DEVICE_DIR",  # extra device files for the registry to parse
    "PYTHONPATH",
    "PYTHONDONTWRITEBYTECODE",
    "PYTHONPROFILEIMPORTTIME",
    "PYTHONSTARTUP",
    "PYTHONWARNINGS",
)

#: Top-level packages whose ``-X importtime`` self time is reported.
IMPORT_PACKAGES = ("scipy", "numpy", "repro")


def child_env() -> dict[str, str]:
    """The pinned environment of every fresh process.

    Bytecode is written to and read from a cache inside the checkout,
    warmed by one untimed launch per run, so set-up time does not
    include recompiling the package on every launch.
    """
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(CACHE / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One fresh interpreter running ``child.py``; at most one at a time."""

    def __init__(self, workload: str, run_tmp: Path) -> None:
        self.argv, self.check, reference = WORKLOADS[workload]
        self.reference = REFERENCES / reference
        self.run_tmp = run_tmp
        self.env = child_env()

    def spawn(self, cfg: dict, flags: tuple[str, ...] = ()):
        """Run one process; returns (result or None, stderr text)."""
        tmp = Path(tempfile.mkdtemp(dir=self.run_tmp))
        cfg = {
            "argv": [a.format(tmp=tmp) for a in self.argv],
            "check": self.check,
            "reference": str(self.reference),
            **cfg,
        }
        cmd = [sys.executable, *flags, str(HERE / "child.py")]
        try:
            spawn_ns = time.monotonic_ns()
            proc = subprocess.run(
                [*cmd, str(spawn_ns), json.dumps(cfg)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            return None, f"timed out after {exc.timeout} s"
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, proc.stderr
        return json.loads(lines[-1]), proc.stderr


class Tally:
    """Passes attempted and failed across a run's processes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, result, stderr: str, planned: int) -> None:
        if result is None:
            sys.stderr.write(f"perfbench: fresh process failed:\n{stderr}\n")
            self.attempted += planned
            self.failed += planned
            return
        passes = result["passes"]
        self.attempted += len(passes)
        self.failed += sum(not p["ok"] for p in passes)
        if any(not p["ok"] for p in passes):
            sys.stderr.write(stderr)


def seconds_of(ns: float) -> float:
    return ns / 1e9


def at_reference_speed(wall_ns: float, probes: list[int]) -> float:
    """Seconds at the reference host speed: wall time rescaled by the
    mean of the host-speed probes that bracket it (see NOTES.md)."""
    return seconds_of(wall_ns * REF_PROBE_NS / statistics.fmean(probes))


def end_to_end(child: Child, seconds: int, tally: Tally) -> dict:
    """Fresh processes one after another until ``seconds`` are used.

    Passes whose output is wrong still count as samples; the tally
    marks the run incorrect.
    """
    setups, firsts, warm, rss, raw, probes = [], [], [], [], [], []
    start = time.monotonic()
    durations: list[float] = []
    while len(durations) < MIN_PROCESSES or (
        time.monotonic() - start + statistics.mean(durations) <= seconds
    ):
        t0 = time.monotonic()
        result, stderr = child.spawn({"passes": PASSES})
        durations.append(time.monotonic() - t0)
        tally.add(result, stderr, PASSES)
        if result is None:
            continue
        setups.append(at_reference_speed(result["setup_ns"],
                                         result["setup_probe_ns"]))
        rss.append(result["maxrss_kb"])
        bracket = result["probe_ns"]
        first, *rest = [
            at_reference_speed(p["wall_ns"], bracket[i:i + 2])
            for i, p in enumerate(result["passes"])
        ]
        firsts.append(first)
        warm.extend(rest)
        raw.extend(p["wall_ns"] for p in result["passes"][1:])
        probes.extend(bracket)
    if len(warm) < 2:
        raise SystemExit("perfbench: no fresh process ran to the end")
    sys.stderr.write(
        f"perfbench: {len(durations)} processes, {len(warm)} warm passes; "
        f"raw warm-pass median {seconds_of(statistics.median(raw)):.4f} s, "
        f"probe median {statistics.median(probes) / 1e6:.3f} ms\n"
    )
    return {
        "setup_s": (statistics.median(setups), "s"),
        "first_s": (statistics.median(firsts), "s"),
        "pass_p50_s": (statistics.median(warm), "s"),
        "pass_p90_s": (statistics.quantiles(warm, n=10)[8], "s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
    }


def import_times(stderr: str) -> dict[str, float]:
    """Self time per top-level package from ``-X importtime`` output."""
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0])
    return {f"import.{p}_s": (us / 1e6, "s") for p, us in totals.items()}


#: Every span a traced pass can hold; span ``x`` gives metric ``x_s``.
SPANS = [name for _, _, name, _ in HOOKS] + [RENDER]
#: Spans whose calls are counted, and the metric of the count.
CALLS = {
    "batch.time": "batch.calls",
    "store.contains": "store.contains_calls",
    "store.lookup": "store.lookup_calls",
    "store.append": "store.append_calls",
    "simgpu.run_matmul": "simgpu.run_matmul_calls",
    "simcpu.run_dgemm": "simcpu.run_dgemm_calls",
}
#: Warm-pass metric -> its first-pass twin (write path, cache fills).
FIRST_PASS = {
    "planner.execute_s": "planner.first_execute_s",
    "planner.computed_points": "planner.first_computed_points",
    "batch.time_s": "batch.first_time_s",
    "batch.calls": "batch.first_calls",
    "store.append_s": "store.first_append_s",
    "store.append_calls": "store.first_append_calls",
    "simgpu.run_matmul_s": "simgpu.first_run_matmul_s",
    "simgpu.kernel_cache_hit_ratio": "simgpu.first_kernel_cache_hit_ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list) -> dict[int, list]:
    """Rows ``(name, wall_ns, self_ns, size)`` of each traced pass.

    A span's self time is its duration minus what its child spans
    cover.  Self times of a pass's spans, its root included, add up to
    the pass wall time; the root's self time is what no hook covers.
    """
    child_ns = [0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    rows: dict[int, list] = {}
    for i, (name, t0, t1, _, pass_idx, size) in enumerate(spans):
        rows.setdefault(pass_idx, []).append(
            (name, t1 - t0, t1 - t0 - child_ns[i], size)
        )
    return rows


def pass_layers(rows: list, extra: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass (every time is self time)."""
    m = {f"{name}_s": 0.0 for name in SPANS}
    m.update(dict.fromkeys(CALLS.values(), 0))
    m["sweep.requests"] = m["batch.points"] = 0
    wall = unattributed = 0
    for name, wall_ns, self_ns, size in rows:
        if name == "pass":
            wall, unattributed = wall_ns, self_ns
            continue
        m[f"{name}_s"] += seconds_of(self_ns)
        if name in CALLS:
            m[CALLS[name]] += 1
        if name == "sweep.collect":
            m["sweep.requests"] += size
        elif name == "batch.time":
            m["batch.points"] += size
    m["batch.points_per_s"] = _ratio(m["batch.points"], m["batch.time_s"])
    stats = extra.get("planner", {})
    requested = stats.get("requested", 0)
    unique = stats.get("unique_points", 0)
    m["planner.requested_points"] = requested
    m["planner.computed_points"] = stats.get("computed", 0)
    m["planner.dedup_ratio"] = _ratio(requested, unique)
    m["planner.store_hit_ratio"] = _ratio(stats.get("store_hits", 0), unique)
    hits, misses = extra.get("kernel_hits", 0), extra.get("kernel_misses", 0)
    m["simgpu.kernel_cache_hit_ratio"] = _ratio(hits, hits + misses)
    m["store.shards"] = extra.get("store_shards", 0)
    m["store.bytes"] = extra.get("store_bytes", 0)
    m["store.fallbacks"] = extra.get("fallbacks", 0)
    m["trace.coverage"] = _ratio(wall - unattributed, wall)
    m["trace.unattributed_s"] = seconds_of(unattributed)
    return m


#: Units of the per-layer metrics, by name suffix.
UNITS = (
    ("points_per_s", "1/s"), ("_ratio", "ratio"), ("_s", "s"),
    ("_ns", "ns"), ("bytes", "bytes"), ("coverage", "ratio"),
    ("overhead", "ratio"),
)


def unit_of(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def traced_run(child: Child, seconds: int, tally: Tally) -> dict:
    """One ``-X importtime`` process, then one process with the hooks
    that runs until ``seconds`` after the start are used."""
    deadline_ns = time.monotonic_ns() + seconds * 10**9
    result, stderr = child.spawn({"passes": 1}, ("-X", "importtime"))
    tally.add(result, stderr, 1)
    metrics = import_times(stderr)
    spans_file = child.run_tmp / "spans.jsonl"
    result, stderr = child.spawn({
        "trace": True, "deadline_ns": deadline_ns, "min_pairs": MIN_PAIRS,
        "spans": str(spans_file),
    })
    tally.add(result, stderr, 1 + 2 * MIN_PAIRS)
    if result is None:
        raise SystemExit("perfbench: the traced process failed")
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    rows = self_times(spans)
    traced = [p for p in result["passes"] if p["traced"]]
    per_pass = [pass_layers(rows.get(i, []), p) for i, p in enumerate(traced)]
    first, warm = per_pass[0], per_pass[1:]
    for name in first:
        metrics[name] = (statistics.median(m[name] for m in warm),
                         unit_of(name))
    for name, twin in FIRST_PASS.items():
        metrics[twin] = (first[name], unit_of(twin))
    # Each traced warm pass is paired with the untraced pass next to it,
    # so one pair shares the host's speed phase.
    warm_passes = result["passes"][1:]
    ratios = [
        (a["wall_ns"] / b["wall_ns"]) if a["traced"] else
        (b["wall_ns"] / a["wall_ns"])
        for a, b in zip(warm_passes[::2], warm_passes[1::2])
    ]
    metrics["trace.overhead"] = (statistics.median(ratios), "ratio")
    metrics["trace.wrapper_ns"] = (result["wrapper_ns"], "ns")
    metrics["trace.absent_hooks"] = (len(result["absent"]), "count")
    for hook in result["absent"]:
        sys.stderr.write(f"perfbench: hook target absent: {hook}\n")
    metrics["devices.registry_s"] = (seconds_of(result["registry_ns"]), "s")
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for the interface; inputs are fixed")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no repro sources under {ROOT / 'src'}\n")
        return 2
    CACHE.mkdir(exist_ok=True)
    run_tmp = Path(tempfile.mkdtemp(prefix="run-", dir=CACHE))
    try:
        child = Child(args.workload, run_tmp)
        tally = Tally()
        # Untimed: fills the bytecode cache, lazily imported modules too.
        result, stderr = child.spawn({"passes": 1})
        tally.add(result, stderr, 1)
        if args.trace:
            metrics = traced_run(child, args.seconds, tally)
        else:
            metrics = end_to_end(child, args.seconds, tally)
    finally:
        shutil.rmtree(run_tmp, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
