"""Smoke tests of the benchmark itself, on one-second runs.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``
(about a minute; not part of the repository's ``tests/`` suite).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    return {
        (w, t): result_of(bench(w, t)) for w in WORKLOADS for t in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(results, workload, trace, section):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_predicted_layer_counts(results):
    mem = {k: v["value"] for k, v in results["all-mem", 1]["metrics"].items()}
    store = {k: v["value"] for k, v in results["all-store", 1]["metrics"].items()}
    report = {k: v["value"] for k, v in results["report", 1]["metrics"].items()}
    store_calls = ("store.contains_calls", "store.lookup_calls",
                   "store.append_calls", "store.first_append_calls")
    assert report["batch.calls"] == 0 and report["batch.first_calls"] == 0
    assert store["batch.calls"] == 0  # warm passes are store hits
    assert store["batch.first_calls"] > 0  # the first pass fills the store
    assert mem["simgpu.run_matmul_calls"] == 0
    assert store["simgpu.run_matmul_calls"] == 0
    assert report["simgpu.run_matmul_calls"] > 0
    for name in store_calls:
        assert mem[name] == 0 and report[name] == 0
    assert store["store.lookup_calls"] > 0
    assert mem["planner.computed_points"] == 6150
    assert store["planner.computed_points"] == 0
    assert store["planner.store_hit_ratio"] == 1.0
    for values in (mem, store, report):
        assert values["trace.absent_hooks"] == 0
        assert values["store.fallbacks"] == 0


def _checkout_copy(tmp_path: Path) -> Path:
    """A checkout with this benchmark and a link to the real sources."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def test_corrupted_reference_counts_failed_passes(tmp_path):
    root = _checkout_copy(tmp_path)
    (root / "src").symlink_to(ROOT / "src")
    reference = root / "perfbench" / "reference" / "all.txt"
    reference.write_text(reference.read_text() + "corrupted\n")
    result = result_of(bench("all-mem", 0, root))
    assert result["correct"] is False
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = _checkout_copy(tmp_path)
    proc = bench("all-mem", 0, root)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (root / ".perfbench_cache").exists()
