"""Import-path guard: the CLI's common commands never load SciPy.

Importing SciPy would cost most of a command's start-up, and neither
``repro all`` nor ``repro report`` calls it; only the sentinel's
Mann-Whitney test does.  Nor does building the parser load a process
pool: every sweep is evaluated in-process.
``repro all``, with or without a store, loads neither ``numpy.ma``
(``np.unique`` and ``np.union1d`` import it, about 12 ms) nor a thread
pool (shards are read one after another).  The guard starts a fresh
interpreter and checks which modules are loaded, so unlike a timing
gate it cannot flake on a slow host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs in the child: records the scipy modules loaded after each stage,
#: the pool modules loaded once the parser is built, and the masked-array
#: and thread-pool modules loaded by ``repro all`` (``all:unneeded``),
#: then by two more runs, cold and warm, on a store
#: (``all --store-dir:unneeded``).
CHILD = """
import contextlib, io, json, os, sys

def scipy_modules():
    return sorted(
        m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
    )

def loaded(*names):
    return sorted(m for m in names if m in sys.modules)

UNNEEDED = ("numpy.ma", "concurrent.futures.thread")
stages = {}
import repro.cli
repro.cli.build_parser()
stages["import"] = scipy_modules()
stages["pool"] = loaded("multiprocessing", "concurrent.futures.process")
import repro.obs.sentinel
stages["sentinel"] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    repro.cli.main(["all"])
stages["all"] = scipy_modules()
stages["all:unneeded"] = loaded(*UNNEEDED)
store = os.path.join(sys.argv[1], "store")
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        repro.cli.main(["all", "--store-dir", store])
stages["all --store-dir:unneeded"] = loaded(*UNNEEDED)
report = os.path.join(sys.argv[1], "report.md")
with contextlib.redirect_stdout(io.StringIO()):
    repro.cli.main(["report", "--output", report])
stages["report"] = scipy_modules()
repro.obs.sentinel.mann_whitney_u([1.0, 2.0], [3.0, 4.0])
stages["mann_whitney_u"] = scipy_modules()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory) -> dict[str, list[str]]:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("REPRO_STORE_DIR", "REPRO_DEVICE_DIR")
    }
    env["PYTHONPATH"] = str(SRC)
    out = tmp_path_factory.mktemp("cli-imports")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("stage", ["import", "sentinel", "all", "report"])
def test_no_scipy_module_loaded(loaded_modules, stage):
    assert loaded_modules[stage] == []


def test_mann_whitney_u_loads_scipy(loaded_modules):
    assert "scipy.stats" in loaded_modules["mann_whitney_u"]


def test_parser_loads_no_process_pool(loaded_modules):
    assert loaded_modules["pool"] == []


@pytest.mark.parametrize("stage", ["all", "all --store-dir"])
def test_all_loads_no_masked_arrays_or_thread_pool(loaded_modules, stage):
    assert loaded_modules[f"{stage}:unneeded"] == []
