"""Import-path guard: the CLI's common commands never load SciPy.

Importing SciPy would cost most of a command's start-up, and neither
``repro all`` nor ``repro report`` calls it; only the sentinel's
Mann-Whitney test does.  Nor does building the parser load a process
pool: every sweep is evaluated in-process.  Set-up does load the
planner and NumPy, which ``repro.cli`` imports so that a sweep
command's first pass does not pay for them.
``repro all``, with or without a store, loads neither ``numpy.ma``
(``np.unique`` and ``np.union1d`` import it, about 12 ms) nor a thread
pool (shards are read one after another).  A command imports only what
it runs: building the parser loads no experiment module and nothing of
the CPU side (``repro.simcpu``, ``repro.measurement``,
``repro.energymodel``) or of the store, and ``repro all`` loads the six
session experiments and still nothing of the CPU side.  ``repro
report`` fills its session with the scalar model, so it loads neither
the batch model nor the store.  A cold ``repro all`` or ``repro
report`` loads no ``statistics`` (nor the ``fractions`` and ``decimal``
it imports), and the dataclasses their modules define are exactly the
listed ones, each kept for a stated reason.  Set-up and a cold ``repro
all`` load no ``hashlib``, no repro module imports ``platform`` at
set-up, and ``python -X importtime`` logs every module the lazy
loaders import.  The guard
starts a fresh interpreter and checks which modules are loaded, so
unlike a timing gate it cannot flake on a slow host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS
from repro.sweep.planner import SESSION_EXPERIMENTS

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs in the child: records the scipy modules loaded after each stage,
#: the pool modules, NumPy and the planner loaded once the parser is
#: built, and the masked-array
#: and thread-pool modules loaded by ``repro all`` (``all:unneeded``),
#: then by two more runs, cold and warm, on a store
#: (``all --store-dir:unneeded``).  ``:experiments`` and ``:cpu-side``
#: record the experiment modules and the CPU-side and store modules
#: loaded once the parser is built and after the first ``repro all``.
CHILD = """
import contextlib, io, json, os, sys

def scipy_modules():
    return under("scipy")

def under(*packages):
    prefixes = tuple(p + "." for p in packages)
    return sorted(
        m for m in sys.modules if m in packages or m.startswith(prefixes)
    )

def loaded(*names):
    return sorted(m for m in names if m in sys.modules)

UNNEEDED = ("numpy.ma", "concurrent.futures.thread")
CPU_SIDE = ("repro.simcpu", "repro.measurement", "repro.energymodel")
stages = {}
import repro.cli
repro.cli.build_parser()
stages["import"] = scipy_modules()
stages["pool"] = loaded("multiprocessing", "concurrent.futures.process")
stages["import:planner"] = loaded("numpy", "repro.sweep.planner")
stages["import:experiments"] = under("repro.experiments")
stages["import:cpu-side"] = under(*CPU_SIDE, "repro.store")
import repro.obs.sentinel
stages["sentinel"] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    repro.cli.main(["all"])
stages["all"] = scipy_modules()
stages["all:unneeded"] = loaded(*UNNEEDED)
stages["all:experiments"] = under("repro.experiments")
stages["all:cpu-side"] = under(*CPU_SIDE)
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


def _child_env() -> dict[str, str]:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("REPRO_STORE_DIR", "REPRO_DEVICE_DIR")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


#: Runs in a second child: ``repro report`` first thing in a fresh
#: interpreter, then the batch-model and store modules it loaded.
REPORT_CHILD = """
import contextlib, io, json, sys
import repro.cli
with contextlib.redirect_stdout(io.StringIO()):
    repro.cli.main(["report", "--extras", "--output", sys.argv[1]])
print(json.dumps(sorted(
    m for m in sys.modules
    if m in ("repro.simgpu.batch", "repro.store")
    or m.startswith("repro.store.")
)))
"""


#: Runs in a third child, once per command: set-up, then the command
#: cold, then whether ``hashlib`` was loaded after each, the
#: ``statistics`` modules and the dataclasses of the ``repro`` modules
#: that are loaded.  A child of its own, because the first one imports
#: the sentinel, which needs ``statistics``.
COLD_CHILD = """
import contextlib, dataclasses, inspect, io, json, sys
import repro.cli
repro.cli.build_parser()
hashlib = {"setup": "hashlib" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()):
    repro.cli.main(sys.argv[1:])
hashlib["command"] = "hashlib" in sys.modules
print(json.dumps({
    "hashlib": hashlib,
    "statistics": sorted(
        m for m in ("statistics", "fractions", "decimal") if m in sys.modules
    ),
    "dataclasses": sorted(
        cls.__name__
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == name
        and dataclasses.is_dataclass(cls)
    ),
}))
"""

#: Every dataclass that set-up, a cold ``repro all`` or a cold ``repro
#: report`` defines, and why it is not a ``typing.NamedTuple``: a frozen
#: dataclass takes about 1 ms to create, a named tuple about 0.2 ms
#: (docs/MODEL.md §1.9).
DATACLASSES = {
    "GPUSpec": "hashed as a cache key, replaced, parsed with "
    "dataclasses.fields, digested with asdict",
    "GPUCalibration": "hashed as a cache key, replaced, parsed with "
    "dataclasses.fields, digested with asdict",
    "CPUSpec": "hashed as a cache key, parsed with dataclasses.fields, "
    "digested with asdict",
    "CacheSpec": "part of CPUSpec: hashed, parsed with dataclasses.fields, "
    "digested with asdict",
    "CPUCalibration": "replaced by the ablation's no-imbalance run",
    "ParetoPoint": "validated in __post_init__",
    "DGEMMConfig": "validated in __post_init__",
    "ApplicationProfile": "validated in __post_init__",
    "ConfigurationSpace": "mutable, with a cached_property",
    "Placement": "cached_property counts",
    "PlannerStats": "mutable session counters",
    "HistogramSummary": "mutable running summary",
    "SpanRecord": "its attrs dict is built by default_factory",
    "WeakEPStudy": "its ndarray field is compare=False; a tuple compares it",
    "Fig2Result": "its ndarray field is compare=False; a tuple compares it",
    "BatchRunResult": "array fields and its own __len__",
    "MatmulConfig": "the planner and the request digest read its fields "
    "for every enumerated point; a tuple would equal its plain key",
    "SweepRequest": "cal is compare=False; a tuple would compare it",
    "KernelResources": "read ~13 times per run_matmul call; a named-tuple "
    "field read costs about twice an attribute read",
    "Occupancy": "read ~13 times per run_matmul call; a named-tuple "
    "field read costs about twice an attribute read",
    "TrafficModel": "read ~13 times per run_matmul call; a named-tuple "
    "field read costs about twice an attribute read",
}


@pytest.fixture(scope="module")
def cold_runs(tmp_path_factory) -> dict[str, dict[str, list[str]]]:
    out = tmp_path_factory.mktemp("cold-runs")
    runs = {}
    for argv in (["all"], ["report", "--output", str(out / "report.md")]):
        proc = subprocess.run(
            [sys.executable, "-c", COLD_CHILD, *argv],
            env=_child_env(), capture_output=True, text=True, check=True,
        )
        runs[argv[0]] = json.loads(proc.stdout)
    return runs


@pytest.mark.parametrize("command", ["all", "report"])
def test_cold_command_loads_no_statistics_module(cold_runs, command):
    """``statistics`` pulls in ``fractions`` and ``decimal``: 5-6 ms of
    a cold command, for nothing either command needs."""
    assert cold_runs[command]["statistics"] == []


def test_setup_and_cold_all_load_no_hashlib(cold_runs):
    """Only the store's shard digest, the provenance manifest and the
    CPU model's contention jitter hash; set-up and a store-less ``repro
    all`` need none of them (``hashlib`` with OpenSSL: about 4 ms)."""
    assert cold_runs["all"]["hashlib"] == {"setup": False, "command": False}
    assert cold_runs["report"]["hashlib"] == {"setup": False, "command": True}


def test_setup_imports_no_platform_itself():
    """Only the provenance manifest reads ``platform`` (about 2 ms to
    import), so no repro module imports it at set-up.  NumPy 2
    imports it itself (``numpy.lib._utils_impl``), so set-up may still
    load it, but only through NumPy: in ``-X importtime``'s tree, the
    module that imports ``platform`` is never a repro module."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import repro.cli; repro.cli.build_parser()"],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    # Each entry is a module name indented by its depth in the tree; a
    # module's importer is the next entry indented less.
    tree = [
        line.rsplit("|", 1)[-1]
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]

    def depth(entry: str) -> int:
        return len(entry) - len(entry.lstrip())

    importers = [
        next((e.strip() for e in tree[i + 1:] if depth(e) < depth(entry)), "")
        for i, entry in enumerate(tree)
        if entry.strip() == "platform"
    ]
    assert not [m for m in importers if m.split(".")[0] == "repro"]


def test_cold_commands_define_only_the_allowlisted_dataclasses(cold_runs):
    defined = set(cold_runs["all"]["dataclasses"])
    defined |= set(cold_runs["report"]["dataclasses"])
    assert sorted(defined) == sorted(DATACLASSES)


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory) -> dict[str, list[str]]:
    out = tmp_path_factory.mktemp("cli-imports")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(out)],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("stage", ["import", "sentinel", "all", "report"])
def test_no_scipy_module_loaded(loaded_modules, stage):
    assert loaded_modules[stage] == []


def test_mann_whitney_u_loads_scipy(loaded_modules):
    assert "scipy.stats" in loaded_modules["mann_whitney_u"]


def test_parser_loads_no_process_pool(loaded_modules):
    assert loaded_modules["pool"] == []


def test_setup_loads_the_planner_and_numpy(loaded_modules):
    """``repro.cli`` imports the planner itself: with nothing else at
    set-up loading it, NumPy and the GPU model would move into every
    sweep command's first pass."""
    assert loaded_modules["import:planner"] == ["numpy", "repro.sweep.planner"]


@pytest.mark.parametrize("stage", ["all", "all --store-dir"])
def test_all_loads_no_masked_arrays_or_thread_pool(loaded_modules, stage):
    assert loaded_modules[f"{stage}:unneeded"] == []


def test_parser_loads_no_experiment_and_no_cpu_side(loaded_modules):
    assert loaded_modules["import:experiments"] == ["repro.experiments"]
    assert loaded_modules["import:cpu-side"] == []


def test_all_loads_the_session_experiments_and_no_cpu_side(loaded_modules):
    session = sorted(
        f"repro.experiments.{EXPERIMENTS[exp_id].module}"
        for exp_id in SESSION_EXPERIMENTS
    )
    assert loaded_modules["all:experiments"] == ["repro.experiments", *session]
    assert loaded_modules["all:cpu-side"] == []


def test_report_loads_no_batch_model_and_no_store(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", REPORT_CHILD, str(tmp_path / "report.md")],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout) == []


def test_experiment_import_is_timed_under_its_command(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "experiment", "fig7",
         "--telemetry", f"jsonl:{path}"],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    spans = [
        event
        for event in map(json.loads, path.read_text().splitlines())
        if event["event"] == "span"
    ]
    (command,) = [s for s in spans if s["name"] == "cli.experiment"]
    imports = [
        (s["parent"], s["attrs"])
        for s in spans
        if s["name"] == "experiments.import"
    ]
    assert imports == [(command["id"], {"module": "fig7_k40c_pareto"})]
    assert main(["experiment", "fig7"]) == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize(
    "code,module",
    [
        ("from repro.experiments import EXPERIMENTS\n"
         "EXPERIMENTS['fig7'].load()",
         "repro.experiments.fig7_k40c_pareto"),
        ("import repro.experiments\nrepro.experiments.fig3_decomposition",
         "repro.experiments.fig3_decomposition"),
        ("import repro.simcpu\nrepro.simcpu.MulticoreCPU",
         "repro.simcpu.processor"),
    ],
    ids=["Experiment.load", "experiments.__getattr__", "_lazy_exports"],
)
def test_lazy_imports_are_logged_by_importtime(code, module):
    """``python -X importtime`` logs imports made by ``__import__`` and
    not those by ``importlib.import_module``, so each lazy loader must
    use the former for its module to appear in the import tree."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    logged = [
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert module in logged
