"""Layer hooks of the traced benchmark run.

Timing wrappers go around public calls of each layer, from this file;
nothing in ``src/`` changes.  Each hooked call records a span
``(name, start_ns, end_ns, parent, pass, size)`` in memory; the spans
are written out as JSON lines when the run ends and ``run.py`` turns
them into self times.  A hook whose module or attribute no longer
exists is reported as absent and the run goes on without it, so the
benchmark keeps working as layers are deleted.  Only the main thread
records (the store's shard-open thread pool calls no hooked function
today), and only while a pass is open.
"""

import functools
import json
import statistics
import threading
import time
import warnings
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

#: Experiment id -> module under ``repro.experiments``, for every
#: experiment that ``repro all`` or ``repro report`` runs.
EXPERIMENTS = {
    "table1": "table1_specs",
    "fig1": "fig1_strong_ep",
    "fig2": "fig2_p100_n18432",
    "fig3": "fig3_decomposition",
    "fig4": "fig4_cpu_utilization",
    "fig5": "fig5_source",
    "fig6": "fig6_additivity",
    "fig7": "fig7_k40c_pareto",
    "fig8": "fig8_p100_pareto",
    "headline": "headline",
    "sensitivity": "sensitivity",
    "budgeted-search": "budgeted_search",
}


def _points(result) -> int:
    return len(result.time_s)


def _size(size, result) -> int:
    """Work done by one call; 0 when the result no longer has that shape."""
    try:
        return size(result)
    except (AttributeError, TypeError):
        return 0


#: (module, attribute path, span name, size of the call's work).
#: ``greedy_front_search`` is hooked where ``budgeted_search`` bound it
#: at import time.  The render method of each experiment's result class
#: is hooked when a hooked ``run`` first returns one (``analysis.render``).
HOOKS = [
    ("repro.sweep.planner", "collect_session_requests", "sweep.collect", len),
    ("repro.sweep.planner", "EvalPlanner.add_all", "planner.add", None),
    ("repro.sweep.planner", "EvalPlanner.execute", "planner.execute", None),
    ("repro.sweep.planner", "EvalPlanner.table", "planner.serve", None),
    ("repro.simgpu.batch", "batch_run_matmul", "batch.time", _points),
    ("repro.store.columnar", "ColumnarStore.open_shards", "store.open", None),
    ("repro.store.columnar", "ColumnarStore.contains", "store.contains", None),
    ("repro.store.columnar", "ColumnarStore.lookup", "store.lookup", None),
    ("repro.store.columnar", "ColumnarStore.append", "store.append", None),
    ("repro.experiments.budgeted_search", "greedy_front_search",
     "core.greedy_search", None),
    ("repro.simgpu.device", "GPUDevice.run_matmul", "simgpu.run_matmul", None),
    ("repro.simcpu.processor", "MulticoreCPU.run_dgemm", "simcpu.run_dgemm",
     None),
    ("repro.analysis.summary", "generate_report", "analysis.report", None),
] + [
    (f"repro.experiments.{module}", "run", f"experiments.{eid}", None)
    for eid, module in EXPERIMENTS.items()
]

#: Span of the render methods hooked on first sight.
RENDER = "analysis.render"
#: The hooked span whose return value (``PlannerStats``) a pass keeps.
PLANNER_STATS = "planner.execute"


def _resolve(module: str, path: str):
    """(owner, attribute, original) of a hook target, or None if absent."""
    try:
        owner = import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Recorder:
    """Installs the hooks and keeps the spans of every traced pass."""

    def __init__(self, hooks=HOOKS) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._pass: int | None = None
        self._passes = 0
        self._planner_stats = None
        self._main = threading.main_thread().ident
        self._targets: list[tuple] = []  # (owner, attr, original, hooked)
        self._render_classes: set[type] = set()
        self.absent: list[str] = []
        for module, path, name, size in hooks:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, original = found
            is_run = name.startswith("experiments.")
            hooked = self.wrap(original, name, size, is_run)
            self._targets.append((owner, attr, original, hooked))

    def install(self) -> list[str]:
        """Put every hook in place; returns the absent targets."""
        for owner, attr, _, hooked in self._targets:
            setattr(owner, attr, hooked)
        return self.absent

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)

    def _hook_render(self, result) -> None:
        cls = type(result)
        render = getattr(cls, "render", None)
        if render is None or cls in self._render_classes:
            return
        self._render_classes.add(cls)
        hooked = self.wrap(render, RENDER, None, False)
        self._targets.append((cls, "render", render, hooked))
        setattr(cls, "render", hooked)

    def wrap(self, fn, name: str, size, is_run: bool):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        get_ident = threading.get_ident
        rec = self

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            pass_idx = rec._pass
            if pass_idx is None or get_ident() != rec._main:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, pass_idx, 0)
            if size is not None:
                spans[idx] = (name, t0, t1, parent, pass_idx,
                              _size(size, result))
            if is_run:
                rec._hook_render(result)
            elif name == PLANNER_STATS:
                rec._planner_stats = result
            return result

        return hooked

    @contextmanager
    def pass_scope(self):
        """Trace one pass under a root span; yields the pass's extras.

        The extras are filled on exit: kernel memo-cache hits and
        misses, ``StoreIntegrityWarning`` count and planner stats.
        """
        extra: dict = {}
        self._pass = idx = self._passes
        self._passes += 1
        self._planner_stats = None
        root = len(self.spans)
        self.spans.append(None)
        self._stack.append(root)
        cache0 = _kernel_cache()
        t0 = time.perf_counter_ns()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield extra
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._pass = None
            self.spans[root] = ("pass", t0, t1, -1, idx, 0)
        cache1 = _kernel_cache()
        if cache0 is not None and cache1 is not None:
            extra["kernel_hits"] = cache1[0] - cache0[0]
            extra["kernel_misses"] = cache1[1] - cache0[1]
        extra["fallbacks"] = sum(
            w.category.__name__ == "StoreIntegrityWarning" for w in caught
        )
        stats = self._planner_stats
        if stats is not None:
            extra["planner"] = {
                field: getattr(stats, field, 0)
                for field in ("requested", "unique_points", "store_hits",
                              "computed")
            }
        self._planner_stats = None

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _kernel_cache():
    """(hits, misses) of the scalar model's kernel-resource memo cache."""
    try:
        info = import_module("repro.simgpu.kernel").matmul_kernel_resources
        stats = info.cache_info()
    except (ImportError, AttributeError):
        return None
    return stats.hits, stats.misses


def registry_load_ns(repeats: int = 5) -> int:
    """Median time of a device-registry reload (bundled + user dirs)."""
    try:
        registry = import_module("repro.devices.registry")
        refresh = registry.refresh_default_registry
        load = registry.default_registry
    except (ImportError, AttributeError):
        return 0
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        refresh()
        load()
        samples.append(time.perf_counter_ns() - t0)
    return int(statistics.median(samples))


def wrapper_cost_ns(calls: int = 20000, repeats: int = 5) -> float:
    """Added cost of one recorded hook call, from a no-op function."""
    rec = Recorder(hooks=())
    rec._pass = 0

    def noop():
        return None

    hooked = rec.wrap(noop, "noop", None, False)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            hooked()
        t2 = time.perf_counter_ns()
        rec.spans.clear()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(samples)


def dir_stats(root: str) -> dict:
    """Shard data files (every non-JSON file) and total bytes of a store."""
    files = [p for p in Path(root).rglob("*") if p.is_file()]
    return {
        "store_shards": sum(p.suffix != ".json" for p in files),
        "store_bytes": sum(p.stat().st_size for p in files),
    }
