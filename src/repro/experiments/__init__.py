"""One module per paper figure/table (see DESIGN.md §4 for the index).

Each module exposes ``run(...) -> Result`` where the result renders
itself as the rows/series the paper reports via ``.render()``; the
sweep-driven experiments additionally expose ``requests()`` — the
:class:`repro.sweep.plan.SweepRequest` list they will make — so the
cross-experiment planner (:mod:`repro.sweep.planner`) can collect and
deduplicate a whole session up front.

:data:`EXPERIMENTS` is the one list of experiments.  The CLI's
``experiment`` ids, ``repro all``'s session
(:data:`repro.sweep.planner.SESSION_EXPERIMENTS`), the provenance
requests of ``repro experiment`` and the sections of ``repro report``
all read it, in its order, which is the report's.  ``repro experiment
ID`` heads the render with the id's paper-vs-measured table, where
:mod:`repro.experiments.claims` has one; ``repro all`` and ``repro
report`` print the render alone.

Submodules load lazily (PEP 562), and this package imports none of
them: ``from repro.experiments import headline`` or
``EXPERIMENTS["headline"].load()`` imports only that module and its
dependencies.  This keeps CLI startup proportional to what a command
runs.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import NamedTuple


class Experiment(NamedTuple):
    """One entry of the experiment table.

    The entry names its module and function, never the function
    object itself: each call looks the function up on the module, so a
    wrapper put on ``run`` after import (a profiler's hook) sees every
    call.
    """

    #: CLI id (``repro experiment ID``).
    id: str
    #: Module under ``repro.experiments``.
    module: str
    #: Section title in ``repro report``; None when not reported.
    title: str | None = None
    #: ``"core"``, ``"extras"`` (``repro report --extras``) or None.
    section: str | None = None
    #: Sweep-driven: the module has ``requests()`` and ``run`` takes
    #: ``engine=``; ``repro all`` runs these as one planner session.
    sweep: bool = False
    #: The module function that returns the result.
    function: str = "run"
    #: Machine names the function runs on, one call each, rendered in
    #: this order under a ``NAME:`` line; empty for one call with no
    #: device argument.
    devices: tuple[str, ...] = ()
    #: The report keeps the render up to this marker only.
    report_cut: str | None = None

    def load(self) -> ModuleType:
        """The experiment's module, imported on first use.

        The import itself — the module and whatever it pulls in that
        is not loaded yet — is timed as an ``experiments.import`` span;
        later calls return the loaded module and record nothing.  It
        goes through ``__import__``, which ``python -X importtime``
        logs (``importlib.import_module`` bypasses that log).
        """
        name = f"{__name__}.{self.module}"
        module = sys.modules.get(name)
        if module is None:
            from repro import obs

            with obs.span("experiments.import", module=self.module):
                __import__(name)
            module = sys.modules[name]
        return module

    def results(self, engine=None) -> tuple:
        """Run the experiment: one result per name in ``devices``, in
        that order, or a single result when ``devices`` is empty.

        ``engine`` (an :class:`~repro.sweep.planner.EvalPlanner`) is
        passed to sweep-driven experiments only; None runs them on the
        scalar model of record.
        """
        fn = getattr(self.load(), self.function)
        kwargs = {"engine": engine} if self.sweep else {}
        if not self.devices:
            return (fn(**kwargs),)
        from repro.machines import get_machine

        return tuple(
            fn(get_machine(name), **kwargs) for name in self.devices
        )

    def render_results(self, results: tuple) -> str:
        """Render what :meth:`results` returned."""
        if not self.devices:
            return results[0].render()
        return "\n\n".join(
            f"{name}:\n" + result.render()
            for name, result in zip(self.devices, results)
        )

    def render(self, engine=None) -> str:
        """Run the experiment and render its results."""
        return self.render_results(self.results(engine))


#: Every experiment by id, in report order: the core sections, then
#: the extras, then the experiments the report leaves out.
EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in (
        Experiment("table1", "table1_specs",
                   "Table I — platform specifications", "core"),
        Experiment("fig1", "fig1_strong_ep",
                   "Fig. 1 — strong EP (2D FFT)", "core",
                   report_cut="# series"),
        Experiment("fig2", "fig2_p100_n18432",
                   "Fig. 2 — P100 EP plots, N=18432", "core", sweep=True),
        Experiment("fig3", "fig3_decomposition",
                   "Fig. 3 — DGEMM decomposition", "core"),
        Experiment("fig4", "fig4_cpu_utilization",
                   "Fig. 4 — CPU power/perf vs utilization", "core"),
        Experiment("fig5", "fig5_source",
                   "Fig. 5 — CUDA instrument", "core",
                   report_cut="source head:"),
        Experiment("fig6", "fig6_additivity",
                   "Fig. 6 — energy non-additivity vs G", "core",
                   devices=("P100", "K40c")),
        Experiment("fig7", "fig7_k40c_pareto",
                   "Fig. 7 — K40c Pareto structure", "core", sweep=True),
        Experiment("fig8", "fig8_p100_pareto",
                   "Fig. 8 — P100 Pareto structure", "core", sweep=True),
        Experiment("headline", "headline",
                   "Headline statistics", "core", sweep=True),
        Experiment("ablation", "ablation",
                   "Ablations (design-choice load-bearing checks)", "extras"),
        Experiment("sensitivity", "sensitivity",
                   "Calibration sensitivity (±20%)", "extras", sweep=True),
        Experiment("ep-metrics", "ep_metrics_study",
                   "EP-metric battery", "extras"),
        Experiment("methods", "measurement_methods",
                   "Measurement-method comparison ([13])", "extras"),
        Experiment("budgeted-search", "budgeted_search",
                   "Budgeted front search", "extras", sweep=True),
        Experiment("dvfs", "dvfs_comparison",
                   "DVFS vs application-level knobs (CPU)", "extras"),
        Experiment("dvfs-gpu", "dvfs_comparison",
                   "DVFS vs application-level knobs (P100)", "extras",
                   function="run_gpu"),
        Experiment("energy-model", "gpu_energy_model"),
        Experiment("theory", "section3_theory"),
    )
}

#: Every submodule, in table order.
_MODULES = tuple(dict.fromkeys(e.module for e in EXPERIMENTS.values()))

__all__ = ["EXPERIMENTS", "Experiment", *_MODULES]


def __getattr__(name: str):
    if name in _MODULES:
        # ``__import__``, not ``importlib.import_module``: see
        # ``Experiment.load``.
        __import__(f"{__name__}.{name}")
        module = globals()[name] = sys.modules[f"{__name__}.{name}"]
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
