"""The experiment table is the one list of experiments.

Every consumer — the CLI's ``experiment`` ids, ``repro all``'s session,
the report's sections — reads :data:`repro.experiments.EXPERIMENTS`,
and the package inits resolve their exports lazily without changing
what they export.
"""

from __future__ import annotations

import argparse
import importlib
import inspect

import pytest

from repro.analysis.summary import generate_report
from repro.cli import build_parser
from repro.experiments import EXPERIMENTS, Experiment
from repro.sweep.planner import SESSION_EXPERIMENTS

LAZY_PACKAGES = (
    "repro.analysis",
    "repro.simgpu",
    "repro.apps",
    "repro.core",
    "repro.measurement",
    "repro.simcpu",
    "repro.energymodel",
)


def _experiment_choices() -> tuple[str, ...]:
    sub = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    (id_arg,) = [
        action
        for action in sub.choices["experiment"]._actions
        if action.dest == "id"
    ]
    return tuple(id_arg.choices)


def test_experiment_choices_are_the_table_ids():
    assert _experiment_choices() == tuple(EXPERIMENTS)


def test_session_experiments():
    assert SESSION_EXPERIMENTS == (
        "fig2", "fig7", "fig8", "headline", "sensitivity", "budgeted-search",
    )


def test_report_sections_follow_the_table(monkeypatch):
    # Each section's body is its experiment's id, so the test checks
    # which experiment fills each title without running any of them.
    monkeypatch.setattr(
        Experiment, "render", lambda self, engine=None: self.id
    )
    lines = generate_report(include_extras=True).splitlines()
    sections = [
        (line[3:], lines[i + 3])
        for i, line in enumerate(lines)
        if line.startswith("## ")
    ]
    assert sections == [
        ("Table I — platform specifications", "table1"),
        ("Fig. 1 — strong EP (2D FFT)", "fig1"),
        ("Fig. 2 — P100 EP plots, N=18432", "fig2"),
        ("Fig. 3 — DGEMM decomposition", "fig3"),
        ("Fig. 4 — CPU power/perf vs utilization", "fig4"),
        ("Fig. 5 — CUDA instrument", "fig5"),
        ("Fig. 6 — energy non-additivity vs G", "fig6"),
        ("Fig. 7 — K40c Pareto structure", "fig7"),
        ("Fig. 8 — P100 Pareto structure", "fig8"),
        ("Headline statistics", "headline"),
        ("Ablations (design-choice load-bearing checks)", "ablation"),
        ("Calibration sensitivity (±20%)", "sensitivity"),
        ("EP-metric battery", "ep-metrics"),
        ("Measurement-method comparison ([13])", "methods"),
        ("Budgeted front search", "budgeted-search"),
        ("DVFS vs application-level knobs (CPU)", "dvfs"),
        ("DVFS vs application-level knobs (P100)", "dvfs-gpu"),
    ]
    core = generate_report(include_extras=False)
    assert core.count("\n## ") == 10
    assert "## Headline statistics" in core


@pytest.mark.parametrize("exp_id", EXPERIMENTS)
def test_table_entry_names_its_function(exp_id):
    exp = EXPERIMENTS[exp_id]
    module = exp.load()
    fn = getattr(module, exp.function)
    assert callable(fn)
    assert callable(getattr(module, "requests", None)) == exp.sweep
    assert ("engine" in inspect.signature(fn).parameters) == exp.sweep


def test_package_exports_the_table_and_every_module():
    import repro.experiments as experiments

    assert set(experiments.__all__) == {
        "EXPERIMENTS", "Experiment",
        "ablation", "budgeted_search", "dvfs_comparison", "ep_metrics_study",
        "measurement_methods", "sensitivity", "table1_specs",
        "fig1_strong_ep", "fig2_p100_n18432", "fig3_decomposition",
        "fig4_cpu_utilization", "fig5_source", "fig6_additivity",
        "fig7_k40c_pareto", "fig8_p100_pareto", "gpu_energy_model",
        "headline", "section3_theory",
    }


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_are_the_submodules_objects(package):
    pkg = importlib.import_module(package)
    assert list(pkg.__all__) == list(pkg._EXPORTS)
    for name in pkg.__all__:
        submodule = importlib.import_module(f"{package}.{pkg._EXPORTS[name]}")
        assert getattr(pkg, name) is getattr(submodule, name), name
    assert set(pkg.__all__) <= set(dir(pkg))
    with pytest.raises(AttributeError):
        getattr(pkg, "no_such_name")
