"""The report's planner session (:func:`repro.analysis.summary.generate_report`).

``repro report`` runs its sweep-driven sections through one
``EvalPlanner(scalar=True)`` session per report: every distinct
configuration is evaluated once, by the scalar model of record, and
the batch model never runs.  The session's tables are bit-identical to
each request's own scalar sweep with no planner (``engine=None``).
"""

from __future__ import annotations

import pytest

import repro.simgpu.batch
import repro.sweep.planner
from repro.analysis.summary import generate_report
from repro.experiments import EXPERIMENTS
from repro.simgpu import device, power
from repro.simgpu.device import GPUDevice
from repro.sweep.planner import collect_session_requests, session_planner


def report_sweep_ids(include_extras: bool) -> tuple[str, ...]:
    """The sweep-driven experiments among the report's sections."""
    sections = ("core", "extras") if include_extras else ("core",)
    return tuple(
        exp.id
        for exp in EXPERIMENTS.values()
        if exp.section in sections and exp.sweep
    )


@pytest.fixture
def model_calls(monkeypatch):
    """Counts of scalar ``run_matmul`` and ``batch_run_matmul`` calls."""
    calls = {"scalar": 0, "batch": 0}
    run_matmul = GPUDevice.run_matmul
    batch_run_matmul = repro.simgpu.batch.batch_run_matmul

    def counted_run_matmul(self, *args, **kwargs):
        calls["scalar"] += 1
        return run_matmul(self, *args, **kwargs)

    def counted_batch_run_matmul(*args, **kwargs):
        calls["batch"] += 1
        return batch_run_matmul(*args, **kwargs)

    monkeypatch.setattr(GPUDevice, "run_matmul", counted_run_matmul)
    monkeypatch.setattr(
        repro.simgpu.batch, "batch_run_matmul", counted_batch_run_matmul
    )
    return calls


def test_report_sweep_ids_are_the_sweep_sections_in_table_order():
    assert report_sweep_ids(False) == ("fig2", "fig7", "fig8", "headline")
    assert report_sweep_ids(True) == (
        "fig2", "fig7", "fig8", "headline", "sensitivity", "budgeted-search",
    )


@pytest.mark.parametrize("include_extras", [False, True])
def test_report_collects_one_session_of_its_sweep_sections(
    monkeypatch, include_extras
):
    collected = []
    collect = repro.sweep.planner.collect_session_requests

    def recording(ids=repro.sweep.planner.SESSION_EXPERIMENTS):
        collected.append(tuple(ids))
        return collect(ids)

    monkeypatch.setattr(
        repro.sweep.planner, "collect_session_requests", recording
    )
    generate_report(include_extras=include_extras)
    assert collected == [report_sweep_ids(include_extras)]


@pytest.mark.parametrize(
    "include_extras,scalar_calls", [(False, 2092), (True, 8257)]
)
def test_each_distinct_configuration_runs_once_on_the_scalar_model(
    model_calls, include_extras, scalar_calls
):
    generate_report(include_extras=include_extras)
    assert model_calls == {"scalar": scalar_calls, "batch": 0}
    # A new session per report: no result survives into the next one.
    generate_report(include_extras=include_extras)
    assert model_calls == {"scalar": 2 * scalar_calls, "batch": 0}


@pytest.mark.parametrize(
    "include_extras,scalar_calls,probes",
    [(False, 2092, 8499), (True, 8257, 36009)],
)
def test_every_report_pass_probes_every_clock_of_every_call(
    model_calls, monkeypatch, include_extras, scalar_calls, probes
):
    """The device tables hold no probe: a warm pass evaluates the
    power model at every clock of every call, as the first pass does."""
    evaluated = [0]

    def counting(terms, clock_hz, maximum):
        evaluated[0] += 1
        return power.probe(terms, clock_hz, maximum)

    # The name the scalar model calls repro.simgpu.power.probe by.
    monkeypatch.setattr(device, "probe", counting)
    for _ in range(2):
        model_calls["scalar"] = evaluated[0] = 0
        generate_report(include_extras=include_extras)
        assert (model_calls["scalar"], evaluated[0]) == (scalar_calls, probes)


@pytest.mark.parametrize("include_extras", [False, True])
def test_session_tables_match_the_scalar_sweeps_bit_for_bit(include_extras):
    ids = report_sweep_ids(include_extras)
    session = session_planner(ids, scalar=True)
    assert session.stats.batches == 0
    assert session.stats.computed == session.stats.unique_points
    for request in collect_session_requests(ids):
        served = session.table(request)
        oracle = request.app().sweep_table(request.n, min_bs=request.min_bs)
        assert served.dtype == oracle.dtype
        assert served.tobytes() == oracle.tobytes()
