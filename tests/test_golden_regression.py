"""Golden regression tests against the committed benchmark snapshots.

``benchmarks/output/*.txt`` are the rendered artifacts of the paper's
figure/headline experiments, committed by the benchmark suite.  These
tests re-render the same artifacts through the shared renderers in
:mod:`repro.analysis.goldens` and diff byte-for-byte, so *any* model
drift — a calibration nudge, a simulator refactor, a formatting change
— fails loudly here instead of silently rewriting the snapshots on the
next benchmark run.

If a change is intentional: regenerate the snapshots with
``PYTHONPATH=src python -m pytest benchmarks -q`` and bump
:data:`repro.sweep.keys.MODEL_VERSION` so stale store shards are
invalidated.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from repro.analysis.goldens import (
    render_fig7_snapshot,
    render_fig8_snapshot,
    render_headline_snapshot,
)
from repro.experiments import (
    budgeted_search,
    fig7_k40c_pareto,
    fig8_p100_pareto,
    headline,
    sensitivity,
)
from repro.sweep import EvalPlanner

SNAPSHOT_DIR = Path(__file__).parent.parent / "benchmarks" / "output"


def assert_matches_snapshot(name: str, rendered: str) -> None:
    path = SNAPSHOT_DIR / f"{name}.txt"
    assert path.is_file(), f"missing golden snapshot {path}"
    expected = path.read_text()
    actual = rendered + "\n"  # the bench emit() appends one newline
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"committed {name}.txt",
                tofile="re-rendered",
            )
        )
        pytest.fail(
            f"model output drifted from golden snapshot {name}.txt "
            f"(regenerate benchmarks and bump MODEL_VERSION if "
            f"intentional):\n{diff}"
        )


class TestGoldenSnapshots:
    def test_fig7_matches_snapshot(self):
        assert_matches_snapshot(
            "fig7_k40c_pareto", render_fig7_snapshot(fig7_k40c_pareto.run())
        )

    def test_fig8_matches_snapshot(self):
        assert_matches_snapshot(
            "fig8_p100_pareto", render_fig8_snapshot(fig8_p100_pareto.run())
        )

    def test_headline_matches_snapshot(self):
        assert_matches_snapshot(
            "headline", render_headline_snapshot(headline.run())
        )

    def test_headline_through_planner_matches_snapshot(self, tmp_path):
        """The store-backed planner renders the same golden text, cold
        or warm, and the warm run computes nothing."""
        cold = EvalPlanner(store_dir=tmp_path)
        assert_matches_snapshot(
            "headline", render_headline_snapshot(headline.run(engine=cold))
        )
        warm = EvalPlanner(store_dir=tmp_path)
        assert_matches_snapshot(
            "headline", render_headline_snapshot(headline.run(engine=warm))
        )
        assert warm.stats.computed == 0

    # The budgeted search's trajectory (which configurations the rng
    # probes, in which order) shows only in these two renderings; the
    # benches emit ``result.render()`` as is.

    def test_budgeted_search_matches_snapshot(self):
        assert_matches_snapshot(
            "budgeted_search", budgeted_search.run().render()
        )

    def test_budgeted_search_through_planner_matches_snapshot(self):
        assert_matches_snapshot(
            "budgeted_search",
            budgeted_search.run(engine=EvalPlanner()).render(),
        )

    def test_sensitivity_matches_snapshot(self):
        assert_matches_snapshot("sensitivity", sensitivity.run().render())

    def test_sensitivity_through_planner_matches_snapshot(self):
        assert_matches_snapshot(
            "sensitivity", sensitivity.run(engine=EvalPlanner()).render()
        )
