"""Every committed artifact is what the program prints today.

``benchmarks/output/ID.txt`` is ``repro experiment ID``'s stdout for
every id of the experiment table: the id's paper-vs-measured table,
where it has one, then its render (:func:`repro.experiments.claims.page`).
``fig5_dgemm_instrument.cu`` is Fig. 5's full CUDA listing, the
directory holds nothing else, and ``REPORT.md`` is ``repro report
--extras``'s output.  Each is diffed byte for byte, so a drifted digit
in any artifact fails here.

If a change is intended, regenerate them (README, "Reproducing the
paper"), and bump :data:`repro.sweep.keys.MODEL_VERSION` if the model
moved, so that stale store shards are invalidated.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from repro.analysis.summary import generate_report
from repro.cli import main
from repro.experiments import EXPERIMENTS, fig5_source

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = ROOT / "benchmarks" / "output"
LISTING = "fig5_dgemm_instrument.cu"


def assert_matches(path: Path, actual: str) -> None:
    expected = path.read_bytes().decode()
    if actual != expected:
        name = path.relative_to(ROOT)
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"committed {name}",
                tofile="regenerated",
            )
        )
        pytest.fail(f"{name} drifted:\n{diff}")


@pytest.mark.parametrize("exp_id", EXPERIMENTS)
def test_experiment_prints_its_golden(exp_id, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    assert main(["experiment", exp_id]) == 0
    assert_matches(GOLDENS / f"{exp_id}.txt", capsys.readouterr().out)


def test_fig5_listing_is_committed():
    assert_matches(GOLDENS / LISTING, fig5_source.run().source + "\n")


def test_goldens_are_the_experiment_ids_and_the_listing():
    assert sorted(path.name for path in GOLDENS.iterdir()) == sorted(
        [*(f"{exp_id}.txt" for exp_id in EXPERIMENTS), LISTING]
    )


def test_report_is_committed():
    assert_matches(ROOT / "REPORT.md", generate_report(include_extras=True))
