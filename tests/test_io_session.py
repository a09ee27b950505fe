"""Tests for sweep serialization."""

from __future__ import annotations

import json

import pytest

from repro.core.pareto import ParetoPoint, pareto_front
from repro.io import FORMAT, SweepDocument, load_sweep, save_sweep


def sample_doc():
    return SweepDocument(
        device="p100",
        workload=10240,
        points=(
            ParetoPoint(30.6, 7916.0, {"bs": 32, "g": 1, "r": 24}),
            ParetoPoint(31.0, 6356.0, {"bs": 27, "g": 1, "r": 24}),
        ),
    )


class TestSweepIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(path, sample_doc())
        loaded = load_sweep(path)
        assert loaded.device == "p100"
        assert loaded.workload == 10240
        assert loaded.points[0].config == {"bs": 32, "g": 1, "r": 24}
        assert loaded.points[1].energy_j == 6356.0

    def test_front_survives_round_trip(self, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(path, sample_doc())
        loaded = load_sweep(path)
        assert [p.objectives() for p in pareto_front(loaded.points)] == [
            p.objectives() for p in pareto_front(sample_doc().points)
        ]

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = sample_doc().to_dict()
        doc["format"] = "other/9"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported"):
            load_sweep(path)

    def test_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = sample_doc().to_dict()
        del doc["points"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="points"):
            load_sweep(path)

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_sweep(path)

    def test_format_constant_exported(self):
        assert sample_doc().to_dict()["format"] == FORMAT
