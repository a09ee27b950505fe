"""Golden-identity parity: columnar analysis path ≡ ParetoPoint path.

The zero-copy fast path pushes POINT_DTYPE structured arrays through
the analysis layer and materializes ParetoPoints only at the reporting
boundary.  These tests pin the acceptance bar from the issue: on every
figure set the structured-array path must be *indistinguishable* from
the legacy point path — equal study fields, equal result dataclasses,
byte-identical renders.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.ep_analysis import (
    materialize,
    weak_ep_study,
    weak_ep_study_table,
)
from repro.apps.matmul_gpu import MatmulGPUApp
from repro.core.pareto import local_pareto_front, pareto_front
from repro.core.tradeoff import max_energy_saving
from repro.machines.specs import K40C, P100

CASES = [
    (K40C, "k40c", 8704),
    (K40C, "k40c", 10240),
    (P100, "p100", 10240),
    (P100, "p100", 18432),
]


@pytest.fixture(scope="module", params=range(len(CASES)), ids=lambda i: "{}-{}".format(CASES[i][1], CASES[i][2]))
def sweep(request):
    spec, device, n = CASES[request.param]
    app = MatmulGPUApp(spec)
    return device, n, app.sweep_points(n), app.sweep_table(n)


class TestSweepTable:
    def test_table_matches_points_exactly(self, sweep):
        device, n, points, table = sweep
        assert len(table) == len(points)
        assert table["time_s"].tolist() == [p.time_s for p in points]
        assert table["energy_j"].tolist() == [p.energy_j for p in points]
        for col in ("bs", "g", "r"):
            assert table[col].tolist() == [p.config[col] for p in points]

    def test_materialize_roundtrips_to_the_point_path(self, sweep):
        device, n, points, table = sweep
        assert materialize(table, range(len(table))) == tuple(points)

    def test_materialized_configs_are_plain_ints(self, sweep):
        device, n, points, table = sweep
        p = materialize(table, [0])[0]
        assert all(type(v) is int for v in p.config.values())


class TestWeakEPStudyParity:
    def test_global_study_fields_equal(self, sweep):
        device, n, points, table = sweep
        ref = weak_ep_study(device, n, points)
        got = weak_ep_study_table(device, n, table)
        assert got.weak_ep == ref.weak_ep
        assert got.front == ref.front
        assert got.tradeoffs == ref.tradeoffs
        assert got.headline == ref.headline
        assert got.local_front is None and got.local_headline is None

    def test_region_study_fields_equal(self, sweep):
        device, n, points, table = sweep
        ref = weak_ep_study(
            device, n, points, region=lambda p: p.config["bs"] <= 31
        )
        got = weak_ep_study_table(
            device, n, table, region_mask=table["bs"] <= 31
        )
        assert got.front == ref.front
        assert got.local_front == ref.local_front
        assert got.local_headline == ref.local_headline

    def test_all_points_adapter_materializes_the_cloud(self, sweep):
        device, n, points, table = sweep
        got = weak_ep_study_table(device, n, table)
        assert got.points == ()
        assert got.all_points() == tuple(points)
        # The legacy path keeps its eager cloud and ignores the table.
        ref = weak_ep_study(device, n, points)
        assert ref.all_points() == tuple(points)

    def test_empty_region_degenerates_like_the_point_path(self, sweep):
        device, n, points, table = sweep
        got = weak_ep_study_table(
            device, n, table, region_mask=np.zeros(len(table), dtype=bool)
        )
        assert got.local_front == ()
        assert got.local_headline is None

    def test_empty_table_raises(self):
        from repro.sweep.planner import POINT_DTYPE

        with pytest.raises(ValueError, match="empty sweep"):
            weak_ep_study_table("p100", 1024, np.empty(0, POINT_DTYPE))


class TestFigureRenderParity:
    """The six experiment figure sets render byte-identically to a
    reconstruction from the legacy point path."""

    def test_fig7_render(self):
        from repro.experiments import fig7_k40c_pareto as fig7

        result = fig7.run()
        app = MatmulGPUApp(K40C)
        legacy = fig7.Fig7Result(
            studies=tuple(
                weak_ep_study(
                    "k40c",
                    n,
                    app.sweep_points(n),
                    region=lambda p: p.config["bs"]
                    <= fig7.LOCAL_REGION_MAX_BS,
                )
                for n in fig7.PAPER_SIZES
            )
        )
        assert result.render() == legacy.render()

    def test_fig8_render(self):
        from repro.experiments import fig8_p100_pareto as fig8

        result = fig8.run()
        app = MatmulGPUApp(P100)
        legacy = fig8.Fig8Result(
            studies=tuple(
                weak_ep_study("p100", n, app.sweep_points(n))
                for n in fig8.PAPER_SIZES
            )
        )
        assert result.render() == legacy.render()

    def test_fig2_fields_match_point_path(self):
        from repro.experiments import fig2_p100_n18432 as fig2

        result = fig2.run()
        points = MatmulGPUApp(P100).sweep_points(fig2.N_PAPER)
        low = [p for p in points if p.config["bs"] <= 20]
        bs30 = [p for p in points if p.config["bs"] <= 30]
        assert result.all_points() == tuple(points)
        assert result.low_bs_monotone_fraction == fig2.monotone_fraction(low)
        assert result.low_bs_rank_correlation == fig2.rank_correlation(low)
        assert result.global_front == tuple(pareto_front(points))
        assert result.global_headline == max_energy_saving(points)
        assert result.bs30_front == tuple(pareto_front(bs30))
        assert result.bs30_headline == max_energy_saving(bs30)

    def test_headline_matches_point_path(self):
        import statistics

        from repro.experiments import headline

        sizes = {"k40c": (8704, 10240), "p100": (10240, 14336)}
        result = headline.run(sizes=sizes)
        for spec, d in zip((K40C, P100), result.devices):
            app = MatmulGPUApp(spec)
            g_sizes, l_sizes = [], []
            best = (0.0, 0.0)
            for n in d.sizes:
                points = app.sweep_points(n)
                g_front = pareto_front(points)
                l_front = local_pareto_front(
                    points, lambda p: p.config["bs"] <= 31
                )
                g_sizes.append(len(g_front))
                l_sizes.append(len(l_front))
                pool = points if len(g_front) > 1 else [
                    p for p in points if p.config["bs"] <= 31
                ]
                entry = max_energy_saving(pool)
                if entry.energy_saving > best[0]:
                    best = (entry.energy_saving, entry.perf_degradation)
            assert d.global_sizes == tuple(g_sizes)
            assert d.local_sizes == tuple(l_sizes)
            assert d.global_front_avg == statistics.mean(g_sizes)
            assert d.local_front_max == max(l_sizes)
            assert (d.max_saving, d.max_saving_degradation) == best

    def test_sensitivity_verdicts_match_point_path(self):
        from repro.experiments.sensitivity import (
            _k40c_verdict,
            _p100_verdict,
        )
        from repro.simgpu.calibration import K40C_CAL, P100_CAL

        front = pareto_front(MatmulGPUApp(K40C).sweep_points(10240))
        assert _k40c_verdict(K40C_CAL, 10240) == (
            len(front) == 1 and front[0].config["bs"] == 32
        )
        front = pareto_front(MatmulGPUApp(P100).sweep_points(10240))
        assert _p100_verdict(P100_CAL, 10240) == (len(front) >= 2)
