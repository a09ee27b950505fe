"""Unit tests for :mod:`repro.sweep.planner` — the session planner.

Request resolution, bit-exact parity with per-sweep batch evaluation,
agreement of every serving path (in memory, cold store, warm store,
through the app) with the scalar model of record, cross-experiment
dedup accounting, warm-store zero-compute reruns,
mixed-size mega-batch exactness, one batch call per device across
calibrations (bit-identical to per-calibration calls),
calibration-separated shards, the noise bypass, golden identity of
the planner-served pages, and a warm-store session faster than
per-experiment scalar sweeps.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.apps.matmul_gpu import MatmulConfig, MatmulGPUApp
from repro.core.pareto import ParetoPoint, pareto_front
from repro.machines.specs import K40C, P100
from repro.simgpu.batch import batch_run_matmul, evaluate_configs_batch
from repro.simgpu.calibration import P100_CAL, calibration_for
from repro.sweep import EvalPlanner, SweepRequest, resolve_device
from repro.sweep.planner import (
    POINT_DTYPE,
    SESSION_EXPERIMENTS,
    collect_session_requests,
    scalar_sweep,
)


def batch_points(req, configs):
    """The request's points from one per-sweep batch evaluation."""
    pairs = evaluate_configs_batch(req.spec, req.calibration, req.n, configs)
    return [
        ParetoPoint(time_s=t, energy_j=e, config=c.as_dict())
        for c, (t, e) in zip(configs, pairs)
    ]


class TestResolveDevice:
    def test_registry_keys(self):
        assert resolve_device("p100") is P100
        assert resolve_device("k40c") is K40C
        assert resolve_device(P100) is P100

    def test_cpu_is_rejected(self):
        with pytest.raises(ValueError, match="not a GPU"):
            resolve_device("haswell")


class TestSweepRequest:
    def test_configs_match_app_enumeration(self):
        req = SweepRequest(device="p100", n=10240)
        assert req.configs() == MatmulGPUApp(P100).sweep_configs()

    def test_default_calibration(self):
        req = SweepRequest(device="k40c", n=8192)
        assert req.calibration is calibration_for(K40C)


class TestPlannerParity:
    def test_matches_per_sweep_batch_bit_exactly(self):
        req = SweepRequest(device="k40c", n=4096)
        planner = EvalPlanner()
        assert planner.evaluate_configs(req, req.configs()) == batch_points(
            req, req.configs()
        )

    def test_mixed_size_mega_batch_is_bit_exact(self, tmp_path):
        """Lanes of a mixed-N fill equal their per-sweep evaluations."""
        planner = EvalPlanner(store_dir=tmp_path)
        reqs = [
            SweepRequest(device="p100", n=2048),
            SweepRequest(device="p100", n=4096),
            SweepRequest(device="p100", n=4096, total_products=120),
        ]
        planner.add_all(reqs)
        planner.execute()
        assert planner.stats.batches == 1  # one batch call per device
        for req in reqs:
            assert planner.evaluate_configs(req, req.configs()) == (
                batch_points(req, req.configs())
            )

    def test_evaluate_single_point(self):
        cfg = MatmulConfig(bs=32, g=1, r=24)
        planner = EvalPlanner()
        (expected,) = batch_points(SweepRequest(device="k40c", n=4096), [cfg])
        assert planner.evaluate("k40c", 4096, cfg) == expected
        # Dict configs are accepted too.
        assert planner.evaluate("k40c", 4096, cfg.as_dict()) == expected

    def test_sweep_convenience_matches_batch(self):
        req = SweepRequest(device="p100", n=2048)
        assert EvalPlanner().sweep("p100", 2048) == batch_points(
            req, req.configs()
        )


#: The paper's figure sizes: Fig. 7 (K40c, N = 8704 and 10240),
#: Fig. 8 (P100, N = 10240 and 14336) and Fig. 2 (P100, N = 18432).
SERVING_CASES = [
    ("k40c", K40C, 8704),
    ("k40c", K40C, 10240),
    ("p100", P100, 10240),
    ("p100", P100, 14336),
    ("p100", P100, 18432),
]


@pytest.mark.parametrize("device,spec,n", SERVING_CASES)
class TestServingPathParity:
    def test_matches_scalar_model_of_record(self, device, spec, n):
        """Same configurations in the same order, objectives equal to
        the last few ulps, and the same Pareto front as the scalar
        ``run_matmul`` path."""
        scalar = MatmulGPUApp(spec).sweep_points(n)
        served = EvalPlanner().sweep(device, n)
        assert [p.config for p in served] == [p.config for p in scalar]
        np.testing.assert_allclose(
            [p.time_s for p in served], [p.time_s for p in scalar],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            [p.energy_j for p in served], [p.energy_j for p in scalar],
            rtol=1e-12,
        )
        assert [p.config for p in pareto_front(served)] == [
            p.config for p in pareto_front(scalar)
        ]

    def test_app_through_planner_matches_planner(
        self, device, spec, n, tmp_path
    ):
        planner = EvalPlanner(store_dir=tmp_path)
        assert MatmulGPUApp(spec).sweep_points(n, engine=planner) == (
            EvalPlanner().sweep(device, n)
        )
        assert planner.stats.computed == len(
            MatmulGPUApp(spec).sweep_configs()
        )

    def test_warm_store_matches_in_memory(self, device, spec, n, tmp_path):
        in_memory = EvalPlanner().sweep(device, n)
        assert EvalPlanner(store_dir=tmp_path).sweep(device, n) == in_memory
        warm = EvalPlanner(store_dir=tmp_path)
        assert MatmulGPUApp(spec).sweep_points(n, engine=warm) == in_memory
        assert warm.sweep(device, n) == in_memory
        assert warm.stats.computed == 0


class TestPlannerAccounting:
    def test_two_devices_fill_in_two_batches(self):
        """One batch call per device; each request is served its own
        rows, in request order."""
        reqs = [
            SweepRequest(device="p100", n=4096),
            SweepRequest(device="k40c", n=2048),
        ]
        planner = EvalPlanner()
        planner.add_all(reqs)
        stats = planner.execute()
        assert stats.batches == 2
        for req in reqs:
            assert planner.evaluate_configs(req, req.configs()) == (
                batch_points(req, req.configs())
            )

    def test_duplicate_requests_dedup_to_one_sweep(self):
        req = SweepRequest(device="p100", n=4096)
        planner = EvalPlanner()
        planner.add_all([req, req, req])
        stats = planner.execute()
        n_configs = len(req.configs())
        assert stats.requested == 3 * n_configs
        assert stats.unique_points == n_configs
        assert stats.computed == n_configs
        assert stats.dedup_ratio == pytest.approx(3.0)

    def test_execute_is_idempotent(self):
        req = SweepRequest(device="p100", n=4096)
        planner = EvalPlanner()
        planner.add(req)
        planner.execute()
        computed = planner.stats.computed
        planner.add(req)  # re-adding known points is free
        stats = planner.execute()
        assert stats.computed == computed
        assert stats.batches == 1

    def test_warm_store_computes_nothing(self, tmp_path):
        req = SweepRequest(device="k40c", n=4096)
        cold = EvalPlanner(store_dir=tmp_path)
        cold.add(req)
        cold.execute()
        assert cold.stats.computed == len(req.configs())

        warm = EvalPlanner(store_dir=tmp_path)
        warm.add(req)
        stats = warm.execute()
        assert stats.computed == 0 and stats.batches == 0
        assert stats.store_hits == len(req.configs())
        assert warm.evaluate_configs(req, req.configs()) == cold.evaluate_configs(
            req, req.configs()
        )

    def test_session_requests_cover_all_experiments(self):
        reqs = collect_session_requests()
        assert len(reqs) > 10
        devices = {r.spec.name for r in reqs}
        assert len(devices) == 2  # both GPUs
        # Overlap exists for the dedup pass to absorb (fig2/fig8 vs
        # headline share P100 sizes at default calibration).
        planner = EvalPlanner()
        planner.add_all(reqs)
        stats = planner.execute()
        assert stats.requested > stats.unique_points

    def test_in_memory_session_builds_no_shard_key(self, monkeypatch):
        """Without a store, groups are keyed by (spec, calibration, N),
        so serving the whole `repro all` session hashes no SHA-256
        shard digest."""
        from repro import cli

        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        expected = cli._run_all(None)

        def no_shard_key(*args):
            raise AssertionError("shard key built without a store")

        monkeypatch.setattr("repro.store.columnar.shard_key", no_shard_key)
        assert cli._run_all(None) == expected

    def test_store_and_store_dir_are_exclusive(self, tmp_path):
        from repro.store import ColumnarStore

        with pytest.raises(ValueError, match="not both"):
            EvalPlanner(store=ColumnarStore(tmp_path), store_dir=tmp_path)

    @pytest.mark.parametrize("arg", ["store", "store_dir"])
    def test_scalar_planner_takes_no_store(self, tmp_path, arg):
        """Shards hold vectorized values: scalar ones never enter one."""
        from repro.store import ColumnarStore

        value = ColumnarStore(tmp_path) if arg == "store" else tmp_path
        with pytest.raises(ValueError, match="scalar planner takes no store"):
            EvalPlanner(scalar=True, **{arg: value})
        assert not any(tmp_path.iterdir())

    def test_scalar_fill_runs_the_model_of_record_once_per_point(
        self, monkeypatch
    ):
        from repro.simgpu.device import GPUDevice

        calls = []
        run_matmul = GPUDevice.run_matmul

        def counted(self, n, bs, g, r):
            calls.append((n, bs, g, r))
            assert all(type(v) is int for v in (bs, g, r))
            return run_matmul(self, n, bs, g, r)

        monkeypatch.setattr(GPUDevice, "run_matmul", counted)
        req = SweepRequest(device="k40c", n=4096)
        planner = EvalPlanner(scalar=True)
        planner.add_all([req, req, SweepRequest(device="k40c", n=4096,
                                                min_bs=8)])
        stats = planner.execute()
        assert len(calls) == len(set(calls)) == len(req.configs())
        assert stats.computed == len(calls) and stats.batches == 0

    def test_session_requests_of_ids_concatenate_in_order(self):
        from repro.experiments import EXPERIMENTS

        def identities(requests):
            return [(r, r.cal) for r in requests]

        def concatenated(ids):
            return [
                r for i in ids for r in EXPERIMENTS[i].load().requests()
            ]

        ids = ("headline", "fig2", "sensitivity")
        assert identities(collect_session_requests(ids)) == identities(
            concatenated(ids)
        )
        assert collect_session_requests(()) == ()
        assert identities(collect_session_requests()) == identities(
            concatenated(SESSION_EXPERIMENTS)
        )

    def test_perturbed_calibration_gets_its_own_shard(self, tmp_path):
        planner = EvalPlanner(store_dir=tmp_path)
        base = planner.sweep("p100", 4096)
        perturbed_cal = dataclasses.replace(
            P100_CAL, e_lane_j=P100_CAL.e_lane_j * 1.2
        )
        perturbed = planner.sweep("p100", 4096, cal=perturbed_cal)
        assert planner.stats.store_hits == 0
        assert planner.stats.computed == len(base) + len(perturbed)
        assert len(list(tmp_path.glob("*.npy"))) == 2
        assert [p.config for p in base] == [p.config for p in perturbed]
        assert base != perturbed

    def test_noisy_sweeps_bypass_the_planner(self, tmp_path):
        """rng sweeps must neither read nor fill the store."""
        planner = EvalPlanner(store_dir=tmp_path)
        app = MatmulGPUApp(P100)
        noisy = app.sweep_points(
            4096, rng=np.random.default_rng(7), engine=planner
        )
        assert planner.stats.requested == 0
        assert not any(tmp_path.iterdir())
        assert len(noisy) == len(app.sweep_configs())


class TestFasterThanPerExperiment:
    def test_warm_store_session_beats_the_per_experiment_scalar_loop(
        self, overlapping_grid, warm_grid_session, cold_scalar_model
    ):
        """A session served from a warm store is faster than each
        experiment running its own cold scalar sweep, duplicates
        included, as experiments did before the planner."""
        assert warm_grid_session().stats.computed == 0

        def per_experiment() -> None:
            for request in overlapping_grid:
                _, bs, g, r = request.enumeration().columns
                scalar_sweep(
                    request.spec, request.calibration, request.n, bs, g, r
                )

        per_experiment_s, session_s = [], []
        for _ in range(3):
            cold_scalar_model()
            t0 = time.perf_counter()
            per_experiment()
            per_experiment_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            warm_grid_session()
            session_s.append(time.perf_counter() - t0)
        speedup = min(per_experiment_s) / min(session_s)
        assert speedup >= 1.0, (
            f"warm session {min(session_s) * 1e3:.2f} ms vs per-experiment "
            f"{min(per_experiment_s) * 1e3:.2f} ms ({speedup:.2f}x)"
        )


def _three_calibrations() -> list[SweepRequest]:
    """P100 sweeps under the default calibration, a perturbed
    ``e_lane_j`` and a replaced ``occ_exp``: the last is a pow exponent
    and needs its own batch call."""
    lane = dataclasses.replace(P100_CAL, e_lane_j=P100_CAL.e_lane_j * 1.2)
    occ = dataclasses.replace(P100_CAL, occ_exp=2.0)
    return [
        SweepRequest(device="p100", n=4096),
        SweepRequest(device="p100", n=8192),
        SweepRequest(device="p100", n=4096, cal=lane),
        SweepRequest(device="p100", n=8192, cal=lane),
        SweepRequest(device="p100", n=4096, cal=occ),
    ]


class TestCalibrationColumns:
    """Misses of one device fill in one call across calibrations, and
    each lane keeps the bits of its own per-calibration call."""

    def test_session_lanes_match_per_calibration_calls(self):
        reqs = collect_session_requests()
        planner = EvalPlanner()
        planner.add_all(reqs)
        assert planner.execute().batches == 2
        by_cal: dict = {}
        for req in reqs:
            by_cal.setdefault((req.spec, req.calibration), []).append(req)
        assert len(by_cal) == 30
        for (spec, cal), group in by_cal.items():
            ns, bs, g, r = [], [], [], []
            for req in group:
                for c in req.configs():
                    ns.append(req.n)
                    bs.append(c.bs)
                    g.append(c.g)
                    r.append(c.r)
            ref = batch_run_matmul(spec, cal, ns, bs, g, r)
            served = np.concatenate([planner.table(req) for req in group])
            for got, want in (
                (served["time_s"], ref.time_s),
                (served["energy_j"], ref.dynamic_energy_j),
            ):
                np.testing.assert_array_equal(
                    got.view(np.int64), want.view(np.int64)
                )

    def test_mixed_calibrations_fill_in_one_call_per_exponent_pair(self):
        reqs = _three_calibrations()
        planner = EvalPlanner()
        planner.add_all(reqs)
        stats = planner.execute()
        assert stats.batches == 2
        assert stats.computed == sum(len(req.configs()) for req in reqs)
        for req in reqs:
            assert planner.evaluate_configs(req, req.configs()) == (
                batch_points(req, req.configs())
            )

    def test_mixed_fill_keeps_one_shard_per_calibration_and_size(
        self, tmp_path
    ):
        reqs = _three_calibrations()
        cold = EvalPlanner(store_dir=tmp_path)
        cold.add_all(reqs)
        assert cold.execute().batches == 2
        assert len(list(tmp_path.glob("*.npy"))) == len(reqs)
        warm = EvalPlanner(store_dir=tmp_path)
        warm.add_all(reqs)
        stats = warm.execute()
        assert stats.computed == 0 and stats.batches == 0
        for req in reqs:
            assert warm.evaluate_configs(req, req.configs()) == (
                batch_points(req, req.configs())
            )


class TestStructuredServing:
    def test_table_returns_structured_rows_in_request_order(self):
        req = SweepRequest(device="p100", n=2048)
        configs = req.configs()
        planner = EvalPlanner()
        rows = planner.table(req, configs)
        assert rows.dtype == POINT_DTYPE
        assert len(rows) == len(configs)
        np.testing.assert_array_equal(
            rows["bs"], [c.bs for c in configs]
        )
        points = planner.evaluate_configs(req, configs)
        np.testing.assert_array_equal(
            rows["time_s"], [p.time_s for p in points]
        )

    def test_memoized_columns_serve_like_a_config_list(self):
        """A request's memoized enumeration (no configs given) and the
        same configs as a plain list are packed alike and served alike."""
        req = SweepRequest(device="k40c", n=3072, min_bs=1)
        planner = EvalPlanner()
        planner.add(req)
        planner.add(req, req.configs())
        assert planner.stats.requested == 2 * len(req.configs())
        from_memo = planner.table(req)
        np.testing.assert_array_equal(from_memo, planner.table(req, req.configs()))
        np.testing.assert_array_equal(
            from_memo, planner.table(req, req.enumeration())
        )
        assert planner.stats.computed == len(req.configs())

    def test_unplanned_request_fills_lazily(self, tmp_path):
        planner = EvalPlanner(store_dir=tmp_path)
        # Nothing collected up front; a direct table() still works and
        # flows through the same dedup/partition/fill machinery.
        req = SweepRequest(device="k40c", n=2048)
        rows = planner.table(req)
        assert np.isfinite(rows["time_s"]).all()
        assert planner.stats.computed == len(req.configs())
        # A second ask is served from the in-memory group table.
        planner.table(req)
        assert planner.stats.computed == len(req.configs())


class TestPlannerServedExperiments:
    @pytest.fixture(scope="class")
    def session(self, tmp_path_factory):
        planner = EvalPlanner(
            store_dir=tmp_path_factory.mktemp("session-store")
        )
        planner.add_all(collect_session_requests())
        planner.execute()
        return planner

    def test_figures_match_golden_snapshots(self, session):
        """The store-backed session prints every sweep-driven page
        byte-identically to its committed golden (the acceptance bar of
        the `repro all` path)."""
        from pathlib import Path

        from repro.experiments.claims import page

        goldens = Path(__file__).parent.parent / "benchmarks" / "output"
        for exp_id in SESSION_EXPERIMENTS:
            golden = (goldens / f"{exp_id}.txt").read_bytes().decode()
            assert page(exp_id, engine=session) + "\n" == golden, exp_id

    def test_sensitivity_and_fig2_run_from_the_session(self, session):
        from repro.experiments import fig2_p100_n18432, sensitivity

        computed_before = session.stats.computed
        fig2 = fig2_p100_n18432.run(engine=session)
        sens = sensitivity.run(engine=session)
        # Everything was pre-planned: serving added zero evaluations.
        assert session.stats.computed == computed_before
        # Bit-identical to a fresh per-experiment planner, and the
        # structural verdicts match the scalar reference.
        assert fig2 == fig2_p100_n18432.run(engine=EvalPlanner())
        assert sens.fraction_held == sensitivity.run().fraction_held

    def test_budgeted_search_probes_served_from_session(self, session):
        from repro.experiments import budgeted_search

        computed_before = session.stats.computed
        result = budgeted_search.run(engine=session)
        # Greedy probes hit points outside the default sweep; the
        # session's min_bs=1 request covers them, so nothing computes.
        assert session.stats.computed == computed_before
        assert result == budgeted_search.run(engine=EvalPlanner())
