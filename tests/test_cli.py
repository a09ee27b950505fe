"""Tests for the command-line interface."""

from __future__ import annotations

import functools

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments.claims import page
from repro.store.columnar import StoreIntegrityWarning
from repro.sweep import EvalPlanner
from repro.sweep.planner import SESSION_EXPERIMENTS


@functools.lru_cache(maxsize=None)
def _scalar_page(exp_id: str) -> str:
    """``repro experiment``'s page, on the scalar model of record."""
    return page(exp_id, engine=None)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.device == "p100"
        assert args.n == 10240
        assert args.products == 24


class TestPlannerCommands:
    def test_env_store_dir_used_by_default(
        self, tmp_path, monkeypatch, capsys
    ):
        store = tmp_path / "from-env"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store))
        assert main(["sweep", "--device", "k40c", "--n", "2048"]) == 0
        assert main(["experiment", "fig7"]) == 0
        assert len(list(store.glob("*.npy"))) > 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "fig7"],
            ["sweep", "--device", "k40c", "--n", "2048"],
            ["all"],
        ],
        ids=["experiment", "sweep", "all"],
    )
    def test_store_dir_flag_beats_env(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        from_env = tmp_path / "from-env"
        from_flag = tmp_path / "from-flag"
        monkeypatch.setenv("REPRO_STORE_DIR", str(from_env))
        assert main([*argv, "--store-dir", str(from_flag)]) == 0
        assert list(from_flag.glob("*.npy"))
        assert not from_env.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "fig7", "--backend", "vectorized"],
            ["sweep", "--backend", "vectorized"],
            ["all", "--backend", "vectorized"],
            # The backend benchmark, with every flag it had; perfbench
            # is the one benchmark.
            ["bench"],
            ["cache", "migrate"],
            # The sentinel's thresholds, constants of repro.obs.sentinel.
            ["perf", "check", "a.json", "b.json", "--" + "alpha", "0.05"],
            ["perf", "check", "a.json", "b.json", "--" + "min-shift", "0.10"],
            ["perf", "check", "a.json", "b.json", "--" + "min-samples", "3"],
            # The bench history store.
            ["perf", "check", "a.json", "b.json", "--" + "bench", "F"],
            ["perf", "check", "a.json", "b.json", "--" + "history", "F"],
            ["perf", "check", "a.json", "b.json", "--report-" + "only"],
        ],
        ids=" ".join,
    )
    def test_removed_options_are_usage_errors(self, argv, capsys):
        """The backend choice, the backend benchmark, the JSON-cache
        migration, the sentinel's threshold flags and the bench history
        store are gone: asking for one is a usage error, not a silently
        different run."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err

    @pytest.mark.parametrize(
        "argv",
        [["experiment", "fig7"], ["sweep", "--device", "k40c", "--n", "2048"]],
        ids=["experiment", "sweep"],
    )
    def test_truncated_shard_warns_and_recomputes(
        self, argv, tmp_path, capsys
    ):
        store = tmp_path / "store"
        assert main([*argv, "--store-dir", str(store)]) == 0
        first = capsys.readouterr().out
        victim = sorted(store.glob("*.npy"))[0]
        victim.write_bytes(victim.read_bytes()[:100])
        with pytest.warns(StoreIntegrityWarning, match="corrupt"):
            assert main([*argv, "--store-dir", str(store)]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--n", "0"], "must be at least 1 (got 0)"),
            (["sweep", "--n", "-4096"], "must be at least 1 (got -4096)"),
            (["sweep", "--products", "0"], "must be at least 1 (got 0)"),
            (["tradeoff", "--n", "0"], "must be at least 1 (got 0)"),
            (["tradeoff", "--budget", "-3"], "budget must be non-negative"),
            (["tradeoff", "--budget", "nan"], "budget must be non-negative"),
        ],
    )
    def test_bad_numbers_are_clean_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        # A message, not a traceback: argparse exits 2 with the reason
        # on stderr; command-level checks exit with the reason itself.
        assert exc.value.code not in (0, None)
        assert message in capsys.readouterr().err + str(exc.value.code)

    @pytest.mark.parametrize(
        "device,n,products",
        [
            ("p100", 4096, 24),
            ("k40c", 2048, 120),
            ("p100", 10240, 60),
            ("p100", 18432, 120),
            ("p100", 1024, 60),
            ("k40c", 8704, 24),
            ("k40c", 4096, 60),
            ("k40c", 14336, 120),
        ],
    )
    def test_sweep_output_matches_scalar_model(
        self, device, n, products, capsys
    ):
        assert main(
            ["sweep", "--device", device, "--n", str(n),
             "--products", str(products), "--all-points"]
        ) == 0
        scalar = cli._run_sweep(device, n, products, True, engine=None)
        assert capsys.readouterr().out == scalar + "\n"

    def test_sweep_save_writes_the_planner_values(self, tmp_path, capsys):
        from repro.io import load_sweep

        path = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--device", "p100", "--n", "4096", "--save", str(path)]
        ) == 0
        doc = load_sweep(path)
        assert (doc.device, doc.workload) == ("p100", 4096)
        assert list(doc.points) == EvalPlanner().sweep("p100", 4096)

    @pytest.mark.parametrize("exp_id", SESSION_EXPERIMENTS)
    def test_planner_served_experiment_matches_scalar_model(self, exp_id):
        """The one evaluation path prints every sweep-driven page
        byte-identically to the scalar model of record."""
        assert page(exp_id, engine=EvalPlanner()) == _scalar_page(exp_id)

    @pytest.mark.parametrize(
        "exp_id,calls",
        [
            ("fig2", 1),
            ("fig7", 1),
            ("fig8", 1),
            ("headline", 2),
            ("sensitivity", 2),
            ("budgeted-search", 1),
        ],
    )
    def test_experiment_fills_each_device_in_one_batch_call(
        self, exp_id, calls, monkeypatch, capsys
    ):
        """`repro experiment` fills its requests before it runs, so the
        misses of each device, across calibrations and matrix sizes,
        take one batch-model call; the output stays the scalar
        model's page."""
        from repro.simgpu import batch

        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        real = batch.batch_run_matmul
        lanes = []

        def counted(*args):
            out = real(*args)
            lanes.append(len(out))
            return out

        monkeypatch.setattr(batch, "batch_run_matmul", counted)
        assert main(["experiment", exp_id]) == 0
        assert len(lanes) == calls
        assert capsys.readouterr().out == _scalar_page(exp_id) + "\n"

    @pytest.mark.parametrize("exp_id", SESSION_EXPERIMENTS)
    def test_store_served_experiment_matches_scalar_model(
        self, exp_id, tmp_path
    ):
        """Cold and warm store-backed runs print the scalar model's
        page; the warm run computes nothing."""
        cold = EvalPlanner(store_dir=tmp_path)
        assert page(exp_id, engine=cold) == _scalar_page(exp_id)
        assert cold.stats.computed > 0
        warm = EvalPlanner(store_dir=tmp_path)
        assert page(exp_id, engine=warm) == _scalar_page(exp_id)
        assert warm.stats.computed == 0

    def test_sweep_with_store_dir_populates_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(
            ["sweep", "--device", "k40c", "--n", "2048",
             "--store-dir", str(store)]
        ) == 0
        # One v2 shard (block + sidecar), not 146 files.
        assert len(list(store.glob("*.npy"))) == 1
        assert len(list(store.glob("*.meta.json"))) == 1
        first = capsys.readouterr().out
        # Warm rerun: identical output from pure shard lookups.
        assert main(
            ["sweep", "--device", "k40c", "--n", "2048",
             "--store-dir", str(store)]
        ) == 0
        assert capsys.readouterr().out == first


class TestAllCommand:
    def test_all_runs_the_session_and_reports_dedup(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["all", "--store-dir", str(store)]) == 0
        out = capsys.readouterr().out
        for section in ("== fig2 ==", "== fig7 ==", "== fig8 ==",
                        "== headline ==", "== sensitivity ==",
                        "== budgeted-search =="):
            assert section in out
        assert "planner session:" in out
        assert "0 store hits" in out  # cold run
        assert len(list(store.glob("*.npy"))) > 0

        # Warm rerun: everything from the store, zero computed.
        assert main(["all", "--store-dir", str(store)]) == 0
        warm = capsys.readouterr().out
        assert "0 computed in 0 batches" in warm
        # Sections are identical between cold and warm runs.
        assert warm.split("planner session:")[0] == out.split(
            "planner session:"
        )[0]

    def test_all_without_store_runs_in_memory(self, capsys):
        assert main(["all"]) == 0
        assert "planner session:" in capsys.readouterr().out

    def test_all_fills_each_device_in_one_batch_call(
        self, monkeypatch, capsys
    ):
        """The session's 30 (device, calibration) pairs, 28 of them
        sensitivity's perturbations, fill in one batch-model call per
        GPU."""
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert main(["all"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(
            "0 store hits, 6150 computed in 2 batches"
        )

    def test_all_enumerates_each_sweep_space_once(self, capsys):
        """The session's 48 requests span 3 configuration spaces (K40c
        and P100 from BS 4, P100 from BS 1 for the budgeted search);
        each is enumerated once per process, then served by the memo."""
        from repro.apps.matmul_gpu import config_enumeration

        config_enumeration.cache_clear()
        assert main(["all"]) == 0
        first = config_enumeration.cache_info()
        assert first.misses == first.currsize == 3
        assert main(["all"]) == 0
        assert config_enumeration.cache_info().misses == 3
        capsys.readouterr()


class TestCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "haswell" in out and "p100" in out and "k40c" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Nvidia K40c" in out

    def test_sweep_prints_front(self, capsys):
        assert main(["sweep", "--device", "k40c", "--n", "2048"]) == 0
        out = capsys.readouterr().out
        assert "Pareto front:" in out
        assert "Trade-offs" in out

    def test_sweep_all_points(self, capsys):
        main(["sweep", "--device", "k40c", "--n", "2048", "--all-points"])
        out = capsys.readouterr().out
        # All-points table lists every configuration (146 for T=24).
        assert out.count("'bs'") > 140

    def test_tradeoff_budget(self, capsys):
        assert main(
            ["tradeoff", "--device", "p100", "--n", "4096", "--budget", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out and "energy saving" in out

    def test_experiment_fig7(self, capsys):
        assert main(["experiment", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "weak EP" in out
