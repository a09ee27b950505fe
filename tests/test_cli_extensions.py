"""Tests for the newest CLI commands, pinned GPU clocks, and the report."""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.summary import generate_report
from repro.apps.matmul_gpu import MatmulGPUApp
from repro.cli import main
from repro.experiments.dvfs_comparison import GPU_CLOCK_LADDER_FRACTIONS
from repro.machines import K40C, P100
from repro.simgpu.device import GPUDevice


class TestPinnedClock:
    @pytest.fixture(scope="class")
    def dev(self):
        return GPUDevice(P100)

    def test_pinned_clock_held_when_cool(self, dev):
        r = dev.run_matmul(4096, 24, pinned_clock_hz=900e6)
        assert r.clock_hz == pytest.approx(900e6)
        assert not r.throttled

    def test_lower_pin_slower_but_cheaper(self, dev):
        lo = dev.run_matmul(6144, 32, pinned_clock_hz=900e6)
        hi = dev.run_matmul(6144, 32, pinned_clock_hz=1300e6)
        assert lo.time_s > hi.time_s
        assert lo.dynamic_energy_j < hi.dynamic_energy_j

    def test_hot_pin_respects_power_cap(self, dev):
        # A boost-clock pin on a long hot kernel still gets throttled.
        r = dev.run_matmul(14336, 32, r=24, pinned_clock_hz=P100.boost_clock_hz)
        assert r.throttled
        assert r.clock_hz < P100.boost_clock_hz

    def test_pin_is_a_maximum(self, dev):
        # Throttling may pull a hot pin down, never up: the
        # thermal-inertia blend starts from the pin.  The sweep is the
        # P100 DVFS study's (``dvfs_comparison.run_gpu``, N = 10240).
        for cfg in MatmulGPUApp(P100).valid_configs(min_bs=4):
            for frac in GPU_CLOCK_LADDER_FRACTIONS:
                pin = frac * P100.base_clock_hz
                r = dev.run_matmul(
                    10240, cfg.bs, cfg.g, cfg.r, pinned_clock_hz=pin
                )
                assert r.clock_hz <= pin, (cfg, frac, r.clock_hz)
        r = dev.run_matmul(1024, 4, 5, 1, pinned_clock_hz=1404e6)
        assert r.clock_hz <= 1404e6

    def test_pin_outside_ladder_rejected(self, dev):
        with pytest.raises(ValueError, match="ladder"):
            dev.run_matmul(4096, 16, pinned_clock_hz=100e6)
        with pytest.raises(ValueError, match="ladder"):
            dev.run_matmul(4096, 16, pinned_clock_hz=2e9)

    def test_k40c_pin_works_too(self):
        dev = GPUDevice(K40C)
        r = dev.run_matmul(4096, 16, pinned_clock_hz=600e6)
        assert r.clock_hz == pytest.approx(600e6)


class TestReport:
    def test_core_report_contains_all_artifacts(self):
        text = generate_report(include_extras=False)
        for marker in (
            "Table I", "Fig. 1", "Fig. 2", "Fig. 3", "Fig. 4",
            "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Headline",
        ):
            assert marker in text
        assert "```" in text

    def test_bare_cli_report_prints_to_stdout(
        self, tmp_path, monkeypatch, capsys
    ):
        """Without --output no file is written, not even REPORT.md in
        the working directory."""
        monkeypatch.chdir(tmp_path)
        assert main(["report"]) == 0
        assert capsys.readouterr().out == generate_report(include_extras=False)
        assert list(tmp_path.iterdir()) == []

    def test_cli_report_writes_file(self, tmp_path, capsys):
        out = tmp_path / "R.md"
        assert main(["report", "--output", str(out)]) == 0
        assert out.exists()
        assert "Reproduction report" in out.read_text()
        assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command,argv",
    [
        ("report", ["report", "--output"]),
        ("sweep", ["sweep", "--device", "k40c", "--n", "2048", "--save"]),
        ("perf flamegraph",
         ["perf", "flamegraph", "t.jsonl", "--output"]),
        ("devices synth",
         ["devices", "synth", "--device", "p100", "--output"]),
        ("devices fit",
         ["devices", "fit", "--device", "p100", "--samples", "s.json",
          "--output"]),
    ],
    ids=["report", "sweep", "perf-flamegraph", "devices-synth", "devices-fit"],
)
@pytest.mark.parametrize(
    "target,reason",
    [
        ("missing-dir", "No such file or directory"),
        ("directory", "Is a directory"),
    ],
)
def test_unwritable_output_is_a_one_line_error(
    tmp_path, monkeypatch, command, argv, target, reason
):
    """The path is checked before any work: no report is rendered, no
    sweep is evaluated or planned, no telemetry stream is read and no
    samples are synthesized, read or fitted."""
    import repro.analysis.summary
    import repro.devices.fit
    import repro.obs.ingest
    import repro.sweep.planner

    def never(*args, **kwargs):
        raise AssertionError("work done before the output path was checked")

    monkeypatch.setattr(repro.analysis.summary, "generate_report", never)
    monkeypatch.setattr(MatmulGPUApp, "sweep_points", never)
    monkeypatch.setattr(repro.sweep.planner, "session_planner", never)
    monkeypatch.setattr(repro.obs.ingest, "load_cli_stream", never)
    for name in ("synthesize_samples", "load_samples", "fit_calibration"):
        monkeypatch.setattr(repro.devices.fit, name, never)
    path = tmp_path / "missing" / "out" if target == "missing-dir" else tmp_path
    with pytest.raises(SystemExit) as info:
        main([*argv, str(path)])
    message = str(info.value)
    assert message == f"repro {command}: {path}: {reason}"


@pytest.mark.skipif(
    not pathlib.Path("/dev/full").exists(), reason="needs /dev/full"
)
@pytest.mark.parametrize(
    "command,argv",
    [
        ("report", ["report", "--output"]),
        ("sweep", ["sweep", "--device", "k40c", "--n", "2048", "--save"]),
        ("perf flamegraph", ["perf", "flamegraph", "{stream}", "--output"]),
        ("devices synth",
         ["devices", "synth", "--device", "p100", "--output"]),
        ("devices fit",
         ["devices", "fit", "--device", "p100", "--samples", "{samples}",
          "--output"]),
    ],
    ids=["report", "sweep", "perf-flamegraph", "devices-synth", "devices-fit"],
)
def test_failed_write_is_a_one_line_error(tmp_path, capsys, command, argv):
    """A write that fails after the path passed its check (/dev/full
    takes no byte) exits in one line, as a bad path does."""
    inputs = {
        "stream": tmp_path / "run.jsonl",
        "samples": tmp_path / "samples.json",
    }
    assert main(["sweep", "--device", "k40c", "--n", "2048",
                 "--telemetry", f"jsonl:{inputs['stream']}"]) == 0
    assert main(["devices", "synth", "--device", "p100",
                 "--output", str(inputs["samples"])]) == 0
    argv = [arg.format(**inputs) for arg in argv]
    with pytest.raises(SystemExit) as info:
        main([*argv, "/dev/full"])
    assert str(info.value) == (
        f"repro {command}: /dev/full: No space left on device"
    )


@pytest.mark.parametrize(
    "argv,from_env",
    [
        (["experiment", "fig7"], False),
        (["sweep", "--device", "k40c", "--n", "2048"], False),
        (["all"], False),
        (["experiment", "fig7"], True),
    ],
    ids=["experiment", "sweep", "all", "env"],
)
@pytest.mark.parametrize("target", ["file", "under-file", "dangling-link"])
def test_store_dir_on_a_file_is_a_one_line_error(
    tmp_path, monkeypatch, argv, from_env, target
):
    """A store path that is a file or a dangling link, or lies under
    one, is refused before the planner is built: no sweep is planned or
    filled.  A missing directory is fine, since the store creates it."""
    import repro.sweep.planner

    def never(*args, **kwargs):
        raise AssertionError("work done before the store path was checked")

    monkeypatch.setattr(repro.sweep.planner, "session_planner", never)
    blocker = tmp_path / "file"
    if target == "dangling-link":
        blocker.symlink_to(tmp_path / "nowhere")
    else:
        blocker.write_text("")
    path = blocker / "store" if target == "under-file" else blocker
    if from_env:
        monkeypatch.setenv("REPRO_STORE_DIR", str(path))
    else:
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        argv = [*argv, "--store-dir", str(path)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert str(info.value) == f"repro {argv[0]}: {path}: Not a directory"


@pytest.mark.parametrize("from_env", [True, False], ids=["env", "flag"])
def test_empty_store_path_writes_nothing_into_the_working_directory(
    tmp_path, monkeypatch, capsys, from_env
):
    """``Path("")`` is the working directory: an empty
    ``$REPRO_STORE_DIR`` counts as unset, so the run keeps its results
    in memory, and an empty ``--store-dir`` is refused in one line
    before the planner is built."""
    import repro.sweep.planner

    monkeypatch.chdir(tmp_path)
    if from_env:
        monkeypatch.setenv("REPRO_STORE_DIR", "")
        assert main(["experiment", "fig7"]) == 0
        assert capsys.readouterr().out
    else:
        def never(*args, **kwargs):
            raise AssertionError("work done before the store path was checked")

        monkeypatch.setattr(repro.sweep.planner, "session_planner", never)
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        with pytest.raises(SystemExit) as info:
            main(["all", "--store-dir", ""])
        assert str(info.value) == "repro all: '': No such file or directory"
    assert list(tmp_path.iterdir()) == []


def test_failed_report_render_leaves_the_output_file_untouched(
    tmp_path, monkeypatch
):
    import repro.analysis.summary

    def broken(**kwargs):
        raise RuntimeError("render failed")

    out = tmp_path / "R.md"
    out.write_text("previous report\n")
    monkeypatch.setattr(repro.analysis.summary, "generate_report", broken)
    with pytest.raises(RuntimeError, match="render failed"):
        main(["report", "--output", str(out)])
    assert out.read_text() == "previous report\n"


class TestFFTDeviceDifferentiation:
    def test_gpu_series_not_identical(self):
        from repro.experiments import fig1_strong_ep

        result = fig1_strong_ep.run()
        by_dev = {s.device: s for s in result.studies}
        assert (
            by_dev["k40c"].result.max_relative_deviation
            != by_dev["p100"].result.max_relative_deviation
        )


class TestSweepSaveAndFront:
    def test_save_then_front(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--device", "k40c", "--n", "2048", "--save", str(out)]
        ) == 0
        assert out.exists()
        capsys.readouterr()
        assert main(["front", str(out)]) == 0
        text = capsys.readouterr().out
        assert "front = " in text
        assert "Trade-offs" in text

    def test_front_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit) as info:
            main(["front", str(bad)])
        assert str(info.value) == (
            f"repro front: {bad}: unsupported document format None; "
            f"expected 'repro-sweep/1'"
        )

    @pytest.mark.parametrize(
        "text,reason",
        [
            (None, "No such file or directory"),
            ("time,energy\n1,2\n", "Expecting value"),
            ('{"format": "repro-sweep/1", "device": "p100", "workload": 8}',
             "missing key 'points'"),
            ('{"format": "repro-sweep/1", "device": "p100", "workload": 8,'
             ' "points": [{"energy_j": 1.0}]}',
             "each point needs numeric 'time_s' and 'energy_j' "
             "(KeyError: 'time_s')"),
            ('{"format": "repro-sweep/1", "device": "p100", "workload": 8,'
             ' "points": [{"time_s": NaN, "energy_j": 1.0}]}',
             "objectives must be finite"),
            ('{"format": "repro-sweep/1", "device": "p100", "workload": 8,'
             ' "points": [{"time_s": 1.0, "energy_j": -3.0}]}',
             "objectives must be non-negative"),
        ],
        ids=["missing-file", "not-json", "missing-key", "point-missing-key",
             "nan-time", "negative-energy"],
    )
    def test_front_bad_file_is_a_one_line_error(self, tmp_path, text, reason):
        path = tmp_path / "sweep.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as info:
            main(["front", str(path)])
        message = str(info.value)
        assert message.startswith(f"repro front: {path}: ")
        assert reason in message
        assert "\n" not in message

    def test_energy_model_id(self, capsys):
        assert main(["experiment", "energy-model"]) == 0
        assert "LOOCV" in capsys.readouterr().out
