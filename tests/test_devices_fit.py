"""Tests for :mod:`repro.devices.fit` — the calibration round trip.

The headline acceptance test synthesizes pinned-clock samples from the
built-in calibrations and checks :func:`fit_calibration` recovers every
power constant, with cross-validation selecting the true ``(occ_exp,
leak_quad)`` pair.  Plus: noise tolerance, ill-posed inputs, the
aux-unidentifiable fallback, samples-file I/O, and the CLI loop.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.devices.fit import (
    DEFAULT_LEAK_QUAD_GRID,
    DEFAULT_OCC_EXP_GRID,
    FitError,
    FitSample,
    default_sample_grid,
    fit_calibration,
    load_samples,
    save_samples,
    synthesize_samples,
)
from repro.devices.schema import DeviceSchemaError
from repro.machines.specs import K40C, P100
from repro.simgpu.calibration import K40C_CAL, P100_CAL

#: The five linearly-fitted constants plus the two CV-selected ones.
POWER_CONSTANTS = (
    "e_lane_j",
    "e_dram_j_per_byte",
    "p_act0_w",
    "p_act1_w",
    "aux_power_w",
    "occ_exp",
    "leak_quad",
)


def _rel_err(fitted, true):
    if true == 0.0:
        return abs(fitted)
    return abs(fitted - true) / abs(true)


class TestRoundTrip:
    """ISSUE acceptance: recover built-in constants from synthetic samples."""

    @pytest.mark.parametrize(
        "spec, cal, template",
        [
            pytest.param(K40C, K40C_CAL, P100_CAL, id="k40c"),
            pytest.param(P100, P100_CAL, K40C_CAL, id="p100"),
        ],
    )
    def test_noiseless_recovery(self, spec, cal, template):
        # The template carries the OTHER device's power constants (true
        # timing constants), so a pass proves the fit recovered them
        # rather than inheriting.
        template = dataclasses.replace(
            cal, **{name: getattr(template, name) for name in POWER_CONSTANTS}
        )
        samples = synthesize_samples(spec, cal)
        result = fit_calibration(spec, samples, template=template)
        assert result.selected.occ_exp == cal.occ_exp
        assert result.selected.leak_quad == cal.leak_quad
        for name in POWER_CONSTANTS:
            got = getattr(result.calibration, name)
            want = getattr(cal, name)
            assert _rel_err(got, want) < 1e-6, (name, got, want)
        assert result.train_rel_rmse < 1e-9
        assert result.notes == ()

    def test_noisy_recovery_within_tolerance(self):
        samples = synthesize_samples(P100, P100_CAL, noise=0.01, seed=7)
        result = fit_calibration(P100, samples, template=P100_CAL)
        # 1% multiplicative energy noise: the dominant constants come
        # back within a few percent and the model fits the data at the
        # noise floor.
        assert result.train_rel_rmse < 0.02
        for name in ("e_lane_j", "e_dram_j_per_byte", "p_act0_w"):
            got = getattr(result.calibration, name)
            want = getattr(P100_CAL, name)
            assert _rel_err(got, want) < 0.10, (name, got, want)

    def test_timing_constants_come_from_template(self):
        samples = synthesize_samples(K40C, K40C_CAL)
        result = fit_calibration(K40C, samples, template=K40C_CAL)
        for name in ("cpi", "mem_latency_cycles", "launch_overhead_s"):
            assert getattr(result.calibration, name) == getattr(
                K40C_CAL, name
            )

    def test_true_constants_lie_on_default_grids(self):
        for cal in (K40C_CAL, P100_CAL):
            assert cal.occ_exp in DEFAULT_OCC_EXP_GRID
            assert cal.leak_quad in DEFAULT_LEAK_QUAD_GRID

    def test_candidates_are_sorted_best_first(self):
        samples = synthesize_samples(K40C, K40C_CAL)
        result = fit_calibration(K40C, samples, template=K40C_CAL)
        scores = [c.cv_rel_rmse for c in result.candidates]
        assert scores == sorted(scores)
        assert len(result.candidates) == len(DEFAULT_OCC_EXP_GRID) * len(
            DEFAULT_LEAK_QUAD_GRID
        )

    def test_render_mentions_selection_and_template(self):
        samples = synthesize_samples(K40C, K40C_CAL)
        result = fit_calibration(K40C, samples, template=K40C_CAL)
        text = result.render(base=K40C_CAL)
        assert "selected occ_exp=1" in text
        assert "e_lane_j" in text
        assert "template" in text


class TestIllPosed:
    def test_too_few_samples(self):
        samples = synthesize_samples(K40C, K40C_CAL)[:4]
        with pytest.raises(FitError, match="need at least"):
            fit_calibration(K40C, samples, template=K40C_CAL)

    def test_aux_unidentifiable_falls_back_to_template(self):
        # G=1 everywhere: the aux duty-cycle feature is identically 0.
        grid = [
            (n, bs, 1, 24)
            for n in (2048, 4096, 6144)
            for bs in (8, 16, 24, 32)
        ]
        samples = synthesize_samples(K40C, K40C_CAL, grid)
        result = fit_calibration(K40C, samples, template=K40C_CAL)
        assert any("aux_power_w" in n for n in result.notes)
        assert result.calibration.aux_power_w == K40C_CAL.aux_power_w

    def test_single_occupancy_is_flagged(self):
        # One tile size, no grouping: occupancy is constant across N.
        grid = [(n, 16, 1, 24) for n in (2048, 3072, 4096, 5120, 6144, 7168)]
        samples = synthesize_samples(K40C, K40C_CAL, grid)
        result = fit_calibration(K40C, samples, template=K40C_CAL)
        assert any("occupancy" in n for n in result.notes)


class TestSampleGrid:
    def test_grid_identifies_every_term(self):
        for spec in (K40C, P100):
            grid = default_sample_grid(spec)
            assert len(grid) >= 12
            ns = {n for n, *_ in grid}
            bss = {bs for _, bs, *_ in grid}
            gs = {g for _, _, g, _ in grid}
            assert len(ns) >= 2 and len(bss) >= 3 and 1 in gs and 4 in gs
            # Aux identifiability: every N sits below the threshold.
            assert all(n < spec.additivity_threshold_n for n in ns)

    def test_grid_respects_group_capacity(self):
        from repro.simgpu.kernel import max_group_size

        for n, bs, g, r in default_sample_grid(K40C):
            assert g <= max_group_size(K40C, bs, 8)
            assert g * r == 24

    def test_synthesis_is_deterministic(self):
        a = synthesize_samples(P100, P100_CAL, noise=0.05, seed=3)
        b = synthesize_samples(P100, P100_CAL, noise=0.05, seed=3)
        assert a == b


class TestSamplesIO:
    def test_save_load_round_trip(self, tmp_path):
        samples = synthesize_samples(K40C, K40C_CAL)
        path = tmp_path / "samples.json"
        save_samples(path, samples, device="k40c")
        assert load_samples(path) == samples
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-fit-samples/1"
        assert doc["device"] == "k40c"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(DeviceSchemaError, match="invalid JSON"):
            load_samples(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps({"format": "repro-device/1"}))
        with pytest.raises(DeviceSchemaError, match="not a 'repro-fit-samples/1'"):
            load_samples(path)

    def test_empty_samples_list(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(
            json.dumps({"format": "repro-fit-samples/1", "samples": []})
        )
        with pytest.raises(DeviceSchemaError, match="non-empty"):
            load_samples(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "row.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro-fit-samples/1",
                    "samples": [{"n": 1024, "bs": 16}],
                }
            )
        )
        with pytest.raises(DeviceSchemaError, match=r"samples\[0\] is malformed"):
            load_samples(path)

    def test_nonpositive_time(self, tmp_path):
        sample = FitSample(
            n=1024, bs=16, g=1, r=24, time_s=0.0, dynamic_energy_j=1.0
        )
        path = tmp_path / "zero.json"
        save_samples(path, [sample])
        with pytest.raises(DeviceSchemaError, match="positive finite"):
            load_samples(path)


class TestCLILoop:
    """`repro devices synth` → `repro devices fit` end to end."""

    def test_synth_then_fit_recovers_tweak(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.devices.registry import refresh_default_registry
        from repro.devices.schema import device_to_document, load_device_file

        refresh_default_registry()
        # A fictional part: P100 geometry with a tweaked lane energy,
        # registered as a data file so both subcommands see it.
        spec = dataclasses.replace(P100, name="Fit Test GPU")
        cal = dataclasses.replace(P100_CAL, e_lane_j=4.5e-11)
        dev_dir = tmp_path / "devices"
        dev_dir.mkdir()
        (dev_dir / "fitgpu.json").write_text(
            json.dumps(device_to_document("fitgpu", spec, cal))
        )
        monkeypatch.setenv("REPRO_DEVICE_DIR", str(dev_dir))
        refresh_default_registry()
        try:
            samples_path = tmp_path / "samples.json"
            assert main(
                [
                    "devices", "synth", "--device", "fitgpu",
                    "--output", str(samples_path),
                ]
            ) == 0
            out_path = tmp_path / "fitted.json"
            assert main(
                [
                    "devices", "fit",
                    "--samples", str(samples_path),
                    "--device", "fitgpu",
                    "--output", str(out_path),
                    "--key", "fitgpu-refit",
                ]
            ) == 0
            out = capsys.readouterr().out
            assert "selected occ_exp" in out
            refit = load_device_file(out_path)
            assert refit.key == "fitgpu-refit"
            assert _rel_err(refit.calibration.e_lane_j, 4.5e-11) < 1e-6
            assert refit.spec == spec
        finally:
            refresh_default_registry()

    @pytest.mark.parametrize("noise", ["-0.5", "nan", "inf"])
    def test_synth_rejects_bad_noise(self, noise, tmp_path, capsys):
        """Negative or NaN noise used to write noiseless samples without
        a word; infinite noise wrote `Infinity`, which is not JSON."""
        from repro.cli import main

        samples_path = tmp_path / "s.json"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "devices", "synth", "--device", "k40c",
                    "--output", str(samples_path), "--noise", noise,
                ]
            )
        assert exc.value.code == 2
        assert "must be a finite number >= 0" in capsys.readouterr().err
        assert not samples_path.exists()

    def test_synth_rejects_negative_seed(self, tmp_path, capsys):
        """A negative seed used to die in NumPy's generator with a
        traceback; it is a usage error that names the flag."""
        from repro.cli import main

        samples_path = tmp_path / "s.json"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "devices", "synth", "--device", "k40c",
                    "--output", str(samples_path), "--seed", "-1",
                ]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be at least 0 (got -1)" in err
        assert not samples_path.exists()

    def test_fit_rejects_cpu_device(self, tmp_path):
        from repro.cli import main

        samples_path = tmp_path / "s.json"
        save_samples(samples_path, synthesize_samples(K40C, K40C_CAL))
        with pytest.raises(SystemExit):
            main(
                [
                    "devices", "fit",
                    "--samples", str(samples_path),
                    "--device", "haswell",
                ]
            )
