"""Tests for :mod:`repro.devices` — schema, registry, and its wiring.

Built-in entries that are the in-code constants themselves, the
``repro devices show`` round trip (including content-digest identity),
the name-keyed ``calibration_for`` dispatch regression (pickled
specs), ``get_machine`` registry fall-through, data-file devices
running a sweep end to end, and the schema's edge-case diagnostics
(missing field, unknown version, duplicates, non-finite constants,
bad types, invalid syntax).
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.devices.registry import (
    DeviceRegistry,
    default_registry,
    device_calibration,
    device_spec,
    gpu_device_choices,
    refresh_default_registry,
)
from repro.devices.schema import (
    DEVICE_FORMAT,
    DeviceSchemaError,
    UnknownDeviceError,
    device_to_document,
    dump_device_json,
    load_device_file,
    parse_device_document,
)
from repro.machines.specs import HASWELL, K40C, MACHINES, P100, get_machine
from repro.simgpu.calibration import K40C_CAL, P100_CAL, calibration_for


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Isolate the process-wide registry cache from $REPRO_DEVICE_DIR."""
    refresh_default_registry()
    yield
    refresh_default_registry()


def _write_device(path, key, spec, cal=None, **overrides):
    """Write a device document with optional raw-field overrides."""
    doc = device_to_document(key, spec, cal)
    for dotted, value in overrides.items():
        target = doc
        parts = dotted.split(".")
        for part in parts[:-1]:
            target = target[part]
        if value is _DELETE:
            del target[parts[-1]]
        else:
            target[parts[-1]] = value
    path.write_text(json.dumps(doc))
    return path


_DELETE = object()


class TestBuiltins:
    def test_builtin_entries_are_the_in_code_constants(self):
        registry = default_registry()
        assert registry.get("k40c").spec is K40C
        assert registry.get("k40c").calibration is K40C_CAL
        assert registry.get("p100").spec is P100
        assert registry.get("p100").calibration is P100_CAL
        assert registry.get("haswell").spec is HASWELL
        assert registry.get("haswell").calibration is None
        assert {e.source for e in registry.entries()} == {"bundled"}

    def test_lookup_by_full_spec_name_and_case(self):
        registry = default_registry()
        assert registry.get("Nvidia K40c").key == "k40c"
        assert registry.get("NVIDIA P100 PCIE").key == "p100"
        assert "k40c" in registry and "nope" not in registry

    def test_device_file_cannot_shadow_a_builtin(self, tmp_path, monkeypatch):
        _write_device(tmp_path / "k.json", "k40c", K40C, K40C_CAL)
        monkeypatch.setenv("REPRO_DEVICE_DIR", str(tmp_path))
        refresh_default_registry()
        with pytest.raises(
            DeviceSchemaError,
            match=r"duplicate device key 'k40c'.*bundled.*k\.json",
        ):
            default_registry()


class TestValidateCommand:
    """`repro devices validate FILE` makes the registry's duplicate
    check, as `$REPRO_DEVICE_DIR` would load the file."""

    def test_unedited_show_output_clashes_until_edited(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["devices", "show", "p100"]) == 0
        path = tmp_path / "p100.json"
        path.write_text(capsys.readouterr().out)
        assert main(["devices", "validate", str(path)]) == 1
        assert capsys.readouterr().out == (
            f"FAIL {path}: duplicate device key 'p100': defined by both "
            f"bundled and {path}\n"
        )
        # The README flow: a new key and spec name make the copy valid.
        doc = json.loads(path.read_text())
        doc["key"], doc["spec"]["name"] = "v100", "Nvidia V100"
        path.write_text(json.dumps(doc))
        assert main(["devices", "validate", str(path)]) == 0
        assert capsys.readouterr().out.startswith(f"ok   {path}: v100 ")

    def test_spec_name_clash_is_case_insensitive(self, tmp_path, capsys):
        from repro.cli import main

        path = _write_device(
            tmp_path / "p.json", "p100-copy", P100, P100_CAL,
            **{"spec.name": P100.name.upper()},
        )
        assert main(["devices", "validate", str(path)]) == 1
        assert (
            f"duplicate device name {P100.name.upper()!r}: defined by both "
            f"bundled (key 'p100') and {path} (key 'p100-copy')"
        ) in capsys.readouterr().out

    def test_registered_file_does_not_clash_with_itself(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        device_dir = tmp_path / "devices"
        device_dir.mkdir()
        path = _write_device(
            device_dir / "v100.json", "v100", P100, P100_CAL,
            **{"spec.name": "Nvidia V100"},
        )
        monkeypatch.setenv("REPRO_DEVICE_DIR", str(device_dir))
        alias = device_dir / ".." / "devices" / "v100.json"
        assert main(["devices", "validate", str(path), str(alias)]) == 0
        capsys.readouterr()
        # A copy at another path is a second definition of v100.
        copy = tmp_path / "v100.json"
        copy.write_text(path.read_text())
        assert main(["devices", "validate", str(copy)]) == 1
        assert (
            f"duplicate device key 'v100': defined by both {path} and {copy}"
        ) in capsys.readouterr().out

    def test_clash_inside_the_device_dir_is_reported(
        self, tmp_path, monkeypatch, capsys
    ):
        """The directory then fails to load, so the file is checked
        against the built-in entries."""
        from repro.cli import main

        path = _write_device(tmp_path / "p100.json", "p100", P100, P100_CAL)
        monkeypatch.setenv("REPRO_DEVICE_DIR", str(tmp_path))
        assert main(["devices", "validate", str(path)]) == 1
        assert (
            f"FAIL {path}: duplicate device key 'p100': defined by both "
            f"bundled and {path}"
        ) in capsys.readouterr().out


class TestCalibrationDispatch:
    def test_pickled_spec_resolves_regression(self):
        """The id()-keyed dispatch bug: equal-but-distinct specs."""
        clone = pickle.loads(pickle.dumps(K40C))
        assert clone is not K40C
        assert calibration_for(clone) is K40C_CAL
        assert calibration_for(pickle.loads(pickle.dumps(P100))) is P100_CAL

    def test_copied_spec_resolves(self):
        assert calibration_for(dataclasses.replace(K40C)) is K40C_CAL

    def test_registered_data_file_device_resolves(self, tmp_path, monkeypatch):
        spec = dataclasses.replace(P100, name="Test GPU X")
        cal = dataclasses.replace(P100_CAL, e_lane_j=1e-11)
        _write_device(tmp_path / "x.json", "test-x", spec, cal)
        monkeypatch.setenv("REPRO_DEVICE_DIR", str(tmp_path))
        refresh_default_registry()
        assert calibration_for(spec) == cal

    def test_same_name_different_constants_is_rejected(
        self, tmp_path, monkeypatch
    ):
        """A registered *name* must not pair with a divergent spec."""
        spec = dataclasses.replace(P100, name="Test GPU X")
        _write_device(tmp_path / "x.json", "test-x", spec, P100_CAL)
        monkeypatch.setenv("REPRO_DEVICE_DIR", str(tmp_path))
        refresh_default_registry()
        divergent = dataclasses.replace(spec, cuda_cores=1)
        with pytest.raises(KeyError, match="no default calibration"):
            calibration_for(divergent)

    def test_unknown_spec_raises_actionable_keyerror(self):
        unknown = dataclasses.replace(P100, name="Mystery GPU")
        with pytest.raises(KeyError, match="pass one explicitly"):
            calibration_for(unknown)


class TestGetMachineFallThrough:
    def test_core_names_keep_identity(self):
        assert get_machine("p100") is P100
        assert get_machine("k40c") is K40C
        assert get_machine("haswell") is HASWELL

    def test_data_file_device_resolves(self, tmp_path, monkeypatch):
        spec = dataclasses.replace(K40C, name="Test GPU Y", sm_count=13)
        _write_device(tmp_path / "y.json", "test-y", spec, K40C_CAL)
        monkeypatch.setenv("REPRO_DEVICE_DIR", str(tmp_path))
        refresh_default_registry()
        assert get_machine("test-y") == spec
        assert get_machine("Test GPU Y") == spec

    def test_unknown_name_lists_registered_devices(self):
        with pytest.raises(KeyError, match="registered devices.*k40c"):
            get_machine("nope")


class TestDataFileDeviceEndToEnd:
    def test_sweep_runs_without_new_code(self, tmp_path, monkeypatch, capsys):
        """ISSUE acceptance: a data-file device runs `repro sweep`."""
        from repro.cli import main

        spec = dataclasses.replace(
            P100, name="Test V100", cuda_cores=5120, sm_count=80
        )
        cal = dataclasses.replace(P100_CAL, e_lane_j=4.5e-11)
        _write_device(tmp_path / "v100.json", "test-v100", spec, cal)
        monkeypatch.setenv("REPRO_DEVICE_DIR", str(tmp_path))
        refresh_default_registry()
        assert "test-v100" in gpu_device_choices()
        assert main(["sweep", "--device", "test-v100", "--n", "2048"]) == 0
        out = capsys.readouterr().out
        assert "configurations, N=2048" in out
        assert "Pareto front:" in out

    def test_registry_helpers_resolve(self, tmp_path, monkeypatch):
        spec = dataclasses.replace(P100, name="Test V100")
        cal = dataclasses.replace(P100_CAL, e_lane_j=4.5e-11)
        _write_device(tmp_path / "v100.json", "test-v100", spec, cal)
        monkeypatch.setenv("REPRO_DEVICE_DIR", str(tmp_path))
        refresh_default_registry()
        assert device_spec("test-v100") == spec
        assert device_calibration("test-v100") == cal

    def test_cpu_has_no_calibration(self):
        with pytest.raises(UnknownDeviceError, match="is a cpu"):
            device_calibration("haswell")


class TestSchemaEdgeCases:
    def _gpu_doc(self):
        return device_to_document("test-gpu", K40C, K40C_CAL)

    def test_missing_required_field(self):
        doc = self._gpu_doc()
        del doc["spec"]["sm_count"]
        with pytest.raises(
            DeviceSchemaError, match=r"missing required field 'sm_count'"
        ):
            parse_device_document(doc, source="t.json")

    def test_unknown_schema_version(self):
        doc = self._gpu_doc()
        doc["format"] = "repro-device/99"
        with pytest.raises(
            DeviceSchemaError,
            match=r"unknown schema version 'repro-device/99'",
        ):
            parse_device_document(doc)

    def test_duplicate_device_key_names_both_sources(
        self, tmp_path, monkeypatch
    ):
        spec = dataclasses.replace(K40C, name="Dup GPU")
        _write_device(tmp_path / "a.json", "dup", spec, K40C_CAL)
        _write_device(
            tmp_path / "b.json", "dup",
            dataclasses.replace(spec, name="Dup GPU B"), K40C_CAL,
        )
        with pytest.raises(
            DeviceSchemaError, match=r"duplicate device key 'dup'.*a\.json.*b\.json"
        ):
            DeviceRegistry.load_dirs([tmp_path])

    def test_duplicate_spec_name_names_both_sources(
        self, tmp_path, monkeypatch
    ):
        spec = dataclasses.replace(K40C, name="Dup GPU")
        _write_device(tmp_path / "a.json", "dup-a", spec, K40C_CAL)
        _write_device(tmp_path / "b.json", "dup-b", spec, K40C_CAL)
        with pytest.raises(
            DeviceSchemaError, match=r"duplicate device name 'Dup GPU'"
        ):
            DeviceRegistry.load_dirs([tmp_path])

    def test_non_finite_calibration_constant(self):
        doc = self._gpu_doc()
        doc["calibration"]["e_lane_j"] = float("nan")
        with pytest.raises(
            DeviceSchemaError,
            match=r"\[calibration\].e_lane_j must be a finite number",
        ):
            parse_device_document(doc)

    def test_wrong_scalar_type(self):
        doc = self._gpu_doc()
        doc["spec"]["cuda_cores"] = "many"
        with pytest.raises(
            DeviceSchemaError, match=r"\[spec\].cuda_cores must be a number"
        ):
            parse_device_document(doc)

    def test_unknown_field_rejected(self):
        doc = self._gpu_doc()
        doc["spec"]["cuda_coresz"] = 1
        with pytest.raises(
            DeviceSchemaError, match=r"unknown field\(s\) cuda_coresz"
        ):
            parse_device_document(doc)

    def test_gpu_requires_calibration(self):
        doc = self._gpu_doc()
        del doc["calibration"]
        with pytest.raises(
            DeviceSchemaError, match=r"require a \[calibration\]"
        ):
            parse_device_document(doc)

    def test_cpu_forbids_calibration(self):
        doc = device_to_document("test-cpu", HASWELL)
        doc["calibration"] = {"lsu_lanes": 32}
        with pytest.raises(
            DeviceSchemaError, match=r"take no \[calibration\]"
        ):
            parse_device_document(doc)

    def test_bad_key_slug(self):
        doc = self._gpu_doc()
        doc["key"] = "Not A Slug!"
        with pytest.raises(DeviceSchemaError, match="lowercase slug"):
            parse_device_document(doc)

    def test_invalid_json_is_a_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DeviceSchemaError, match="invalid JSON"):
            load_device_file(path)

    def test_unsupported_suffix(self, tmp_path):
        for name in ("dev.yaml", "dev.toml"):
            path = tmp_path / name
            path.write_text('key = "x"')
            with pytest.raises(
                DeviceSchemaError, match="unsupported device-file suffix"
            ):
                load_device_file(path)

    def test_float_field_accepts_int(self):
        doc = self._gpu_doc()
        doc["spec"]["tdp_w"] = 235  # hand-written JSON drops the .0
        parsed = parse_device_document(doc)
        assert parsed.spec.tdp_w == 235.0

    def test_int_field_rejects_bool(self):
        doc = self._gpu_doc()
        doc["spec"]["warp_size"] = True
        with pytest.raises(DeviceSchemaError, match="must be a number"):
            parse_device_document(doc)

    def test_missing_device_dir_is_a_schema_error(self, tmp_path):
        with pytest.raises(DeviceSchemaError, match="does not exist"):
            DeviceRegistry.load_dirs([tmp_path / "nope"])

    def test_foreign_repro_artifacts_are_skipped(self, tmp_path, monkeypatch):
        """Fit-sample/sweep files sharing the dir must not break it."""
        spec = dataclasses.replace(K40C, name="Test GPU Z")
        _write_device(tmp_path / "z.json", "test-z", spec, K40C_CAL)
        (tmp_path / "samples.json").write_text(
            json.dumps({"format": "repro-fit-samples/1", "samples": []})
        )
        registry = DeviceRegistry.load_dirs([tmp_path])
        assert registry.keys() == ("test-z",)


class TestChoicesFallback:
    def test_broken_user_dir_falls_back_to_bundled(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "broken.json").write_text("{not json")
        monkeypatch.setenv("REPRO_DEVICE_DIR", str(tmp_path))
        refresh_default_registry()
        assert gpu_device_choices() == ("k40c", "p100")
        # ...but strict resolution still surfaces the breakage.
        with pytest.raises(DeviceSchemaError, match="invalid JSON"):
            default_registry()

    def test_unknown_device_error_lists_entries(self):
        with pytest.raises(
            UnknownDeviceError, match=r"registered devices.*k40c.*p100"
        ):
            default_registry().get("tpu-v9")


class TestDeviceChoicesConsistency:
    """Every CLI ``--device`` flag accepts the same registry-derived set."""

    @staticmethod
    def _device_flags(parser, path="repro"):
        """Yield (command path, choices) for each --device flag, recursively."""
        import argparse

        for action in parser._actions:
            if "--device" in getattr(action, "option_strings", ()):
                yield path, tuple(action.choices or ())
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    yield from TestDeviceChoicesConsistency._device_flags(
                        sub, f"{path} {name}"
                    )

    def test_every_device_flag_uses_registry_choices(self):
        from repro.cli import build_parser

        flags = dict(self._device_flags(build_parser()))
        expected = gpu_device_choices()
        # The flag appears on every sweep-driven command...
        for command in ("repro sweep", "repro tradeoff", "repro bench",
                        "repro devices synth", "repro devices fit"):
            assert command in flags, sorted(flags)
        # ...and each one accepts exactly the registry's GPU keys.
        for command, choices in flags.items():
            assert choices == expected, (command, choices, expected)

    def test_registered_device_extends_all_flags(self, tmp_path, monkeypatch):
        from repro.cli import build_parser

        spec = dataclasses.replace(P100, name="Test GPU Q")
        _write_device(tmp_path / "q.json", "test-q", spec, P100_CAL)
        monkeypatch.setenv("REPRO_DEVICE_DIR", str(tmp_path))
        refresh_default_registry()
        for command, choices in self._device_flags(build_parser()):
            assert "test-q" in choices, command


class TestDocumentRoundTrip:
    @pytest.mark.parametrize("key", sorted(MACHINES))
    def test_show_then_load_reproduces_builtin(self, key, tmp_path, capsys):
        """The documented flow: `repro devices show KEY > f.json`."""
        from repro.cli import main
        from repro.sweep.keys import shard_digest

        assert main(["devices", "show", key]) == 0
        path = tmp_path / f"{key}.json"
        path.write_text(capsys.readouterr().out)
        parsed = load_device_file(path)
        entry = default_registry().get(key)
        assert parsed.key == key
        assert parsed.spec == entry.spec
        assert parsed.calibration == entry.calibration
        assert parsed.description == entry.description
        if entry.calibration is not None:
            # Value-equal specs must address the same store shards.
            assert shard_digest(parsed.spec, parsed.calibration, 10240) == \
                shard_digest(entry.spec, entry.calibration, 10240)

    def test_dump_load_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "k40c.json"
        dump_device_json(path, "k40c-copy", K40C, K40C_CAL, description="d")
        parsed = load_device_file(path)
        assert parsed.spec == K40C
        assert parsed.calibration == K40C_CAL
        assert parsed.description == "d"
        assert parsed.key == "k40c-copy"
        assert parsed.kind == "gpu"

    def test_cpu_round_trip(self, tmp_path):
        path = tmp_path / "h.json"
        dump_device_json(path, "haswell-copy", HASWELL)
        parsed = load_device_file(path)
        assert parsed.spec == HASWELL
        assert parsed.calibration is None
        assert parsed.kind == "cpu"

    def test_format_tag_present(self):
        assert device_to_document("x", K40C, K40C_CAL)["format"] == DEVICE_FORMAT
