"""The scalar models' device tables (docs/MODEL.md §1.9).

A :class:`GPUDevice` resolves its ``(spec, cal)`` pair's table when it
is built and finds each ``(n, bs, g)``'s clock-free terms, with its
kernel resources and occupancy, there; a :class:`MulticoreCPU` finds
each thread count's placement in its spec's table.  So a warm call
hashes no spec and no calibration, a hit returns the records a miss
built, and every table stays bounded.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.experiments import sensitivity
from repro.machines import HASWELL, K40C, P100
from repro.machines.specs import CPUSpec, GPUSpec
from repro.simcpu import processor
from repro.simcpu.processor import DGEMMConfig, MulticoreCPU
from repro.simcpu.topology import place_threads
from repro.simgpu import device
from repro.simgpu.calibration import K40C_CAL, GPUCalibration
from repro.simgpu.device import GPUDevice
from repro.simgpu.kernel import matmul_kernel_resources


@pytest.fixture(autouse=True)
def _fresh_tables(monkeypatch):
    """Every test starts from empty table registries of its own."""
    monkeypatch.setattr(device, "_device_tables", {})
    monkeypatch.setattr(processor, "_placement_tables", {})


@pytest.fixture
def hashes(monkeypatch) -> Counter:
    """Calls of each spec and calibration class's ``__hash__``."""
    counts: Counter = Counter()
    for cls in (GPUSpec, GPUCalibration, CPUSpec):
        real = cls.__hash__

        def counted(self, _real=real, _name=cls.__name__):
            counts[_name] += 1
            return _real(self)

        monkeypatch.setattr(cls, "__hash__", counted)
    return counts


#: One call per clock branch: K40c default, P100 throttled (bisection
#: and thermal soak), fixed base clock, a pinned clock, seeded jitter.
CALLS = [
    (K40C, (10240, 16, 2, 3), dict),
    (P100, (18432, 32, 1, 24), dict),
    (P100, (10240, 24, 2, 1), lambda: {"fixed_clock": True}),
    (P100, (14336, 32, 1, 24), lambda: {"pinned_clock_hz": 1.2e9}),
    (K40C, (8704, 8, 4, 1), lambda: {"rng": np.random.default_rng(7)}),
]


class TestGPUDeviceTable:
    @pytest.mark.parametrize("spec,args,kwargs", CALLS)
    def test_warm_call_hashes_no_spec_or_calibration(
        self, hashes, spec, args, kwargs
    ):
        dev = GPUDevice(spec)
        cold = dev.run_matmul(*args, **kwargs())
        hashes.clear()
        warm = dev.run_matmul(*args, **kwargs())
        assert hashes == Counter()
        assert warm == cold

    def test_a_new_device_hashes_its_pair_only_when_built(self, hashes):
        GPUDevice(P100).run_matmul(10240, 16)
        hashes.clear()
        dev = GPUDevice(P100)
        built = Counter(hashes)
        dev.run_matmul(10240, 16)
        assert hashes == built
        assert built["GPUSpec"] == built["GPUCalibration"] == 1

    def test_hit_returns_the_records_the_miss_built(self):
        dev = GPUDevice(K40C)
        miss = dev.run_matmul(8704, 16, 2)
        entry = dev._table[8704, 16, 2]
        res, occ = entry.resources, entry.occupancy
        hit = dev.run_matmul(8704, 16, 2, 3)
        shared = GPUDevice(K40C, K40C_CAL).run_matmul(8704, 16, 2)
        for result in (miss, hit, shared):
            assert result.resources is res
            assert result.occupancy is occ
        # Calls that differ only in R share the configuration's entry.
        assert list(dev._table) == [(8704, 16, 2)]
        assert dev._table[8704, 16, 2] is entry
        assert res == matmul_kernel_resources(K40C, K40C_CAL, 8704, 16, 2)

    def test_only_a_miss_reaches_the_record_builder(self, monkeypatch):
        builds = Counter()
        build = device.matmul_kernel_resources

        def counted(*args):
            builds[args[2:]] += 1
            return build(*args)

        monkeypatch.setattr(device, "matmul_kernel_resources", counted)
        dev = GPUDevice(P100)
        dev.run_matmul(10240, 8, 4)
        dev.run_matmul(10240, 8, 4, 2)
        assert builds == Counter({(10240, 8, 4): 1})
        monkeypatch.setattr(device, "_device_tables", {})
        GPUDevice(P100).run_matmul(10240, 8, 4)
        assert builds == Counter({(10240, 8, 4): 2})

    def test_an_invalid_configuration_enters_nothing(self):
        dev = GPUDevice(K40C)
        with pytest.raises(ValueError):
            dev.run_matmul(4096, 32, 8)
        assert dev._table == {}

    def test_tables_stay_bounded_over_more_calibrations_than_the_bound(
        self, monkeypatch
    ):
        """Sensitivity's perturbed calibrations, one table each, against
        a bound below their count: the oldest tables are dropped, and a
        dropped pair's devices still run right."""
        monkeypatch.setattr(device, "DEVICE_TABLES", 8)
        requests = sensitivity.requests()
        assert len({(r.spec, r.calibration) for r in requests}) > 8
        first = None
        for request in requests:
            dev = GPUDevice(request.spec, request.calibration)
            result = dev.run_matmul(request.n, 16, 2)
            if first is None:
                first = dev, request.n, result
            assert len(device._device_tables) <= 8
        dev, n, result = first
        assert (dev.spec, dev.cal) not in device._device_tables
        assert dev.run_matmul(n, 16, 2) == result

    def test_a_full_table_is_emptied(self, monkeypatch):
        monkeypatch.setattr(device, "DEVICE_TABLE_SIZE", 4)
        dev = GPUDevice(P100)
        for bs in range(8, 18):
            result = dev.run_matmul(5120, bs)
            assert result.resources.bs == bs
            assert 1 <= len(dev._table) <= 4


class TestPlacementTable:
    CONFIG = DGEMMConfig("row", 4, 6, "mkl")

    def test_warm_call_hashes_no_spec(self, hashes):
        cpu = MulticoreCPU(HASWELL)
        cold = cpu.run_dgemm(17408, self.CONFIG)
        hashes.clear()
        warm = cpu.run_dgemm(17408, self.CONFIG)
        again = cpu.run_dgemm(1024, DGEMMConfig("col", 2, 12, "openblas"))
        assert hashes == Counter()
        assert warm == cold
        assert again.placement is cold.placement

    def test_hit_returns_the_placement_the_miss_built(self):
        first = MulticoreCPU(HASWELL).run_dgemm(17408, self.CONFIG)
        second = MulticoreCPU(HASWELL).run_dgemm(17408, self.CONFIG)
        assert first.placement is second.placement
        assert first.placement is place_threads(HASWELL, 24)

    def test_a_table_holds_one_placement_per_valid_thread_count(self):
        cpu = MulticoreCPU(HASWELL)
        for threads in range(1, HASWELL.logical_cpus + 1):
            cpu.aggregate_flops(4096, DGEMMConfig("block", 1, threads))
        with pytest.raises(ValueError):
            cpu.aggregate_flops(4096, DGEMMConfig("block", 7, 7))
        assert sorted(cpu._placements) == list(
            range(1, HASWELL.logical_cpus + 1)
        )

    def test_tables_stay_bounded_over_more_specs_than_the_bound(
        self, monkeypatch
    ):
        monkeypatch.setattr(processor, "PLACEMENT_TABLES", 2)
        for k in range(5):
            spec = dataclasses.replace(HASWELL, name=f"Haswell variant {k}")
            MulticoreCPU(spec).run_dgemm(4096, self.CONFIG)
            assert len(processor._placement_tables) <= 2
