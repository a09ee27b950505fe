"""Tests for CPU topology and thread placement."""

from __future__ import annotations

import pytest

from repro.apps.dgemm_cpu import DGEMMCPUApp
from repro.machines import HASWELL
from repro.simcpu import processor, topology
from repro.simcpu.topology import enumerate_topology, place_threads


class TestTopology:
    def test_logical_cpu_count(self):
        topo = enumerate_topology(HASWELL)
        assert len(topo) == 48
        assert len({c.index for c in topo}) == 48

    def test_sibling_numbering(self):
        # Linux convention: cpu0 and cpu24 are hyperthreads of core 0.
        topo = {c.index: c for c in enumerate_topology(HASWELL)}
        assert topo[0].physical_core == topo[24].physical_core
        assert topo[0].hyperthread == 0
        assert topo[24].hyperthread == 1

    def test_socket_assignment(self):
        topo = {c.index: c for c in enumerate_topology(HASWELL)}
        assert topo[0].socket == 0
        assert topo[12].socket == 1


class TestPlacement:
    def test_one_thread(self):
        p = place_threads(HASWELL, 1)
        assert p.n_threads == 1
        assert p.active_physical_cores == 1
        assert p.smt_cores == 0

    def test_two_threads_spread_across_sockets(self):
        p = place_threads(HASWELL, 2)
        assert p.active_sockets == 2
        assert p.active_physical_cores == 2

    def test_24_threads_fill_physical_cores_first(self):
        p = place_threads(HASWELL, 24)
        assert p.active_physical_cores == 24
        assert p.smt_cores == 0

    def test_25th_thread_starts_smt(self):
        p = place_threads(HASWELL, 25)
        assert p.active_physical_cores == 24
        assert p.smt_cores == 1

    def test_48_threads_saturate(self):
        p = place_threads(HASWELL, 48)
        assert p.active_physical_cores == 24
        assert p.smt_cores == 24
        assert p.active_sockets == 2

    def test_distinct_logical_cpus(self):
        p = place_threads(HASWELL, 37)
        assert len({c.index for c in p.cpus}) == 37

    def test_oversubscription_rejected(self):
        with pytest.raises(ValueError):
            place_threads(HASWELL, 49)

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            place_threads(HASWELL, 0)

    def test_balanced_socket_split_even_counts(self):
        for n in (2, 4, 8, 12, 24):
            p = place_threads(HASWELL, n)
            per_socket = [0, 0]
            for c in p.cpus:
                per_socket[c.socket] += 1
            assert abs(per_socket[0] - per_socket[1]) <= 1


class TestPlacementMemo:
    def test_sweep_places_each_thread_count_once(self, monkeypatch):
        built = []
        real = topology.enumerate_topology

        def counting(spec):
            built.append(spec)
            return real(spec)

        monkeypatch.setattr(topology, "enumerate_topology", counting)
        # Both memo layers cold: the processors' placement tables, then
        # place_threads' own memo.
        monkeypatch.setattr(processor, "_placement_tables", {})
        place_threads.cache_clear()
        app = DGEMMCPUApp(HASWELL)
        results = app.sweep(17408, "mkl")
        assert len(results) == 147
        assert len(built) == len(app.thread_counts) == 10

    def test_counts_follow_placement_order(self):
        p = place_threads(HASWELL, 30)
        # Scatter fills every physical core before any second
        # hyperthread, and second hyperthreads follow the same order.
        assert p.threads_per_core == (2,) * 6 + (1,) * 18
        assert p.active_physical_cores == 24
        assert p.smt_cores == 6
        assert p.active_sockets == 2
