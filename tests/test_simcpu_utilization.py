"""Tests for utilization accounting and contention imbalance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machines import HASWELL
from repro.simcpu.calibration import HASWELL_CAL
from repro.simcpu.topology import place_threads
from repro.simcpu.utilization import contention_jitter, utilization_vector


class TestContentionJitter:
    def test_deterministic_per_key(self):
        a = contention_jitter("mkl:row:p4:t6", 24, 4, HASWELL_CAL)
        b = contention_jitter("mkl:row:p4:t6", 24, 4, HASWELL_CAL)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = contention_jitter("mkl:row:p4:t6", 24, 4, HASWELL_CAL)
        b = contention_jitter("mkl:row:p6:t4", 24, 6, HASWELL_CAL)
        assert not np.array_equal(a, b)

    def test_nonnegative(self):
        j = contention_jitter("x", 48, 8, HASWELL_CAL)
        assert np.all(j >= 0.0)

    def test_spread_grows_with_groups(self):
        # Average over many keys: more threadgroups => more imbalance.
        def mean_spread(groups):
            spreads = [
                contention_jitter(f"k{i}", 24, groups, HASWELL_CAL).max()
                for i in range(50)
            ]
            return float(np.mean(spreads))

        assert mean_spread(24) > mean_spread(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            contention_jitter("x", 0, 1, HASWELL_CAL)
        with pytest.raises(ValueError):
            contention_jitter("x", 4, 0, HASWELL_CAL)


class TestUtilizationVector:
    def test_slowest_thread_fully_utilized(self):
        placement = place_threads(HASWELL, 4)
        jitter = np.array([0.0, 0.1, 0.05, 0.2])
        util = utilization_vector(HASWELL, placement, jitter)
        hosted = [util.per_cpu[c.index] for c in placement.cpus]
        assert max(hosted) == pytest.approx(1.0)
        assert util.wall_time_scale == pytest.approx(1.2)

    def test_faster_threads_report_lower_utilization(self):
        placement = place_threads(HASWELL, 2)
        util = utilization_vector(HASWELL, placement, np.array([0.0, 0.25]))
        u = [util.per_cpu[c.index] for c in placement.cpus]
        assert u[0] == pytest.approx(1.0 / 1.25)
        assert u[1] == pytest.approx(1.0)

    def test_idle_cpus_near_zero(self):
        placement = place_threads(HASWELL, 4)
        util = utilization_vector(HASWELL, placement, np.zeros(4))
        hosted = {c.index for c in placement.cpus}
        idle = [
            u for i, u in enumerate(util.per_cpu) if i not in hosted
        ]
        assert all(u < 0.01 for u in idle)
        assert len(idle) == 44

    def test_average_tracks_thread_count(self):
        placement = place_threads(HASWELL, 24)
        util = utilization_vector(HASWELL, placement, np.zeros(24))
        assert util.average == pytest.approx(0.5, abs=0.01)

    def test_active_filter(self):
        placement = place_threads(HASWELL, 6)
        util = utilization_vector(HASWELL, placement, np.zeros(6))
        assert len(util.active()) == 6

    def test_jitter_length_checked(self):
        placement = place_threads(HASWELL, 4)
        with pytest.raises(ValueError):
            utilization_vector(HASWELL, placement, np.zeros(3))

    def test_imbalance_lowers_average_utilization(self):
        """The theory's signature: imbalance wastes utilization."""
        placement = place_threads(HASWELL, 24)
        balanced = utilization_vector(HASWELL, placement, np.zeros(24))
        skew = np.zeros(24)
        skew[0] = 0.3
        imbalanced = utilization_vector(HASWELL, placement, skew)
        assert imbalanced.average < balanced.average


class TestVectorizedFillIsBitIdentical:
    """The one-step fill and the wrapper-free average do the loop's and
    ``np.mean``'s arithmetic, so every bit matches."""

    @pytest.mark.parametrize("os_noise", [0.004, 0.0])
    @pytest.mark.parametrize("n_threads", range(1, HASWELL.logical_cpus + 1))
    def test_matches_loop_formula_and_np_mean(self, n_threads, os_noise):
        placement = place_threads(HASWELL, n_threads)
        jitter = contention_jitter(
            f"part-{n_threads}", n_threads, 1 + n_threads % 4, HASWELL_CAL
        )
        util = utilization_vector(
            HASWELL, placement, jitter, os_noise=os_noise
        )
        completion = 1.0 + np.asarray(jitter, dtype=float)
        wall = float(completion.max())
        per_cpu = np.full(HASWELL.logical_cpus, os_noise)
        for thread_idx, cpu in enumerate(placement.cpus):
            per_cpu[cpu.index] = completion[thread_idx] / wall
        expected = tuple(per_cpu.tolist())
        assert [u.hex() for u in util.per_cpu] == [u.hex() for u in expected]
        assert util.average.hex() == float(np.mean(expected)).hex()
        assert util.wall_time_scale.hex() == wall.hex()

    def test_average_is_np_mean_on_every_fig4_configuration(self):
        from repro.apps.dgemm_cpu import DGEMMCPUApp
        from repro.experiments.fig4_cpu_utilization import N_PAPER

        results = DGEMMCPUApp(HASWELL).sweep(N_PAPER)
        assert len(results) == 294
        for result in results:
            util = result.utilization
            assert util.average.hex() == float(np.mean(util.per_cpu)).hex()
            assert result.avg_utilization.hex() == (util.average * 100.0).hex()
