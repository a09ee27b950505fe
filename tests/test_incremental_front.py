"""Property tests: incremental front ≡ batch front, array kernel ≡ points.

Same hand-rolled seeded-random property style as
``tests/test_pareto_properties.py``: every cloud is deterministic in
its seed and includes tie/duplicate regimes.  Two equivalences are
enforced:

* :class:`repro.core.incremental.IncrementalParetoFront` after *any*
  insert sequence (original, shuffled, reversed, adversarially sorted)
  equals ``pareto_front`` over the same point multiset, and on a
  50,000-point cloud equals the array kernel ``front_indices``;
* each insert's verdict and evictions follow weak dominance against
  the members before it, and the front's columns and configs stay
  aligned with its points;
* the array kernel ``front_indices`` selects exactly the points
  ``pareto_front`` keeps, in the same order, including stable
  tie-breaking and duplicate collapse.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.incremental import IncrementalParetoFront
from repro.core.pareto import ParetoPoint, front_indices, pareto_front

SEEDS = range(25)


def random_cloud(seed: int) -> list[ParetoPoint]:
    """Seeded random cloud; regimes force ties and exact duplicates."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 120))
    regime = seed % 3
    if regime == 0:
        times = rng.uniform(0.1, 10.0, size)
        energies = rng.uniform(1.0, 1000.0, size)
    elif regime == 1:
        times = rng.integers(1, 8, size).astype(float)
        energies = rng.integers(1, 8, size).astype(float)
    else:
        times = np.concatenate([rng.uniform(0.1, 10.0, size), [1.0] * 5])
        energies = np.concatenate([rng.uniform(1.0, 1000.0, size), [5.0] * 5])
    return [
        ParetoPoint(float(t), float(e), config={"i": i})
        for i, (t, e) in enumerate(zip(times, energies))
    ]


def insert_orders(points: list[ParetoPoint], seed: int):
    """Several adversarial insert sequences of the same multiset."""
    shuffled = list(points)
    random.Random(seed).shuffle(shuffled)
    yield points
    yield shuffled
    yield list(reversed(points))
    yield sorted(points, key=lambda p: (-p.time_s, p.energy_j))
    yield sorted(points, key=lambda p: (p.energy_j, p.time_s))


def objectives(points) -> list[tuple[float, float]]:
    return [p.objectives() for p in points]


class TestIncrementalEquivalence:
    def test_any_insert_order_matches_batch_front(self):
        for seed in SEEDS:
            cloud = random_cloud(seed)
            batch = objectives(pareto_front(cloud))
            for order in insert_orders(cloud, seed):
                inc = IncrementalParetoFront(order)
                assert objectives(inc.points()) == batch, f"seed={seed}"

    def test_large_uniform_cloud_matches_the_array_kernel(self):
        """A 50,000-point cloud (seed 0, the regime-0 ranges) streamed
        in: the same front, in the same order, as ``front_indices``."""
        rng = np.random.default_rng(0)
        times = rng.uniform(0.1, 10.0, 50_000)
        energies = rng.uniform(1.0, 1000.0, 50_000)
        inc = IncrementalParetoFront()
        inc.extend(zip(times.tolist(), energies.tolist()))
        idx = front_indices(times, energies)
        assert [(p.time_s, p.energy_j) for p in inc.points()] == list(
            zip(times[idx].tolist(), energies[idx].tolist())
        )
        assert len(idx) > 1

    def test_invariant_holds_after_every_insert(self):
        for seed in SEEDS:
            inc = IncrementalParetoFront()
            for p in random_cloud(seed):
                inc.insert_point(p)
                times, energies = inc.arrays()
                assert (np.diff(times) > 0).all()
                assert (np.diff(energies) < 0).all()

    def test_incremental_prefix_matches_batch_prefix(self):
        """After every prefix of the stream, the maintained front is
        the batch front of the points seen so far."""
        for seed in SEEDS:
            cloud = random_cloud(seed)
            inc = IncrementalParetoFront()
            for i, p in enumerate(cloud):
                inc.insert_point(p)
                assert objectives(inc.points()) == objectives(
                    pareto_front(cloud[: i + 1])
                )

    def test_duplicate_objectives_keep_first_representative(self):
        inc = IncrementalParetoFront()
        assert inc.insert(1.0, 2.0, config="first")
        assert not inc.insert(1.0, 2.0, config="second")
        assert inc.points()[0].config == "first"
        # pareto_front keeps the first in stable sorted order too.
        pts = [
            ParetoPoint(1.0, 2.0, "first"),
            ParetoPoint(1.0, 2.0, "second"),
        ]
        assert pareto_front(pts)[0].config == "first"

    def test_stream_accounting(self):
        cloud = random_cloud(3)
        inc = IncrementalParetoFront()
        joined = inc.extend(cloud)
        assert inc.inserted == len(cloud)
        assert inc.accepted == joined >= len(inc)
        assert len(inc) == len(pareto_front(cloud))

    def test_iter_len_bool(self):
        inc = IncrementalParetoFront()
        assert not inc and len(inc) == 0 and list(inc) == []
        inc.insert(1.0, 1.0)
        assert inc and len(inc) == 1
        assert [p.objectives() for p in inc] == [(1.0, 1.0)]

    def test_tuple_inputs_coerce(self):
        inc = IncrementalParetoFront([(2.0, 1.0), (1.0, 2.0, {"bs": 4})])
        assert objectives(inc.points()) == [(1.0, 2.0), (2.0, 1.0)]
        assert inc.points()[0].config == {"bs": 4}


@pytest.mark.parametrize("seed", SEEDS)
class TestInsertContract:
    def test_insert_accepts_iff_no_member_weakly_dominates(self, seed):
        """Checked against the members before each insert (shuffled
        stream): rejected iff one is no worse in both objectives, and
        an accepted point evicts exactly the members it weakly
        dominates."""
        stream = random_cloud(seed)
        random.Random(seed).shuffle(stream)
        inc = IncrementalParetoFront()
        for p in stream:
            before = inc.points()
            blocked = any(
                q.time_s <= p.time_s and q.energy_j <= p.energy_j
                for q in before
            )
            assert inc.insert_point(p) == (not blocked)
            if blocked:
                expected = before
            else:
                expected = sorted(
                    [
                        q for q in before
                        if q.time_s < p.time_s or q.energy_j < p.energy_j
                    ] + [p],
                    key=lambda q: q.time_s,
                )
            assert [(q.objectives(), q.config) for q in inc.points()] == [
                (q.objectives(), q.config) for q in expected
            ]

    def test_columns_and_configs_align_with_points(self, seed):
        """After a stream in input order: the columns, the configs and
        the iteration read the same members, the representatives of
        duplicated vectors are ``pareto_front``'s, and the counters
        add up."""
        cloud = random_cloud(seed)
        inc = IncrementalParetoFront()
        joined = inc.extend(cloud)
        points = inc.points()
        times, energies = inc.arrays()
        assert times.tolist() == [p.time_s for p in points]
        assert energies.tolist() == [p.energy_j for p in points]
        assert inc.configs() == [p.config for p in points]
        assert list(inc) == points
        assert inc.configs() == [p.config for p in pareto_front(cloud)]
        assert (inc.inserted, inc.accepted) == (len(cloud), joined)
        assert len(points) <= joined


class TestArrayKernels:
    def test_front_indices_matches_pareto_front_exactly(self):
        for seed in SEEDS:
            cloud = random_cloud(seed)
            times = np.array([p.time_s for p in cloud])
            energies = np.array([p.energy_j for p in cloud])
            idx = front_indices(times, energies)
            assert objectives([cloud[i] for i in idx]) == objectives(
                pareto_front(cloud)
            )
            # Identity, not just equal objectives: stable tie-breaking
            # selects the same representatives.
            assert [cloud[i].config for i in idx] == [
                p.config for p in pareto_front(cloud)
            ]

    def test_empty_inputs(self):
        assert front_indices([], []).size == 0
