"""Property tests: incremental front ≡ batch front, array kernels ≡ points.

Same hand-rolled seeded-random property style as
``tests/test_pareto_properties.py``: every cloud is deterministic in
its seed and includes tie/duplicate regimes.  Two equivalences are
enforced:

* :class:`repro.core.incremental.IncrementalParetoFront` after *any*
  insert sequence (original, shuffled, reversed, adversarially sorted)
  equals ``pareto_front`` / rank 0 of ``nondominated_sort`` over the
  same point multiset — the bench v4 incremental-vs-batch gate in
  test form;
* the array kernels ``front_indices`` / ``front_mask`` select exactly
  the points ``pareto_front`` keeps, in the same order, including
  stable tie-breaking and duplicate collapse.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.incremental import IncrementalParetoFront
from repro.core.pareto import (
    ParetoPoint,
    front_indices,
    front_mask,
    nondominated_sort,
    pareto_front,
)

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
            rank0 = objectives(nondominated_sort(cloud)[0])
            assert batch == rank0  # staircase rank 0 is the front
            for order in insert_orders(cloud, seed):
                inc = IncrementalParetoFront(order)
                assert objectives(inc.points()) == batch, f"seed={seed}"

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

    def test_dominated_query_predicts_insert_without_mutating(self):
        for seed in SEEDS:
            cloud = random_cloud(seed)
            inc = IncrementalParetoFront(cloud[: len(cloud) // 2])
            snapshot = objectives(inc.points())
            for p in cloud[len(cloud) // 2 :]:
                predicted = not inc.dominated(p.time_s, p.energy_j)
                assert objectives(inc.points()) == snapshot or predicted
                accepted = inc.insert_point(p)
                assert accepted == predicted
                snapshot = objectives(inc.points())

    def test_stream_accounting(self):
        cloud = random_cloud(3)
        inc = IncrementalParetoFront()
        joined = inc.extend(cloud)
        assert inc.inserted == len(cloud)
        assert inc.accepted == joined >= len(inc)
        assert len(inc) == len(pareto_front(cloud))

    def test_extend_table_matches_point_inserts(self):
        from repro.sweep.planner import POINT_DTYPE

        for seed in SEEDS:
            cloud = random_cloud(seed)
            table = np.empty(len(cloud), dtype=POINT_DTYPE)
            table["bs"] = np.arange(len(cloud)) % 32 + 1
            table["g"] = 1
            table["r"] = np.arange(len(cloud)) + 1
            table["time_s"] = [p.time_s for p in cloud]
            table["energy_j"] = [p.energy_j for p in cloud]
            inc = IncrementalParetoFront()
            inc.extend_table(table)
            assert objectives(inc.points()) == objectives(pareto_front(cloud))
            for p in inc.points():
                assert set(p.config) == {"bs", "g", "r"}
                assert all(isinstance(v, int) for v in p.config.values())

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

    def test_front_mask_marks_the_same_rows(self):
        for seed in SEEDS:
            cloud = random_cloud(seed)
            times = np.array([p.time_s for p in cloud])
            energies = np.array([p.energy_j for p in cloud])
            mask = front_mask(times, energies)
            assert sorted(np.flatnonzero(mask)) == sorted(
                front_indices(times, energies)
            )

    def test_empty_inputs(self):
        assert front_indices([], []).size == 0
        assert front_mask([], []).size == 0
