"""Property-based invariant tests for :mod:`repro.core.pareto` and the
trade-off table built on its front (:mod:`repro.core.tradeoff`).

Hand-rolled randomized property testing (the environment has no
``hypothesis``): each property is checked over many seeded random
point clouds, including degenerate shapes — duplicated objective
vectors, collinear points, integer grids that force ties — that a
handful of fixed fixtures would miss.  Every cloud is deterministic in
its seed, so failures reproduce.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.pareto import (
    ParetoPoint,
    dominates,
    local_pareto_front,
    pareto_front,
)
from repro.core.tradeoff import (
    max_energy_saving,
    saving_at_degradation,
    tradeoff_table,
)

SEEDS = range(25)


def random_cloud(seed: int) -> list[ParetoPoint]:
    """A random point cloud whose shape varies with the seed.

    Three regimes: continuous uniform (generic position), a coarse
    integer grid (many exact ties and duplicated objective vectors),
    and a mixture with duplicated points appended verbatim.
    """
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


def brute_force_front_vectors(
    points: list[ParetoPoint],
) -> set[tuple[float, float]]:
    """O(n²) reference: the set of non-dominated objective vectors."""
    return {
        p.objectives()
        for p in points
        if not any(dominates(q, p) for q in points)
    }


def dominated_area(
    points: list[ParetoPoint], reference: tuple[float, float]
) -> float:
    """2-D hypervolume: the area that ``points`` weakly dominate below
    ``reference``, counted cell by cell on the grid their coordinates
    cut the box into.  A cell counts when some point is no worse than
    its lower-left corner — no sort and no sweep, so the reference
    shares nothing with the front extraction it checks."""
    ref_t, ref_e = reference
    times = np.array([p.time_s for p in points])
    energies = np.array([p.energy_j for p in points])
    t_grid = np.unique(np.append(times[times < ref_t], ref_t))
    e_grid = np.unique(np.append(energies[energies < ref_e], ref_e))
    covered = (
        (times[:, None, None] <= t_grid[None, :-1, None])
        & (energies[:, None, None] <= e_grid[None, None, :-1])
    ).any(axis=0)
    return float(np.diff(t_grid) @ covered.astype(float) @ np.diff(e_grid))


@pytest.mark.parametrize("seed", SEEDS)
class TestParetoFrontProperties:
    def test_front_members_mutually_nondominating(self, seed):
        front = pareto_front(random_cloud(seed))
        for a in front:
            for b in front:
                assert not dominates(a, b)

    def test_front_is_subset_of_input(self, seed):
        cloud = random_cloud(seed)
        ids = {id(p) for p in cloud}
        for p in pareto_front(cloud):
            assert id(p) in ids

    def test_dominated_points_never_in_front(self, seed):
        cloud = random_cloud(seed)
        front = pareto_front(cloud)
        for member in front:
            assert not any(dominates(q, member) for q in cloud)

    def test_front_matches_brute_force(self, seed):
        cloud = random_cloud(seed)
        got = {p.objectives() for p in pareto_front(cloud)}
        assert got == brute_force_front_vectors(cloud)

    def test_front_independent_of_input_order(self, seed):
        cloud = random_cloud(seed)
        baseline = [p.objectives() for p in pareto_front(cloud)]
        shuffled = cloud[:]
        random.Random(seed).shuffle(shuffled)
        assert [p.objectives() for p in pareto_front(shuffled)] == baseline
        assert [
            p.objectives() for p in pareto_front(cloud[::-1])
        ] == baseline

    def test_front_sorted_and_strictly_improving(self, seed):
        front = pareto_front(random_cloud(seed))
        times = [p.time_s for p in front]
        energies = [p.energy_j for p in front]
        assert times == sorted(times)
        # Strictly decreasing energy left to right (duplicates collapse).
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_front_idempotent(self, seed):
        front = pareto_front(random_cloud(seed))
        assert pareto_front(front) == front

    def test_every_point_weakly_dominated_by_front(self, seed):
        cloud = random_cloud(seed)
        front = pareto_front(cloud)
        for p in cloud:
            assert any(
                f.time_s <= p.time_s and f.energy_j <= p.energy_j
                for f in front
            )

    def test_front_invariant_under_rescaling(self, seed):
        """Positive rescaling of either objective keeps every
        comparison, ties included (powers of two scale exactly), so
        the same configurations form the front in the same order."""
        cloud = random_cloud(seed)
        baseline = [p.config for p in pareto_front(cloud)]
        for t_scale, e_scale in ((2.0, 1.0), (1.0, 0.25), (0.5, 8.0)):
            scaled = [
                ParetoPoint(p.time_s * t_scale, p.energy_j * e_scale, p.config)
                for p in cloud
            ]
            assert [p.config for p in pareto_front(scaled)] == baseline

    def test_dominated_additions_leave_front_unchanged(self, seed):
        """Appending, for each member, a copy and points worse in one
        objective changes nothing: the copies lose the tie to the
        member seen first."""
        cloud = random_cloud(seed)
        front = pareto_front(cloud)
        extra = []
        for p in front:
            extra.append(ParetoPoint(p.time_s, p.energy_j, "copy"))
            extra.append(ParetoPoint(p.time_s * 2, p.energy_j, "slower"))
            extra.append(ParetoPoint(p.time_s, p.energy_j * 2, "costlier"))
        assert [id(p) for p in pareto_front(cloud + extra)] == [
            id(p) for p in front
        ]

    def test_point_dominating_all_is_whole_front(self, seed):
        cloud = random_cloud(seed)
        best = ParetoPoint(
            min(p.time_s for p in cloud) / 2,
            min(p.energy_j for p in cloud) / 2,
            "best",
        )
        assert pareto_front(cloud + [best]) == [best]
        assert pareto_front([best] + cloud) == [best]

    def test_front_of_union_within_union_of_fronts(self, seed):
        a = random_cloud(seed)
        b = random_cloud(seed + len(SEEDS))
        parts = {id(p) for p in pareto_front(a) + pareto_front(b)}
        assert all(id(p) in parts for p in pareto_front(a + b))

    def test_raw_tuples_give_the_same_front(self, seed):
        cloud = random_cloud(seed)
        raw = [(p.time_s, p.energy_j, p.config) for p in cloud]
        assert [(p.objectives(), p.config) for p in pareto_front(raw)] == [
            (p.objectives(), p.config) for p in pareto_front(cloud)
        ]


@pytest.mark.parametrize("seed", SEEDS)
class TestDominanceRelation:
    """``dominates`` is the oracle the front tests trust, so its own
    laws are checked on the same degenerate clouds (first 30 points:
    all ordered triples stay cheap)."""

    def test_strict_partial_order(self, seed):
        pts = random_cloud(seed)[:30]
        for a in pts:
            assert not dominates(a, a)
            for b in pts:
                if dominates(a, b):
                    assert not dominates(b, a)
                    for c in pts:
                        if dominates(b, c):
                            assert dominates(a, c)

    def test_tolerance_never_contradicts_exact_dominance(self, seed):
        """With slack, dominance stays irreflexive and asymmetric, a
        tolerant verdict is never reversed by the exact relation, and a
        slack of twice the cloud's extent (clear of the rounding in
        ``b - tol``) leaves nothing dominated."""
        pts = random_cloud(seed)[:40]
        for tol in (0.5, 2.0):
            for a in pts:
                assert not dominates(a, a, tol=tol)
                for b in pts:
                    if dominates(a, b, tol=tol):
                        assert not dominates(b, a, tol=tol)
                        assert not dominates(b, a)
        spread = max(
            max(p.time_s for p in pts) - min(p.time_s for p in pts),
            max(p.energy_j for p in pts) - min(p.energy_j for p in pts),
        )
        assert not any(
            dominates(a, b, tol=2 * spread) for a in pts for b in pts
        )


@pytest.mark.parametrize("seed", SEEDS)
class TestDerivedFrontProperties:
    def test_local_front_is_front_of_region(self, seed):
        cloud = random_cloud(seed)
        region = lambda p: p.time_s <= 5.0  # noqa: E731
        local = local_pareto_front(cloud, region)
        inside = [p for p in cloud if region(p)]
        assert local == pareto_front(inside)
        assert all(region(p) for p in local)

    def test_local_front_with_trivial_regions(self, seed):
        cloud = random_cloud(seed)
        front = pareto_front(cloud)
        on_front = {id(p) for p in front}
        assert local_pareto_front(cloud, lambda p: True) == front
        assert local_pareto_front(cloud, lambda p: False) == []
        assert (
            local_pareto_front(cloud, lambda p: id(p) in on_front) == front
        )

    def test_tradeoff_table_walks_the_front(self, seed):
        cloud = random_cloud(seed)
        front = pareto_front(cloud)
        table = tradeoff_table(cloud)
        assert [id(e.point) for e in table] == [id(p) for p in front]
        ref = front[0]
        assert (table[0].energy_saving, table[0].perf_degradation) == (0, 0)
        for entry in table:
            p = entry.point
            assert entry.energy_saving == 1.0 - p.energy_j / ref.energy_j
            assert entry.perf_degradation == p.time_s / ref.time_s - 1.0
            assert 0.0 <= entry.energy_saving < 1.0
        savings = [e.energy_saving for e in table]
        degradations = [e.perf_degradation for e in table]
        assert all(a < b for a, b in zip(savings, savings[1:]))
        assert all(a < b for a, b in zip(degradations, degradations[1:]))

    def test_saving_at_degradation_is_best_admissible(self, seed):
        """At every budget — zero, each entry's own degradation and
        the midpoints between them — the answer is admissible, no
        admissible entry saves more, and a larger budget never saves
        less; past the last degradation it is the headline maximum."""
        cloud = random_cloud(seed)
        table = tradeoff_table(cloud)
        degradations = [e.perf_degradation for e in table]
        budgets = sorted(
            {0.0, *degradations}
            | {(a + b) / 2 for a, b in zip(degradations, degradations[1:])}
        )
        previous = -1.0
        for budget in budgets:
            got = saving_at_degradation(cloud, budget)
            assert got.perf_degradation <= budget
            assert all(
                e.energy_saving <= got.energy_saving
                for e in table
                if e.perf_degradation <= budget
            )
            assert got.energy_saving >= previous
            previous = got.energy_saving
        assert saving_at_degradation(cloud, budgets[-1] + 1.0) == table[-1]
        assert max_energy_saving(cloud) == table[-1]


@pytest.mark.parametrize("seed", SEEDS)
class TestHypervolumeAgainstFront:
    """The front against an area view of dominance (:func:`dominated_area`)."""

    def reference(self, cloud):
        return (
            max(p.time_s for p in cloud) * 1.1 + 1.0,
            max(p.energy_j for p in cloud) * 1.1 + 1.0,
        )

    def test_front_carries_all_hypervolume(self, seed):
        """Dominated points contribute nothing: the front's hypervolume
        equals the whole cloud's."""
        cloud = random_cloud(seed)
        ref = self.reference(cloud)
        assert dominated_area(pareto_front(cloud), ref) == pytest.approx(
            dominated_area(cloud, ref)
        )

    def test_every_front_member_adds_area(self, seed):
        """No member is redundant — duplicates are collapsed and no
        member is weakly dominated — so dropping any one of them
        loses area."""
        cloud = random_cloud(seed)
        ref = self.reference(cloud)
        front = pareto_front(cloud)
        full = dominated_area(front, ref)
        for i in range(len(front)):
            rest = front[:i] + front[i + 1 :]
            if rest:
                assert dominated_area(rest, ref) < full
