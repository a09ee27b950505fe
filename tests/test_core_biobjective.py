"""Tests for the discrete bi-objective optimization layer."""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.biobjective import (
    ConfigurationSpace,
    exhaustive_front,
    greedy_front_search,
)
from repro.core.pareto import pareto_front


def hypervolume(front, reference):
    """Area that ``front`` dominates below ``reference``: the union
    of the rectangles between each front point and the reference."""
    ref_t, ref_e = reference
    area, prev_energy = 0.0, ref_e
    for p in sorted(front, key=lambda p: p.time_s):
        if p.time_s < ref_t and p.energy_j < prev_energy:
            area += (ref_t - p.time_s) * (prev_energy - p.energy_j)
            prev_energy = p.energy_j
    return area


def synthetic_evaluator(cfg):
    """A two-variable landscape with a genuine trade-off.

    time decreases with x; energy has a bowl in x shifted by y, so the
    front contains several (x, y) combinations.
    """
    x, y = cfg["x"], cfg["y"]
    time = 10.0 + (32 - x) * 0.25 + y * 0.1
    energy = 100.0 + 0.6 * (x - 20 - 2 * y) ** 2 + 3.0 * y
    return time, energy


def finishes(fn, seconds=30.0):
    """``fn()``, run on a daemon thread that must return in time.

    A search that never returns then fails the test instead of hanging
    the suite (there is no per-test timeout plugin).
    """
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"did not return within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def make_space(valid=None):
    return ConfigurationSpace(
        variables={"x": list(range(4, 33)), "y": [0, 1, 2, 3]},
        is_valid=valid if valid else lambda c: True,
    )


def diagonal_space():
    """Valid only on the diagonal: every one-variable move leaves it,
    so no probe from any front member can ever be valid."""
    return ConfigurationSpace(
        variables={"x": list(range(10)), "y": list(range(10))},
        is_valid=lambda c: c["x"] == c["y"],
    )


def diagonal_evaluator(cfg):
    return 1.0 + cfg["x"], 10.0 - cfg["x"]


class TestConfigurationSpace:
    def test_enumeration_size(self):
        assert make_space().size() == 29 * 4

    def test_validity_predicate_filters(self):
        space = make_space(lambda c: c["x"] % 2 == 0)
        assert space.size() == 15 * 4
        assert all(c["x"] % 2 == 0 for c in space)

    def test_empty_variables_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationSpace(variables={})

    def test_empty_value_list_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationSpace(variables={"x": []})

    def test_iteration_yields_dicts(self):
        cfg = next(iter(make_space()))
        assert set(cfg) == {"x", "y"}

    def test_enumerates_once_and_yields_fresh_dicts(self):
        calls = []

        def valid(cfg):
            calls.append(dict(cfg))
            return cfg["x"] % 2 == 0

        space = make_space(valid)
        assert space.size() == 15 * 4
        first = list(space)
        first[0]["x"] = -1  # a caller's edit must not reach the space
        assert list(space)[0]["x"] == 4
        exhaustive_front(space, synthetic_evaluator)
        greedy_front_search(space, synthetic_evaluator, budget=30, seed=1)
        assert len(calls) == 29 * 4  # one pass over the product


class TestExhaustiveFront:
    def test_front_is_pareto_front_of_all(self):
        space = make_space()
        front, evaluated = exhaustive_front(space, synthetic_evaluator)
        assert len(evaluated) == space.size()
        recomputed = pareto_front(ec.to_point() for ec in evaluated)
        assert [p.objectives() for p in front] == [
            p.objectives() for p in recomputed
        ]

    def test_nontrivial_tradeoff_exists(self):
        front, _ = exhaustive_front(make_space(), synthetic_evaluator)
        assert len(front) >= 2

    def test_all_invalid_space_raises(self):
        space = make_space(lambda c: False)
        with pytest.raises(ValueError):
            exhaustive_front(space, synthetic_evaluator)


class TestGreedySearch:
    def test_deterministic_for_seed(self):
        space = make_space()
        f1, e1 = greedy_front_search(space, synthetic_evaluator, budget=40, seed=3)
        f2, e2 = greedy_front_search(space, synthetic_evaluator, budget=40, seed=3)
        assert [p.objectives() for p in f1] == [p.objectives() for p in f2]
        assert len(e1) == len(e2)

    def test_budget_respected(self):
        _, evaluated = greedy_front_search(
            make_space(), synthetic_evaluator, budget=25, seed=0
        )
        assert len(evaluated) <= 25

    def test_recovers_most_hypervolume(self):
        space = make_space()
        exact, _ = exhaustive_front(space, synthetic_evaluator)
        approx, evaluated = greedy_front_search(
            space, synthetic_evaluator, budget=space.size() // 3, seed=1
        )
        ref = (30.0, 600.0)
        hv_exact = hypervolume(exact, ref)
        hv_approx = hypervolume(approx, ref)
        assert hv_approx >= 0.8 * hv_exact

    def test_full_budget_matches_exhaustive(self):
        space = make_space()
        exact, _ = exhaustive_front(space, synthetic_evaluator)
        approx, evaluated = greedy_front_search(
            space, synthetic_evaluator, budget=space.size(), seed=0
        )
        assert len(evaluated) == space.size()
        assert [p.objectives() for p in approx] == [
            p.objectives() for p in exact
        ]

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            greedy_front_search(make_space(), synthetic_evaluator, budget=0)

    def test_respects_validity(self):
        space = make_space(lambda c: c["x"] != 20)
        _, evaluated = greedy_front_search(
            space, synthetic_evaluator, budget=60, seed=2
        )
        assert all(ec.config["x"] != 20 for ec in evaluated)

    def test_single_configuration_space_stops_short_of_budget(self):
        space = ConfigurationSpace(variables={"x": [7], "y": [1]})
        front, evaluated = finishes(
            lambda: greedy_front_search(
                space, synthetic_evaluator, budget=2, seed=0
            )
        )
        assert [ec.config for ec in evaluated] == [{"x": 7, "y": 1}]
        assert [p.config for p in front] == [{"x": 7, "y": 1}]

    def test_space_without_valid_moves_jumps_to_unseen_configs(self):
        space = diagonal_space()
        _, evaluated = finishes(
            lambda: greedy_front_search(
                space, diagonal_evaluator, budget=8, seed=0
            )
        )
        keys = [(ec.config["x"], ec.config["y"]) for ec in evaluated]
        assert len(keys) == 8 == len(set(keys))
        assert all(x == y for x, y in keys)

    def test_exhausted_space_stops(self):
        space = diagonal_space()
        _, evaluated = finishes(
            lambda: greedy_front_search(
                space, synthetic_evaluator, budget=50, seed=4
            )
        )
        assert len(evaluated) == space.size() == 10


#: (space, evaluator, budget, seed) -> the number of ``random.Random.
#: choice`` draws, the summed length of the sequences drawn from, the
#: position in the space's enumeration of each configuration evaluated,
#: in evaluation order, and the returned front's ``(x, y)``.  The
#: diagonal space only jumps, and at budget 20 it stops when no
#: configuration is left; the ``x != 20`` space probes, jumps out of
#: duplicates, and at budget 200 stops on a duplicate with none left.
PINNED_TRAJECTORIES = {
    "diagonal-budget8-seed0": (
        diagonal_space, diagonal_evaluator, 8, 0,
        6, 33, (0, 5, 8, 9, 4, 1, 6, 7),
        [(0, 0), (1, 1), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (9, 9)],
    ),
    "diagonal-budget20-seed4": (
        diagonal_space, diagonal_evaluator, 20, 4,
        5, 15, (0, 2, 4, 6, 8, 3, 7, 1, 9, 5),
        [(x, x) for x in range(10)],
    ),
    "x-not-20-budget60-seed2": (
        lambda: make_space(lambda c: c["x"] != 20), synthetic_evaluator,
        60, 2,
        196, 3084,
        (0, 7, 14, 21, 28, 35, 42, 49, 56, 63, 70, 77, 84, 91, 98, 105, 101,
         102, 87, 103, 109, 78, 83, 26, 79, 94, 95, 110, 43, 25, 50, 108, 31,
         52, 106, 45, 72, 62, 99, 73, 6, 44, 100, 8, 5, 4, 53, 64, 68, 90, 86,
         69, 17, 24, 29, 58, 3, 15, 13, 96),
        [(32, 0), (32, 1), (32, 2), (31, 2), (30, 2), (30, 3), (29, 3),
         (28, 3), (27, 3), (26, 2), (24, 1), (23, 1), (22, 0), (21, 0)],
    ),
    "x-not-20-budget200-seed3": (
        lambda: make_space(lambda c: c["x"] != 20), synthetic_evaluator,
        200, 3,
        260, 2527,
        (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34,
         36, 38, 40, 42, 44, 46, 48, 50, 52, 54, 56, 58, 60, 62, 64, 66, 68,
         70, 72, 74, 76, 78, 80, 82, 84, 86, 88, 90, 92, 94, 96, 98, 100, 102,
         104, 106, 108, 110, 77, 109, 89, 107, 83, 91, 105, 3, 65, 87, 93, 19,
         111, 95, 47, 99, 79, 97, 11, 53, 25, 67, 55, 7, 103, 37, 63, 33, 43,
         69, 81, 41, 85, 73, 35, 57, 39, 45, 27, 1, 29, 21, 9, 71, 15, 75, 13,
         51, 23, 59, 61, 5, 101, 49, 31, 17),
        [(32, 0), (32, 1), (32, 2), (32, 3), (31, 3), (30, 3), (29, 3),
         (28, 3), (27, 3), (26, 2), (25, 2), (24, 1), (23, 1), (22, 0),
         (21, 0)],
    ),
}


class TestPinnedTrajectory:
    """The jump and stop paths draw and evaluate exactly as pinned
    (the study's own searches are pinned in
    ``tests/test_experiments_budgeted.py``)."""

    @pytest.mark.parametrize("case", list(PINNED_TRAJECTORIES))
    def test_draws_evaluations_and_front(self, monkeypatch, case):
        make, evaluator, budget, seed, draws, drawn, order, front = (
            PINNED_TRAJECTORIES[case]
        )
        lengths: list[int] = []
        choice = random.Random.choice

        def counted(rng, seq):
            lengths.append(len(seq))
            return choice(rng, seq)

        monkeypatch.setattr(random.Random, "choice", counted)
        space = make()
        approx, evaluated = finishes(
            lambda: greedy_front_search(
                space, evaluator, budget=budget, seed=seed
            )
        )
        configs = list(space)
        assert (len(lengths), sum(lengths)) == (draws, drawn)
        assert tuple(configs.index(ec.config) for ec in evaluated) == order
        assert [(p.config["x"], p.config["y"]) for p in approx] == front
        assert [p.objectives() for p in approx] == [
            evaluator(p.config) for p in approx
        ]
