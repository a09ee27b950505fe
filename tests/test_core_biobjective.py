"""Tests for the discrete bi-objective optimization layer."""

from __future__ import annotations

import threading

import pytest

from repro.core.biobjective import (
    ConfigurationSpace,
    exhaustive_front,
    greedy_front_search,
)
from repro.core.pareto import hypervolume_2d, pareto_front


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
        hv_exact = hypervolume_2d(exact, ref)
        hv_approx = hypervolume_2d(approx, ref)
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
        # Valid only on the diagonal: every one-variable move leaves
        # it, so no probe from any front member can ever be valid.
        space = ConfigurationSpace(
            variables={"x": list(range(10)), "y": list(range(10))},
            is_valid=lambda c: c["x"] == c["y"],
        )

        def evaluator(cfg):
            return 1.0 + cfg["x"], 10.0 - cfg["x"]

        _, evaluated = finishes(
            lambda: greedy_front_search(space, evaluator, budget=8, seed=0)
        )
        keys = [(ec.config["x"], ec.config["y"]) for ec in evaluated]
        assert len(keys) == 8 == len(set(keys))
        assert all(x == y for x, y in keys)

    def test_exhausted_space_stops(self):
        space = ConfigurationSpace(
            variables={"x": list(range(10)), "y": list(range(10))},
            is_valid=lambda c: c["x"] == c["y"],
        )
        _, evaluated = finishes(
            lambda: greedy_front_search(
                space, synthetic_evaluator, budget=50, seed=4
            )
        )
        assert len(evaluated) == space.size() == 10
