"""Bi-objective optimization over discrete application-configuration spaces.

The paper determines Pareto fronts "using the dynamic energies and
execution times determined for all the application configurations
solving the workload" (Section I) — i.e. exhaustive evaluation of a
discrete decision-variable space.  It also notes that exhaustive
evaluation "can be expensive and may not be feasible in dynamic
environments with time constraints" (Section V.B), motivating local
fronts and cheaper search.

This module provides:

* :class:`ConfigurationSpace` — a named discrete decision-variable
  space with a validity predicate (e.g. the shared-memory constraint on
  ``(BS, G, R)``),
* :func:`exhaustive_front` — evaluate every valid configuration and
  extract the global front (the paper's method),
* :func:`greedy_front_search` — an evaluation-budgeted heuristic that
  approximates the front without exhaustive sweeps, for the paper's
  "dynamic environments" scenario.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, NamedTuple

from repro.core.pareto import ParetoPoint, check_objectives, pareto_front

__all__ = [
    "ConfigurationSpace",
    "EvaluatedConfig",
    "exhaustive_front",
    "greedy_front_search",
]

#: An objective evaluator maps a configuration dict to (time_s, energy_j).
Evaluator = Callable[[Mapping[str, Any]], tuple[float, float]]


class EvaluatedConfig(NamedTuple):
    """A configuration together with its measured objectives."""

    config: dict[str, Any]
    time_s: float
    energy_j: float

    def to_point(self) -> ParetoPoint:
        return ParetoPoint(self.time_s, self.energy_j, config=self.config)


@dataclass
class ConfigurationSpace:
    """Discrete decision-variable space with an optional validity predicate.

    Attributes
    ----------
    variables:
        Mapping from variable name to the sequence of admissible values.
    is_valid:
        Predicate over a configuration dict; invalid combinations are
        skipped during enumeration (the paper: "due to the limited size
        of the per-block shared memory, only certain (G, R) combinations
        are permissible for a given BS").

    The space is enumerated once, on first use, and the valid
    configurations are kept; treat ``variables`` and ``is_valid`` as
    fixed from then on.  A caller that already holds the valid
    configurations builds the space with :meth:`enumerated` instead.
    """

    variables: dict[str, Sequence[Any]]
    is_valid: Callable[[Mapping[str, Any]], bool] = field(
        default=lambda cfg: True
    )

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("configuration space needs at least one variable")
        for name, values in self.variables.items():
            if len(values) == 0:
                raise ValueError(f"variable {name!r} has no admissible values")

    @classmethod
    def enumerated(
        cls,
        variables: dict[str, Sequence[Any]],
        is_valid: Callable[[Mapping[str, Any]], bool],
        valid_keys: Sequence[tuple[Any, ...]],
    ) -> ConfigurationSpace:
        """A space whose valid configurations are already known.

        ``valid_keys`` must be exactly what one pass of ``is_valid``
        over the product keeps: the valid value tuples, in variable
        order and in the product's order.  That pass is skipped.
        """
        space = cls(variables, is_valid)
        space._valid_keys = tuple(valid_keys)
        return space

    @cached_property
    def _valid_keys(self) -> tuple[tuple[Any, ...], ...]:
        """Value tuples (in variable order) of the valid configurations,
        in enumeration order: one pass of ``is_valid`` over the product."""
        names = tuple(self.variables)
        return tuple(
            combo
            for combo in itertools.product(*self.variables.values())
            if self.is_valid(dict(zip(names, combo)))
        )

    def __iter__(self) -> Iterator[dict[str, Any]]:
        names = tuple(self.variables)
        for combo in self._valid_keys:
            yield dict(zip(names, combo))

    def size(self) -> int:
        """Number of valid configurations."""
        return len(self._valid_keys)

    @cached_property
    def _neighbours(self) -> _Neighbours:
        """The search's neighbour table, filled one key at a time."""
        return _Neighbours(self)


class _Neighbours(dict):
    """Valid key -> one ``(down, up)`` pair per variable, in variable
    order: the valid key one admissible value below and one above in
    that variable, or None where the step leaves the variable's values
    or the valid set.

    An entry is built on its first lookup and kept, so a space builds
    only the entries of the keys a search moves from, once for all its
    searches.
    """

    def __init__(self, space: ConfigurationSpace) -> None:
        super().__init__()
        self._valid = frozenset(space._valid_keys)
        self._axes = tuple(
            (i, tuple(values))
            for i, values in enumerate(space.variables.values())
        )
        #: The entry of a key with no valid step.
        self._blocked = ((None, None),) * len(self._axes)

    def __missing__(self, key: tuple[Any, ...]) -> tuple:
        pairs = []
        for i, values in self._axes:
            at = values.index(key[i])
            pair = []
            for j in (at - 1, at + 1):
                step = None
                if 0 <= j < len(values):
                    step = key[:i] + (values[j],) + key[i + 1:]
                pair.append(step if step in self._valid else None)
            pairs.append(tuple(pair))
        entry = self[key] = tuple(pairs)
        return entry

    def movable(self, key: tuple[Any, ...]) -> bool:
        """Whether one step of one variable from ``key`` is valid."""
        return self[key] != self._blocked


def exhaustive_front(
    space: ConfigurationSpace, evaluate: Evaluator
) -> tuple[list[ParetoPoint], list[EvaluatedConfig]]:
    """Evaluate every valid configuration; return (front, all evaluations).

    This is the paper's methodology: sweep the full decision-variable
    space, measure (time, dynamic energy) for each valid configuration,
    and extract the global Pareto front.
    """
    evaluated = [
        EvaluatedConfig(cfg, *evaluate(cfg)) for cfg in space
    ]
    if not evaluated:
        raise ValueError("configuration space has no valid configurations")
    front = pareto_front(ec.to_point() for ec in evaluated)
    return front, evaluated


def greedy_front_search(
    space: ConfigurationSpace,
    evaluate: Evaluator,
    *,
    budget: int,
    seed: int = 0,
) -> tuple[list[ParetoPoint], list[EvaluatedConfig]]:
    """Budgeted front approximation by coordinate-wise hill descent.

    Starts from configurations spread across the space (low-discrepancy
    stride sampling), then repeatedly perturbs one decision variable of
    a current non-dominated configuration to a neighbouring value,
    keeping evaluations that are not dominated by the running front.
    A probe that lands on an already evaluated configuration jumps to
    a random unevaluated one instead, and so does a front none of
    whose members has a valid neighbour.  Deterministic for a fixed
    ``seed``.  Stops after ``budget`` evaluations, or when every valid
    configuration has been evaluated.

    The search works on value tuples.  A probe draws a front member,
    then one of its variables, then a direction, and reads the
    neighbour from the space's neighbour table: the valid key one
    admissible value down or up, or None where that step leaves the
    values or the valid set (the same test as ``is_valid``, since a
    step never leaves the product of the variables).  The table is
    filled one key at a time, on first lookup, and kept by the space,
    so the searches of one space share it.  A random jump picks from
    the unevaluated configurations, kept in enumeration order as each
    evaluation removes its own.  Each evaluation is offered to the
    running front (:class:`repro.core.incremental.IncrementalParetoFront`,
    provably identical to ``pareto_front`` over the evaluations so far)
    as plain objectives, checked finite and non-negative as a
    :class:`~repro.core.pareto.ParetoPoint` would check them; the front
    and whether any member can move are read again only when an
    evaluation changed the front.

    Returns the approximate front and every configuration evaluated.
    The approximation is only as good as the budget; integration tests
    check it recovers most of the exhaustive front's hypervolume at a
    fraction of the evaluations.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    import random

    from repro.core.incremental import IncrementalParetoFront

    choice = random.Random(seed).choice
    all_keys = space._valid_keys
    if not all_keys:
        raise ValueError("configuration space has no valid configurations")

    names = tuple(space.variables)
    neighbours = space._neighbours
    # Enumeration positions of every key, and the unevaluated ones in
    # order: the list a random jump picks from.
    positions: dict[tuple, list[int]] = {}
    for pos, k in enumerate(all_keys):
        positions.setdefault(k, []).append(pos)
    unseen = list(range(len(all_keys)))

    evaluated: list[EvaluatedConfig] = []
    configs: dict[tuple, dict[str, Any]] = {}
    running = IncrementalParetoFront()

    def evaluate_key(k: tuple) -> bool:
        """Evaluate ``k``; whether it changed the front."""
        for pos in positions[k]:
            del unseen[bisect_left(unseen, pos)]
        cfg = configs[k] = dict(zip(names, k))
        ec = EvaluatedConfig(cfg, *evaluate(cfg))
        evaluated.append(ec)
        _, t, e = ec
        if not (0.0 <= t < math.inf and 0.0 <= e < math.inf):
            check_objectives(t, e)
        return running.insert(t, e, k)

    # Seed phase: stride-sample ~1/4 of the budget across the space.
    n_seed = max(2, budget // 4)
    stride = max(1, len(all_keys) // n_seed)
    for k in all_keys[::stride]:
        if len(evaluated) == budget:
            break
        if k not in configs:
            evaluate_key(k)

    # Refinement: perturb front members one variable at a time.  When
    # no member can move, no probe can ever land on a valid config, so
    # each step jumps instead.
    front = running.configs()
    stuck = not any(map(neighbours.movable, front))
    while len(evaluated) < budget:
        if stuck:
            if not unseen:
                break
            cand = all_keys[choice(unseen)]
        else:
            cand = choice(choice(neighbours[choice(front)]))
            if cand is None:
                continue
            if cand in configs:
                # Duplicate; jump to a random unseen configuration to escape.
                if not unseen:
                    break
                cand = all_keys[choice(unseen)]
        if evaluate_key(cand):
            front = running.configs()
            stuck = not any(map(neighbours.movable, front))

    front_points = [
        ParetoPoint(p.time_s, p.energy_j, config=configs[p.config])
        for p in running.points()
    ]
    return front_points, evaluated
