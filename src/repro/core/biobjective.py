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
from bisect import bisect_left
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, NamedTuple

from repro.core.pareto import ParetoPoint, pareto_front

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

    The search works on value tuples: each configuration's tuple is
    computed once, at enumeration, a probe is checked by membership in
    the set of valid tuples (the same test as ``is_valid``, since a
    probe never leaves the product of the variables), and a random
    jump picks from the unevaluated configurations, kept in
    enumeration order as each evaluation removes its own.  The running
    front is maintained incrementally
    (:class:`repro.core.incremental.IncrementalParetoFront`), which is
    provably identical to ``pareto_front`` over the evaluations so far.

    Returns the approximate front and every configuration evaluated.
    The approximation is only as good as the budget; integration tests
    check it recovers most of the exhaustive front's hypervolume at a
    fraction of the evaluations.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    import random

    from repro.core.incremental import IncrementalParetoFront

    rng = random.Random(seed)
    all_keys = space._valid_keys
    if not all_keys:
        raise ValueError("configuration space has no valid configurations")

    names = tuple(space.variables)
    # Per variable: its position in a key, and its values.
    axes = [
        (i, tuple(values)) for i, values in enumerate(space.variables.values())
    ]
    valid = set(all_keys)
    # Enumeration positions of every key, and the unevaluated ones in
    # order: the list a random jump picks from.
    positions: dict[tuple, list[int]] = {}
    for pos, k in enumerate(all_keys):
        positions.setdefault(k, []).append(pos)
    unseen = list(range(len(all_keys)))

    evaluated: list[EvaluatedConfig] = []
    configs: dict[tuple, dict[str, Any]] = {}
    running = IncrementalParetoFront()

    def try_eval(k: tuple) -> None:
        if k in configs or len(evaluated) >= budget:
            return
        for pos in positions[k]:
            del unseen[bisect_left(unseen, pos)]
        cfg = configs[k] = dict(zip(names, k))
        ec = EvaluatedConfig(cfg, *evaluate(cfg))
        evaluated.append(ec)
        running.insert_point(ParetoPoint(ec.time_s, ec.energy_j, config=k))

    def movable(k: tuple) -> bool:
        """Whether one step of one variable from ``k`` is valid."""
        for i, values in axes:
            at = values.index(k[i])
            for j in (at - 1, at + 1):
                if 0 <= j < len(values) and (
                    k[:i] + (values[j],) + k[i + 1:] in valid
                ):
                    return True
        return False

    # Seed phase: stride-sample ~1/4 of the budget across the space.
    n_seed = max(2, budget // 4)
    stride = max(1, len(all_keys) // n_seed)
    for k in all_keys[::stride]:
        try_eval(k)

    # Refinement: perturb front members one variable at a time.
    checked = -1
    while len(evaluated) < budget:
        if checked != len(evaluated):
            # The front changed: take its members afresh, and escape
            # if no probe from it can ever land on a valid config.
            checked = len(evaluated)
            front = running.configs()
            if not any(map(movable, front)):
                if not unseen:
                    break
                try_eval(all_keys[rng.choice(unseen)])
                continue
        base = rng.choice(front)
        i, values = rng.choice(axes)
        j = values.index(base[i]) + rng.choice((-1, 1))
        if not (0 <= j < len(values)):
            continue
        cand = base[:i] + (values[j],) + base[i + 1:]
        if cand not in valid:
            continue
        if cand in configs:
            # Duplicate; jump to a random unseen configuration to escape.
            if not unseen:
                break
            cand = all_keys[rng.choice(unseen)]
        try_eval(cand)

    front_points = [
        ParetoPoint(p.time_s, p.energy_j, config=configs[p.config])
        for p in running.points()
    ]
    return front_points, evaluated
