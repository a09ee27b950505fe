"""Core library: the paper's primary contribution.

Formal strong/weak energy-proportionality definitions and checks,
Pareto-front machinery for bi-objective (time, energy) analysis,
trade-off quantification, literature EP metrics, and the Section III
core-imbalance theory.

Exports resolve lazily (PEP 562): ``from repro.core import
pareto_front`` imports :mod:`repro.core.pareto` and what it needs, not
the whole package, so a command loads only the submodules it uses.
"""

from __future__ import annotations

from repro import _lazy_exports

#: Exported name -> defining submodule.
_EXPORTS = {
    "ParetoPoint": "pareto",
    "dominates": "pareto",
    "pareto_front": "pareto",
    "local_pareto_front": "pareto",
    "front_indices": "pareto",
    "IncrementalParetoFront": "incremental",
    "TradeoffEntry": "tradeoff",
    "tradeoff_table": "tradeoff",
    "max_energy_saving": "tradeoff",
    "saving_at_degradation": "tradeoff",
    "PAPER_PRECISION": "definitions",
    "StrongEPResult": "definitions",
    "WeakEPResult": "definitions",
    "check_strong_ep": "definitions",
    "check_weak_ep": "definitions",
    "ryckbosch_ep": "metrics",
    "wong_annavaram_pr": "metrics",
    "hsu_poole_ep": "metrics",
    "idle_to_peak_ratio": "metrics",
    "TwoCoreModel": "theory",
    "NCoreModel": "theory",
    "ConfigurationSpace": "biobjective",
    "EvaluatedConfig": "biobjective",
    "exhaustive_front": "biobjective",
    "greedy_front_search": "biobjective",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
