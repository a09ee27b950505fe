"""repro — reproduction of "On Energy Nonproportionality of CPUs and
GPUs" (Manumachu & Lastovetsky, IPPS 2022).

The package provides:

* :mod:`repro.core` — the paper's primary contribution: formal
  strong/weak energy-proportionality definitions and checks, Pareto
  machinery for bi-objective (time, energy) analysis, trade-off
  quantification, literature EP metrics, and the Section III core-
  imbalance theory.
* :mod:`repro.machines` — the Table I platform registry.
* :mod:`repro.simcpu` / :mod:`repro.simgpu` — calibrated analytical
  simulators standing in for the paper's Haswell node and
  K40c/P100 GPUs (see DESIGN.md for the substitution rationale).
* :mod:`repro.apps` — the paper's applications: the (BS, G, R) GPU
  matmul, the threadgroup CPU DGEMM, and the 2D FFT.
* :mod:`repro.measurement` — the WattsUp Pro/HCLWattsUp measurement
  pipeline and the Student-t repetition protocol.
* :mod:`repro.energymodel` — the theory of energy predictive models:
  additivity testing and constrained linear models.
* :mod:`repro.sweep` — the session planner over the columnar result
  store (:mod:`repro.store`); the substrate for every sweep-driven
  experiment.
* :mod:`repro.experiments` — one module per paper figure/table.

Quickstart::

    from repro.apps import MatmulGPUApp
    from repro.core import pareto_front, max_energy_saving
    from repro.machines import P100

    app = MatmulGPUApp(P100)
    points = app.sweep_points(n=10240)
    front = pareto_front(points)
    best = max_energy_saving(points)
    print(f"{best.energy_saving:.0%} energy saving for "
          f"{best.perf_degradation:.0%} slowdown")
"""

import sys

__version__ = "1.0.0"


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """PEP 562 ``__getattr__`` and ``__dir__`` of a package whose
    exports load on first access.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    exported name to the submodule that defines it.  The first access
    to a name imports that submodule only and caches the value in the
    package, so later lookups never reach ``__getattr__``.  The import
    goes through ``__import__``, which ``python -X importtime`` logs
    (``importlib.import_module`` bypasses that log).
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module_name = f"{package}.{submodule}"
        __import__(module_name)
        value = namespace[name] = getattr(sys.modules[module_name], name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
