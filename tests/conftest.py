"""Shared fixtures for the test suite."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.machines import HASWELL, K40C, P100
from repro.simcpu import MulticoreCPU
from repro.simgpu import GPUDevice, device, kernel, memhier
from repro.sweep import EvalPlanner, SweepRequest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def k40c() -> GPUDevice:
    return GPUDevice(K40C)


@pytest.fixture(scope="session")
def p100() -> GPUDevice:
    return GPUDevice(P100)


@pytest.fixture(scope="session")
def haswell_cpu() -> MulticoreCPU:
    return MulticoreCPU(HASWELL)


@pytest.fixture
def cold_scalar_model(monkeypatch):
    """A function that empties the scalar GPU model's device tables and
    the traffic memo behind them for the rest of the test, as a sweep of
    a new matrix size finds them: call it before each timed scalar
    sweep, so that warm repeats time the model, not a table lookup.
    Memos keyed by the block shape alone stay warm."""

    def reset() -> None:
        monkeypatch.setattr(device, "_device_tables", {})
        monkeypatch.setattr(
            kernel, "matmul_traffic",
            lru_cache(maxsize=4096)(memhier.matmul_traffic.__wrapped__),
        )

    return reset


@pytest.fixture
def overlapping_grid() -> list[SweepRequest]:
    """A 12-request session grid: both GPUs x N in (10240, 18432) x
    T in (24, 120), T=120 having far more ``(G, R)`` divisor pairs than
    the paper's T=24, and every P100 request twice, as fig8 and the
    headline study overlap in a real session (1,878 points)."""
    base = [
        SweepRequest(device=name, n=n, total_products=t)
        for name in ("k40c", "p100")
        for n in (10240, 18432)
        for t in (24, 120)
    ]
    return base + [r for r in base if r.device == "p100"]


@pytest.fixture
def warm_grid_session(tmp_path, overlapping_grid):
    """A function that runs one store-backed planner session over the
    overlapping grid, whose store is already filled: add every request,
    execute (all hits), serve every table; it returns the planner."""
    store = tmp_path / "grid-store"

    def session() -> EvalPlanner:
        planner = EvalPlanner(store_dir=store)
        planner.add_all(overlapping_grid)
        planner.execute()
        for request in overlapping_grid:
            planner.table(request)
        return planner

    session()
    return session
