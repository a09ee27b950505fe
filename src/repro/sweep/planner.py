"""Cross-experiment evaluation planner (``repro all``).

Every sweep-driven experiment (:data:`SESSION_EXPERIMENTS`, read from
the table :data:`repro.experiments.EXPERIMENTS`) ultimately asks for
the same kind of thing: the ``(time, energy)`` objectives of a set of
``(device, N, BS, G, R)`` points.  Run per-experiment, those requests
overlap heavily (fig2's P100 N=18432 sweep is also one of headline's
eight P100 sweeps; fig7's K40c sizes appear in headline's K40c range)
and each experiment pays its own sweep.  :class:`EvalPlanner` turns
the session inside out:

1. **Collect** — experiments (or :func:`collect_session_requests`)
   register :class:`~repro.sweep.plan.SweepRequest`\\ s up front.
2. **Deduplicate** — requested points are packed to int64 keys
   (:func:`repro.sweep.keys.pack_configs`) and uniqued per
   ``(spec, calibration, N)`` group, so a point shared by any number
   of experiments is evaluated at most once per session.
3. **Partition** — with a store attached, one vectorized pass per
   group against its shard in the columnar store (:mod:`repro.store`)
   splits the unique points into hits and misses.
4. **Fill** — all misses of one device are evaluated in ONE call of
   :func:`repro.simgpu.batch.batch_run_matmul`, across matrix sizes
   and calibrations: each group's calibration reaches the batch as a
   ``(calibration, lane count)`` run, and only the two ``pow``
   exponents (``volt_exp``, ``occ_exp``) split a device into more
   calls.  Per-lane results are bit-identical to a per-sweep,
   per-calibration batch.  Results are scattered back per group and
   appended to the store shard-at-a-time, one shard per
   ``(spec, calibration, N)``.  A planner built with ``scalar=True``
   fills the same misses point by point with the scalar model of
   record instead (:func:`scalar_sweep`); ``repro report`` runs its
   sweep figures through such a session, and it never has a store.

The hot path is columnar end to end — packed int64 keys, float64
objective columns, structured arrays — with zero per-point dict
materialization; :class:`~repro.core.pareto.ParetoPoint` records are
only built at the analysis boundary when an experiment asks for its
points.  The planner is the only evaluator behind the experiments'
``engine=`` parameters and every sweep-driven CLI command; unplanned
requests (e.g. a single ``repro sweep``) are filled lazily through the
same machinery.  ``engine=None`` runs the scalar model of record
(:meth:`repro.simgpu.device.GPUDevice.run_matmul`) one sweep at a
time, with no planner in between: the oracle the planner is tested
against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.apps.matmul_gpu import ConfigEnumeration, MatmulConfig
from repro.core.pareto import ParetoPoint
from repro.experiments import EXPERIMENTS
from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration
from repro.sweep.keys import pack_configs, unique_keys, unpack_keys
from repro.sweep.plan import SweepRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.columnar import ColumnarStore, ShardKey

__all__ = [
    "POINT_DTYPE",
    "EvalPlanner",
    "PlannerStats",
    "collect_session_requests",
    "scalar_sweep",
    "session_planner",
    "SESSION_EXPERIMENTS",
]

#: Structured row type results flow through on the hot path: the
#: configuration key columns plus the two objective columns.
POINT_DTYPE = np.dtype(
    [
        ("bs", np.int64),
        ("g", np.int64),
        ("r", np.int64),
        ("time_s", np.float64),
        ("energy_j", np.float64),
    ]
)

#: The sweep-driven experiments ``repro all`` runs through one planner,
#: in table order.
SESSION_EXPERIMENTS = tuple(e.id for e in EXPERIMENTS.values() if e.sweep)


@dataclass
class PlannerStats:
    """Session-level accounting of one planner's lifetime."""

    #: Points registered across requests, before deduplication.
    requested: int = 0
    #: Distinct (shard, config) points after deduplication.
    unique_points: int = 0
    #: Unique points served from the columnar store without computing.
    store_hits: int = 0
    #: Unique points actually evaluated, by either fill.
    computed: int = 0
    #: ``batch_run_matmul`` calls the misses were filled in: one per
    #: distinct ``(spec, volt_exp, occ_exp)`` among the missing points,
    #: so one per device unless calibrations differ in an exponent.
    #: Always 0 with the scalar fill.
    batches: int = 0
    #: Points handed to experiments (duplicates across experiments
    #: count every time — this is the work the planner absorbed).
    served: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Requested-to-unique ratio (1.0 = no overlap)."""
        return self.requested / self.unique_points if self.unique_points else 0.0


class _GroupState:
    """Pending set and resolved-key index of one ``(spec, cal, n)``.

    With a store, ``key`` names the group's shard and the group tracks
    only the sorted *keys* it has resolved: the objective values live
    in the store's loaded shard and are looked up at serve time, so
    they are held once.  Without a store there is nowhere else for
    computed values to live, so the group keeps the objective columns
    in memory too (:meth:`merge` vs :meth:`merge_keys`).
    """

    __slots__ = ("key", "spec", "cal", "n", "pending", "packed", "times", "energies")

    def __init__(
        self,
        key: ShardKey | None,
        spec: GPUSpec,
        cal: GPUCalibration,
        n: int,
    ) -> None:
        self.key = key
        self.spec = spec
        self.cal = cal
        self.n = n
        self.pending: list[np.ndarray] = []
        self.packed = np.empty(0, dtype=np.int64)
        self.times = np.empty(0, dtype=np.float64)
        self.energies = np.empty(0, dtype=np.float64)

    def known_mask(self, packed: np.ndarray) -> np.ndarray:
        if not len(self.packed):
            return np.zeros(len(packed), dtype=bool)
        pos = np.searchsorted(self.packed, packed)
        in_range = pos < len(self.packed)
        safe = np.where(in_range, pos, 0)
        return in_range & (self.packed[safe] == packed)

    def get(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objectives for ``packed`` (caller guarantees all known)."""
        pos = np.searchsorted(self.packed, packed)
        return self.times[pos], self.energies[pos]

    def merge_keys(self, packed: np.ndarray) -> None:
        """Mark sorted-unique ``packed`` keys resolved (store-backed)."""
        self.packed = unique_keys(np.concatenate([self.packed, packed]))

    def merge(
        self, packed: np.ndarray, times: np.ndarray, energies: np.ndarray
    ) -> None:
        all_packed = np.concatenate([self.packed, packed])
        uniq, first = np.unique(all_packed, return_index=True)
        self.packed = uniq
        self.times = np.concatenate([self.times, times])[first]
        self.energies = np.concatenate([self.energies, energies])[first]


class EvalPlanner:
    """Collect, deduplicate and fill sweep requests of a session.

    Parameters
    ----------
    store / store_dir:
        Columnar result store to partition against and fill into
        (:class:`repro.store.ColumnarStore`).  Without one, the planner
        still deduplicates and mega-batches, but nothing persists.
    scalar:
        Fill the misses with the scalar model of record
        (:func:`scalar_sweep`, one ``GPUDevice.run_matmul`` call per
        point) instead of the vectorized batch model.  Store shards hold
        the vectorized backend's values (:data:`~repro.sweep.keys.
        SHARD_BACKEND`), which match the scalar model to 1e-9 but not
        to the bit, so a scalar planner takes no store.

    By default misses are computed by the vectorized batch model, one
    :func:`~repro.simgpu.batch.batch_run_matmul` call per device and
    exponent pair, whatever the calibrations and matrix sizes of its
    groups.
    """

    def __init__(
        self,
        *,
        store: ColumnarStore | None = None,
        store_dir: str | Path | None = None,
        scalar: bool = False,
    ) -> None:
        if store is not None and store_dir is not None:
            raise ValueError("pass store_dir or store, not both")
        if scalar and (store is not None or store_dir is not None):
            raise ValueError(
                "a scalar planner takes no store: shards hold the "
                "vectorized backend's values"
            )
        if store is None and store_dir is not None:
            from repro.store.columnar import ColumnarStore

            store = ColumnarStore(store_dir)
        self.store = store
        self.scalar = scalar
        self.stats = PlannerStats()
        self._groups: dict[tuple[GPUSpec, GPUCalibration, int], _GroupState] = {}

    # -- collection ---------------------------------------------------------

    def _group_for(
        self, spec: GPUSpec, cal: GPUCalibration, n: int
    ) -> _GroupState:
        group = self._groups.get((spec, cal, n))
        if group is None:
            key = None
            if self.store is not None:
                from repro.store.columnar import shard_key

                key = shard_key(spec, cal, n)
            group = _GroupState(key, spec, cal, n)
            self._groups[spec, cal, n] = group
        return group

    def add(
        self,
        request: SweepRequest,
        configs: Sequence[MatmulConfig] | None = None,
    ) -> None:
        """Register one sweep request (its full config list by default)."""
        group = self._group_for(request.spec, request.calibration, request.n)
        packed, _, _, _ = _columns(request, configs)
        group.pending.append(packed)
        self.stats.requested += len(packed)
        obs.count("planner.points.requested", len(packed))

    def add_all(self, requests) -> None:
        for request in requests:
            self.add(request)

    # -- execution ----------------------------------------------------------

    def execute(self) -> PlannerStats:
        """Resolve every pending point: dedup, partition, fill.

        Idempotent — pending sets are drained, and re-adding known
        points is free.  Returns :attr:`stats`.
        """
        with obs.span("planner.execute"):
            # Keyed by what one batch call must share: the device and
            # the calibration's pow exponents (repro.simgpu.batch).
            fills: dict[
                tuple[GPUSpec, float, float],
                list[tuple[_GroupState, np.ndarray]],
            ] = {}
            with obs.span("planner.partition", groups=len(self._groups)):
                pending_groups = [
                    g for g in self._groups.values() if g.pending
                ]
                if self.store is not None and pending_groups:
                    self.store.open_shards([g.key for g in pending_groups])
                for group in pending_groups:
                    packed = unique_keys(np.concatenate(group.pending))
                    group.pending.clear()
                    packed = packed[~group.known_mask(packed)]
                    if not packed.size:
                        continue
                    if self.store is not None:
                        hit = self.store.contains(group.key, packed)
                        hits = int(hit.sum())
                        if hits:
                            group.merge_keys(packed[hit])
                            self.stats.store_hits += hits
                            obs.count("planner.store_hits", hits)
                        packed = packed[~hit]
                    if packed.size:
                        fill_key = (
                            group.spec, group.cal.volt_exp, group.cal.occ_exp
                        )
                        fills.setdefault(fill_key, []).append((group, packed))
            for (spec, _, _), entries in fills.items():
                self._fill(spec, entries)
            self.stats.unique_points = sum(
                len(g.packed) for g in self._groups.values()
            )
            obs.gauge("planner.unique_points", self.stats.unique_points)
            obs.gauge("planner.dedup_ratio", self.stats.dedup_ratio)
            return self.stats

    def _fill(
        self,
        spec: GPUSpec,
        entries: list[tuple[_GroupState, np.ndarray]],
    ) -> None:
        """Evaluate the missing points of groups that share a device and
        exponents — in one batch, or point by point with ``scalar`` —
        and scatter the results back per group."""
        packed = np.concatenate([p for _, p in entries])
        bs, g, r = unpack_keys(packed)
        with obs.span(
            "planner.fill_misses",
            device=spec.name,
            points=int(len(packed)),
            shards=len(entries),
        ):
            if self.scalar:
                times, energies = _scalar_fill(spec, entries)
            else:
                from repro.simgpu.batch import batch_run_matmul

                ns = np.concatenate(
                    [
                        np.full(len(p), grp.n, dtype=np.int64)
                        for grp, p in entries
                    ]
                )
                cal_runs = [(grp.cal, len(p)) for grp, p in entries]
                out = batch_run_matmul(spec, cal_runs, ns, bs, g, r)
                times, energies = out.time_s, out.dynamic_energy_j
                self.stats.batches += 1
                obs.count("planner.batches")
            self.stats.computed += len(packed)
            obs.count("planner.points.computed", len(packed))

            offset = 0
            for grp, p in entries:
                end = offset + len(p)
                t = times[offset:end]
                e = energies[offset:end]
                if self.store is not None:
                    self.store.append(
                        grp.key, bs[offset:end], g[offset:end],
                        r[offset:end], t, e,
                    )
                    grp.merge_keys(p)  # values live in the store shard
                else:
                    grp.merge(p, t, e)
                offset = end

    # -- serving ------------------------------------------------------------

    def table(
        self,
        request: SweepRequest,
        configs: Sequence[MatmulConfig] | None = None,
    ) -> np.ndarray:
        """Results of one request as a structured array (:data:`POINT_DTYPE`).

        The columnar fast path: no per-point dicts, no ParetoPoint
        objects.  Unknown points are filled lazily through the normal
        dedup/partition/mega-batch machinery.  With a store, the
        objective values are looked up in the group's shard here.
        """
        packed, bs, g, r = _columns(request, configs)
        with obs.span(
            "planner.serve",
            device=request.spec.name,
            n=request.n,
            points=len(packed),
        ):
            group = self._group_for(
                request.spec, request.calibration, request.n
            )
            unknown = ~group.known_mask(packed)
            if unknown.any():
                missing = unique_keys(packed[unknown])
                group.pending.append(missing)
                self.stats.requested += len(missing)
                obs.count("planner.points.requested", len(missing))
                self.execute()
            if self.store is not None:
                times, energies, hit = self.store.lookup(group.key, packed)
                if not hit.all():
                    # Every key was resolved against this shard during
                    # partition/fill, so a miss here means the shard
                    # lost rows mid-session (an append re-read it from
                    # disk and found it damaged).  Fail loudly rather
                    # than serve NaN objectives into an analysis.
                    raise RuntimeError(
                        f"store shard {group.key.filename} lost "
                        f"{int((~hit).sum())} resolved points mid-session"
                    )
            else:
                times, energies = group.get(packed)
        self.stats.served += len(packed)
        obs.count("planner.points.served", len(packed))
        out = np.empty(len(packed), dtype=POINT_DTYPE)
        out["bs"], out["g"], out["r"] = bs, g, r
        out["time_s"], out["energy_j"] = times, energies
        return out

    def evaluate_configs(
        self, request: SweepRequest, configs: Sequence[MatmulConfig]
    ) -> list[ParetoPoint]:
        """ParetoPoints of one request, in ``configs`` order.

        Dict/ParetoPoint materialization happens here, at the analysis
        boundary, and nowhere on the fill path.
        """
        rows = self.table(request, configs)
        return [
            ParetoPoint(time_s=t, energy_j=e, config=cfg.as_dict())
            for cfg, t, e in zip(
                configs, rows["time_s"].tolist(), rows["energy_j"].tolist()
            )
        ]

    def evaluate(
        self,
        device: str | GPUSpec,
        n: int,
        config: MatmulConfig | dict[str, int],
        *,
        cal: GPUCalibration | None = None,
    ) -> ParetoPoint:
        """Evaluate one configuration."""
        if isinstance(config, dict):
            config = MatmulConfig(
                bs=config["bs"], g=config["g"], r=config["r"]
            )
        request = SweepRequest(device=device, n=n, cal=cal)
        return self.evaluate_configs(request, [config])[0]

    def sweep(self, device: str | GPUSpec, n: int, **kwargs) -> list[ParetoPoint]:
        """Every valid configuration of one ``(device, N)`` sweep.

        Same enumeration and order as :meth:`repro.apps.matmul_gpu.
        MatmulGPUApp.sweep_points`.
        """
        request = SweepRequest(device=device, n=n, **kwargs)
        return self.evaluate_configs(request, request.enumeration())


def _columns(
    request: SweepRequest, configs: Sequence[MatmulConfig] | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(packed, bs, g, r)`` of ``configs`` (the request's own by
    default); a memoized enumeration brings its columns packed once."""
    if configs is None:
        configs = request.enumeration()
    if isinstance(configs, ConfigEnumeration):
        return configs.columns
    return pack_configs(configs)


def scalar_sweep(
    spec: GPUSpec,
    cal: GPUCalibration,
    n: int,
    bs: np.ndarray,
    g: np.ndarray,
    r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(time_s, dynamic_energy_j)`` columns of the configurations
    ``(bs, g, r)`` at matrix size ``n`` by the scalar model of record:
    one :meth:`~repro.simgpu.device.GPUDevice.run_matmul` call per
    configuration, on Python ints, in order."""
    from repro.simgpu.device import GPUDevice

    run = GPUDevice(spec, cal).run_matmul
    times, energies = [], []
    for config in zip(bs.tolist(), g.tolist(), r.tolist()):
        result = run(n, *config)
        times.append(result.time_s)
        energies.append(result.dynamic_energy_j)
    return (
        np.array(times, dtype=np.float64),
        np.array(energies, dtype=np.float64),
    )


def _scalar_fill(
    spec: GPUSpec, entries: list[tuple[_GroupState, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """The scalar fill: each group's missing keys through
    :func:`scalar_sweep`, concatenated in ``entries`` order."""
    columns = [
        scalar_sweep(spec, grp.cal, grp.n, *unpack_keys(p))
        for grp, p in entries
    ]
    return (
        np.concatenate([t for t, _ in columns]),
        np.concatenate([e for _, e in columns]),
    )


def collect_session_requests(
    ids: Sequence[str] = SESSION_EXPERIMENTS,
) -> tuple[SweepRequest, ...]:
    """Every sweep request of the experiments ``ids``, in that order.

    ``ids`` are sweep-driven experiment ids; the default,
    :data:`SESSION_EXPERIMENTS`, is the input of a ``repro all``
    session.  Duplicates across experiments are intentional (the
    planner's dedup pass is what collapses them).
    """
    requests: list[SweepRequest] = []
    for exp_id in ids:
        requests.extend(EXPERIMENTS[exp_id].load().requests())
    return tuple(requests)


def session_planner(
    ids: Sequence[str] = SESSION_EXPERIMENTS,
    *,
    store_dir: str | Path | None = None,
    scalar: bool = False,
) -> EvalPlanner:
    """A planner holding the experiments ``ids``' requests, filled.

    The one way a command builds its session: ``repro all``,
    ``repro experiment`` and :func:`repro.analysis.summary.
    generate_report` all call it.  ``store_dir`` and ``scalar`` are
    :class:`EvalPlanner`'s.  With no requests, nothing is filled and
    the planner fills lazily as it is asked.
    """
    planner = EvalPlanner(store_dir=store_dir, scalar=scalar)
    requests = collect_session_requests(ids)
    if requests:
        planner.add_all(requests)
        planner.execute()
    return planner
