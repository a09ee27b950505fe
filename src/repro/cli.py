"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the library's experiment and analysis
entry points so a user can regenerate any paper artifact, or analyze a
custom workload, without writing code:

* ``experiment <id>`` — regenerate one paper artifact or extension
  study (the ids are :data:`repro.experiments.EXPERIMENTS`), headed by
  its paper-vs-measured table where it has one; the output is the
  golden ``benchmarks/output/<id>.txt``;
* ``sweep`` — evaluate a GPU matmul configuration sweep and print the
  point cloud, the Pareto front, and the trade-off table;
* ``tradeoff`` — answer "how much energy can I save within an X%
  slowdown budget?" for a workload;
* ``all`` — run the whole sweep-driven figure set through one
  cross-experiment planner: every request is collected up front,
  deduplicated, partitioned against the columnar store, and the
  misses filled in one vectorized batch call per GPU (see
  :mod:`repro.sweep.planner`);
* ``machines`` — list the platform registry;
* ``devices`` — manage the declarative device registry
  (:mod:`repro.devices`): ``list``/``show``/``validate`` the
  ``repro-device/1`` files, ``synth`` profiling samples from a
  registered device, and ``fit`` a calibration from (time, energy)
  samples;
* ``trace`` — render a telemetry JSONL file (written by
  ``--telemetry jsonl:PATH``) as a span tree with self-time, metrics
  and the run-provenance manifest (see :mod:`repro.obs`);
* ``perf`` — the performance observatory (``docs/MODEL.md`` §6.6):
  ``perf report`` (per-span-name self/total profile + critical path
  of a telemetry stream), ``perf diff A B`` (self-time deltas between
  two streams), ``perf flamegraph`` (Brendan-Gregg folded stacks),
  and ``perf check BASELINE CURRENT`` (the regression sentinel over
  two files of ``perfbench/run.py`` result lines, one line per run:
  the paper's 95% CI protocol, then a Mann-Whitney test; nonzero exit
  on confirmed regressions);
* ``report`` — run everything and print a single markdown report, or
  write it to ``--output PATH``; its sweep figures run through one
  in-memory planner session filled by the scalar model of record
  (:func:`repro.analysis.summary.generate_report`).

The sweep-driven commands (``experiment``, ``sweep``, ``all``) all
evaluate through one :class:`repro.sweep.planner.EvalPlanner`, backed
by the columnar store at ``--store-dir``, else ``$REPRO_STORE_DIR``,
else held in memory for the run; ``experiment`` and ``all`` fill their
requests in it before the experiments run
(:func:`repro.sweep.planner.session_planner`).  They, and ``report``
(which has no store), accept ``--telemetry off|summary|jsonl:PATH``
(:mod:`repro.obs`): ``off`` is the default and byte-identical to the
uninstrumented output.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

# The planner, and with it the GPU model and NumPy, loads at set-up
# although only the sweep commands call it.  Deferred, the cost moves
# rather than vanishes: without this import, in six fresh processes
# each, raw in process on a 2-CPU host, set-up fell from 0.20-0.24 s
# to 0.06-0.07 s and the first `repro all` pass rose from 0.05-0.08 s
# to 0.19-0.25 s.
import repro.sweep.planner
from repro.analysis.report import format_pct, format_table
from repro.experiments import EXPERIMENTS

__all__ = ["main", "build_parser"]


def _int_at_least(text: str, floor: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < floor:
        raise argparse.ArgumentTypeError(
            f"must be at least {floor} (got {value})"
        )
    return value


def positive_int(text: str) -> int:
    """Argparse type for flags that must be >= 1 (``--n``, ``--repeats``).

    Validates at the parser boundary so ``--n 0`` or ``--n -4096`` is a
    clean usage error instead of a traceback from deep inside the
    model.
    """
    return _int_at_least(text, 1)


def nonnegative_int(text: str) -> int:
    """Argparse type for flags that must be >= 0 (``--seed``, which
    NumPy's generator rejects when negative)."""
    return _int_at_least(text, 0)


def nonnegative_float(text: str) -> float:
    """Argparse type for flags that must be finite and >= 0
    (``--noise``); NaN and infinity are usage errors, not data."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0 (got {text})"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    # Every --device flag derives its choices from the device registry
    # — the single source of truth — so subparsers cannot drift apart
    # and data-file devices ($REPRO_DEVICE_DIR) appear everywhere at
    # once.
    from repro.devices.registry import gpu_device_choices

    device_choices = gpu_device_choices()

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'On Energy Nonproportionality of "
            "CPUs and GPUs' (IPPS 2022)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_planner_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store-dir", default=None, metavar="DIR",
            help=(
                "columnar sweep store directory (.npy shards with "
                ".meta.json sidecars; default: "
                "$REPRO_STORE_DIR if set and not empty, else in-memory "
                "for this run only)"
            ),
        )
        add_telemetry_flag(p)

    def add_telemetry_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--telemetry", default="off",
            metavar="off|summary|jsonl:PATH",
            help=(
                "telemetry sink: 'off' (default; output byte-identical "
                "to an uninstrumented run), 'summary' (append a "
                "span/metric digest), or 'jsonl:PATH' (write the event "
                "stream for `repro trace` / `repro perf`)"
            ),
        )

    exp = sub.add_parser(
        "experiment", help="regenerate one paper artifact"
    )
    exp.add_argument("id", choices=tuple(EXPERIMENTS))
    add_planner_flags(exp)

    sweep = sub.add_parser(
        "sweep", help="sweep a GPU matmul workload and print the front"
    )
    add_planner_flags(sweep)
    sweep.add_argument("--device", choices=device_choices, default="p100")
    sweep.add_argument(
        "--n", type=positive_int, default=10240, help="matrix size"
    )
    sweep.add_argument(
        "--products", type=positive_int, default=24,
        help="total products T = G*R",
    )
    sweep.add_argument(
        "--all-points", action="store_true",
        help="print every configuration, not just the front",
    )
    sweep.add_argument(
        "--save", default=None, metavar="FILE",
        help="also write the sweep as JSON (repro-sweep/1 format)",
    )

    front = sub.add_parser(
        "front", help="analyze a sweep saved with `sweep --save`"
    )
    front.add_argument("file", help="JSON sweep document")

    trade = sub.add_parser(
        "tradeoff",
        help="best energy saving within a slowdown budget",
    )
    trade.add_argument("--device", choices=device_choices, default="p100")
    trade.add_argument("--n", type=positive_int, default=10240)
    trade.add_argument(
        "--budget", type=float, default=5.0,
        help="tolerated slowdown in percent",
    )

    run_all = sub.add_parser(
        "all",
        help=(
            "run the full sweep-driven figure set through one "
            "cross-experiment planner"
        ),
    )
    add_planner_flags(run_all)

    trace = sub.add_parser(
        "trace",
        help=(
            "render a telemetry JSONL file (--telemetry jsonl:PATH) as "
            "a span tree with self-time, metrics and provenance"
        ),
    )
    trace.add_argument("file", help="telemetry JSONL file to render")

    perf = sub.add_parser(
        "perf",
        help=(
            "performance observatory: span profiles, flamegraphs and "
            "the regression sentinel over two sets of benchmark runs"
        ),
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    perf_report = perf_sub.add_parser(
        "report",
        help=(
            "per-span-name self/total-time profile and call-tree "
            "critical path of one telemetry stream"
        ),
    )
    perf_report.add_argument("file", help="telemetry JSONL file")

    perf_diff = perf_sub.add_parser(
        "diff",
        help=(
            "per-span-name self-time deltas between two telemetry "
            "streams, sorted by the size of the shift"
        ),
    )
    perf_diff.add_argument("file_a", help="baseline telemetry JSONL")
    perf_diff.add_argument("file_b", help="comparison telemetry JSONL")

    perf_flame = perf_sub.add_parser(
        "flamegraph",
        help=(
            "export a telemetry stream as Brendan-Gregg folded stacks "
            "(`name;child;... self_ns`, flamegraph.pl input)"
        ),
    )
    perf_flame.add_argument("file", help="telemetry JSONL file")
    perf_flame.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the folded stacks here instead of stdout",
    )

    perf_check = perf_sub.add_parser(
        "check",
        help=(
            "judge each end-to-end metric of perfbench runs against a "
            "baseline's (95%% CI within 2.5%%, then Mann-Whitney U + "
            "median shift); exits nonzero on confirmed regressions"
        ),
    )
    perf_check.add_argument(
        "baseline",
        help="the parent's perfbench result lines (JSON lines, one per run)",
    )
    perf_check.add_argument(
        "current",
        help="the change's perfbench result lines (JSON lines, one per run)",
    )

    sub.add_parser("machines", help="list the platform registry")

    devices = sub.add_parser(
        "devices",
        help="manage the declarative device registry (repro-device/1)",
    )
    dev_sub = devices.add_subparsers(dest="devices_command", required=True)

    dev_sub.add_parser(
        "list", help="list every registered device and its source"
    )

    dev_show = dev_sub.add_parser(
        "show", help="print one device's repro-device/1 document"
    )
    dev_show.add_argument("name", help="registry key or full spec name")

    dev_validate = dev_sub.add_parser(
        "validate",
        help=(
            "schema-check device files; --all also loads the whole "
            "registry"
        ),
    )
    dev_validate.add_argument(
        "files", nargs="*", metavar="FILE",
        help="device files to validate (.json)",
    )
    dev_validate.add_argument(
        "--all", action="store_true",
        help="validate the whole registry (bundled + $REPRO_DEVICE_DIR)",
    )

    dev_synth = dev_sub.add_parser(
        "synth",
        help=(
            "synthesize pinned-clock (time, energy) profiling samples "
            "from a registered device (round-trip/demo input for `fit`)"
        ),
    )
    dev_synth.add_argument(
        "--device", required=True, choices=device_choices,
        help="registered GPU to sample",
    )
    dev_synth.add_argument(
        "--output", required=True, metavar="FILE",
        help="samples file to write (repro-fit-samples/1 JSON)",
    )
    dev_synth.add_argument(
        "--noise", type=nonnegative_float, default=0.0, metavar="SIGMA",
        help="relative 1-sigma energy jitter (default 0: noiseless)",
    )
    dev_synth.add_argument(
        "--seed", type=nonnegative_int, default=0, help="jitter RNG seed",
    )

    dev_fit = dev_sub.add_parser(
        "fit",
        help=(
            "fit power-model calibration constants from (time, energy) "
            "samples (least squares + cross-validated selection)"
        ),
    )
    dev_fit.add_argument(
        "--samples", required=True, metavar="FILE",
        help="repro-fit-samples/1 JSON file (profiled or `synth` output)",
    )
    dev_fit.add_argument(
        "--device", required=True, choices=device_choices,
        help="registered GPU the samples were taken on (spec source)",
    )
    dev_fit.add_argument(
        "--template", default=None, metavar="NAME",
        help=(
            "registered GPU providing the timing-side constants "
            "(default: --device)"
        ),
    )
    dev_fit.add_argument(
        "--key", default=None, metavar="SLUG",
        help=(
            "registry key for the fitted device document "
            "(default: <device>-fit)"
        ),
    )
    dev_fit.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the fitted device as a repro-device/1 JSON file",
    )
    dev_fit.add_argument(
        "--description", default="", help="description for the output file"
    )

    report = sub.add_parser(
        "report", help="regenerate every artifact into one markdown report"
    )
    report.add_argument(
        "--output", metavar="PATH",
        help="write the report to PATH instead of standard output",
    )
    report.add_argument(
        "--extras", action="store_true",
        help="include the extension studies (slower)",
    )
    add_telemetry_flag(report)
    return parser


def _build_planner(command: str, store_dir: str | None, ids=()):
    """The planner every sweep-driven command evaluates through.

    Backed by the columnar store at ``store_dir``, else at
    ``$REPRO_STORE_DIR`` (unless empty), else held in memory for this
    run only.  The requests of the experiments ``ids`` are registered
    and filled before it is returned
    (:func:`repro.sweep.planner.session_planner`), so the experiments
    that follow are served from it and each device's misses are filled
    in one batch call.

    An empty store path, or one that is a file or a dangling link, or
    lies under one, exits in one line before any work, as
    :func:`_check_output` does; a missing directory is fine, since the
    store creates it.
    """
    import errno
    import os
    from pathlib import Path

    from repro.sweep.planner import session_planner

    if store_dir is None:
        store_dir = os.environ.get("REPRO_STORE_DIR") or None
    if store_dir == "":
        # Path("") is ".": the store would write into the working
        # directory.
        raise SystemExit(f"repro {command}: '': {os.strerror(errno.ENOENT)}")
    if store_dir is not None:
        target = Path(store_dir)
        for path in (target, *target.parents):
            if path.exists() or path.is_symlink():
                if not path.is_dir():
                    raise SystemExit(
                        f"repro {command}: {store_dir}: "
                        f"{os.strerror(errno.ENOTDIR)}"
                    )
                break
    return session_planner(ids, store_dir=store_dir)


def _run_all(store_dir: str | None) -> str:
    """Run every sweep-driven experiment through one planner session.

    All requests are collected and executed *before* any experiment
    runs, so each experiment's sweeps are pure store lookups; the
    planner stats at the end show the dedup the session bought.
    """
    from repro.sweep.planner import SESSION_EXPERIMENTS

    planner = _build_planner("all", store_dir, SESSION_EXPERIMENTS)
    out = []
    for exp_id in SESSION_EXPERIMENTS:
        out.append(f"== {exp_id} ==")
        out.append(EXPERIMENTS[exp_id].render(engine=planner))
        out.append("")
    s = planner.stats
    out.append(
        f"planner session: {s.requested} points requested, "
        f"{s.unique_points} unique (dedup {s.dedup_ratio:.2f}x), "
        f"{s.store_hits} store hits, {s.computed} computed in "
        f"{s.batches} batches"
    )
    return "\n".join(out)


def _run_sweep(
    device: str, n: int, products: int, all_points: bool,
    save: str | None = None, engine=None,
) -> str:
    from repro.apps.matmul_gpu import MatmulGPUApp
    from repro.core import pareto_front, tradeoff_table
    from repro.machines import get_machine

    app = MatmulGPUApp(get_machine(device), total_products=products)
    points = app.sweep_points(n, engine=engine)
    out = [f"{len(points)} configurations, N={n}, T={products}\n"]
    if save is not None:
        from repro.io import SweepDocument, save_sweep

        _write_output(
            "sweep", save,
            lambda: save_sweep(save, SweepDocument(device, n, tuple(points))),
        )
        out.append(f"saved sweep to {save}\n")
    if all_points:
        rows = [
            (str(p.config), f"{p.time_s:.3f}", f"{p.energy_j:.0f}")
            for p in sorted(points, key=lambda p: p.time_s)
        ]
        out.append(format_table(["config", "time (s)", "energy (J)"], rows))
        out.append("")
    front = pareto_front(points)
    out.append("Pareto front:")
    out.append(
        format_table(
            ["config", "time (s)", "energy (J)"],
            [
                (str(p.config), f"{p.time_s:.3f}", f"{p.energy_j:.0f}")
                for p in front
            ],
        )
    )
    out.append("")
    out.append("Trade-offs vs the performance optimum:")
    out.append(
        format_table(
            ["config", "slowdown", "energy saving"],
            [
                (
                    str(e.point.config),
                    format_pct(e.perf_degradation),
                    format_pct(e.energy_saving),
                )
                for e in tradeoff_table(points)
            ],
        )
    )
    return "\n".join(out)


def _run_tradeoff(device: str, n: int, budget_pct: float) -> str:
    from repro.apps.matmul_gpu import MatmulGPUApp
    from repro.core import saving_at_degradation
    from repro.machines import get_machine

    if math.isnan(budget_pct) or budget_pct < 0:
        raise SystemExit("budget must be non-negative")
    app = MatmulGPUApp(get_machine(device))
    points = app.sweep_points(n)
    entry = saving_at_degradation(points, budget_pct / 100.0)
    return (
        f"Within a {budget_pct:.1f}% slowdown budget on {device} (N={n}):\n"
        f"  pick {entry.point.config}\n"
        f"  slowdown      {format_pct(entry.perf_degradation)}\n"
        f"  energy saving {format_pct(entry.energy_saving)}"
    )


def _run_front(path: str) -> str:
    from repro.core import pareto_front, tradeoff_table
    from repro.io import load_sweep

    try:
        doc = load_sweep(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro front: {path}: {exc}") from None
    front = pareto_front(doc.points)
    out = [
        f"{doc.device}, N={doc.workload}: {len(doc.points)} points, "
        f"front = {len(front)}",
        format_table(
            ["config", "time (s)", "energy (J)"],
            [
                (str(p.config), f"{p.time_s:.3f}", f"{p.energy_j:.0f}")
                for p in front
            ],
        ),
        "",
        "Trade-offs vs the performance optimum:",
        format_table(
            ["config", "slowdown", "energy saving"],
            [
                (
                    str(e.point.config),
                    format_pct(e.perf_degradation),
                    format_pct(e.energy_saving),
                )
                for e in tradeoff_table(list(doc.points))
            ],
        ),
    ]
    return "\n".join(out)


def _run_machines() -> str:
    from repro.devices.registry import default_registry
    from repro.machines.specs import GPUSpec

    rows = []
    for entry in default_registry().entries():
        key, spec = entry.key, entry.spec
        if isinstance(spec, GPUSpec):
            detail = (
                f"{spec.cuda_cores} CUDA cores, "
                f"{spec.peak_dp_flops / 1e12:.2f} TFLOP/s DP, "
                f"TDP {spec.tdp_w:.0f} W"
            )
        else:
            detail = (
                f"{spec.physical_cores} cores / {spec.logical_cpus} "
                f"threads, {spec.peak_dp_flops / 1e9:.0f} GFLOP/s DP"
            )
        rows.append((key, spec.name, detail))
    return format_table(["key", "name", "summary"], rows)


def _run_devices_list() -> str:
    from repro.devices.registry import default_registry

    rows = [
        (entry.key, entry.kind, entry.spec.name, entry.source)
        for entry in default_registry().entries()
    ]
    return format_table(["key", "kind", "name", "source"], rows)


def _run_devices_show(name: str) -> str:
    import json

    from repro.devices.registry import default_registry
    from repro.devices.schema import device_to_document

    entry = default_registry().get(name)
    doc = device_to_document(
        entry.key, entry.spec, entry.calibration,
        description=entry.description,
    )
    # Provenance to stderr so `devices show X > new.json` emits a
    # valid document (the documented start-from-a-bundled-part flow).
    print(f"# source: {entry.source}", file=sys.stderr)
    return json.dumps(doc, indent=2)


def _run_devices_validate(files: list[str], validate_all: bool) -> int:
    from repro.devices.registry import (
        check_against_registry,
        default_registry,
        refresh_default_registry,
    )
    from repro.devices.schema import DeviceError, load_device_file

    if not files and not validate_all:
        raise SystemExit(
            "repro devices validate: give device FILEs and/or --all"
        )
    # Re-read the directories: validate must see the files as they are
    # *now*, not as a previous command in this process cached them.
    refresh_default_registry()
    failures = 0
    for path in files:
        try:
            entry = load_device_file(path)
            check_against_registry(entry)
        except DeviceError as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
        else:
            print(f"ok   {path}: {entry.key} ({entry.kind}, {entry.spec.name})")
    if validate_all:
        try:
            registry = default_registry()
        except DeviceError as exc:
            print(f"FAIL registry: {exc}")
            failures += 1
        else:
            print(
                f"ok   registry: {len(registry)} device(s) "
                f"({', '.join(registry.keys())})"
            )
    return 1 if failures else 0


def _run_devices_synth(
    device: str, output: str, noise: float, seed: int
) -> str:
    from repro.devices.fit import save_samples, synthesize_samples
    from repro.devices.registry import device_calibration, device_spec

    spec = device_spec(device)
    samples = synthesize_samples(
        spec, device_calibration(device), noise=noise, seed=seed,
    )
    _write_output(
        "devices synth", output,
        lambda: save_samples(output, samples, device=device),
    )
    return (
        f"wrote {len(samples)} pinned-clock samples for {spec.name} "
        f"to {output}"
        + (f" (noise sigma {noise:g}, seed {seed})" if noise > 0 else "")
    )


def _run_devices_fit(args: argparse.Namespace) -> str:
    from repro.devices.fit import fit_calibration, load_samples
    from repro.devices.registry import device_calibration, device_spec
    from repro.devices.schema import dump_device_json
    from repro.machines.specs import GPUSpec

    spec = device_spec(args.device)
    if not isinstance(spec, GPUSpec):
        raise SystemExit(
            f"repro: device {args.device!r} is not a GPU; the fitting "
            f"pipeline covers the GPU power model only"
        )
    template = device_calibration(args.template or args.device)
    samples = load_samples(args.samples)
    result = fit_calibration(spec, samples, template=template)
    out = [result.render(base=template)]
    if args.output is not None:
        key = args.key or f"{args.device}-fit"
        description = (
            args.description
            or f"Fitted from {len(samples)} samples in {args.samples}."
        )
        _write_output(
            "devices fit", args.output,
            lambda: dump_device_json(
                args.output, key, spec, result.calibration,
                description=description,
            ),
        )
        out.append(f"\nwrote {args.output} (key {key!r})")
    return "\n".join(out)


def _sweep_ids(exp_id: str) -> tuple[str, ...]:
    """``(exp_id,)`` for a sweep-driven experiment, else ``()``.

    Only the sweep-driven experiments publish a ``requests()``
    protocol; the rest have no sweep inputs to plan or to hash into a
    provenance manifest.
    """
    return (exp_id,) if EXPERIMENTS[exp_id].sweep else ()


def _provenance_for(args: argparse.Namespace) -> dict:
    """Build the run-provenance manifest of one telemetry-carrying run."""
    from repro.obs.provenance import run_manifest
    from repro.sweep.keys import SHARD_BACKEND

    # The planner's evaluator: the one backend of the sweep commands.
    backend = SHARD_BACKEND
    if args.command == "experiment":
        from repro.sweep.planner import collect_session_requests

        ids = _sweep_ids(args.id)
        return run_manifest(
            f"experiment {args.id}",
            backend=backend,
            requests=collect_session_requests(ids) if ids else None,
        )
    if args.command == "sweep":
        from repro.sweep.plan import SweepRequest

        return run_manifest(
            "sweep",
            backend=backend,
            requests=(
                SweepRequest(
                    device=args.device,
                    n=args.n,
                    total_products=args.products,
                ),
            ),
            extra={"device": args.device, "n": args.n},
        )
    if args.command == "all":
        from repro.sweep.planner import collect_session_requests

        return run_manifest(
            "all", backend=backend, requests=collect_session_requests()
        )
    if args.command == "report":
        from repro.analysis.summary import report_experiments
        from repro.sweep.planner import collect_session_requests

        ids = [e.id for e in report_experiments(args.extras) if e.sweep]
        # The report's session is filled by the scalar model of record.
        return run_manifest(
            "report --extras" if args.extras else "report",
            backend="scalar",
            requests=collect_session_requests(ids),
        )
    return run_manifest(args.command)


def _run_trace(path: str) -> str:
    """Every run of a telemetry stream, each under a ``run k/N`` banner
    when there are several."""
    from repro.obs.ingest import load_cli_stream
    from repro.obs.perf import render_trace

    runs = load_cli_stream(path, "repro trace").runs
    parts = []
    for index, run in enumerate(runs, 1):
        if len(runs) > 1:
            parts.append(f"== run {index}/{len(runs)} ==")
        parts.append(render_trace(run))
    return "\n".join(parts)


def _load_perf_run(path: str) -> list:
    """One telemetry run for the perf analytics, with CLI-grade errors.

    Multi-run streams analyze the *last* run (the most recent append)
    with a warning — profiling two merged runs as one would
    double-count every aggregate.
    """
    from repro.obs.ingest import load_cli_stream

    stream = load_cli_stream(path, "repro perf")
    if len(stream.runs) > 1:
        print(
            f"repro perf: warning: {stream.path} holds "
            f"{len(stream.runs)} concatenated runs; analyzing the last",
            file=sys.stderr,
        )
    return stream.runs[-1]


def _run_perf_check(args: argparse.Namespace) -> int:
    from repro.obs.sentinel import check_runs

    try:
        report = check_runs(args.baseline, args.current)
    except ValueError as exc:
        raise SystemExit(f"repro perf check: {exc}") from None
    print(report.render())
    return report.exit_code


def _run_perf(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import perf as perf_mod

    if args.perf_command == "report":
        print(perf_mod.render_report(_load_perf_run(args.file)))
    elif args.perf_command == "diff":
        print(
            perf_mod.render_diff(
                _load_perf_run(args.file_a),
                _load_perf_run(args.file_b),
                label_a=args.file_a,
                label_b=args.file_b,
            )
        )
    elif args.perf_command == "flamegraph":
        if args.output is not None:
            _check_output("perf flamegraph", args.output)
        folded = perf_mod.render_folded(_load_perf_run(args.file))
        if args.output is not None:
            _write_output(
                "perf flamegraph", args.output,
                lambda: Path(args.output).write_text(folded + "\n"),
            )
            print(f"wrote {args.output}")
        else:
            print(folded)
    elif args.perf_command == "check":
        return _run_perf_check(args)
    else:  # pragma: no cover - argparse enforces choices
        raise AssertionError(args.perf_command)
    return 0


def _check_output(command: str, path: str) -> None:
    """Exit in one line if ``path`` cannot be created: its directory is
    missing, or it is itself a directory.

    Called before the command does any work, so a bad path costs no
    sweep or render.  The command writes ``path`` only once its output
    is complete, so a failed check or render leaves an existing file as
    it was.
    """
    import errno
    import os
    from pathlib import Path

    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOENT
    else:
        return
    raise SystemExit(f"repro {command}: {path}: {os.strerror(code)}")


def _write_output(command: str, path: str, write) -> None:
    """Call ``write()``, which writes ``path``; a failed write exits in
    one line naming ``path``, as :func:`_check_output` does."""
    try:
        write()
    except OSError as exc:
        raise SystemExit(f"repro {command}: {path}: {exc.strerror}") from None


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "experiment":
        planner = _build_planner(
            "experiment", args.store_dir, _sweep_ids(args.id)
        )
        from repro.experiments.claims import page

        print(page(args.id, engine=planner))
    elif args.command == "sweep":
        if args.save is not None:
            _check_output("sweep", args.save)
        print(
            _run_sweep(
                args.device, args.n, args.products, args.all_points,
                save=args.save, engine=_build_planner("sweep", args.store_dir),
            )
        )
    elif args.command == "front":
        print(_run_front(args.file))
    elif args.command == "tradeoff":
        print(_run_tradeoff(args.device, args.n, args.budget))
    elif args.command == "all":
        print(_run_all(args.store_dir))
    elif args.command == "machines":
        print(_run_machines())
    elif args.command == "devices":
        if args.devices_command == "list":
            print(_run_devices_list())
        elif args.devices_command == "show":
            print(_run_devices_show(args.name))
        elif args.devices_command == "validate":
            return _run_devices_validate(args.files, args.all)
        elif args.devices_command == "synth":
            _check_output("devices synth", args.output)
            print(_run_devices_synth(args.device, args.output, args.noise, args.seed))
        elif args.devices_command == "fit":
            if args.output is not None:
                _check_output("devices fit", args.output)
            print(_run_devices_fit(args))
        else:  # pragma: no cover - argparse enforces choices
            raise AssertionError(args.devices_command)
    elif args.command == "trace":
        print(_run_trace(args.file))
    elif args.command == "perf":
        return _run_perf(args)
    elif args.command == "report":
        if args.output is not None:
            _check_output("report", args.output)
        from pathlib import Path

        from repro.analysis.summary import generate_report

        text = generate_report(include_extras=args.extras)
        if args.output is None:
            sys.stdout.write(text)
            return 0
        _write_output(
            "report", args.output, lambda: Path(args.output).write_text(text)
        )
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    else:  # pragma: no cover - argparse enforces choices
        raise AssertionError(args.command)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro import obs

    try:
        tel = obs.configure(getattr(args, "telemetry", None))
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")
    from repro.devices.schema import DeviceError

    try:
        with obs.span(f"cli.{args.command}"):
            code = _dispatch(args)
            if tel.enabled:
                # Built last, inside the command's span, so that its
                # time is attributed and the run's own imports are
                # already made (and timed) by then.
                with obs.span("cli.provenance"):
                    tel.set_manifest(_provenance_for(args))
    except DeviceError as exc:
        # Schema violations and unknown-device lookups are usage
        # errors with actionable messages, not tracebacks.
        raise SystemExit(f"repro: {exc}")
    except BrokenPipeError:
        # `repro devices show X | head` and friends: the reader went
        # away; exit quietly like any well-behaved filter.
        sys.stderr.close()
        return 0
    summary = tel.flush()
    if summary is not None:
        print(summary)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
