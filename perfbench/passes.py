"""The pass loop of one fresh benchmark process (see ``child.py``).

CONFIG_JSON holds:

``argv``       the ``repro`` command line of one pass;
``reference``  file holding the expected output of a pass;
``check``      ``"stdout"`` (pass stdout minus its final ``planner
               session:`` line) or ``"output"`` (the file named by
               ``--output``);
``passes``     number of passes (timed mode);
``trace``      when true, install the layer hooks of ``tracer.py`` and
               alternate traced and untraced passes until the
               ``time.monotonic_ns()`` value ``deadline_ns``, at least
               ``min_pairs`` pairs;
``spans``      where a traced run writes its spans (JSON lines).

A traced run measures the ``--store-dir`` of ``argv``, if any, after
each traced pass.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import repro.cli

PLANNER_LINE = "planner session:"


def comparable(text: str) -> str:
    """Pass stdout without the planner's hit/compute accounting line."""
    lines = text.splitlines()
    if lines and lines[-1].startswith(PLANNER_LINE):
        lines.pop()
    return "\n".join(lines) + "\n"


def flag_value(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


class Runner:
    """Runs ``repro.cli.main`` passes and checks each one's output."""

    def __init__(self, cfg: dict) -> None:
        self.argv = cfg["argv"]
        self.check = cfg["check"]
        self.expected = Path(cfg["reference"]).read_text()
        if self.check == "output":
            self.output = Path(flag_value(self.argv, "--output"))

    def run(self) -> tuple[int, bool]:
        """One pass: (wall ns, output correct)."""
        buf = io.StringIO()
        if self.check == "output":
            self.output.unlink(missing_ok=True)
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(buf):
                code = repro.cli.main(self.argv)
        except (Exception, SystemExit):
            wall = time.perf_counter_ns() - t0
            traceback.print_exc()
            return wall, False
        wall = time.perf_counter_ns() - t0
        if self.check == "output":
            got = self.output.read_text() if self.output.exists() else ""
        else:
            got = comparable(buf.getvalue())
        ok = code in (0, None) and got == self.expected
        if not ok:
            print(f"perfbench: pass output differs from the reference "
                  f"(exit code {code!r})", file=sys.stderr)
        return wall, ok


def timed(cfg: dict, setup_probes: list[int], probe) -> dict:
    """``passes`` passes, each followed by a host-speed probe.

    ``probes[i]`` and ``probes[i + 1]`` bracket pass ``i``; the probe
    after set-up is the one before the first pass.
    """
    runner = Runner(cfg)
    runs, probes = [], [setup_probes[-1]]
    for _ in range(cfg["passes"]):
        runs.append(runner.run())
        probes.append(probe())
    return {
        "passes": [{"wall_ns": w, "ok": ok} for w, ok in runs],
        "probe_ns": probes,
        "setup_probe_ns": setup_probes,
    }


def traced(cfg: dict) -> dict:
    """First pass traced, then traced/untraced pairs in alternating order.

    Pairing inside one process makes the overhead ratio immune to the
    host's slow phases; untraced passes run with every hook removed.
    """
    import tracer

    runner = Runner(cfg)
    rec = tracer.Recorder()
    absent = rec.install()
    registry_ns = tracer.registry_load_ns()
    wrapper_ns = tracer.wrapper_cost_ns()
    store_dir = flag_value(runner.argv, "--store-dir")

    def one(traced_pass: bool) -> dict:
        if not traced_pass:
            rec.uninstall()
            wall, ok = runner.run()
            rec.install()
            return {"wall_ns": wall, "ok": ok, "traced": False}
        with rec.pass_scope() as extra:
            wall, ok = runner.run()
        if store_dir:
            extra.update(tracer.dir_stats(store_dir))
        return {"wall_ns": wall, "ok": ok, "traced": True, **extra}

    passes = [one(True)]
    pair = 0
    while pair < cfg["min_pairs"] or time.monotonic_ns() < cfg["deadline_ns"]:
        order = (True, False) if pair % 2 == 0 else (False, True)
        passes.extend(one(t) for t in order)
        pair += 1
    rec.uninstall()
    rec.write(cfg["spans"])
    return {
        "passes": passes,
        "absent": absent,
        "registry_ns": registry_ns,
        "wrapper_ns": wrapper_ns,
    }


def main(setup_ns: int, setup_probes: list[int], probe, config: str) -> None:
    cfg = json.loads(config)
    if cfg.get("trace"):
        result = traced(cfg)
    else:
        result = timed(cfg, setup_probes, probe)
    result["setup_ns"] = setup_ns
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
