"""One fresh interpreter of the benchmark: set up the CLI, then run passes.

``run.py`` starts it as ``python3 child.py SPAWN_NS CONFIG_JSON``.
SPAWN_NS is the parent's ``time.monotonic_ns()`` just before the spawn;
CLOCK_MONOTONIC is system-wide, so the child can subtract it.  Set-up
time ends when ``repro.cli`` is imported and its parser is built.  Only
``sys`` and ``time`` are loaded before that, so set-up is interpreter
start plus the CLI's own imports and parser; ``passes.py`` (stdlib
imports, pass loop, output check) loads afterwards.  The host-speed
probe runs just before and just after set-up, and its own time is
taken out of set-up.  The last line of stdout is one JSON object with
the samples.
"""

import sys
import time


def probe_ns() -> int:
    """Wall time of a fixed interpreter-bound loop: the host-speed probe."""
    t0 = time.perf_counter_ns()
    table: dict[int, int] = {}
    for i in range(40000):
        key = i & 1023
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter_ns() - t0


def main() -> None:
    spawn_ns = int(sys.argv[1])
    before = probe_ns()
    import repro.cli

    repro.cli.build_parser()
    setup_ns = time.monotonic_ns() - spawn_ns - before
    after = probe_ns()

    import passes

    passes.main(setup_ns, [before, after], probe_ns, sys.argv[2])


if __name__ == "__main__":
    main()
