"""Fig. 3: the DGEMM matrix decomposition, regenerated and verified.

Fig. 3 illustrates the weak-EP application design: A and C partitioned
horizontally among ``p`` threadgroups, B shared, every thread bound to
its own core with an equal workload and no communication.  This
experiment regenerates the figure as a text diagram for a sample
configuration and machine-verifies the constraints for every (p, t)
configuration the Fig. 4 sweep uses.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.apps.decomposition import (
    DecompositionError,
    decompose,
    verify_weak_ep_constraints,
)
from repro.apps.dgemm_cpu import _factor_pairs

__all__ = ["Fig3Result", "run", "render_diagram"]


def render_diagram(n: int, groups: int, threads_per_group: int) -> str:
    """Text rendering of the Fig. 3 decomposition."""
    assignments = decompose(n, groups, threads_per_group)
    lines = [
        f"N={n}, p={groups} threadgroups x t={threads_per_group} threads",
        "",
        "   A (and C), horizontal slabs          B (shared, read-only)",
    ]
    for g in assignments:
        lines.append(
            f"   +{'-' * 30}+"
            + ("        +------------------+" if g.group == 0 else "")
        )
        for t in g.threads:
            b_col = "        |   all threads    |" if g.group == 0 else ""
            lines.append(
                f"   | P{g.group}.t{t.thread}: rows "
                f"{t.row_start:>6}..{t.row_end:<6} |" + b_col
            )
        if g.group == 0:
            lines.append(f"   |{' ' * 30}|        +------------------+")
    lines.append(f"   +{'-' * 30}+")
    return "\n".join(lines)


class Fig3Result(NamedTuple):
    diagram: str
    configurations_checked: int
    violations: int

    def render(self) -> str:
        return (
            self.diagram
            + f"\n\nweak-EP constraints machine-checked for "
            f"{self.configurations_checked} (p, t) configurations: "
            f"{self.violations} violations"
        )


def run(n: int = 17408) -> Fig3Result:
    """Verify the weak-EP constraints across the Fig. 4 sweep grid."""
    checked = 0
    violations = 0
    for total in (1, 2, 4, 8, 16, 32):
        for p, t in _factor_pairs(total):
            # Use an N divisible by the configuration (the paper picks
            # its matrix sizes to keep the distribution exact).
            n_exact = (n // (p * t)) * (p * t)
            try:
                verify_weak_ep_constraints(n_exact, decompose(n_exact, p, t))
            except DecompositionError:
                violations += 1
            checked += 1
    return Fig3Result(
        diagram=render_diagram(1024, 4, 2),
        configurations_checked=checked,
        violations=violations,
    )
