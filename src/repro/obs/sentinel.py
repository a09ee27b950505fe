"""Statistical regression sentinel over the bench history store.

``repro perf check`` compares the current bench run's repeated wall
samples against the matched-host baseline pooled from
:mod:`repro.obs.history`, one case at a time, and only calls
something a regression when **both** of two independent bars are
cleared:

* **significance** — a two-sided Mann-Whitney U test (SciPy's exact
  distribution for small tie-free samples, its normal approximation
  with tie correction otherwise) rejects "same distribution" at
  :data:`ALPHA`; rank-based, so one garbage-collection outlier cannot
  manufacture or mask a result the way a t-test's mean would;
* **effect size** — the median shift exceeds :data:`MIN_SHIFT` (10%);
  a statistically detectable 0.3% drift is not worth failing a build
  over.

Everything that would otherwise be false confidence is an explicit
outcome instead: ``insufficient-history`` (fewer than
:data:`MIN_SAMPLES` baseline samples for the case), ``host-mismatch``
(history exists but none of it was recorded on a comparable host),
``no-history``.  The sentinel never compares timings across host
fingerprints.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs.history import (
    case_samples,
    fingerprints_match,
    host_fingerprint,
)

__all__ = [
    "mann_whitney_u",
    "CaseVerdict",
    "CheckReport",
    "check_bench",
]

#: Mann-Whitney significance level.
ALPHA = 0.05
#: Smallest relative median shift called a confirmed change.
MIN_SHIFT = 0.10
#: Fewest pooled baseline samples per case the sentinel will judge.
MIN_SAMPLES = 3

#: Outcome vocabulary, in severity order.
OUTCOMES = (
    "regression",
    "improvement",
    "neutral",
    "insufficient-history",
    "host-mismatch",
    "no-history",
)


def mann_whitney_u(
    a: Sequence[float], b: Sequence[float]
) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test; returns ``(U, p_value)``.

    ``U`` is the smaller of the two one-sided statistics.  Tie-free
    samples with ``n*m <= 400`` get the exact null distribution;
    larger or tied samples get the normal approximation with tie
    correction and continuity correction, which puts ``p`` at 1.0
    when ``U`` is ``n*m/2``.  Both come from
    :func:`scipy.stats.mannwhitneyu`, imported on the first call so
    that no CLI import path loads SciPy.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("mann_whitney_u needs non-empty samples")
    from scipy.stats import mannwhitneyu

    combined = [*a, *b]
    exact = n * m <= 400 and len(set(combined)) == len(combined)
    u_a, p = mannwhitneyu(
        a, b, alternative="two-sided",
        method="exact" if exact else "asymptotic",
    )
    return float(min(u_a, n * m - u_a)), float(p)


@dataclass(frozen=True)
class CaseVerdict:
    """One case's comparison against its matched-host baseline."""

    case: str
    outcome: str
    current_n: int = 0
    baseline_n: int = 0
    baseline_runs: int = 0
    median_current: float | None = None
    median_baseline: float | None = None
    shift: float | None = None
    p_value: float | None = None


@dataclass
class CheckReport:
    """``repro perf check``'s full result."""

    verdicts: list[CaseVerdict] = field(default_factory=list)
    fingerprint: dict[str, Any] = field(default_factory=dict)
    history_runs: int = 0
    matched_runs: int = 0

    @property
    def regressions(self) -> list[CaseVerdict]:
        return [v for v in self.verdicts if v.outcome == "regression"]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def render(self) -> str:
        lines = [
            f"perf check: {len(self.verdicts)} case(s) vs "
            f"{self.matched_runs}/{self.history_runs} matched-host "
            f"history run(s) "
            f"(alpha={ALPHA:g}, min shift={MIN_SHIFT:.0%}, "
            f"min samples={MIN_SAMPLES})",
        ]
        width = max((len(v.case) for v in self.verdicts), default=4)
        for v in sorted(
            self.verdicts, key=lambda v: (OUTCOMES.index(v.outcome), v.case)
        ):
            if v.median_baseline is not None:
                detail = (
                    f"median {v.median_current * 1e3:9.3f} ms vs "
                    f"{v.median_baseline * 1e3:9.3f} ms "
                    f"({v.shift:+7.1%}, p={v.p_value:.3f}, "
                    f"n={v.current_n} vs {v.baseline_n} over "
                    f"{v.baseline_runs} run(s))"
                )
            else:
                detail = (
                    f"n={v.current_n} current, {v.baseline_n} baseline "
                    f"sample(s)"
                )
            lines.append(
                f"  {v.outcome:<22} {v.case:<{width}}  {detail}"
            )
        counts = Counter(v.outcome for v in self.verdicts)
        lines.append(
            "summary: "
            + ", ".join(
                f"{counts[o]} {o}" for o in OUTCOMES if o in counts
            )
        )
        if any(v.outcome == "host-mismatch" for v in self.verdicts):
            lines.append(
                "note: history exists but none of it was recorded on a "
                "matching host; record a baseline on this host first"
            )
        return "\n".join(lines)


def _same_run(record: dict[str, Any], current: dict[str, Any]) -> bool:
    """True when a history record *is* the current document's run.

    ``repro bench`` appends its own record before ``repro perf check``
    runs, and comparing a run against itself would drag every verdict
    toward neutral; identical per-case samples identify it exactly.
    """
    return {
        c["case"]: c["samples"] for c in record.get("cases", ())
    } == case_samples(current)


def check_bench(
    current: dict[str, Any],
    history: Sequence[dict[str, Any]],
    *,
    fingerprint: dict[str, Any] | None = None,
) -> CheckReport:
    """Compare one bench document against the history baseline.

    ``current`` is a bench v5+ ``BENCH_sweep.json`` document (its
    ``samples`` arrays are the test's subject); ``history`` the parsed
    record list from :func:`repro.obs.history.load_history`.
    """
    fp = fingerprint if fingerprint is not None else host_fingerprint()
    report = CheckReport(fingerprint=fp, history_runs=len(history))
    host_matched = [
        r for r in history if fingerprints_match(r.get("host") or {}, fp)
    ]
    matched = [r for r in host_matched if not _same_run(r, current)]
    report.matched_runs = len(matched)

    baseline: dict[str, list[float]] = {}
    baseline_runs: dict[str, int] = {}
    for record in matched:
        for case in record.get("cases", ()):
            samples = [float(v) for v in case.get("samples", ())]
            if not samples:
                continue
            baseline.setdefault(case["case"], []).extend(samples)
            baseline_runs[case["case"]] = (
                baseline_runs.get(case["case"], 0) + 1
            )

    for case, samples in sorted(case_samples(current).items()):
        base = baseline.get(case, [])
        measured: dict[str, float] = {}
        if not history:
            outcome = "no-history"
        elif not host_matched:
            # A history where the only comparable record is this very
            # run is *thin*, not incomparable — that falls through to
            # insufficient-history below.
            outcome = "host-mismatch"
        elif len(base) < MIN_SAMPLES:
            outcome = "insufficient-history"
        else:
            med_cur = statistics.median(samples)
            med_base = statistics.median(base)
            shift = (med_cur - med_base) / med_base if med_base else 0.0
            _, p = mann_whitney_u(samples, base)
            if p < ALPHA and shift > MIN_SHIFT:
                outcome = "regression"
            elif p < ALPHA and shift < -MIN_SHIFT:
                outcome = "improvement"
            else:
                outcome = "neutral"
            measured = dict(
                median_current=med_cur,
                median_baseline=med_base,
                shift=shift,
                p_value=p,
            )
        report.verdicts.append(
            CaseVerdict(
                case=case,
                outcome=outcome,
                current_n=len(samples),
                baseline_n=len(base),
                baseline_runs=baseline_runs.get(case, 0),
                **measured,
            )
        )
    return report
