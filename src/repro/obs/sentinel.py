"""Statistical regression sentinel over two bench documents.

``repro perf check BASELINE CURRENT`` compares two ``BENCH_sweep.json``
documents, say the parent's and the change's, one case at a time, and
only calls something a regression when **both** of two independent
bars are cleared:

* **significance** — a two-sided Mann-Whitney U test (SciPy's exact
  distribution for small tie-free samples, its normal approximation
  with tie correction otherwise) rejects "same distribution" at
  :data:`ALPHA`; rank-based, so one garbage-collection outlier cannot
  manufacture or mask a result the way a t-test's mean would;
* **effect size** — the median shift exceeds :data:`MIN_SHIFT` (10%);
  a statistically detectable 0.3% drift is not worth failing a build
  over.

A case with fewer than :data:`MIN_SAMPLES` samples on either side is
``insufficient-samples`` rather than a false verdict.  Two documents
that cannot be compared at all (recorded on different hosts, or
holding different cases) are an error, not a verdict.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

__all__ = [
    "mann_whitney_u",
    "case_samples",
    "CaseVerdict",
    "CheckReport",
    "check_bench",
]

#: Mann-Whitney significance level.
ALPHA = 0.05
#: Smallest relative median shift called a confirmed change.
MIN_SHIFT = 0.10
#: Fewest samples per case, on each side, the sentinel will judge.
MIN_SAMPLES = 3

#: Outcome vocabulary, in severity order.
OUTCOMES = ("regression", "improvement", "neutral", "insufficient-samples")


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


def case_samples(doc: dict[str, Any]) -> dict[str, list[float]]:
    """``case-key -> wall-time samples`` of one bench document.

    Case keys are stable strings (``p100/N10240/vectorized``,
    ``planner/warm`` …) so two documents address the same measurement
    the same way.  Documents older than bench v5 carry no samples and
    yield nothing.
    """
    out: dict[str, list[float]] = {}
    for case in doc.get("cases", ()):
        prefix = f"{case['device']}/N{case['n']}"
        for backend, values in (case.get("samples") or {}).items():
            if values:
                out[f"{prefix}/{backend}"] = [float(v) for v in values]
    planner = doc.get("planner") or {}
    for path_name, values in (planner.get("samples") or {}).items():
        if values:
            out[f"planner/{path_name}"] = [float(v) for v in values]
    return out


@dataclass(frozen=True)
class CaseVerdict:
    """One case's comparison of the current samples with the baseline's."""

    case: str
    outcome: str
    current_n: int
    baseline_n: int
    median_current: float | None = None
    median_baseline: float | None = None
    shift: float | None = None
    p_value: float | None = None


@dataclass
class CheckReport:
    """``repro perf check``'s full result."""

    baseline: str
    current: str
    verdicts: list[CaseVerdict]

    @property
    def regressions(self) -> list[CaseVerdict]:
        return [v for v in self.verdicts if v.outcome == "regression"]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def render(self) -> str:
        lines = [
            f"perf check: {len(self.verdicts)} case(s), {self.current} "
            f"vs {self.baseline} "
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
                    f"n={v.current_n} vs {v.baseline_n})"
                )
            else:
                detail = (
                    f"n={v.current_n} current, {v.baseline_n} baseline "
                    f"sample(s)"
                )
            lines.append(
                f"  {v.outcome:<20} {v.case:<{width}}  {detail}"
            )
        counts = Counter(v.outcome for v in self.verdicts)
        lines.append(
            "summary: "
            + ", ".join(
                f"{counts[o]} {o}" for o in OUTCOMES if o in counts
            )
        )
        return "\n".join(lines)


def _judge(case: str, base: list[float], cur: list[float]) -> CaseVerdict:
    """One case's verdict from its baseline and current samples."""
    sizes = dict(current_n=len(cur), baseline_n=len(base))
    if min(len(base), len(cur)) < MIN_SAMPLES:
        return CaseVerdict(case, "insufficient-samples", **sizes)
    med_cur = statistics.median(cur)
    med_base = statistics.median(base)
    shift = (med_cur - med_base) / med_base if med_base else 0.0
    _, p = mann_whitney_u(cur, base)
    if p < ALPHA and shift > MIN_SHIFT:
        outcome = "regression"
    elif p < ALPHA and shift < -MIN_SHIFT:
        outcome = "improvement"
    else:
        outcome = "neutral"
    return CaseVerdict(
        case, outcome, **sizes, median_current=med_cur,
        median_baseline=med_base, shift=shift, p_value=p,
    )


def _load(path: Path) -> tuple[dict[str, Any], dict[str, list[float]]]:
    """A bench document's ``host`` section, less ``peak_rss_kb``, and its
    case samples; :class:`ValueError` naming ``path`` when it is
    missing, not JSON, or holds no per-case samples."""
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: not a JSON document ({exc})") from None
    try:
        samples = case_samples(doc)
    except (AttributeError, KeyError, TypeError, ValueError):
        samples = {}
    if not samples:
        raise ValueError(f"{path}: no per-case samples")
    host = doc.get("host")
    if not isinstance(host, dict):
        host = {}
    return {k: v for k, v in host.items() if k != "peak_rss_kb"}, samples


def check_bench(baseline: str | Path, current: str | Path) -> CheckReport:
    """Judge every case of the bench document ``current`` against the
    same case of ``baseline``.

    Raises :class:`ValueError`, with a one-line message naming the
    file(s), when a file cannot be read as a bench document with
    samples, when the two ``host`` sections differ in anything but
    ``peak_rss_kb``, or when the two documents hold different cases.
    """
    base_path, cur_path = Path(baseline), Path(current)
    base_host, base = _load(base_path)
    cur_host, cur = _load(cur_path)
    pair = f"{base_path} and {cur_path}"
    differing = sorted(
        k for k in base_host.keys() | cur_host.keys()
        if base_host.get(k) != cur_host.get(k)
    )
    if differing:
        detail = ", ".join(
            f"{k}: {base_host.get(k)!r} vs {cur_host.get(k)!r}"
            for k in differing
        )
        raise ValueError(f"{pair} were recorded on different hosts ({detail})")
    if base.keys() != cur.keys():
        detail = "; ".join(
            f"only in {path}: {', '.join(sorted(extra))}"
            for path, extra in (
                (base_path, base.keys() - cur.keys()),
                (cur_path, cur.keys() - base.keys()),
            )
            if extra
        )
        raise ValueError(f"{pair} hold different cases ({detail})")
    return CheckReport(
        str(base_path),
        str(cur_path),
        [_judge(case, base[case], cur[case]) for case in sorted(cur)],
    )
