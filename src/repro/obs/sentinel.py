"""Statistical regression sentinel over two sets of benchmark runs.

``repro perf check BASELINE CURRENT`` reads two files of
``perfbench/run.py --trace 0`` result lines, one JSON line per run, say
the parent's and the change's, and judges each end-to-end metric
(``setup_s``, ``first_s``, ``pass_p50_s``, ``pass_p90_s``,
``peak_rss_mb``; every one lower-is-better) over its per-run values:

* **enough runs** — the paper's measurement protocol (Sections I and
  V): each side's Student-t 95% confidence interval of the mean must
  lie within :data:`PRECISION` (2.5%) of the mean
  (:func:`repro.measurement.stats.confidence_halfwidth`), on at least
  :data:`MIN_SAMPLES` runs; otherwise the metric is
  ``insufficient-samples``, not a verdict;
* **significance** — a two-sided Mann-Whitney U test (SciPy's exact
  distribution for small tie-free samples, its normal approximation
  with tie correction otherwise) rejects "same distribution" at
  :data:`ALPHA`; rank-based, so one slow run cannot manufacture or
  mask a result the way a t-test's mean would;
* **effect size** — the median shift exceeds :data:`MIN_SHIFT` (10%);
  a statistically detectable 0.3% drift is not worth failing a build
  over.

A metric is a regression only when it has enough runs and clears both
bars.  The ``failed`` row sums each side's failed and attempted passes;
a higher failed share in the current runs is a regression.  Files that
cannot be compared at all (missing, not JSON lines, not ``--trace 0``
results, or holding different metrics) are an error, not a verdict.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Sequence

__all__ = [
    "mann_whitney_u",
    "Runs",
    "load_runs",
    "MetricVerdict",
    "CheckReport",
    "check_runs",
]

#: Mann-Whitney significance level.
ALPHA = 0.05
#: Smallest relative median shift called a confirmed change.
MIN_SHIFT = 0.10
#: Fewest runs per metric, on each side, the sentinel will judge.
MIN_SAMPLES = 3
#: The paper's protocol: the 95% CI half-width of each side's mean must
#: be within this share of the mean.
PRECISION = 0.025
#: Units of perfbench's end-to-end metrics; ``--trace 1`` results carry
#: per-layer metrics in other units as well.
END_TO_END_UNITS = ("s", "MB")

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


class Runs(NamedTuple):
    """The result lines of one file: each metric's unit and per-run
    values, in line order, and the passes attempted and failed over all
    runs."""

    path: Path
    units: dict[str, str]
    values: dict[str, list[float]]
    attempted: int
    failed: int


def load_runs(path: str | Path) -> Runs:
    """Read one file of perfbench ``--trace 0`` result lines.

    Raises :class:`ValueError` with a one-line message naming ``path``
    (and the line, where one is at fault) when the file is missing or
    holds no result line, or when a line is not JSON, has no
    ``metrics`` or no pass counts, has a metric whose unit is not an
    end-to-end one (a ``--trace 1`` result), or has other metrics than
    the first line.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    units: dict[str, str] = {}
    values: dict[str, list[float]] = {}
    attempted = failed = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            result = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{where}: not JSON ({exc})") from None
        metrics = result.get("metrics") if isinstance(result, dict) else None
        if not isinstance(metrics, dict) or not metrics:
            raise ValueError(f"{where}: no metrics")
        counts = result.get("attempted"), result.get("failed")
        if not all(type(c) is int and c >= 0 for c in counts):
            raise ValueError(f"{where}: no attempted and failed pass counts")
        if units and metrics.keys() != units.keys():
            raise ValueError(f"{where}: other metrics than the first line")
        for name, metric in metrics.items():
            unit = metric.get("unit") if isinstance(metric, dict) else None
            value = metric.get("value") if isinstance(metric, dict) else None
            if unit not in END_TO_END_UNITS:
                raise ValueError(
                    f"{where}: metric {name} has unit {unit!r}, not one of "
                    f"{', '.join(END_TO_END_UNITS)}: not a --trace 0 result"
                )
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ValueError(f"{where}: metric {name} has no value")
            units[name] = unit
            values.setdefault(name, []).append(float(value))
        attempted += counts[0]
        failed += counts[1]
    if not units:
        raise ValueError(f"{path}: no result lines")
    return Runs(path, units, values, attempted, failed)


class MetricVerdict(NamedTuple):
    """One metric's comparison of the current runs with the baseline's.

    For a metric: each side's run count, medians, the shift, the p-value
    (only once judged), each side's CI half-width as a share of its mean
    (with two runs or more) and the runs the current side won, pairing
    runs by line index.  For the ``failed`` row: each side's attempted
    passes (``current_n``, ``baseline_n``) and failed ones.
    """

    metric: str
    outcome: str
    current_n: int
    baseline_n: int
    unit: str = ""
    median_current: float | None = None
    median_baseline: float | None = None
    shift: float | None = None
    p_value: float | None = None
    ci_current: float | None = None
    ci_baseline: float | None = None
    current_wins: int = 0
    failed_current: int = 0
    failed_baseline: int = 0

    def detail(self) -> str:
        if self.metric == "failed":
            return (
                f"{self.failed_current}/{self.current_n} vs "
                f"{self.failed_baseline}/{self.baseline_n} passes failed"
            )

        def share(ci: float | None) -> str:
            return "-" if ci is None else f"{ci:.1%}"

        p = "-" if self.p_value is None else f"{self.p_value:.3f}"
        return (
            f"median {self.median_current:.4g} vs "
            f"{self.median_baseline:.4g} {self.unit} "
            f"({self.shift:+.1%}, p={p}, CI ±{share(self.ci_current)} vs "
            f"±{share(self.ci_baseline)}, won "
            f"{self.current_wins}/{min(self.current_n, self.baseline_n)}, "
            f"n={self.current_n} vs {self.baseline_n})"
        )


class CheckReport(NamedTuple):
    """``repro perf check``'s full result."""

    baseline: str
    current: str
    verdicts: list[MetricVerdict]

    @property
    def regressions(self) -> list[MetricVerdict]:
        return [v for v in self.verdicts if v.outcome == "regression"]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def render(self) -> str:
        runs = self.verdicts[0]  # every metric has one value per run
        lines = [
            f"perf check: {len(self.verdicts) - 1} metric(s), "
            f"{self.current} ({runs.current_n} runs) vs {self.baseline} "
            f"({runs.baseline_n} runs) "
            f"(95% CI within {PRECISION:.1%} of the mean, alpha={ALPHA:g}, "
            f"min shift={MIN_SHIFT:.0%}, min samples={MIN_SAMPLES})",
        ]
        width = max(len(v.metric) for v in self.verdicts)
        for v in sorted(
            self.verdicts, key=lambda v: OUTCOMES.index(v.outcome)
        ):
            lines.append(
                f"  {v.outcome:<20} {v.metric:<{width}}  {v.detail()}"
            )
        counts = Counter(v.outcome for v in self.verdicts)
        lines.append(
            "summary: "
            + ", ".join(
                f"{counts[o]} {o}" for o in OUTCOMES if o in counts
            )
        )
        return "\n".join(lines)


def _ci_share(values: list[float]) -> float | None:
    """The 95% CI half-width of ``values``' mean as a share of it."""
    if len(values) < 2:
        return None
    # Imported here: `repro.measurement` is CPU-side code that no other
    # command loads.
    from repro.measurement.stats import confidence_halfwidth

    mean = statistics.fmean(values)
    halfwidth = confidence_halfwidth(values)  # 95%, the paper's level
    return halfwidth / mean if mean > 0 else math.inf


def _judge(
    metric: str, unit: str, base: list[float], cur: list[float]
) -> MetricVerdict:
    """One metric's verdict from its baseline and current runs."""
    med_cur = statistics.median(cur)
    med_base = statistics.median(base)
    shift = (med_cur - med_base) / med_base if med_base else 0.0
    ci_cur, ci_base = _ci_share(cur), _ci_share(base)
    verdict = MetricVerdict(
        metric, "insufficient-samples", len(cur), len(base), unit,
        med_cur, med_base, shift, None, ci_cur, ci_base,
        current_wins=sum(c < b for b, c in zip(base, cur)),
    )
    if min(len(base), len(cur)) < MIN_SAMPLES:
        return verdict
    if max(ci_cur, ci_base) > PRECISION:
        return verdict
    _, p = mann_whitney_u(cur, base)
    if p < ALPHA and shift > MIN_SHIFT:
        outcome = "regression"
    elif p < ALPHA and shift < -MIN_SHIFT:
        outcome = "improvement"
    else:
        outcome = "neutral"
    return verdict._replace(outcome=outcome, p_value=p)


def _judge_failed(base: Runs, cur: Runs) -> MetricVerdict:
    """The ``failed`` row: a higher failed share of the current runs'
    passes is a regression, a lower one an improvement."""
    share_cur = cur.failed / cur.attempted if cur.attempted else 0.0
    share_base = base.failed / base.attempted if base.attempted else 0.0
    if share_cur > share_base:
        outcome = "regression"
    elif share_cur < share_base:
        outcome = "improvement"
    else:
        outcome = "neutral"
    return MetricVerdict(
        "failed", outcome, current_n=cur.attempted,
        baseline_n=base.attempted, failed_current=cur.failed,
        failed_baseline=base.failed,
    )


def check_runs(baseline: str | Path, current: str | Path) -> CheckReport:
    """Judge every end-to-end metric of the runs in ``current`` against
    the same metric of the runs in ``baseline``.

    Raises :class:`ValueError`, with a one-line message naming the
    file(s), when a file cannot be read as perfbench ``--trace 0``
    result lines (:func:`load_runs`), or when the two files hold
    different metrics.
    """
    base, cur = load_runs(baseline), load_runs(current)
    if base.units.keys() != cur.units.keys():
        detail = "; ".join(
            f"only in {runs.path}: {', '.join(sorted(extra))}"
            for runs, extra in (
                (base, base.units.keys() - cur.units.keys()),
                (cur, cur.units.keys() - base.units.keys()),
            )
            if extra
        )
        raise ValueError(
            f"{base.path} and {cur.path} hold different metrics ({detail})"
        )
    verdicts = [
        _judge(name, unit, base.values[name], cur.values[name])
        for name, unit in cur.units.items()
    ]
    verdicts.append(_judge_failed(base, cur))
    return CheckReport(str(base.path), str(cur.path), verdicts)
