"""Span trees and span-profile analytics over ``repro-telemetry/1`` streams.

Every view of a stream is built on one span tree (:func:`build_tree`)
and one self-time rule (wall minus direct children):

* :func:`render_trace` — ``repro trace``: one run's provenance, span
  tree with wall and self time, and metrics, for eyeballing;
* :func:`span_profile` — per-span-name aggregates: call count, total
  (wall) time and **self** time (where time was actually spent, not
  merely passed through).  For a well-formed tree self-time is
  non-negative and the self-times sum exactly to the root wall time
  (``tests/test_perf.py`` pins both).
* :func:`critical_path` — the chain from the longest root span down
  through each node's longest child: the sequence of spans that
  bounds the run's wall time.
* :func:`folded_stacks` — the profile as Brendan-Gregg folded stacks
  (``root;child;leaf self_ns`` per line), the input format of
  ``flamegraph.pl`` and every speedscope-style viewer.

Orphan spans (a ``parent`` id that never appears — a worker stream
merged without its parent, or a truncated stream) are adopted as
roots rather than dropped: their time is real and must stay visible.
Zero-duration spans are kept (count and structure still matter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

__all__ = [
    "SpanProfile",
    "build_tree",
    "render_trace",
    "span_profile",
    "critical_path",
    "folded_stacks",
    "render_folded",
    "parse_folded",
    "render_report",
    "render_diff",
]


@dataclass(frozen=True)
class SpanProfile:
    """Aggregate of every span sharing one name."""

    name: str
    count: int
    total_ns: int
    self_ns: int

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0


def _spans(events: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    return sorted(
        (e for e in events if e.get("event") == "span"),
        key=lambda e: e["id"],
    )


def build_tree(
    events: Iterable[dict[str, Any]],
) -> tuple[list[dict[str, Any]], dict[int | None, list[dict[str, Any]]]]:
    """``(roots, children-by-parent-id)`` of a span event stream.

    Orphans — spans whose parent id never appears in the stream — are
    promoted to roots so their time is never silently dropped.
    """
    spans = _spans(events)
    ids = {s["id"] for s in spans}
    children: dict[int | None, list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    for s in spans:
        parent = s.get("parent")
        if parent is None or parent not in ids:
            roots.append(s)
        else:
            children.setdefault(parent, []).append(s)
    return roots, children


def _self_ns(
    span: dict[str, Any],
    children: dict[int | None, list[dict[str, Any]]],
) -> int:
    child_ns = sum(c["duration_ns"] for c in children.get(span["id"], []))
    return max(0, span["duration_ns"] - child_ns)


def _event(
    events: Iterable[dict[str, Any]], kind: str
) -> dict[str, Any] | None:
    """The first event of ``kind`` (``provenance``, ``metrics``), if any."""
    return next((e for e in events if e.get("event") == kind), None)


def _fmt_attrs(attrs: dict[str, Any]) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return f"  [{inner}]"


def render_trace(events: Sequence[dict[str, Any]]) -> str:
    """``repro trace``: provenance, span tree and metrics of one run."""
    lines: list[str] = []
    provenance = _event(events, "provenance")
    if provenance is not None:
        lines.append("provenance:")
        for key in (
            "command",
            "git_sha",
            "model_version",
            "backend",
            "inputs_digest",
            "requests",
        ):
            if key in provenance:
                lines.append(f"  {key:<14} {provenance[key]}")
        for device, digest in sorted(
            (provenance.get("calibrations") or {}).items()
        ):
            lines.append(f"  calibration    {device}: {digest[:16]}")
        lines.append("")

    roots, children = build_tree(events)
    if roots:
        count = len(roots) + sum(len(kids) for kids in children.values())
        total_ns = sum(s["duration_ns"] for s in roots)
        lines.append(
            f"span tree ({count} spans, {total_ns / 1e6:.2f} ms total):"
        )
        lines.append(f"  {'wall ms':>9} {'self ms':>9}  span")

        def walk(spans: list[dict[str, Any]], depth: int) -> None:
            for span in spans:
                lines.append(
                    f"  {span['duration_ns'] / 1e6:9.2f} "
                    f"{_self_ns(span, children) / 1e6:9.2f}  "
                    f"{'  ' * depth}{span['name']}"
                    f"{_fmt_attrs(span.get('attrs') or {})}"
                )
                walk(children.get(span["id"], []), depth + 1)

        walk(roots, 0)
        lines.append("")

    metrics = _event(events, "metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    if counters or gauges:
        lines.append("metrics:")
    for name, value in sorted(counters.items()):
        lines.append(f"  {name:<44} {value}")
    for name, value in sorted(gauges.items()):
        lines.append(f"  {name:<44} {value:.6g}")
    return "\n".join(lines).rstrip()


def span_profile(events: Iterable[dict[str, Any]]) -> list[SpanProfile]:
    """Per-span-name aggregates, sorted by self time (descending).

    Ties break on name, so equal-work runs produce identical output —
    the deterministic-ordering contract the tests enforce.
    """
    roots, children = build_tree(events)
    agg: dict[str, list[int]] = {}
    for s in roots + [c for cs in children.values() for c in cs]:
        row = agg.setdefault(s["name"], [0, 0, 0])
        row[0] += 1
        row[1] += s["duration_ns"]
        row[2] += _self_ns(s, children)
    return sorted(
        (
            SpanProfile(name, count, total, self_ns)
            for name, (count, total, self_ns) in agg.items()
        ),
        key=lambda p: (-p.self_ns, p.name),
    )


def critical_path(
    events: Iterable[dict[str, Any]],
) -> list[dict[str, Any]]:
    """Longest root, then each node's longest child, to a leaf.

    Returns one row per hop: ``{"name", "id", "wall_ns", "self_ns"}``.
    Ties break on span id (entry order) for determinism.
    """
    roots, children = build_tree(events)
    if not roots:
        return []
    path = []
    node = max(roots, key=lambda s: (s["duration_ns"], -s["id"]))
    while node is not None:
        path.append(
            {
                "name": node["name"],
                "id": node["id"],
                "wall_ns": node["duration_ns"],
                "self_ns": _self_ns(node, children),
            }
        )
        kids = children.get(node["id"])
        node = (
            max(kids, key=lambda s: (s["duration_ns"], -s["id"]))
            if kids
            else None
        )
    return path


def _frame(name: str) -> str:
    """One stack frame, with the folded-format separators escaped."""
    return name.replace(";", ":").replace(" ", "_")


def folded_stacks(events: Iterable[dict[str, Any]]) -> dict[str, int]:
    """The profile as ``stack -> self_ns`` folded stacks.

    Stacks are root-first, ``;``-joined span names; values are summed
    self-times in nanoseconds.  Zero-self frames are omitted (pure
    pass-through spans add no samples), which keeps the invariant
    ``sum(values) == sum(root walls)`` exact for well-formed trees.
    """
    roots, children = build_tree(events)
    out: dict[str, int] = {}

    def walk(span: dict[str, Any], prefix: str) -> None:
        stack = f"{prefix};{_frame(span['name'])}" if prefix else _frame(
            span["name"]
        )
        self_ns = _self_ns(span, children)
        if self_ns > 0:
            out[stack] = out.get(stack, 0) + self_ns
        for child in children.get(span["id"], []):
            walk(child, stack)

    for root in roots:
        walk(root, "")
    return out


def render_folded(events: Iterable[dict[str, Any]]) -> str:
    """Folded stacks as text, one ``stack value`` line, sorted."""
    stacks = folded_stacks(events)
    return "\n".join(
        f"{stack} {value}" for stack, value in sorted(stacks.items())
    )


def parse_folded(text: str) -> dict[str, int]:
    """Inverse of :func:`render_folded` (the round-trip the tests pin)."""
    out: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        stack, _, value = line.rpartition(" ")
        if not stack or not value.isdigit():
            raise ValueError(f"line {lineno}: not a folded stack: {line!r}")
        out[stack] = out.get(stack, 0) + int(value)
    return out


def _fmt_ms(ns: float) -> str:
    return f"{ns / 1e6:10.3f}"


def render_report(events: Sequence[dict[str, Any]]) -> str:
    """``repro perf report``: profile table + critical path."""
    profiles = span_profile(events)
    roots, _ = build_tree(events)
    total_ns = sum(s["duration_ns"] for s in roots)
    provenance = _event(events, "provenance")

    lines: list[str] = []
    if provenance is not None:
        bits = [
            f"{k}={provenance[k]}"
            for k in ("command", "git_sha", "backend")
            if k in provenance
        ]
        if bits:
            lines.append("run: " + " ".join(str(b) for b in bits))
    lines.append(
        f"span profile ({sum(p.count for p in profiles)} spans, "
        f"{len(profiles)} names, {total_ns / 1e6:.2f} ms root wall):"
    )
    lines.append(
        f"  {'self ms':>10} {'self %':>7} {'total ms':>10} "
        f"{'calls':>6}  span"
    )
    for p in profiles:
        pct = 100.0 * p.self_ns / total_ns if total_ns else 0.0
        lines.append(
            f"  {_fmt_ms(p.self_ns)} {pct:6.1f}% {_fmt_ms(p.total_ns)} "
            f"{p.count:6d}  {p.name}"
        )
    self_sum = sum(p.self_ns for p in profiles)
    lines.append(
        f"  {_fmt_ms(self_sum)} {100.0 if total_ns else 0.0:6.1f}% "
        f"{'':>10} {'':>6}  (sum of self)"
    )

    path = critical_path(events)
    if path:
        lines.append("")
        lines.append("critical path (longest child at every level):")
        for depth, hop in enumerate(path):
            lines.append(
                f"  {_fmt_ms(hop['wall_ns'])} {_fmt_ms(hop['self_ns'])}  "
                f"{'  ' * depth}{hop['name']}"
            )
    return "\n".join(lines)


def render_diff(
    events_a: Sequence[dict[str, Any]],
    events_b: Sequence[dict[str, Any]],
    *,
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """``repro perf diff``: per-span-name deltas, biggest self shift first."""
    a = {p.name: p for p in span_profile(events_a)}
    b = {p.name: p for p in span_profile(events_b)}
    names = sorted(
        set(a) | set(b),
        key=lambda n: (
            -abs(
                (b[n].self_ns if n in b else 0)
                - (a[n].self_ns if n in a else 0)
            ),
            n,
        ),
    )
    lines = [
        f"span-profile diff: {label_a} -> {label_b}",
        f"  {'self A ms':>10} {'self B ms':>10} {'delta ms':>10} "
        f"{'delta %':>8}  span",
    ]
    for name in names:
        self_a = a[name].self_ns if name in a else 0
        self_b = b[name].self_ns if name in b else 0
        delta = self_b - self_a
        pct = f"{100.0 * delta / self_a:+7.1f}%" if self_a else "     new"
        marker = ""
        if name not in a:
            marker = "  (only in B)"
        elif name not in b:
            marker = "  (only in A)"
        lines.append(
            f"  {_fmt_ms(self_a)} {_fmt_ms(self_b)} "
            f"{delta / 1e6:+10.3f} {pct:>8}  {name}{marker}"
        )
    total_a = sum(p.self_ns for p in a.values())
    total_b = sum(p.self_ns for p in b.values())
    lines.append(
        f"  total self: {total_a / 1e6:.3f} ms -> {total_b / 1e6:.3f} ms "
        f"({(total_b - total_a) / 1e6:+.3f} ms)"
    )
    return "\n".join(lines)
