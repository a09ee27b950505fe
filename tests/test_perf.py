"""Tests for the performance observatory (``repro perf``).

Covers the three pillars of ``docs/MODEL.md`` §6.6: tolerant telemetry
ingestion (:mod:`repro.obs.ingest`), span-profile analytics
(:mod:`repro.obs.perf`) and the regression sentinel over two files of
perfbench result lines (:mod:`repro.obs.sentinel`), plus the ``repro
perf`` CLI family end to end.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.cli import _run_trace, main
from repro.obs.ingest import TelemetryStreamError, load_stream
from repro.obs.perf import (
    critical_path,
    folded_stacks,
    parse_folded,
    render_diff,
    render_folded,
    render_report,
    span_profile,
)
from repro.measurement.stats import confidence_halfwidth
from repro.obs.sentinel import check_runs, mann_whitney_u


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    """Each test gets a fresh registry; none leaks into the next."""
    prev = obs.get_telemetry()
    obs.set_telemetry(obs.Telemetry("off"))
    yield
    obs.set_telemetry(prev)


def _span(id, name, dur, parent=None, depth=0):
    return {
        "event": "span",
        "id": id,
        "parent": parent,
        "name": name,
        "depth": depth,
        "start_ns": 0,
        "duration_ns": dur,
        "attrs": {},
    }


#: root(100) -> a(60) -> leaf(20); root -> b(10).  Self times:
#: root 30, a 40, leaf 20, b 10; they sum to the root wall (100).
TREE = [
    _span(1, "root", 100),
    _span(2, "a", 60, parent=1, depth=1),
    _span(3, "leaf", 20, parent=2, depth=2),
    _span(4, "b", 10, parent=1, depth=1),
]


class TestSpanProfile:
    def test_aggregates_self_and_total(self):
        profiles = {p.name: p for p in span_profile(TREE)}
        assert profiles["root"].self_ns == 30
        assert profiles["a"].self_ns == 40
        assert profiles["leaf"].self_ns == 20
        assert profiles["b"].self_ns == 10
        assert profiles["a"].total_ns == 60
        assert profiles["root"].count == 1

    def test_self_times_sum_to_root_wall(self):
        assert sum(p.self_ns for p in span_profile(TREE)) == 100

    def test_sorted_by_self_time_then_name(self):
        names = [p.name for p in span_profile(TREE)]
        assert names == ["a", "root", "leaf", "b"]

    def test_repeated_names_merge(self):
        events = TREE + [_span(5, "b", 7, parent=1, depth=1)]
        b = next(p for p in span_profile(events) if p.name == "b")
        assert b.count == 2 and b.total_ns == 17 and b.self_ns == 17

    def test_self_time_clamped_nonnegative(self):
        # Children overlapping (threads) can sum past the parent wall.
        events = [
            _span(1, "root", 10),
            _span(2, "w1", 8, parent=1),
            _span(3, "w2", 8, parent=1),
        ]
        root = next(p for p in span_profile(events) if p.name == "root")
        assert root.self_ns == 0
        assert all(p.self_ns >= 0 for p in span_profile(events))

    def test_zero_duration_spans_are_kept(self):
        events = TREE + [_span(5, "noop", 0, parent=1, depth=1)]
        noop = next(p for p in span_profile(events) if p.name == "noop")
        assert noop.count == 1 and noop.self_ns == 0
        # ... and the root-wall invariant still holds.
        assert sum(p.self_ns for p in span_profile(events)) == 100

    def test_orphan_spans_become_roots(self):
        orphan = _span(9, "lost", 50, parent=777)  # 777 never appears
        events = TREE + [orphan]
        profiles = {p.name: p for p in span_profile(events)}
        assert profiles["lost"].self_ns == 50  # not dropped
        assert sum(p.self_ns for p in profiles.values()) == 150

    def test_deterministic_across_identical_runs(self):
        import random

        shuffled = list(TREE)
        random.Random(7).shuffle(shuffled)
        assert span_profile(shuffled) == span_profile(TREE)
        assert render_report(shuffled) == render_report(TREE)


class TestCriticalPath:
    def test_follows_longest_child(self):
        path = [hop["name"] for hop in critical_path(TREE)]
        assert path == ["root", "a", "leaf"]

    def test_picks_longest_root(self):
        events = TREE + [_span(5, "other_root", 400)]
        assert critical_path(events)[0]["name"] == "other_root"

    def test_ties_break_on_id(self):
        events = [_span(1, "first", 10), _span(2, "second", 10)]
        assert critical_path(events)[0]["name"] == "first"

    def test_empty_stream(self):
        assert critical_path([]) == []


class TestFoldedStacks:
    def test_stacks_are_root_first(self):
        stacks = folded_stacks(TREE)
        assert stacks == {
            "root": 30,
            "root;a": 40,
            "root;a;leaf": 20,
            "root;b": 10,
        }

    def test_values_sum_to_root_wall(self):
        assert sum(folded_stacks(TREE).values()) == 100

    def test_separator_and_space_escaping(self):
        events = [_span(1, "load config; then run", 5)]
        (stack,) = folded_stacks(events)
        assert stack == "load_config:_then_run"

    def test_round_trips_through_parser(self):
        assert parse_folded(render_folded(TREE)) == folded_stacks(TREE)

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 1: not a folded stack"):
            parse_folded("no trailing integer\n")

    def test_parser_merges_duplicate_stacks(self):
        assert parse_folded("a;b 3\na;b 4\n") == {"a;b": 7}


class TestRenderReport:
    def test_profile_table_and_critical_path(self):
        out = render_report(TREE)
        assert "span profile (4 spans, 4 names, 0.00 ms root wall)" in out
        assert "(sum of self)" in out
        assert "critical path" in out

    def test_diff_flags_asymmetric_names(self):
        out = render_diff(TREE, TREE[:2] + [_span(9, "new", 5)])
        assert "(only in A)" in out and "(only in B)" in out
        assert "total self:" in out


class TestIngest:
    def _write(self, tmp_path, lines):
        path = tmp_path / "stream.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def _header(self):
        return json.dumps({"event": "header", "format": "repro-telemetry/1"})

    def test_truncated_final_line_is_dropped_with_warning(self, tmp_path):
        path = self._write(
            tmp_path,
            [self._header(), json.dumps(_span(1, "x", 5)), '{"event": "sp'],
        )
        stream = load_stream(path)
        assert len(stream.events) == 2
        assert any("truncated final line" in w for w in stream.warnings)

    def test_empty_file_is_a_clear_error(self, tmp_path):
        path = self._write(tmp_path, [""])
        with pytest.raises(TelemetryStreamError, match="empty telemetry"):
            load_stream(path)

    def test_garbage_mid_file_names_the_line(self, tmp_path):
        path = self._write(
            tmp_path, [self._header(), "not json", self._header()]
        )
        with pytest.raises(TelemetryStreamError, match=r":2: not a JSON"):
            load_stream(path)

    def test_non_event_object_is_rejected(self, tmp_path):
        path = self._write(tmp_path, ['{"foo": 1}'])
        with pytest.raises(
            TelemetryStreamError, match="not a telemetry event"
        ):
            load_stream(path)

    def test_concatenated_runs_split_at_headers(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                self._header(),
                json.dumps(_span(1, "x", 5)),
                self._header(),
                json.dumps(_span(1, "y", 6)),
            ],
        )
        runs = load_stream(path).runs
        assert len(runs) == 2
        assert runs[0][1]["name"] == "x" and runs[1][1]["name"] == "y"

    def test_headerless_prefix_warns(self, tmp_path):
        path = self._write(tmp_path, [json.dumps(_span(1, "x", 5))])
        stream = load_stream(path)
        assert any("does not start with a header" in w
                   for w in stream.warnings)

    def test_trace_renders_multi_run_streams(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            [
                self._header(),
                json.dumps(_span(1, "x", 5)),
                self._header(),
                json.dumps(_span(1, "y", 6)),
            ],
        )
        out = _run_trace(path)
        assert "== run 1/2 ==" in out and "== run 2/2 ==" in out


class TestMannWhitney:
    def test_separated_samples_are_significant(self):
        a = [1.0, 1.1, 1.2, 1.3, 1.4]
        b = [2.0, 2.1, 2.2, 2.3, 2.4]
        u, p = mann_whitney_u(a, b)
        assert u == 0
        assert p == pytest.approx(2 / 252)  # 2 / C(10, 5), exact

    def test_identical_samples_are_not(self):
        a = [1.0, 2.0, 3.0, 4.0]
        _, p = mann_whitney_u(a, a)  # all tied -> normal approximation
        assert p > 0.5
        # U == n*m/2: no continuity correction past the centre.
        assert mann_whitney_u(a, a) == (8.0, 1.0)

    def test_symmetry(self):
        a, b = [1.0, 3.0, 5.0], [2.0, 4.0, 6.0]
        assert mann_whitney_u(a, b) == mann_whitney_u(b, a)

    def test_interleaved_samples_are_neutral(self):
        a, b = [1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]
        _, p = mann_whitney_u(a, b)
        assert p > 0.5

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError, match="non-empty"):
            mann_whitney_u([], [1.0])

    def test_large_samples_use_normal_approximation(self):
        a = [float(i) for i in range(30)]
        b = [float(i) + 25.0 for i in range(30)]
        _, p = mann_whitney_u(a, b)  # n*m = 900 > 400
        assert p < 0.001


#: perfbench's end-to-end metrics and their units.
UNITS = {
    "setup_s": "s",
    "first_s": "s",
    "pass_p50_s": "s",
    "pass_p90_s": "s",
    "peak_rss_mb": "MB",
}


def _line(value, attempted=100, failed=0, units=UNITS):
    """One ``perfbench/run.py --trace 0`` result line, every metric at
    ``value``."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, unit in units.items()
        },
    })


def _runs(path, values, **line):
    """A file of one result line per run, one run per value."""
    path.write_text("".join(_line(v, **line) + "\n" for v in values))
    return str(path)


#: A baseline around 10 ms, jittered so no two runs tie; its 95% CI
#: half-width is 1.9% of its mean, within the 2.5% protocol.
BASELINE = [0.0100, 0.0102, 0.0104, 0.0101, 0.0103]
SLOWDOWN = [0.0200, 0.0204, 0.0208, 0.0202, 0.0206]


class TestSentinel:
    def _check(self, tmp_path, base, cur, base_line=None, cur_line=None):
        return check_runs(
            _runs(tmp_path / "base.jsonl", base, **(base_line or {})),
            _runs(tmp_path / "cur.jsonl", cur, **(cur_line or {})),
        )

    def _metric(self, report, name="pass_p50_s"):
        (verdict,) = [v for v in report.verdicts if v.metric == name]
        return verdict

    def test_every_metric_and_the_failed_row_get_a_verdict(self, tmp_path):
        report = self._check(tmp_path, BASELINE, BASELINE)
        assert [v.metric for v in report.verdicts] == [*UNITS, "failed"]
        assert {(v.baseline_n, v.current_n) for v in report.verdicts} == {
            (5, 5), (500, 500)
        }

    def test_2x_slowdown_is_a_regression(self, tmp_path):
        report = self._check(tmp_path, BASELINE, SLOWDOWN)
        for name in UNITS:
            verdict = self._metric(report, name)
            assert verdict.outcome == "regression"
            assert verdict.shift == pytest.approx(1.0, abs=0.1)  # ~2x
            assert verdict.p_value == pytest.approx(2 / 252)  # exact, n=m=5
            assert verdict.current_wins == 0
        assert self._metric(report, "failed").outcome == "neutral"
        assert report.exit_code == 1
        rendered = report.render()
        assert "regression" in rendered
        assert "pass_p50_s" in rendered

    def test_2x_speedup_is_an_improvement(self, tmp_path):
        report = self._check(tmp_path, BASELINE, [v / 2 for v in BASELINE])
        verdict = self._metric(report)
        assert verdict.outcome == "improvement"
        assert verdict.current_wins == 5
        assert report.exit_code == 0  # getting faster never fails a build

    def test_significant_but_tiny_shift_is_neutral(self, tmp_path):
        # Clearly separated distributions (p tiny) but only ~5% apart:
        # the effect-size bar keeps the sentinel quiet.
        report = self._check(
            tmp_path,
            [0.01000, 0.01002, 0.01004, 0.01001, 0.01003],
            [0.01050, 0.01052, 0.01054, 0.01051, 0.01053],
        )
        verdict = self._metric(report)
        assert verdict.p_value < 0.05
        assert verdict.shift == pytest.approx(0.05, abs=0.005)
        assert verdict.outcome == "neutral"
        assert report.exit_code == 0

    def test_unmodified_rerun_is_neutral(self, tmp_path):
        report = self._check(
            tmp_path, BASELINE, [0.0101, 0.0103, 0.0099, 0.0104, 0.0102]
        )
        assert {v.outcome for v in report.verdicts} == {"neutral"}
        assert report.exit_code == 0

    @pytest.mark.parametrize(
        "base,cur",
        [
            (BASELINE, [0.0200, 0.0204]),
            ([0.0100, 0.0102], [0.0200, 0.0204, 0.0208, 0.0202]),
        ],
        ids=["current", "baseline"],
    )
    def test_fewer_than_min_samples_is_insufficient(
        self, tmp_path, base, cur
    ):
        # A 2x slowdown, but too few runs on one side to judge it.
        report = self._check(tmp_path, base, cur)
        verdict = self._metric(report)
        assert verdict.outcome == "insufficient-samples"
        assert verdict.p_value is None
        assert (verdict.baseline_n, verdict.current_n) == (
            len(base), len(cur)
        )
        assert report.exit_code == 0
        assert "5 insufficient-samples" in report.render()

    #: A 2x slowdown's runs, one side 1.9% wide, the other 13%.
    NOISY = [0.0100, 0.0120, 0.0090, 0.0110, 0.0105]

    @pytest.mark.parametrize(
        "base,cur",
        [(BASELINE, [2 * v for v in NOISY]), (NOISY, SLOWDOWN)],
        ids=["current", "baseline"],
    )
    def test_ci_wider_than_the_protocol_is_insufficient(
        self, tmp_path, base, cur
    ):
        """The paper's protocol: a side whose 95% CI half-width exceeds
        2.5% of its mean has too few runs for a verdict, however far
        its median moved."""
        report = self._check(tmp_path, base, cur)
        verdict = self._metric(report)
        assert verdict.outcome == "insufficient-samples"
        assert verdict.p_value is None
        for ci, runs in ((verdict.ci_baseline, base), (verdict.ci_current, cur)):
            share = confidence_halfwidth(runs) / (sum(runs) / len(runs))
            assert ci == pytest.approx(share)
        assert max(verdict.ci_baseline, verdict.ci_current) > 0.025
        assert min(verdict.ci_baseline, verdict.ci_current) < 0.025
        assert report.exit_code == 0

    def test_wins_pair_runs_by_line_and_ties_count_for_neither(
        self, tmp_path
    ):
        # Line by line: won, tie, lost, won, tie; the sixth run has no
        # baseline partner.
        report = self._check(
            tmp_path, BASELINE,
            [0.0099, 0.0102, 0.0105, 0.0100, 0.0103, 0.0001],
        )
        assert self._metric(report).current_wins == 2
        assert "won 2/5" in report.render()

    def test_higher_failed_share_is_a_regression(self, tmp_path):
        report = self._check(
            tmp_path, BASELINE, BASELINE, cur_line={"failed": 1}
        )
        verdict = self._metric(report, "failed")
        assert verdict.outcome == "regression"
        assert (verdict.failed_current, verdict.current_n) == (5, 500)
        assert (verdict.failed_baseline, verdict.baseline_n) == (0, 500)
        assert "5/500 vs 0/500 passes failed" in report.render()
        assert report.exit_code == 1

    def test_failed_share_not_count_is_compared(self, tmp_path):
        report = self._check(
            tmp_path, BASELINE, BASELINE,
            base_line={"attempted": 100, "failed": 1},
            cur_line={"attempted": 200, "failed": 2},
        )
        assert self._metric(report, "failed").outcome == "neutral"
        lower = self._check(
            tmp_path, BASELINE, BASELINE, base_line={"failed": 1}
        )
        assert self._metric(lower, "failed").outcome == "improvement"
        assert lower.exit_code == 0

    def test_same_file_twice_is_all_neutral(self, tmp_path):
        path = _runs(tmp_path / "runs.jsonl", BASELINE)
        report = check_runs(path, path)
        assert {v.outcome for v in report.verdicts} == {"neutral"}
        assert {
            v.p_value for v in report.verdicts if v.metric != "failed"
        } == {1.0}
        assert report.exit_code == 0


class TestPerfCli:
    def _telemetry(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(
            ["sweep", "--device", "p100", "--n", "2048",
             "--telemetry", f"jsonl:{path}"]
        ) == 0
        return path

    def test_report_self_times_sum_to_root_wall(self, tmp_path, capsys):
        path = self._telemetry(tmp_path)
        capsys.readouterr()
        assert main(["perf", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "span profile" in out
        assert "critical path" in out
        # The invariant, checked on the real stream, not the render:
        (events,) = load_stream(path).runs
        roots = [e for e in events if e.get("event") == "span"
                 and e.get("parent") is None]
        root_wall = sum(s["duration_ns"] for s in roots)
        self_sum = sum(p.self_ns for p in span_profile(events))
        assert self_sum == root_wall

    def test_flamegraph_round_trips(self, tmp_path, capsys):
        path = self._telemetry(tmp_path)
        out_file = tmp_path / "flame.folded"
        capsys.readouterr()
        assert main(
            ["perf", "flamegraph", str(path), "--output", str(out_file)]
        ) == 0
        stacks = parse_folded(out_file.read_text())
        assert stacks  # non-empty, every line parsed
        assert all(stack.startswith("cli.sweep") for stack in stacks)
        (events,) = load_stream(path).runs
        assert stacks == folded_stacks(events)

    def test_diff_of_two_runs(self, tmp_path, capsys):
        path_a = self._telemetry(tmp_path)
        path_b = tmp_path / "b.jsonl"
        assert main(
            ["sweep", "--device", "k40c", "--n", "4096",
             "--telemetry", f"jsonl:{path_b}"]
        ) == 0
        capsys.readouterr()
        assert main(["perf", "diff", str(path_a), str(path_b)]) == 0
        out = capsys.readouterr().out
        assert "span-profile diff" in out
        assert "total self:" in out

    def test_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no such file"):
            main(["perf", "report", str(tmp_path / "gone.jsonl")])

    def _check(self, tmp_path, cur, base=BASELINE, **cur_line):
        return main(
            ["perf", "check",
             _runs(tmp_path / "base.jsonl", base),
             _runs(tmp_path / "cur.jsonl", cur, **cur_line)]
        )

    def test_check_flags_injected_slowdown(self, tmp_path, capsys):
        code = self._check(tmp_path, SLOWDOWN)
        out = capsys.readouterr().out
        assert code == 1
        assert "regression" in out
        assert "pass_p50_s" in out
        assert (
            f"{tmp_path / 'cur.jsonl'} (5 runs) vs "
            f"{tmp_path / 'base.jsonl'} (5 runs)"
        ) in out

    def test_check_neutral_rerun_exits_zero(self, tmp_path, capsys):
        code = self._check(
            tmp_path, [0.0101, 0.0103, 0.0099, 0.0104, 0.0102]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "summary: 6 neutral"

    def test_check_higher_failed_share_exits_one(self, tmp_path, capsys):
        code = self._check(tmp_path, BASELINE, failed=3)
        out = capsys.readouterr().out
        assert code == 1
        assert "15/500 vs 0/500 passes failed" in out
        assert out.splitlines()[-1] == "summary: 1 regression, 5 neutral"

    def _error(self, *argv):
        """The message of a ``perf check`` that exits with an error."""
        with pytest.raises(SystemExit) as exc:
            main(["perf", "check", *argv])
        message = exc.value.code
        assert isinstance(message, str)
        assert message.startswith("repro perf check: ")
        assert "\n" not in message
        return message

    @pytest.mark.parametrize("side", ["baseline", "current"])
    def test_check_missing_file_names_it(self, tmp_path, side):
        present = _runs(tmp_path / "present.jsonl", BASELINE)
        missing = str(tmp_path / "missing.jsonl")
        argv = [missing, present] if side == "baseline" else [present, missing]
        message = self._error(*argv)
        assert f"{missing}: No such file" in message
        assert present not in message

    @pytest.mark.parametrize(
        "text,error",
        [
            ("{truncated\n", ":1: not JSON"),
            ('{"correct": true, "attempted": 1, "failed": 0}\n',
             ":1: no metrics"),
            ("[1, 2, 3]\n", ":1: no metrics"),
            (_line(0.01, units={"planner.add_s": "s", "batch.calls": "count"})
             + "\n",
             ":1: metric batch.calls has unit 'count', not one of s, MB: "
             "not a --trace 0 result"),
            (json.dumps({"metrics": {"setup_s": {"value": 1, "unit": "s"}}})
             + "\n",
             ":1: no attempted and failed pass counts"),
            (_line(0.01) + "\n"
             + _line(0.01, units={"setup_s": "s"}) + "\n",
             ":2: other metrics than the first line"),
            ("\n", ": no result lines"),
        ],
        ids=[
            "not-json", "no-metrics", "not-an-object", "trace-1",
            "no-counts", "metrics-differ", "empty",
        ],
    )
    def test_check_unreadable_line_names_file_and_line(
        self, tmp_path, text, error
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        present = _runs(tmp_path / "present.jsonl", BASELINE)
        message = self._error(present, str(bad))
        assert f"{bad}{error}" in message

    def test_check_different_metrics_names_both_files(self, tmp_path):
        base = _runs(tmp_path / "base.jsonl", BASELINE)
        fewer = {k: v for k, v in UNITS.items() if k != "peak_rss_mb"}
        cur = _runs(tmp_path / "cur.jsonl", BASELINE, units=fewer)
        message = self._error(base, cur)
        assert f"{base} and {cur} hold different metrics" in message
        assert f"only in {base}: peak_rss_mb" in message
