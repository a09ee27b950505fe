"""Cross-cutting hypothesis property tests: round-trips and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pareto import ParetoPoint, pareto_front
from repro.io import SweepDocument, load_sweep, save_sweep

point_strategy = st.tuples(
    st.floats(min_value=0.001, max_value=1e5),
    st.floats(min_value=0.001, max_value=1e7),
    st.dictionaries(
        st.sampled_from(["bs", "g", "r"]),
        st.integers(min_value=1, max_value=64),
        min_size=1,
        max_size=3,
    ),
)


class TestSweepDocumentRoundTrip:
    @given(st.lists(point_strategy, min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_preserves_everything(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("io") / "sweep.json"
        doc = SweepDocument(
            device="p100",
            workload=4096,
            points=tuple(ParetoPoint(t, e, cfg) for t, e, cfg in raw),
        )
        save_sweep(path, doc)
        loaded = load_sweep(path)
        assert len(loaded.points) == len(doc.points)
        for a, b in zip(doc.points, loaded.points):
            assert a.time_s == b.time_s
            assert a.energy_j == b.energy_j
            assert a.config == b.config

    @given(st.lists(point_strategy, min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_front_invariant_under_round_trip(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("io") / "sweep.json"
        pts = tuple(ParetoPoint(t, e, cfg) for t, e, cfg in raw)
        save_sweep(path, SweepDocument("k40c", 1024, pts))
        loaded = load_sweep(path)
        assert [p.objectives() for p in pareto_front(loaded.points)] == [
            p.objectives() for p in pareto_front(pts)
        ]


class TestFormatTable:
    @given(
        st.lists(
            st.lists(
                st.text(alphabet="abc-", min_size=1, max_size=8),
                min_size=2,
                max_size=2,
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_format_table_alignment_total(self, rows):
        from repro.analysis.report import format_table

        out = format_table(["col1", "col2"], rows)
        lines = out.splitlines()
        assert len(lines) == 2 + len(rows)
