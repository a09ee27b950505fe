"""Tests for the Section III experiment (``repro experiment theory``)."""

from __future__ import annotations

import pytest

from repro.experiments import section3_theory
from repro.experiments.section3_theory import ChainRow, TheoryResult

#: Every grid pair; each one is admissible (``U + ΔU <= 1``, ``ΔU < U``).
GRID = [(u, d) for u in section3_theory.GRID_U for d in section3_theory.GRID_DELTA]


@pytest.fixture(scope="module")
def result() -> TheoryResult:
    return section3_theory.run()


class TestChain:
    def test_grid_is_every_admissible_pair_in_order(self, result):
        assert [(r.u, r.delta) for r in result.rows] == GRID

    @pytest.mark.parametrize("u,delta", GRID)
    def test_equations_1_to_3(self, result, u, delta):
        """With ``a = b = 1``: E1 = 2, E2 = (U+ΔU)/U + 1 and
        E3 = 1 + (U+ΔU)/(U-ΔU), and the chain E3 > E2 > E1 is strict."""
        (row,) = [r for r in result.rows if (r.u, r.delta) == (u, delta)]
        assert row.e1 == pytest.approx(2.0)
        assert row.e2 == pytest.approx((u + delta) / u + 1.0)
        assert row.e3 == pytest.approx(1.0 + (u + delta) / (u - delta))
        assert row.e3 > row.e2 > row.e1

    def test_inadmissible_pairs_are_left_out(self, monkeypatch):
        # (0.9, 0.2) raises a core above full utilization, and ΔU >= U
        # would idle the lowered core: equation (3) rejects both.
        monkeypatch.setattr(section3_theory, "GRID_U", (0.1, 0.9))
        monkeypatch.setattr(section3_theory, "GRID_DELTA", (0.05, 0.1, 0.2))
        rows = section3_theory.run().rows
        assert [(r.u, r.delta) for r in rows] == [
            (0.1, 0.05), (0.9, 0.05), (0.9, 0.1)
        ]


class TestNCore:
    def test_balanced_vector_minimizes_every_random_vector(self, result):
        assert result.n_core_ok == section3_theory.N_CORE_VECTORS

    def test_run_is_deterministic(self, result):
        assert section3_theory.run() == result


class TestRender:
    def test_chain_ok_counts_only_strict_chains(self, result):
        broken = result._replace(
            rows=(*result.rows[:-1], ChainRow(0.5, 0.1, 2.0, 2.0, 2.5))
        )
        assert result.chain_ok == len(result.rows)
        assert broken.chain_ok == len(result.rows) - 1
        summary = f"{len(result.rows) - 1}/{len(result.rows)} grid points"
        assert summary in broken.render()

    def test_table_has_one_line_per_grid_point(self, result):
        table = result.render().split("\n\n")[1].splitlines()
        assert len(table) == 2 + len(result.rows)
        assert table[2].split() == ["U=0.3,", "dU=0.05", "2.000", "2.167", "2.400"]
