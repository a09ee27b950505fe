"""Tests for the budgeted-search study."""

from __future__ import annotations

import random

import pytest

from repro.apps.matmul_gpu import MatmulGPUApp
from repro.experiments import budgeted_search
from repro.machines import P100
from repro.sweep import EvalPlanner


#: The budgeted-search pass (P100, N=10240, seed 0), one entry per budget,
#: in the order the study runs them: the number of ``random.Random.choice``
#: draws, the summed length of the sequences drawn from, the position in
#: the space's enumeration of each configuration evaluated, in evaluation
#: order, and the returned front's ``(BS, G, R)``, in front order.
P100_TRAJECTORY = [
    (16, 110, 985,
     (0, 41, 82, 123, 88, 63, 69, 148, 57, 129, 124, 149, 152, 30, 145, 141),
     [(27, 1, 24)]),
    (33, 233, 2904,
     (0, 20, 40, 60, 80, 100, 120, 140, 160, 125, 115, 25, 87, 109, 151,
      163, 32, 75, 122, 62, 34, 127, 55, 6, 21, 12, 50, 126, 121, 116, 110,
      19, 101),
     [(21, 3, 8), (20, 3, 8)]),
    (57, 368, 4755,
     (0, 11, 22, 33, 44, 55, 66, 77, 88, 99, 110, 121, 132, 143, 154, 147,
      116, 126, 146, 150, 142, 136, 42, 157, 32, 79, 125, 64, 35, 34, 149,
      152, 107, 145, 124, 141, 101, 96, 9, 51, 135, 139, 131, 94, 148, 45,
      30, 46, 120, 26, 80, 72, 153, 31, 2, 40, 18),
     [(24, 3, 8), (27, 1, 24)]),
    (82, 550, 7185,
     (0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128,
      136, 144, 152, 160, 155, 149, 27, 94, 145, 141, 82, 81, 130, 66, 36,
      35, 153, 110, 163, 124, 135, 139, 121, 131, 34, 10, 53, 143, 111,
      142, 100, 154, 46, 33, 47, 127, 28, 84, 75, 157, 37, 2, 43, 19, 162,
      73, 52, 102, 22, 57, 132, 158, 98, 123, 29, 134, 42, 65, 78, 107, 54,
      95, 93, 30, 76),
     [(24, 3, 8), (27, 1, 24)]),
    (164, 1326, 9631,
     (0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68,
      72, 76, 80, 84, 88, 92, 96, 100, 104, 108, 112, 116, 120, 124, 128,
      132, 136, 140, 144, 148, 152, 156, 160, 155, 86, 98, 153, 95, 149,
      81, 145, 141, 105, 111, 133, 63, 129, 5, 114, 137, 14, 9, 31, 135,
      158, 131, 43, 139, 62, 157, 143, 146, 122, 77, 90, 54, 41, 55, 49,
      103, 93, 159, 39, 2, 50, 25, 51, 113, 65, 130, 29, 69, 30, 110, 85,
      91, 99, 147, 61, 123, 121, 37, 94, 10, 11, 27, 73, 33, 82, 46, 19,
      117, 53, 161, 1, 70, 15, 127, 78, 74, 154, 125, 97, 89, 162, 75, 34,
      3, 150, 79, 45, 151, 66, 87, 138, 17, 67, 18, 83, 119, 7, 109, 58, 6,
      47, 35, 163, 59, 101, 57, 118, 38, 26, 126, 102, 134, 22, 106, 142,
      13, 71, 23, 115, 21, 42, 107),
     [(32, 1, 24), (24, 3, 8), (27, 1, 24)]),
]

#: Each budget's (IGD, additive epsilon), scored from the scalar model of
#: record and from the planner's batch model, which differ in the last bits.
P100_SCORES = {
    "scalar": [
        (0.11446445755608874, 0.010516639330657718),
        (0.1260961369495545, 0.18910346764342778),
        (0.04929684745887832, 0.004371550457664908),
        (0.04929684745887832, 0.004371550457664908),
        (0.0, 0.0),
    ],
    "planner": [
        (0.11446445755608865, 0.010516639330657718),
        (0.12609613694955443, 0.18910346764342778),
        (0.049296847458878246, 0.004371550457664908),
        (0.049296847458878246, 0.004371550457664908),
        (0.0, 0.0),
    ],
}


class TestBudgetedSearch:
    @pytest.fixture(scope="class")
    def result(self):
        return budgeted_search.run(P100, n=8192, seed=0)

    def test_full_budget_is_exact(self, result):
        full = result.rows[-1]
        assert full.budget == result.space_size
        assert full.igd == pytest.approx(0.0, abs=1e-12)
        assert full.epsilon == pytest.approx(0.0, abs=1e-12)
        assert full.front_size == result.exhaustive_front_size

    def test_quality_improves_with_budget(self, result):
        epsilons = [r.epsilon for r in result.rows]
        assert epsilons[-1] <= epsilons[0]

    def test_half_budget_close_to_exact(self, result):
        half = next(r for r in result.rows if 0.45 <= r.budget_fraction <= 0.55)
        assert half.epsilon < 0.10  # within 10% of the exhaustive front

    def test_deterministic(self):
        a = budgeted_search.run(P100, n=4096, budget_fractions=(0.2,), seed=3)
        b = budgeted_search.run(P100, n=4096, budget_fractions=(0.2,), seed=3)
        assert a.rows[0].igd == b.rows[0].igd

    def test_render(self, result):
        out = result.render()
        assert "IGD" in out and "eps-indicator" in out

    @pytest.mark.parametrize("with_planner", [False, True])
    def test_no_validity_pass_per_run(self, monkeypatch, with_planner):
        """The space is read from the enumeration memo, so no run calls
        the predicate: the exhaustive pass, the planner prefill,
        ``size()`` and every greedy call share the memo's valid
        configurations, and a probe is checked against the valid set.
        """
        calls = 0
        config_space = MatmulGPUApp.config_space

        def counted(app):
            space = config_space(app)
            valid = space.is_valid

            def is_valid(cfg):
                nonlocal calls
                calls += 1
                return valid(cfg)

            space.is_valid = is_valid
            return space

        monkeypatch.setattr(MatmulGPUApp, "config_space", counted)
        engine = EvalPlanner() if with_planner else None
        budgeted_search.run(engine=engine)
        assert calls == 0


class TestPinnedTrajectory:
    """The study's five searches draw and evaluate exactly as pinned.

    Every ``random.Random.choice`` call is counted on the class, so a
    search that keeps its trajectory must make the same draws, each
    over a sequence of the same length, and evaluate the same
    configurations in the same order; the scores must not move a bit.
    """

    @pytest.mark.parametrize("engine", ["scalar", "planner"])
    def test_draws_evaluations_front_and_scores(self, monkeypatch, engine):
        lengths: list[int] = []
        choice = random.Random.choice

        def counted(rng, seq):
            lengths.append(len(seq))
            return choice(rng, seq)

        search = budgeted_search.greedy_front_search
        trajectory = []

        def recorded(space, evaluate, *, budget, seed):
            lengths.clear()
            front, evaluated = search(space, evaluate, budget=budget, seed=seed)
            order = list(space)
            trajectory.append((
                budget,
                len(lengths),
                sum(lengths),
                tuple(order.index(ec.config) for ec in evaluated),
                [(p.config["bs"], p.config["g"], p.config["r"]) for p in front],
            ))
            return front, evaluated

        monkeypatch.setattr(random.Random, "choice", counted)
        monkeypatch.setattr(budgeted_search, "greedy_front_search", recorded)
        result = budgeted_search.run(
            P100,
            n=10240,
            seed=0,
            engine=EvalPlanner() if engine == "planner" else None,
        )
        assert trajectory == P100_TRAJECTORY
        assert [(r.igd, r.epsilon) for r in result.rows] == P100_SCORES[engine]
        assert [r.front_size for r in result.rows] == [1, 2, 2, 2, 3]
