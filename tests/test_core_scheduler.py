"""Tests for the CoflowScheduler façade and the paper's algorithms via repro.api."""

import pytest

from repro.api import solve
from repro.api.report import SolveReport
from repro.core.scheduler import CoflowScheduler

#: The paper's own algorithms, all backed by CoflowScheduler.
ALGORITHMS = ("lp-heuristic", "stretch", "stretch-average", "stretch-best")


class TestCoflowScheduler:
    def test_lp_solution_is_cached(self, example_free_path_instance):
        scheduler = CoflowScheduler(example_free_path_instance, num_slots=8)
        first = scheduler.solve_lp()
        second = scheduler.solve_lp()
        assert first is second

    def test_lower_bound_property(self, example_free_path_instance):
        scheduler = CoflowScheduler(example_free_path_instance, num_slots=8)
        assert scheduler.lower_bound == pytest.approx(5.0, abs=1e-5)

    def test_heuristic_outcome(self, example_free_path_instance):
        scheduler = CoflowScheduler(example_free_path_instance, num_slots=8)
        outcome = scheduler.heuristic()
        assert isinstance(outcome, SolveReport)
        assert outcome.instance is example_free_path_instance
        assert outcome.algorithm == "lp-heuristic"
        assert outcome.objective == pytest.approx(5.0)
        assert outcome.gap == pytest.approx(1.0, abs=1e-5)
        assert outcome.feasibility is not None and outcome.feasibility.is_feasible

    def test_stretch_outcome_records_lambda(self, example_free_path_instance):
        scheduler = CoflowScheduler(example_free_path_instance, num_slots=8, rng=0)
        outcome = scheduler.stretch()
        assert outcome.algorithm == "stretch"
        assert 0 < outcome.extras["lambda"] <= 1.0
        assert outcome.objective >= outcome.lower_bound - 1e-6

    def test_stretch_with_fixed_lambda(self, example_free_path_instance):
        scheduler = CoflowScheduler(example_free_path_instance, num_slots=8)
        outcome = scheduler.stretch(lam=1.0)
        assert outcome.extras["lambda"] == 1.0

    def test_best_stretch_outcome(self, example_free_path_instance):
        scheduler = CoflowScheduler(example_free_path_instance, num_slots=8, rng=1)
        outcome = scheduler.best_stretch(num_samples=5)
        evaluation = outcome.extras["evaluation"]
        assert outcome.objective == pytest.approx(evaluation.best_objective)

    def test_stretch_evaluation_num_samples(self, example_free_path_instance):
        scheduler = CoflowScheduler(example_free_path_instance, num_slots=8, rng=1)
        assert scheduler.stretch_evaluation(num_samples=4).num_samples == 4


class TestSolveCoflowSchedule:
    """The paper's algorithms through the one entry point, repro.api.solve."""

    def test_unknown_algorithm_rejected(self, example_free_path_instance):
        with pytest.raises(ValueError, match="unknown algorithm"):
            solve(example_free_path_instance, "magic")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_algorithms_run(self, example_free_path_instance, algorithm):
        outcome = solve(
            example_free_path_instance,
            algorithm,
            num_slots=8,
            rng=0,
            num_samples=3,
        )
        assert outcome.lower_bound == pytest.approx(5.0, abs=1e-5)
        assert outcome.objective >= outcome.lower_bound - 1e-6
        assert outcome.schedule is not None

    def test_single_path_example(self, example_single_path_instance):
        outcome = solve(example_single_path_instance, "lp-heuristic", num_slots=8)
        assert outcome.objective == pytest.approx(7.0)

    def test_stretch_average_reports_mean(self, example_free_path_instance):
        outcome = solve(
            example_free_path_instance,
            "stretch-average",
            num_slots=8,
            rng=3,
            num_samples=5,
        )
        evaluation = outcome.extras["evaluation"]
        assert outcome.objective == pytest.approx(evaluation.average_objective)
        assert outcome.objective >= evaluation.best_objective - 1e-9

    def test_gap_infinite_for_zero_bound(self, example_free_path_instance):
        outcome = solve(example_free_path_instance, "lp-heuristic", num_slots=8)
        outcome.lower_bound = 0.0
        assert outcome.gap == float("inf")

    def test_outcomes_within_two_of_bound(self, small_swan_free_instance):
        outcome = solve(
            small_swan_free_instance, "stretch-best", rng=0, num_samples=5
        )
        slack = float(small_swan_free_instance.weights.sum())
        assert outcome.objective <= 2.0 * outcome.lower_bound + slack
