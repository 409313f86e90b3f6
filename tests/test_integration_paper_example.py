"""End-to-end integration tests on the paper's own worked examples.

These tests tie the whole pipeline together (data model -> LP -> rounding ->
feasibility -> metrics) on instances whose optimal values the paper states
explicitly:

* Figures 2–4: the 5-node example has optimal total completion time 7 in the
  single path model and 5 in the free path model.
* Figure 1: the inter-datacenter WAN example where the single path schedule
  takes 3 time units and the free path schedule 2.
"""

import numpy as np
import pytest

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance
from repro.api import solve
from repro.core.timeindexed import solve_time_indexed_lp
from repro.network.topologies import figure1_topology
from repro.schedule.feasibility import check_feasibility


class TestFigure234Example:
    def test_single_path_optimum_is_seven(self, example_single_path_instance):
        outcome = solve(
            example_single_path_instance, "lp-heuristic", num_slots=8
        )
        assert outcome.objective == pytest.approx(7.0)
        assert outcome.lower_bound <= 7.0 + 1e-6

    def test_free_path_optimum_is_five(self, example_free_path_instance):
        outcome = solve(
            example_free_path_instance, "lp-heuristic", num_slots=8
        )
        assert outcome.objective == pytest.approx(5.0)
        assert outcome.lower_bound == pytest.approx(5.0, abs=1e-5)

    def test_free_path_strictly_better_than_single_path(
        self, example_single_path_instance, example_free_path_instance
    ):
        sp = solve(
            example_single_path_instance, "lp-heuristic", num_slots=8
        )
        fp = solve(
            example_free_path_instance, "lp-heuristic", num_slots=8
        )
        assert fp.objective < sp.objective

    def test_stretch_respects_two_approximation_on_example(
        self, example_free_path_instance
    ):
        outcome = solve(
            example_free_path_instance,
            "stretch-average",
            num_slots=8,
            rng=0,
            num_samples=30,
        )
        # Theorem 4.4 plus at most one slot of rounding per coflow.
        slack = float(example_free_path_instance.weights.sum())
        assert outcome.objective <= 2 * outcome.lower_bound + slack

    def test_all_algorithms_produce_feasible_schedules(
        self, example_free_path_instance
    ):
        for algorithm in ("lp-heuristic", "stretch", "stretch-best"):
            outcome = solve(
                example_free_path_instance,
                algorithm,
                num_slots=8,
                rng=1,
                num_samples=3,
            )
            assert outcome.feasibility is not None
            assert outcome.feasibility.is_feasible


class TestFigure1Example:
    """The NY->BA (18 units) and HK->FL (12 units) coflow of Figure 1."""

    @pytest.fixture
    def figure1_coflow(self):
        return Coflow(
            [
                Flow("NY", "BA", 18.0, name="ny-ba"),
                Flow("HK", "FL", 12.0, name="hk-fl"),
            ],
            name="figure1",
        )

    def test_single_path_takes_three_units(self, figure1_coflow):
        graph = figure1_topology()
        # Paper Figure 1 (middle): with fixed paths the coflow needs 3 time
        # units (the NY->FL link carries the full 18 units at bandwidth 6).
        pinned = figure1_coflow.with_flows(
            [
                figure1_coflow.flows[0].with_path(("NY", "FL", "BA")),
                figure1_coflow.flows[1].with_path(("HK", "FL")),
            ]
        )
        instance = CoflowInstance(graph, [pinned], model="single_path")
        outcome = solve(instance, "lp-heuristic", num_slots=6)
        # NY->FL carries 18 units at bandwidth 6 -> at least 3 slots.
        assert outcome.objective >= 3.0 - 1e-6

    def test_free_path_takes_two_units(self, figure1_coflow):
        graph = figure1_topology()
        instance = CoflowInstance(graph, [figure1_coflow], model="free_path")
        lp = solve_time_indexed_lp(instance, num_slots=6)
        outcome_schedule = lp.to_schedule()
        assert check_feasibility(outcome_schedule).is_feasible
        # The paper's Figure 1 schedule finishes the whole coflow in 2 units.
        assert lp.objective <= 2.0 + 1e-5


class TestWeightSensitivity:
    def test_weights_change_the_lp_ordering(self, example_graph):
        """Giving the big coflow a huge weight should pull it earlier."""
        def build(weight_blue):
            coflows = [
                Coflow([Flow("v1", "t", 1.0)], weight=1.0, name="red"),
                Coflow([Flow("v2", "t", 1.0)], weight=1.0, name="green"),
                Coflow([Flow("v3", "t", 1.0)], weight=1.0, name="orange"),
                Coflow([Flow("s", "t", 3.0)], weight=weight_blue, name="blue"),
            ]
            return CoflowInstance(example_graph, coflows, model="free_path")

        light = solve_time_indexed_lp(build(1.0), num_slots=8)
        heavy = solve_time_indexed_lp(build(50.0), num_slots=8)
        # With a huge weight the blue coflow's LP completion time drops.
        assert heavy.completion_times[3] <= light.completion_times[3] + 1e-6
        assert heavy.completion_times[3] < 2.0 + 1e-6
