"""Tests of the top-level public API surface.

Downstream users import from ``repro`` directly; these tests pin the names
that must stay available and check a couple of end-to-end flows through the
top-level functions only (no internal imports), which is how the README's
quickstart snippet uses the library.
"""

import numpy as np
import pytest

import repro


EXPECTED_EXPORTS = [
    "Flow",
    "Coflow",
    "CoflowInstance",
    "TransmissionModel",
    "NetworkGraph",
    "swan_topology",
    "gscale_topology",
    "paper_example_topology",
    "pin_random_shortest_paths",
    "Schedule",
    "TimeGrid",
    "check_feasibility",
    "compact_schedule",
    "weighted_completion_time",
    "CoflowLPSolution",
    "CoflowScheduler",
    "solve_time_indexed_lp",
    "suggest_horizon",
    "run_stretch",
    "evaluate_stretch",
    "lp_heuristic_schedule",
    "solve",
    "solve_multipath_lp",
    "online_batch_schedule",
]


class TestExports:
    @pytest.mark.parametrize("name", EXPECTED_EXPORTS)
    def test_name_available(self, name):
        assert hasattr(repro, name), f"repro.{name} missing from the public API"
        assert name in repro.__all__

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


class TestReadmeQuickstartFlow:
    """The exact shape of the README quickstart must keep working."""

    def test_quickstart_snippet(self):
        graph = repro.swan_topology()
        shuffle = repro.Coflow(
            [
                repro.Flow("NY", "HK", 12.0),
                repro.Flow("NY", "BA", 6.0),
                repro.Flow("FL", "HK", 9.0),
            ],
            weight=1.0,
            name="shuffle",
        )
        urgent = repro.Coflow(
            [repro.Flow("LA", "NY", 4.0)], weight=10.0, release_time=1.0, name="urgent"
        )
        instance = repro.CoflowInstance(graph, [shuffle, urgent], model="free_path")

        outcome = repro.solve(instance, "lp-heuristic")
        assert outcome.lower_bound > 0
        assert outcome.objective >= outcome.lower_bound - 1e-6
        times = outcome.schedule.coflow_completion_times()
        assert times.shape == (2,)
        # The urgent coflow carries 10x the weight and must not languish
        # behind the bulk shuffle.
        assert times[1] <= times[0] + 1e-6

        stretch = repro.solve(instance, "stretch-best", rng=0, num_samples=3)
        assert stretch.objective >= stretch.lower_bound - 1e-6

    def test_multipath_and_online_entry_points(self):
        graph = repro.paper_example_topology()
        instance = repro.CoflowInstance(
            graph,
            [repro.Coflow([repro.Flow("s", "t", 3.0)], name="blue")],
            model="free_path",
        )
        multipath = repro.solve_multipath_lp(instance, k=3, num_slots=6)
        assert multipath.objective <= 1.0 + 1e-6

        online = repro.online_batch_schedule(instance, rng=0)
        assert online.weighted_completion_time >= multipath.objective - 1e-6

    def test_feasibility_checker_exposed(self):
        graph = repro.paper_example_topology()
        instance = repro.CoflowInstance(
            graph,
            [repro.Coflow([repro.Flow("v1", "t", 1.0)], name="red")],
            model="free_path",
        )
        outcome = repro.solve(instance, num_slots=4)
        report = repro.check_feasibility(outcome.schedule)
        assert report.is_feasible
        assert repro.weighted_completion_time(outcome.schedule) == outcome.objective
