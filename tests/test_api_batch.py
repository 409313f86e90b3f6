"""Tests for the repro.api batch runner (solve_many) and its parallel path."""

import numpy as np
import pytest

from repro import api
from repro.api import SolverConfig, UnknownAlgorithmError, solve_many
from repro.core.timeindexed import solve_time_indexed_lp
from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance
from repro.network.topologies import paper_example_topology

ALGORITHMS = ("lp-heuristic", "stretch-best", "fifo")


def make_instances(count: int) -> list:
    """*count* small free-path instances with varying demands."""
    graph = paper_example_topology()
    instances = []
    for k in range(count):
        coflows = [
            Coflow([Flow("v1", "t", 1.0 + 0.25 * k)], name="a", weight=1.0),
            Coflow([Flow("v2", "t", 1.0)], name="b", weight=2.0),
            Coflow([Flow("s", "t", 2.0 + 0.5 * (k % 3))], name="c", weight=1.0),
        ]
        instances.append(
            CoflowInstance(graph, coflows, model="free_path", name=f"batch-{k}")
        )
    return instances


@pytest.fixture(scope="module")
def instances():
    return make_instances(8)


@pytest.fixture(scope="module")
def serial_reports(instances):
    return solve_many(
        instances, ALGORITHMS, config=SolverConfig(rng=5, num_samples=3)
    )


class TestSolveManySerial:
    def test_count_and_order(self, instances, serial_reports):
        assert len(serial_reports) == len(instances) * len(ALGORITHMS)
        for i, instance in enumerate(instances):
            for k, algorithm in enumerate(ALGORITHMS):
                report = serial_reports[i * len(ALGORITHMS) + k]
                assert report.instance.name == instance.name
                assert report.algorithm == algorithm

    def test_objectives_match_single_solves(self, instances, serial_reports):
        # Deterministic algorithms must agree with one-off api.solve calls.
        for i, instance in enumerate(instances):
            report = serial_reports[i * len(ALGORITHMS)]
            single = api.solve(instance, "lp-heuristic")
            assert report.objective == pytest.approx(single.objective, rel=1e-9)
            fifo = serial_reports[i * len(ALGORITHMS) + 2]
            assert fifo.objective == pytest.approx(
                api.solve(instance, "fifo").objective, rel=1e-9
            )

    def test_shared_lp_attached_to_all_reports(self, serial_reports):
        for i in range(0, len(serial_reports), len(ALGORITHMS)):
            group = serial_reports[i : i + len(ALGORITHMS)]
            lp = group[0].lp_solution
            assert lp is not None
            # stretch-best reuses the exact same LP solve; fifo inherits the
            # bound from it.
            assert group[1].lp_solution is lp
            assert group[2].lower_bound == pytest.approx(lp.objective)

    def test_reports_feasible_with_correct_objectives(self, serial_reports):
        for report in serial_reports:
            assert report.is_feasible
            assert report.objective == pytest.approx(
                float(
                    np.dot(
                        report.instance.weights, report.coflow_completion_times
                    )
                ),
                rel=1e-9,
            )
            if api.get_algorithm(report.algorithm).uses_shared_lp:
                # Grid-based algorithms can never beat the LP relaxation
                # (continuous-time baselines can, at coarse slot granularity).
                assert report.objective >= report.lower_bound - 1e-6


class TestSolveManyParallel:
    def test_parallel_matches_serial(self, instances, serial_reports):
        parallel_reports = solve_many(
            instances,
            ALGORITHMS,
            config=SolverConfig(rng=5, num_samples=3),
            parallel=4,
        )
        assert len(parallel_reports) == 24
        for serial, parallel in zip(serial_reports, parallel_reports):
            assert parallel.algorithm == serial.algorithm
            assert parallel.instance.name == serial.instance.name
            # Identical including the randomized stretch-best series: the
            # per-instance child generators are derived deterministically.
            assert parallel.objective == pytest.approx(serial.objective, rel=1e-9)
            np.testing.assert_allclose(
                parallel.coflow_completion_times,
                serial.coflow_completion_times,
                rtol=1e-9,
            )


class TestSolveManyValidation:
    def test_unknown_algorithm_fails_fast(self, instances):
        with pytest.raises(UnknownAlgorithmError, match="registered algorithms"):
            solve_many(instances[:2], ["lp-heuristic", "nope"])

    def test_model_mismatch_fails_fast(self, instances):
        with pytest.raises(ValueError, match="does not support"):
            solve_many(instances[:2], ["jahanjou"])

    def test_empty_algorithms_rejected(self, instances):
        with pytest.raises(ValueError, match="at least one"):
            solve_many(instances[:2], [])

    def test_single_algorithm_as_string(self, instances):
        reports = solve_many(instances[:2], "fifo")
        assert [r.algorithm for r in reports] == ["fifo", "fifo"]

    def test_share_lp_disabled(self, instances):
        reports = solve_many(instances[:1], ["fifo"], share_lp=False)
        assert reports[0].lower_bound is None


class TestSharedLPGridKeying:
    """The shared LP is only reused when the request resolves to its grid."""

    def test_matching_grid_is_reused(self, instances):
        instance = instances[0]
        shared = solve_time_indexed_lp(instance)
        report = api.solve(instance, "lp-heuristic", lp_solution=shared)
        assert report.lp_solution is shared

    def test_epsilon_mismatch_triggers_fresh_solve(self, caplog):
        import logging

        # Demands large enough that the geometric eps-grid genuinely differs
        # from the uniform grid (for short horizons the two coincide and
        # reuse would be legitimate).
        graph = paper_example_topology()
        coflows = [
            Coflow([Flow("v1", "t", 6.0)], name="a"),
            Coflow([Flow("s", "t", 9.0)], name="b"),
        ]
        instance = CoflowInstance(graph, coflows, model="free_path")
        shared = solve_time_indexed_lp(instance)  # uniform grid
        with caplog.at_level(logging.DEBUG, logger="repro.core.scheduler"):
            report = api.solve(
                instance, "lp-heuristic", lp_solution=shared, epsilon=0.4
            )
        # The mismatched shared solution must not be reused...
        assert report.lp_solution is not shared
        assert not report.lp_solution.grid.is_uniform
        # ...and the skip is logged at debug level.
        assert any(
            "shared LP reuse skipped" in record.message for record in caplog.records
        )

    def test_explicit_grid_mismatch_triggers_fresh_solve(self, instances):
        from repro.schedule.timegrid import TimeGrid

        instance = instances[0]
        shared = solve_time_indexed_lp(instance)
        other_grid = TimeGrid.uniform(shared.grid.num_slots + 3, 1.0)
        report = api.solve(
            instance, "lp-heuristic", lp_solution=shared, grid=other_grid
        )
        assert report.lp_solution is not shared
        assert report.lp_solution.grid == other_grid

    def test_batch_reuses_one_lp_per_instance(self, instances):
        # Both shared-lp algorithms of one request must hold the same LP
        # solution object (one solve per instance).
        reports = solve_many(
            instances[:2],
            ("lp-heuristic", "stretch-best"),
            config=SolverConfig(rng=1, num_samples=2),
        )
        for i in range(2):
            a = reports[2 * i]
            b = reports[2 * i + 1]
            assert a.lp_solution is b.lp_solution


class TestSolveSecondsSentinel:
    """Regression: a measured 0.0 was treated as "unset" and clobbered."""

    def _register(self, name, solve_seconds):
        from repro.api.registry import register_algorithm
        from repro.api.report import SolveReport

        @register_algorithm(name, description="test stub")
        def _stub(instance, config, lp_solution=None):
            return SolveReport(
                algorithm=name,
                instance=instance,
                objective=1.0,
                coflow_completion_times=np.ones(instance.num_coflows),
                solve_seconds=solve_seconds,
            )

    def test_measured_zero_is_preserved(self, instances):
        from repro.api.registry import _REGISTRY

        self._register("test-zero-seconds", 0.0)
        try:
            report = api.solve(instances[0], "test-zero-seconds")
            # A coarse clock can legitimately measure 0.0; solve() must not
            # overwrite it with its own wall-clock measurement.
            assert report.solve_seconds == 0.0
        finally:
            _REGISTRY.pop("test-zero-seconds", None)

    def test_unset_none_is_filled_in(self, instances):
        from repro.api.registry import _REGISTRY

        self._register("test-none-seconds", None)
        try:
            report = api.solve(instances[0], "test-none-seconds")
            assert report.solve_seconds is not None
            assert report.solve_seconds > 0.0
        finally:
            _REGISTRY.pop("test-none-seconds", None)

    def test_every_builtin_reports_a_measured_time(self, instances):
        for name in ("lp-heuristic", "stretch-average", "fifo", "terra"):
            report = api.solve(
                instances[0], name, rng=0, num_samples=2
            )
            assert report.solve_seconds is not None
            assert report.solve_seconds >= 0.0


class TestStartMethodNotLocked:
    """Regression: solve_many's start-method probe pinned the global method."""

    def test_effective_start_method_does_not_resolve(self):
        # Must run in a pristine interpreter: anything else in this test
        # session may already have resolved the start method legitimately.
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            import multiprocessing
            from repro.api.batch import _effective_start_method

            method = _effective_start_method()
            assert method in multiprocessing.get_all_start_methods(), method
            # The probe itself must not have resolved the global context...
            assert multiprocessing.get_start_method(allow_none=True) is None
            # ...so the user can still choose a start method afterwards.
            multiprocessing.set_start_method("spawn")
            assert multiprocessing.get_start_method() == "spawn"
            print("OK")
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout


class TestSolveStrategyThreading:
    """strategy flows from SolverConfig through to the LP telemetry."""

    def test_default_strategy_is_direct(self):
        report = api.solve(make_instances(1)[0], "lp-heuristic")
        assert report.solve_path is not None
        assert report.solve_path["strategy"] == "direct"

    def test_refine_override_reaches_the_lp(self):
        instance = make_instances(1)[0]
        report = api.solve(
            instance, "lp-heuristic", strategy="refine", slot_length=0.25
        )
        path = report.solve_path
        assert path is not None and path["strategy"] == "refine"
        direct = api.solve(instance, "lp-heuristic", slot_length=0.25)
        assert report.lower_bound == pytest.approx(
            direct.lower_bound, rel=1e-6
        )

    def test_config_strategy_field(self):
        config = SolverConfig(strategy="refine", slot_length=0.25)
        report = api.solve(make_instances(1)[0], "lp-heuristic", config=config)
        assert report.solve_path["strategy"] == "refine"

    def test_solve_many_honours_strategy(self):
        # The shared LP solve_many hands to every algorithm must be solved
        # with the configured strategy, exactly as a single solve() does.
        config = SolverConfig(strategy="refine", slot_length=0.25)
        (report,) = api.solve_many(make_instances(1), "lp-heuristic", config=config)
        assert report.solve_path["strategy"] == "refine"

    def test_baselines_have_no_solve_path(self):
        # An LP-free baseline solved standalone gets no shared LP, hence no
        # staged-solve telemetry.
        report = api.solve(make_instances(1)[0], "fifo")
        assert report.lp_solution is None
        assert report.solve_path is None
