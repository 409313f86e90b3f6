"""Tests for the repro.api algorithm registry and the unified solve()."""

import numpy as np
import pytest

from repro import api
from repro.api import (
    SolveReport,
    UnknownAlgorithmError,
    available_algorithms,
    get_algorithm,
    register_algorithm,
)
from repro.api.registry import _REGISTRY
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.core.scheduler import CoflowScheduler
from repro.network.topologies import swan_topology
from repro.workloads.generator import WorkloadSpec, generate_instance


def eight_coflow_instance(model: str) -> CoflowInstance:
    spec = WorkloadSpec(
        profile="FB",
        num_coflows=8,
        weighted=True,
        demand_scale=1.0,
        seed=42,
        name=f"api-{model}",
    )
    return generate_instance(swan_topology(), spec, model=model, rng=42)


@pytest.fixture(scope="module")
def free_path_instance() -> CoflowInstance:
    return eight_coflow_instance("free_path")


@pytest.fixture(scope="module")
def single_path_instance() -> CoflowInstance:
    return eight_coflow_instance("single_path")


class TestRegistry:
    def test_all_builtins_registered(self):
        names = available_algorithms()
        assert set(names) >= {
            "lp-heuristic",
            "stretch",
            "stretch-best",
            "stretch-average",
            "terra",
            "jahanjou",
            "sincronia",
            "fifo",
            "weighted-sjf",
            "sebf",
        }
        assert list(names) == sorted(names)

    def test_unknown_algorithm_error_lists_registered_names(self):
        with pytest.raises(UnknownAlgorithmError) as excinfo:
            get_algorithm("does-not-exist")
        message = str(excinfo.value)
        assert "does-not-exist" in message
        for name in available_algorithms():
            assert name in message

    def test_unknown_algorithm_is_a_value_error(self, free_path_instance):
        with pytest.raises(ValueError, match="unknown algorithm"):
            api.solve(free_path_instance, "does-not-exist")

    def test_model_filter(self):
        free = available_algorithms(model=TransmissionModel.FREE_PATH)
        single = available_algorithms(model=TransmissionModel.SINGLE_PATH)
        assert "terra" in free and "terra" not in single
        assert "jahanjou" in single and "jahanjou" not in free

    def test_model_mismatch_rejected(self, free_path_instance):
        with pytest.raises(ValueError, match="does not support"):
            api.solve(free_path_instance, "jahanjou")

    def test_capability_flags(self):
        assert get_algorithm("lp-heuristic").uses_shared_lp
        assert get_algorithm("stretch").randomized
        assert not get_algorithm("fifo").uses_shared_lp
        assert not get_algorithm("terra").randomized

    def test_register_and_unregister_custom_algorithm(self, free_path_instance):
        @register_algorithm("test-custom", description="registry test stub")
        def _solve_custom(instance, config, lp_solution=None):
            times = np.ones(instance.num_coflows)
            return SolveReport(
                algorithm="test-custom",
                instance=instance,
                objective=float(instance.weights.sum()),
                coflow_completion_times=times,
            )

        try:
            assert "test-custom" in available_algorithms()
            report = api.solve(free_path_instance, "test-custom")
            assert report.algorithm == "test-custom"
            assert report.lower_bound is None
        finally:
            _REGISTRY.pop("test-custom", None)
        assert "test-custom" not in available_algorithms()


class TestRoundTrip:
    """Every registered algorithm solves an 8-coflow instance feasibly."""

    @pytest.mark.parametrize("algorithm", sorted(available_algorithms()))
    def test_feasible_report(
        self, algorithm, free_path_instance, single_path_instance
    ):
        info = get_algorithm(algorithm)
        if info.supports(TransmissionModel.FREE_PATH):
            instance = free_path_instance
        else:
            instance = single_path_instance
        report = api.solve(
            instance, algorithm, rng=3, num_samples=3, num_slots=None
        )
        assert isinstance(report, SolveReport)
        assert report.algorithm == algorithm
        assert report.instance is instance
        assert report.is_feasible
        assert report.coflow_completion_times.shape == (8,)
        assert np.all(report.coflow_completion_times > 0)
        assert report.objective > 0
        if algorithm != "stretch-average":
            # The objective is the weighted completion time of the reported
            # times (stretch-average reports the mean over λ draws instead).
            assert report.objective == pytest.approx(
                report.weighted_completion_time, rel=1e-9
            )
        if report.lower_bound is not None:
            assert report.objective >= report.lower_bound - 1e-6
            assert report.gap >= 1.0 - 1e-9
        if info.uses_shared_lp:
            assert report.lp_solution is not None
            assert report.schedule is not None

    def test_shared_lp_solution_is_reused(self, free_path_instance):
        lp = api.solve(free_path_instance, "lp-heuristic").lp_solution
        report = api.solve(free_path_instance, "stretch", rng=0, lp_solution=lp)
        assert report.lp_solution is lp
        baseline = api.solve(free_path_instance, "fifo", lp_solution=lp)
        assert baseline.lower_bound == pytest.approx(lp.objective)


#: The CoflowScheduler call behind each of the paper's registered algorithms.
FACADE_OBJECTIVES = {
    "lp-heuristic": lambda s: s.heuristic().objective,
    "stretch": lambda s: s.stretch().objective,
    "stretch-best": lambda s: s.best_stretch(num_samples=3).objective,
    "stretch-average": lambda s: s.stretch_evaluation(num_samples=3).average_objective,
}


class TestOldVsNewEntryPoints:
    """The CoflowScheduler façade (the older entry point) and repro.api
    must agree exactly."""

    @pytest.mark.parametrize(
        "algorithm", ["lp-heuristic", "stretch", "stretch-best", "stretch-average"]
    )
    def test_identical_objectives(self, algorithm, free_path_instance):
        scheduler = CoflowScheduler(free_path_instance, rng=11)
        old = FACADE_OBJECTIVES[algorithm](scheduler)
        new = api.solve(free_path_instance, algorithm, rng=11, num_samples=3)
        assert old == pytest.approx(new.objective, rel=1e-12)
        assert scheduler.lower_bound == pytest.approx(new.lower_bound, rel=1e-12)

    def test_shim_forwards_solver_method(self, free_path_instance):
        # api.solve must hand solver_method through the façade to the LP:
        # an invalid method surfaces as an error, a valid one is used.
        with pytest.raises(ValueError):
            api.solve(
                free_path_instance, "lp-heuristic", solver_method="not-a-backend"
            )
        default = api.solve(free_path_instance, "lp-heuristic")
        dual_simplex = api.solve(
            free_path_instance, "lp-heuristic", solver_method="highs-ds"
        )
        assert dual_simplex.lower_bound == pytest.approx(
            default.lower_bound, rel=1e-6
        )
