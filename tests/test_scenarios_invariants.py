"""Injected-bug tests: every invariant must demonstrably catch the class of
bug it exists for.

Each test takes a *clean* scenario run (which passes the full invariant
suite), injects one specific bug — a perturbed LP coefficient, a diverging
incremental simulation, an oversubscribed schedule, an impossible objective,
corrupted ordering metadata — and asserts that exactly the responsible
invariant reports a violation.  This is the harness's own verification: a
suite that cannot catch a planted bug would give false confidence.
"""

import numpy as np
import pytest

import repro.scenarios.invariants as invariants_module
from repro.scenarios import build_scenario, check_invariants, execute_scenario
from repro.scenarios.invariants import (
    ScenarioRun,
    get_invariant,
    invariant_names,
    register_invariant,
)


@pytest.fixture(scope="module")
def free_run() -> ScenarioRun:
    """One fully-solved free path scenario (online-poisson starts free path)."""
    run = execute_scenario(build_scenario("online-poisson", 0, 123))
    assert run.instance.model.value == "free_path"
    return run


@pytest.fixture(scope="module")
def single_run() -> ScenarioRun:
    """One fully-solved single path scenario (bursty starts single path)."""
    run = execute_scenario(build_scenario("bursty-arrivals", 0, 123))
    assert run.instance.model.value == "single_path"
    return run


def violations_of(run: ScenarioRun, invariant: str):
    return check_invariants(run, invariants=[invariant])[invariant]


class TestCleanRunsPass:
    def test_free_path_run_is_clean(self, free_run):
        assert not free_run.errors
        results = check_invariants(free_run)
        assert {name: msgs for name, msgs in results.items() if msgs} == {}

    def test_single_path_run_is_clean(self, single_run):
        assert not single_run.errors
        results = check_invariants(single_run)
        assert {name: msgs for name, msgs in results.items() if msgs} == {}

    def test_all_builtin_invariants_ran(self, free_run):
        assert set(check_invariants(free_run)) == set(invariant_names())


class TestLpMatrixBugCaught:
    def test_perturbed_rhs_is_caught(self, free_run, monkeypatch):
        real = invariants_module.build_time_indexed_lp_reference

        # An off-by-epsilon in one right-hand side — exactly the sort of bug
        # a vectorization refactor could introduce.  LinearProgram internals
        # are private, so corrupt through the public build path by wrapping
        # build_matrices on the built object.
        def buggy_via_matrices(instance, grid):
            lp, bundle = real(instance, grid)
            original = lp.build_matrices

            def patched():
                c, a_ub, b_ub, a_eq, b_eq, bounds = original()
                b_ub = np.array(b_ub, dtype=float)
                b_ub[0] += 1e-3
                return c, a_ub, b_ub, a_eq, b_eq, bounds

            lp.build_matrices = patched
            return lp, bundle

        monkeypatch.setattr(
            invariants_module,
            "build_time_indexed_lp_reference",
            buggy_via_matrices,
        )
        messages = violations_of(free_run, "lp-matrix")
        assert messages and any("b_ub" in m for m in messages)

    def test_perturbed_matrix_value_is_caught(self, single_run, monkeypatch):
        real = invariants_module.build_time_indexed_lp

        def buggy(instance, grid):
            lp, bundle = real(instance, grid)
            original = lp.build_matrices

            def patched():
                c, a_ub, b_ub, a_eq, b_eq, bounds = original()
                a_ub = a_ub.copy()
                a_ub.data[0] *= 1.0 + 1e-6
                return c, a_ub, b_ub, a_eq, b_eq, bounds

            lp.build_matrices = patched
            return lp, bundle

        monkeypatch.setattr(invariants_module, "build_time_indexed_lp", buggy)
        messages = violations_of(single_run, "lp-matrix")
        assert messages and any("A_ub" in m for m in messages)

    def test_perturbed_objective_is_caught(self, free_run, monkeypatch):
        real = invariants_module.build_time_indexed_lp

        def buggy(instance, grid):
            lp, bundle = real(instance, grid)
            original = lp.build_matrices

            def patched():
                c, a_ub, b_ub, a_eq, b_eq, bounds = original()
                c = np.array(c, dtype=float)
                c[-1] += 0.5
                return c, a_ub, b_ub, a_eq, b_eq, bounds

            lp.build_matrices = patched
            return lp, bundle

        monkeypatch.setattr(invariants_module, "build_time_indexed_lp", buggy)
        messages = violations_of(free_run, "lp-matrix")
        assert messages and any("objective" in m for m in messages)


class TestIncrementalSimBugCaught:
    def test_diverging_completion_times_are_caught(self, free_run, monkeypatch):
        real = invariants_module.simulate_priority_schedule

        def buggy(instance, priority, *, incremental=True, **kwargs):
            result = real(instance, priority, incremental=incremental, **kwargs)
            if incremental:
                # A stale-cache bug: one coflow's completion drifts.
                result.coflow_completion_times = (
                    result.coflow_completion_times.copy()
                )
                result.coflow_completion_times[0] += 1e-4
            return result

        monkeypatch.setattr(
            invariants_module, "simulate_priority_schedule", buggy
        )
        messages = violations_of(free_run, "incremental-sim")
        assert messages and any("completion times diverge" in m for m in messages)

    def test_event_count_divergence_is_caught(self, single_run, monkeypatch):
        real = invariants_module.simulate_priority_schedule

        def buggy(instance, priority, *, incremental=True, **kwargs):
            result = real(instance, priority, incremental=incremental, **kwargs)
            if incremental:
                result.metadata = dict(result.metadata)
                result.metadata["events"] = result.metadata["events"] + 1
            return result

        monkeypatch.setattr(
            invariants_module, "simulate_priority_schedule", buggy
        )
        messages = violations_of(single_run, "incremental-sim")
        assert messages and any("event counts diverge" in m for m in messages)


class TestFeasibilityBugCaught:
    def test_oversubscribed_schedule_is_caught(self, single_run):
        run = ScenarioRun(
            scenario=single_run.scenario,
            config=single_run.config,
            lp_solution=single_run.lp_solution,
            reports=dict(single_run.reports),
        )
        report = run.reports["lp-heuristic"]
        corrupted = report.schedule.copy()
        corrupted.fractions *= 3.0  # ships 3x the demand: breaks Eq. 1 + Eq. 6
        run.reports["lp-heuristic"] = _with_schedule(report, corrupted)
        messages = violations_of(run, "schedule-feasibility")
        assert messages and "lp-heuristic" in messages[0]

    def test_early_transmission_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        release = run.instance.flow_release_times()
        assert release.max() > 0, "online-poisson must stagger arrivals"
        report = run.reports["lp-heuristic"]
        corrupted = report.schedule.copy()
        # Transmit the latest-released flow in slot 0, before its release.
        late_flow = int(np.argmax(release))
        corrupted.fractions[late_flow, 0] = 0.5
        run.reports["lp-heuristic"] = _with_schedule(report, corrupted)
        messages = violations_of(run, "schedule-feasibility")
        assert messages and "lp-heuristic" in messages[0]


class TestLowerBoundBugCaught:
    def test_objective_below_bound_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["lp-heuristic"])
        report.objective = report.lower_bound * 0.5
        run.reports["lp-heuristic"] = report
        messages = violations_of(run, "lp-lower-bound")
        assert messages and "below LP lower bound" in messages[0]

    def test_continuous_time_baselines_are_exempt(self, free_run):
        # Terra legitimately beating the slotted bound must NOT violate.
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["terra"])
        report.objective = (report.lower_bound or 1.0) * 0.5
        run.reports["terra"] = report
        assert violations_of(run, "lp-lower-bound") == []


class TestOrderingBugsCaught:
    def test_corrupted_standalone_times_are_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["terra"])
        recorded = np.asarray(report.extras["standalone_times"], dtype=float)
        report.extras = {**report.extras, "standalone_times": recorded * 1.7}
        run.reports["terra"] = report
        messages = violations_of(run, "baseline-ordering")
        assert messages and "standalone times disagree" in messages[0]

    def test_corrupted_sincronia_order_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["sincronia"])
        order = list(report.extras["order"])
        order[0] = order[-1]  # no longer a permutation
        report.extras = {**report.extras, "order": order}
        run.reports["sincronia"] = report
        messages = violations_of(run, "baseline-ordering")
        assert messages and "sincronia" in messages[0]


class TestReportConsistencyBugsCaught:
    def test_negative_completion_time_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["fifo"])
        times = report.coflow_completion_times.copy()
        times[0] = -1.0
        report.coflow_completion_times = times
        report.objective = float(np.dot(run.instance.weights, times))
        run.reports["fifo"] = report
        messages = violations_of(run, "report-consistency")
        assert any("negative completion times" in m for m in messages)

    def test_completion_before_release_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        release = run.instance.coflow_release_times()
        latest = int(np.argmax(release))
        if release[latest] <= 0:
            pytest.skip("scenario has no positive release times")
        report = _clone_report(run.reports["fifo"])
        times = report.coflow_completion_times.copy()
        times[latest] = release[latest] / 2.0
        report.coflow_completion_times = times
        report.objective = float(np.dot(run.instance.weights, times))
        run.reports["fifo"] = report
        messages = violations_of(run, "report-consistency")
        assert any("before its release time" in m for m in messages)

    def test_objective_mismatch_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["sebf"])
        report.objective = report.objective + 1.0
        run.reports["sebf"] = report
        messages = violations_of(run, "report-consistency")
        assert any("weighted completion time" in m for m in messages)


class TestOnlineBugsCaught:
    """The injected 'schedule before release' bug class and its two catchers."""

    def test_service_before_release_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        release = run.instance.coflow_release_times()
        latest = int(np.argmax(release))
        assert release[latest] > 0, "online-poisson must stagger arrivals"
        report = _clone_report(run.reports["online-wsjf"])
        first = list(report.extras["first_service_times"])
        first[latest] = 0.0  # served at t = 0, before its release
        report.extras = {**report.extras, "first_service_times": first}
        run.reports["online-wsjf"] = report
        messages = violations_of(run, "online-release-respect")
        assert any("before its release time" in m for m in messages)

    def test_batch_starting_before_release_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["online-batch"])
        batches = [dict(b) for b in report.extras["batches"]]
        release = run.instance.coflow_release_times()
        # Move the batch holding the latest-released coflow to t = 0.
        latest = int(np.argmax(release))
        for batch in batches:
            if latest in batch["coflow_indices"]:
                batch["start_time"] = 0.0
        report.extras = {**report.extras, "batches": batches}
        run.reports["online-batch"] = report
        messages = violations_of(run, "online-release-respect")
        assert any("batch" in m and "release" in m for m in messages)

    def test_missing_service_evidence_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["online-resolve"])
        report.extras = {
            k: v for k, v in report.extras.items() if k != "first_service_times"
        }
        run.reports["online-resolve"] = report
        messages = violations_of(run, "online-release-respect")
        assert any("no first-service evidence" in m for m in messages)

    def test_engine_level_early_dispatch_bug_is_caught(self, free_run, monkeypatch):
        """Inject the bug at its source: an engine that ignores release
        times and batches everything at t = 0 must be flagged by both online
        invariants on a re-executed scenario."""
        import repro.online.engine as engine_module
        from repro.scenarios.verify import execute_scenario

        original = engine_module.OnlineEngine._run_batching

        def buggy(self, policy):
            result = original(self, policy)
            # The "scheduler" shifts every batch (and therefore every
            # completion and first service) to start at time 0.
            shift = {}
            for batch in result.batches:
                shift.update({j: batch.start_time for j in batch.coflow_indices})
                batch.start_time = 0.0
            times = result.coflow_completion_times.copy()
            for j, start in shift.items():
                times[j] -= start
            result.coflow_completion_times = times
            result.metadata["first_service_times"] = [
                None if t is None else 0.0
                for t in result.metadata["first_service_times"]
            ]
            return result

        monkeypatch.setattr(engine_module.OnlineEngine, "_run_batching", buggy)
        run = execute_scenario(
            free_run.scenario, algorithms=["online-batch", "lp-heuristic"]
        )
        assert not run.errors
        release_violations = violations_of(run, "online-release-respect")
        bound_violations = violations_of(run, "online-lower-bound")
        assert release_violations, "release-respect must catch the early dispatch"
        assert bound_violations, "the clairvoyant bound must catch the early finish"

    def test_completion_below_clairvoyant_floor_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["online-batch"])
        times = report.coflow_completion_times * 0.01  # impossibly fast
        report.coflow_completion_times = times
        report.objective = float(np.dot(run.instance.weights, times))
        run.reports["online-batch"] = report
        messages = violations_of(run, "online-lower-bound")
        assert any("clairvoyant" in m for m in messages)

    def test_offline_algorithms_are_exempt_from_online_invariants(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["lp-heuristic"])
        report.extras = {**report.extras, "first_service_times": None}
        run.reports["lp-heuristic"] = report
        assert violations_of(run, "online-release-respect") == []
        assert violations_of(run, "online-lower-bound") == []


class TestInvariantRegistry:
    def test_unknown_invariant_rejected(self, free_run):
        with pytest.raises(ValueError, match="unknown invariant"):
            check_invariants(free_run, invariants=["nope"])

    def test_crashing_invariant_reports_itself(self, free_run):
        @register_invariant("crashy", description="always raises")
        def _crashy(run):
            raise RuntimeError("boom")

        try:
            messages = violations_of(free_run, "crashy")
            assert messages == ["invariant raised RuntimeError: boom"]
        finally:
            invariants_module._REGISTRY.pop("crashy", None)

    def test_descriptions_present(self):
        for name in invariant_names():
            assert get_invariant(name).description


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _shallow_copy(run: ScenarioRun) -> ScenarioRun:
    return ScenarioRun(
        scenario=run.scenario,
        config=run.config,
        lp_solution=run.lp_solution,
        reports=dict(run.reports),
        errors=dict(run.errors),
    )


def _clone_report(report):
    import copy

    clone = copy.copy(report)
    clone.extras = dict(report.extras)
    return clone


def _with_schedule(report, schedule):
    clone = _clone_report(report)
    clone.schedule = schedule
    return clone


# --------------------------------------------------------------------------- #
# feasibility-under-churn: the churn bug class and its catchers
# --------------------------------------------------------------------------- #
class TestChurnBugsCaught:
    """Planted churn bugs: a simulator that ignores the schedule (the exact
    regression this invariant exists for) must oversubscribe a downed link;
    missing usage evidence and diverging loops must also be flagged."""

    @pytest.fixture()
    def churned_run(self) -> ScenarioRun:
        """One unit link with a mid-transfer outage; demand 2 at capacity 1.

        During the outage window [0.5, 1.5] the schedule grants capacity 0,
        so any simulation that keeps transmitting there is caught red-handed.
        """
        from repro.coflow.coflow import Coflow
        from repro.coflow.flow import Flow
        from repro.coflow.instance import CoflowInstance, TransmissionModel
        from repro.network.churn import ChurnSchedule, link_outage
        from repro.network.graph import NetworkGraph
        from repro.scenarios.engine import Scenario

        graph = NetworkGraph([("a", "b", 1.0)], name="churn-bug")
        instance = CoflowInstance(
            graph,
            [Coflow([Flow("a", "b", 2.0, path=("a", "b"))], weight=1.0)],
            model=TransmissionModel.SINGLE_PATH,
        )
        churn = ChurnSchedule(events=tuple(link_outage(("a", "b"), 0.5, 1.5)))
        scenario = Scenario(
            family="capacity-churn",
            index=0,
            root_seed=0,
            seed=0,
            instance=instance,
            params={"churn": churn.to_dict()},
        )
        return ScenarioRun(scenario=scenario, config=None, lp_solution=None)

    def test_clean_churned_run_passes(self, churned_run):
        assert violations_of(churned_run, "feasibility-under-churn") == []

    def test_clean_builtin_churn_scenario_passes(self):
        scenario = build_scenario("capacity-churn", 0, 123)
        run = ScenarioRun(scenario=scenario, config=None, lp_solution=None)
        assert violations_of(run, "feasibility-under-churn") == []

    def test_scenario_without_churn_passes_vacuously(self, free_run):
        assert violations_of(free_run, "feasibility-under-churn") == []

    def test_simulator_ignoring_churn_is_caught(self, churned_run, monkeypatch):
        real = invariants_module.simulate_priority_schedule

        def ignores_churn(instance, priority, **kwargs):
            kwargs.pop("churn", None)  # the planted bug: static capacity
            return real(instance, priority, **kwargs)

        monkeypatch.setattr(
            invariants_module, "simulate_priority_schedule", ignores_churn
        )
        messages = violations_of(churned_run, "feasibility-under-churn")
        assert messages and any("only grants" in m for m in messages)

    def test_missing_usage_evidence_is_caught(self, churned_run, monkeypatch):
        import dataclasses

        real = invariants_module.simulate_priority_schedule

        def drops_evidence(instance, priority, **kwargs):
            result = real(instance, priority, **kwargs)
            result.timeline = [
                dataclasses.replace(entry, edge_usage=None)
                for entry in result.timeline
            ]
            return result

        monkeypatch.setattr(
            invariants_module, "simulate_priority_schedule", drops_evidence
        )
        messages = violations_of(churned_run, "feasibility-under-churn")
        assert messages and any("no edge-usage evidence" in m for m in messages)

    def test_incremental_divergence_under_churn_is_caught(
        self, churned_run, monkeypatch
    ):
        real = invariants_module.simulate_priority_schedule

        def buggy(instance, priority, **kwargs):
            result = real(instance, priority, **kwargs)
            if kwargs.get("incremental", True):
                result.coflow_completion_times = (
                    result.coflow_completion_times.copy()
                )
                result.coflow_completion_times[0] += 1e-4
            return result

        monkeypatch.setattr(
            invariants_module, "simulate_priority_schedule", buggy
        )
        messages = violations_of(churned_run, "feasibility-under-churn")
        assert messages and any(
            "completion times diverge under churn" in m for m in messages
        )


class TestAmplifierMarginalBugCaught:
    """The amplifier's marginal guard must catch a planted size-scaling bug
    (the trace-pipeline analogue of the invariant catchability discipline;
    the full amplifier surface is covered in test_scenarios_amplify.py)."""

    def test_scaled_sizes_are_caught(self):
        import dataclasses

        from repro.network.topologies import swan_topology
        from repro.scenarios.amplify import amplify_coflows, check_marginals
        from repro.workloads.generator import WorkloadSpec, generate_coflows

        base = generate_coflows(
            swan_topology(),
            WorkloadSpec(profile="FB", num_coflows=5),
            np.random.default_rng(3),
        )
        amplified = amplify_coflows(base, 30, root_seed=1)
        assert check_marginals(base, amplified).ok
        buggy = [
            dataclasses.replace(
                c,
                flows=tuple(
                    dataclasses.replace(f, demand=f.demand * 1.3)
                    for f in c.flows
                ),
            )
            for c in amplified
        ]
        report = check_marginals(base, buggy)
        assert not report.ok
        assert any("outside the base support" in m for m in report.messages)


# --------------------------------------------------------------------------- #
# refine-equivalence: staged-solve bugs and their catchers
# --------------------------------------------------------------------------- #
class TestRefineEquivalenceBugsCaught:
    """Planted staged-solve bugs: a refine path whose warm-started fine
    solve silently lands on a different objective (the exact bug a broken
    primal-seed mapping would produce), and refine fractions that diverge
    from direct's while the objective still matches."""

    def test_clean_run_passes(self, single_run):
        assert violations_of(single_run, "refine-equivalence") == []

    def test_diverging_refine_objective_is_caught(self, single_run, monkeypatch):
        real = invariants_module.solve_time_indexed_lp

        def buggy(instance, **kwargs):
            solution = real(instance, **kwargs)
            if kwargs.get("strategy") == "refine":
                solution = _perturbed_solution(solution, 1.01)
            return solution

        monkeypatch.setattr(
            invariants_module, "solve_time_indexed_lp", buggy
        )
        messages = violations_of(single_run, "refine-equivalence")
        assert messages and any("refine objective" in m for m in messages)

    def test_diverging_refine_fractions_are_caught(self, single_run, monkeypatch):
        # Same objective, but coflow 0 is sent in the last slot: the
        # schedule users receive changes, which the LP objective cannot see.
        real = invariants_module.solve_time_indexed_lp

        def buggy(instance, **kwargs):
            solution = real(instance, **kwargs)
            if kwargs.get("strategy") == "refine":
                solution = _perturbed_solution(solution, 1.0)
                late = instance.coflow_of_flow() == 0
                solution.fractions = solution.fractions.copy()
                solution.fractions[late, :] = 0.0
                solution.fractions[late, -1] = 1.0
            return solution

        monkeypatch.setattr(
            invariants_module, "solve_time_indexed_lp", buggy
        )
        messages = violations_of(single_run, "refine-equivalence")
        assert messages
        assert not any("refine objective" in m for m in messages)
        assert any("schedules users receive differ" in m for m in messages)

    def test_infeasible_refine_schedule_is_caught(self, single_run, monkeypatch):
        real = invariants_module.solve_time_indexed_lp

        def buggy(instance, **kwargs):
            solution = real(instance, **kwargs)
            if kwargs.get("strategy") == "refine":
                solution = _perturbed_solution(solution, 1.0)
                solution.fractions = solution.fractions * 0.5
            return solution

        monkeypatch.setattr(
            invariants_module, "solve_time_indexed_lp", buggy
        )
        messages = violations_of(single_run, "refine-equivalence")
        assert any("refine: delivered" in m and "infeasible" in m for m in messages)

    def test_missing_solve_path_telemetry_is_caught(self, single_run, monkeypatch):
        real = invariants_module.solve_time_indexed_lp

        def buggy(instance, **kwargs):
            solution = real(instance, **kwargs)
            if kwargs.get("strategy") == "refine":
                solution = _perturbed_solution(solution, 1.0)
                solution.metadata.pop("solve_path", None)
            return solution

        monkeypatch.setattr(
            invariants_module, "solve_time_indexed_lp", buggy
        )
        messages = violations_of(single_run, "refine-equivalence")
        assert messages and any("solve_path" in m for m in messages)


def _perturbed_solution(solution, objective_scale):
    import copy

    clone = copy.copy(solution)
    clone.metadata = copy.deepcopy(solution.metadata)
    clone.objective = solution.objective * objective_scale
    return clone
