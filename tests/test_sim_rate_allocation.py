"""Tests for the rate-allocation primitives of the continuous-time simulator."""

import gc
import weakref

import numpy as np
import pytest

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.network.topologies import paper_example_topology, parallel_edges_topology
from repro.sim.rate_allocation import (
    allocate_rates,
    coflow_standalone_time,
    free_path_coflow_rates,
    max_concurrent_rate,
    single_path_coflow_rates,
)


@pytest.fixture
def disjoint_instance() -> CoflowInstance:
    graph = parallel_edges_topology(2, capacity=2.0)
    coflows = [
        Coflow(
            [
                Flow("x1", "y1", 4.0, path=("x1", "y1")),
                Flow("x2", "y2", 2.0, path=("x2", "y2")),
            ],
            name="A",
        ),
        Coflow([Flow("x1", "y1", 2.0, path=("x1", "y1"))], name="B"),
    ]
    return CoflowInstance(graph, coflows, model=TransmissionModel.SINGLE_PATH)


@pytest.fixture
def free_instance() -> CoflowInstance:
    graph = paper_example_topology()
    coflows = [
        Coflow([Flow("s", "t", 3.0)], name="blue"),
        Coflow([Flow("v1", "t", 1.0)], name="red"),
    ]
    return CoflowInstance(graph, coflows, model=TransmissionModel.FREE_PATH)


class TestSinglePathRates:
    def test_proportional_progress(self, disjoint_instance):
        remaining = disjoint_instance.demands()
        residual = disjoint_instance.graph.capacity_vector()
        refs = disjoint_instance.flows_of(0)
        rates, usage = single_path_coflow_rates(
            disjoint_instance, refs, remaining, residual
        )
        # alpha = min(2/4, 2/2) = 0.5 -> rates 2.0 and 1.0.
        assert rates[0] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(1.0)
        # Both flows finish simultaneously at their bottleneck.
        assert usage.sum() == pytest.approx(3.0)

    def test_finished_flows_get_zero(self, disjoint_instance):
        remaining = np.array([0.0, 2.0, 2.0])
        refs = disjoint_instance.flows_of(0)
        rates, _ = single_path_coflow_rates(
            disjoint_instance,
            refs,
            remaining,
            disjoint_instance.graph.capacity_vector(),
        )
        assert rates[0] == 0.0
        assert rates[1] > 0.0

    def test_zero_residual_gives_zero_rates(self, disjoint_instance):
        remaining = disjoint_instance.demands()
        refs = disjoint_instance.flows_of(0)
        rates, usage = single_path_coflow_rates(
            disjoint_instance, refs, remaining, np.zeros(2)
        )
        assert np.all(rates == 0.0)
        assert np.all(usage == 0.0)


class TestFreePathRates:
    def test_single_flow_uses_all_disjoint_paths(self, free_instance):
        remaining = free_instance.demands()
        refs = free_instance.flows_of(0)  # blue s -> t, demand 3
        rates, edge_rates, usage = free_path_coflow_rates(
            free_instance, refs, remaining, free_instance.graph.capacity_vector()
        )
        # Max flow from s to t is 3 (three unit paths), so the whole demand
        # can ship at rate 3 (alpha = 1).
        assert rates[0] == pytest.approx(3.0, abs=1e-6)
        assert usage.sum() == pytest.approx(6.0, abs=1e-5)  # 3 units over 2 hops

    def test_respects_residual_capacity(self, free_instance):
        remaining = free_instance.demands()
        refs = free_instance.flows_of(0)
        residual = free_instance.graph.capacity_vector() * 0.5
        rates, _, usage = free_path_coflow_rates(
            free_instance, refs, remaining, residual
        )
        assert rates[0] == pytest.approx(1.5, abs=1e-6)
        edge_index = free_instance.graph.edge_index()
        for e, idx in edge_index.items():
            assert usage[idx] <= residual[idx] + 1e-6

    def test_empty_active_set(self, free_instance):
        remaining = np.zeros(free_instance.num_flows)
        refs = free_instance.flows_of(0)
        rates, edge_rates, usage = free_path_coflow_rates(
            free_instance, refs, remaining, free_instance.graph.capacity_vector()
        )
        assert np.all(rates == 0.0)
        assert np.all(usage == 0.0)


class TestAllocateRates:
    def test_priority_order_matters(self, disjoint_instance):
        remaining = disjoint_instance.demands()
        first = allocate_rates(disjoint_instance, remaining, [0, 1])
        second = allocate_rates(disjoint_instance, remaining, [1, 0])
        # Coflow B (flow index 2) shares edge x1->y1 with coflow A's flow 0.
        assert first.rates[2] < second.rates[2]

    def test_work_conservation_on_disjoint_edges(self, disjoint_instance):
        remaining = disjoint_instance.demands()
        allocation = allocate_rates(disjoint_instance, remaining, [0, 1])
        # Edge x2->y2 is used only by coflow A, so it should not be starved by
        # coflow B's priority position.
        assert allocation.rates[1] > 0.0

    def test_residual_capacity_nonnegative(self, disjoint_instance, free_instance):
        for inst in (disjoint_instance, free_instance):
            allocation = allocate_rates(inst, inst.demands(), list(range(inst.num_coflows)))
            assert np.all(allocation.residual_capacity >= -1e-9)

    def test_inactive_coflows_get_no_rate(self, disjoint_instance):
        allocation = allocate_rates(
            disjoint_instance,
            disjoint_instance.demands(),
            [0, 1],
            active_coflows=[1],
        )
        assert allocation.rates[0] == 0.0
        assert allocation.rates[1] == 0.0
        assert allocation.rates[2] > 0.0

    def test_free_path_edge_rates_reported(self, free_instance):
        allocation = allocate_rates(free_instance, free_instance.demands(), [0, 1])
        assert allocation.edge_rates is not None
        assert allocation.edge_rates.shape == (
            free_instance.num_flows,
            free_instance.graph.num_edges,
        )


class TestStandaloneTime:
    def test_single_flow_on_unit_path(self, free_instance):
        # Blue can ship 3 units at rate 3 -> standalone time 1.  Red's max
        # flow from v1 to t is 2 (direct edge plus the detour through s), so
        # its standalone time is 0.5.
        assert coflow_standalone_time(free_instance, 0) == pytest.approx(1.0, abs=1e-6)
        assert coflow_standalone_time(free_instance, 1) == pytest.approx(0.5, abs=1e-6)

    def test_single_path_standalone_time(self, disjoint_instance):
        # Coflow A: flows 4 and 2 on capacity-2 edges -> bottleneck 2 time units.
        assert coflow_standalone_time(disjoint_instance, 0) == pytest.approx(2.0)
        assert coflow_standalone_time(disjoint_instance, 1) == pytest.approx(1.0)

    def test_zero_remaining_returns_zero(self, disjoint_instance):
        remaining = np.zeros(disjoint_instance.num_flows)
        assert coflow_standalone_time(disjoint_instance, 0, remaining) == 0.0

    def test_max_concurrent_rate_scales_with_capacity(self, disjoint_instance):
        base = max_concurrent_rate(disjoint_instance, 0)
        scaled_graph = disjoint_instance.graph.scaled(2.0)
        scaled = CoflowInstance(
            scaled_graph,
            disjoint_instance.coflows,
            model=disjoint_instance.model,
        )
        assert max_concurrent_rate(scaled, 0) == pytest.approx(2.0 * base)


class TestAllocatorCache:
    @pytest.mark.parametrize("model", ["single_path", "free_path"])
    def test_instance_is_freed_after_use(self, model):
        # The per-instance allocator cache is weak-keyed; its value must not
        # hold the instance strongly, or no instance is ever freed.
        from repro import api

        graph = paper_example_topology()
        coflows = [
            Coflow([Flow("s", "t", 3.0, path=("s", "v2", "t"))], name="blue"),
            Coflow([Flow("v1", "t", 1.0, path=("v1", "t"))], name="red"),
        ]
        instance = CoflowInstance(graph, coflows, model=model)
        api.solve(instance, "sebf")
        ref = weakref.ref(instance)
        del instance
        gc.collect()
        assert ref() is None

