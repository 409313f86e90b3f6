"""The persistent result store: fingerprints, round-trips, failure modes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import SolverConfig, solve
from repro.network.topologies import named_topology
from repro.store import (
    FingerprintError,
    ResultStore,
    cacheable_config,
    cached_solve,
    canonical_payload_bytes,
    config_fingerprint,
    instance_fingerprint,
    report_from_dict,
    report_to_dict,
    result_key,
)
from repro.workloads.generator import WorkloadSpec, generate_instance


def tiny_instance(seed: int = 1, *, model: str = "free_path", name=None):
    graph = named_topology("paper-example")
    spec = WorkloadSpec(profile="FB", num_coflows=2, seed=seed, name=name)
    return generate_instance(graph, spec, model=model, rng=seed)


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
class TestFingerprints:
    def test_instance_fingerprint_is_stable(self):
        assert instance_fingerprint(tiny_instance(1)) == instance_fingerprint(
            tiny_instance(1)
        )

    def test_instance_fingerprint_sees_content(self):
        assert instance_fingerprint(tiny_instance(1)) != instance_fingerprint(
            tiny_instance(2)
        )

    def test_instance_name_is_excluded(self):
        # Renamed copies of the same instance share one cache entry.
        a = tiny_instance(1, name="alpha")
        b = tiny_instance(1, name="beta")
        assert a.name != b.name
        assert instance_fingerprint(a) == instance_fingerprint(b)

    def test_config_fingerprint_distinguishes_fields(self):
        base = SolverConfig()
        assert config_fingerprint(base) == config_fingerprint(SolverConfig())
        assert config_fingerprint(base) != config_fingerprint(
            base.replace(epsilon=0.2)
        )
        assert config_fingerprint(base) != config_fingerprint(base.replace(rng=7))
        assert config_fingerprint(base) != config_fingerprint(
            base.replace(num_samples=3)
        )

    def test_only_strategy_is_left_out_of_the_fingerprint(self):
        # Leaving ``strategy`` out is sound: "refine" solves the identical
        # LP as "direct", and the refine-equivalence invariant checks that
        # both deliver the same LP objective and the same schedule.  Any
        # other field changes results and must change the address.
        from dataclasses import fields

        from repro.schedule.timegrid import TimeGrid

        changed = {
            "grid": TimeGrid.uniform(3),
            "num_slots": 5,
            "slot_length": 0.5,
            "epsilon": 0.3,
            "rng": 7,
            "solver_method": "highs-ds",
            "strategy": "refine",
            "num_samples": 3,
            "compact": False,
            "verify": False,
        }
        assert set(changed) == {f.name for f in fields(SolverConfig)}
        base = config_fingerprint(SolverConfig())
        unfingerprinted = {
            name
            for name, value in changed.items()
            if config_fingerprint(SolverConfig(**{name: value})) == base
        }
        assert unfingerprinted == {"strategy"}

    def test_live_generator_has_no_fingerprint(self):
        with pytest.raises(FingerprintError):
            config_fingerprint(SolverConfig(rng=np.random.default_rng(0)))

    def test_result_key_covers_algorithm(self):
        instance = tiny_instance(1)
        cfg = SolverConfig()
        assert result_key(instance, "fifo", cfg) != result_key(
            instance, "sebf", cfg
        )

    def test_explicit_grid_is_fingerprinted(self):
        from repro.schedule.timegrid import TimeGrid

        a = SolverConfig(grid=TimeGrid.uniform(4))
        b = SolverConfig(grid=TimeGrid.uniform(5))
        assert config_fingerprint(a) != config_fingerprint(b)
        assert config_fingerprint(a) == config_fingerprint(
            SolverConfig(grid=TimeGrid.uniform(4))
        )


# --------------------------------------------------------------------------- #
# report surface round-trip (the tier-1 store round-trip test)
# --------------------------------------------------------------------------- #
class TestReportRoundTrip:
    def test_round_trip_preserves_surface(self):
        instance = tiny_instance(1)
        report = solve(instance, "lp-heuristic")
        data = report_to_dict(report)
        # The surface must survive an actual JSON round-trip, not just the
        # dict conversion.
        data = json.loads(json.dumps(data))
        rebuilt = report_from_dict(data, instance)
        assert rebuilt.algorithm == report.algorithm
        assert rebuilt.objective == pytest.approx(report.objective)
        np.testing.assert_allclose(
            rebuilt.coflow_completion_times, report.coflow_completion_times
        )
        assert rebuilt.lower_bound == pytest.approx(report.lower_bound)
        assert rebuilt.solve_seconds == report.solve_seconds
        assert rebuilt.extras["store_feasible"] is True

    def test_round_trip_through_store(self, tmp_path):
        instance = tiny_instance(1)
        store = ResultStore(tmp_path / "store")
        report = solve(instance, "sebf")
        key = result_key(instance, "sebf", SolverConfig())
        store.put(key, report_to_dict(report))
        rebuilt = report_from_dict(store.get(key), instance)
        assert rebuilt.objective == pytest.approx(report.objective)

    def test_unserializable_extras_are_dropped_not_fatal(self):
        instance = tiny_instance(1)
        report = solve(instance, "lp-heuristic")
        report.extras["opaque"] = object()
        report.extras["fine"] = [1, 2.5, "x"]
        data = json.loads(json.dumps(report_to_dict(report)))
        assert data["extras"]["fine"] == [1, 2.5, "x"]
        assert "opaque" not in data["extras"]
        assert data["extras"]["_dropped"] == ["opaque"]

    def test_wrong_instance_is_rejected(self):
        report = solve(tiny_instance(1), "fifo")
        data = report_to_dict(report)
        graph = named_topology("paper-example")
        other = generate_instance(
            graph,
            WorkloadSpec(profile="FB", num_coflows=3, seed=9),
            model="free_path",
            rng=9,
        )
        with pytest.raises(ValueError, match="wrong instance"):
            report_from_dict(data, other)


# --------------------------------------------------------------------------- #
# the store itself
# --------------------------------------------------------------------------- #
class TestResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ab" + "0" * 30
        assert store.get(key) is None
        store.put(key, {"x": 1})
        assert store.get(key) == {"x": 1}
        assert store.stats()["hits"] == 1
        assert store.stats()["misses"] == 1
        assert store.stats()["entries"] == 1

    def test_store_survives_reopen(self, tmp_path):
        key = "cd" + "0" * 30
        ResultStore(tmp_path / "s").put(key, {"x": 2})
        assert ResultStore(tmp_path / "s").get(key) == {"x": 2}

    def test_corrupted_entry_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ef" + "0" * 30
        store.put(key, {"x": 3})
        path = store.object_path(key)
        path.write_text("{ truncated garbage")
        assert store.get(key) is None
        assert store.corrupted == 1
        assert not path.exists()
        assert len(store.quarantined()) == 1
        # The slot is writable again and behaves normally afterwards.
        store.put(key, {"x": 4})
        assert store.get(key) == {"x": 4}

    def test_foreign_json_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "aa" + "0" * 30
        path = store.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"not": "an envelope"}))
        assert store.get(key) is None
        assert store.corrupted == 1

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("ab" + "1" * 30, {"x": 1})
        leftovers = [
            p for p in (tmp_path / "s").rglob("*.tmp") if p.is_file()
        ]
        assert leftovers == []

    def test_run_archive_is_ordered(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        assert store.latest_run("bench") is None
        store.put_run("bench", {"n": 1})
        store.put_run("bench", {"n": 2})
        assert [p.name for p in store.list_runs("bench")] == [
            "bench-000000.json",
            "bench-000001.json",
        ]
        assert store.latest_run("bench") == {"n": 2}

    def test_unreadable_latest_run_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put_run("bench", {"n": 1})
        bad = store.put_run("bench", {"n": 2})
        bad.write_text("not json")
        assert store.latest_run("bench") == {"n": 1}

    def test_manifest_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        assert store.get_manifest("deadbeef") is None
        store.put_manifest("deadbeef", {"chunks": ["complete"]})
        assert store.get_manifest("deadbeef") == {"chunks": ["complete"]}


# --------------------------------------------------------------------------- #
# cached_solve
# --------------------------------------------------------------------------- #
class TestCachedSolve:
    def test_hit_skips_the_solver(self, tmp_path):
        instance = tiny_instance(1)
        store = ResultStore(tmp_path / "s")
        cfg = SolverConfig()
        first = cached_solve(instance, "lp-heuristic", store=store, config=cfg)
        assert store.writes == 1
        second = cached_solve(instance, "lp-heuristic", store=store, config=cfg)
        assert store.writes == 1  # no new entry: pure hit
        assert store.hits == 1
        assert second.objective == pytest.approx(first.objective)
        np.testing.assert_allclose(
            second.coflow_completion_times, first.coflow_completion_times
        )

    def test_randomized_without_seed_bypasses_store(self, tmp_path):
        instance = tiny_instance(1)
        store = ResultStore(tmp_path / "s")
        cfg = SolverConfig(num_samples=2)
        assert not cacheable_config(cfg, "stretch")
        cached_solve(instance, "stretch", store=store, config=cfg)
        assert store.stats()["entries"] == 0

    def test_randomized_with_seed_is_cached_and_reproducible(self, tmp_path):
        instance = tiny_instance(1)
        store = ResultStore(tmp_path / "s")
        cfg = SolverConfig(rng=13, num_samples=2)
        assert cacheable_config(cfg, "stretch")
        first = cached_solve(instance, "stretch", store=store, config=cfg)
        second = cached_solve(instance, "stretch", store=store, config=cfg)
        assert store.hits == 1
        assert second.objective == pytest.approx(first.objective)

    def test_live_generator_bypasses_store(self, tmp_path):
        instance = tiny_instance(1)
        store = ResultStore(tmp_path / "s")
        cfg = SolverConfig(rng=np.random.default_rng(0), num_samples=2)
        cached_solve(instance, "stretch", store=store, config=cfg)
        assert store.stats()["entries"] == 0

    def test_none_store_is_plain_solve(self):
        instance = tiny_instance(1)
        report = cached_solve(instance, "fifo", store=None)
        assert report.algorithm == "fifo"

    def test_corrupt_entry_recomputes_and_heals(self, tmp_path):
        instance = tiny_instance(1)
        store = ResultStore(tmp_path / "s")
        cfg = SolverConfig()
        cached_solve(instance, "fifo", store=store, config=cfg)
        key = result_key(instance, "fifo", cfg)
        store.object_path(key).write_text("garbage")
        report = cached_solve(instance, "fifo", store=store, config=cfg)
        assert report.algorithm == "fifo"
        assert store.corrupted == 1
        # Healed: the next call is a clean hit again.
        cached_solve(instance, "fifo", store=store, config=cfg)
        assert store.hits == 1


# --------------------------------------------------------------------------- #
# canonical payload bytes
# --------------------------------------------------------------------------- #
class TestCanonicalBytes:
    def test_timing_is_excluded_by_default(self):
        a = {"objective": 1.0, "solve_seconds": 0.1}
        b = {"objective": 1.0, "solve_seconds": 0.9}
        assert canonical_payload_bytes(a) == canonical_payload_bytes(b)
        assert canonical_payload_bytes(
            a, ignore_timing=False
        ) != canonical_payload_bytes(b, ignore_timing=False)

    def test_key_order_is_irrelevant(self):
        assert canonical_payload_bytes({"a": 1, "b": 2}) == canonical_payload_bytes(
            {"b": 2, "a": 1}
        )


class TestRaceHonestPut:
    """put() reports whether the write landed first; losers are counted."""

    def test_first_write_lands(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ab" + "3" * 30
        assert store.put(key, {"x": 1}) is True
        assert store.writes == 1 and store.races == 0

    def test_second_writer_loses_and_is_counted(self, tmp_path):
        key = "cd" + "3" * 30
        winner = ResultStore(tmp_path / "s")
        loser = ResultStore(tmp_path / "s")
        assert winner.put(key, {"x": 1}) is True
        assert loser.put(key, {"x": 2}) is False
        assert loser.races == 1 and loser.writes == 0
        # First write wins: the stored bytes never flap.
        assert winner.get(key) == {"x": 1}
        assert loser.stats()["races"] == 1

    def test_corrupt_occupant_is_replaced_not_a_race(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ef" + "3" * 30
        path = store.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ torn")
        assert store.put(key, {"x": 3}) is True
        assert store.races == 0 and store.corrupted == 1
        assert store.get(key) == {"x": 3}

    def test_reset_counters_zeroes_races(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ab" + "4" * 30
        store.put(key, {"x": 1})
        store.put(key, {"x": 2})
        assert store.races == 1
        store.reset_counters()
        assert store.races == 0


class TestQuarantine:
    def test_repeated_quarantines_never_clobber(self, tmp_path):
        """Each quarantine gets a unique name; evidence accumulates."""
        store = ResultStore(tmp_path / "s")
        key = "ab" + "5" * 30
        for round_ in range(3):
            store.put(key, {"round": round_})
            store.object_path(key).write_text("{ torn garbage")
            assert store.get(key) is None
        assert store.corrupted == 3
        assert len(store.quarantined()) == 3
        assert len({p.name for p in store.quarantined()}) == 3

    def test_quarantined_files_are_not_entries(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "cd" + "5" * 30
        store.put(key, {"x": 1})
        store.object_path(key).write_text("{ torn")
        store.get(key)
        assert store.keys() == []  # the .corrupt-* file is not an object
        assert store.stats()["quarantined"] == 1


class TestFailureRecords:
    def test_round_trip_and_clear(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ab" + "6" * 30
        assert store.get_failure(key) is None
        store.put_failure(key, {"error": "RuntimeError", "key": key})
        assert store.get_failure(key)["error"] == "RuntimeError"
        assert store.failure_keys() == [key]
        assert store.stats()["failures"] == 1
        store.clear_failure(key)
        assert store.get_failure(key) is None
        assert store.failure_keys() == []
        store.clear_failure(key)  # idempotent

    def test_latest_failure_wins(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "cd" + "6" * 30
        store.put_failure(key, {"attempt": 1})
        store.put_failure(key, {"attempt": 2})
        assert store.get_failure(key) == {"attempt": 2}
        assert store.failure_keys() == [key]

    def test_short_key_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with pytest.raises(ValueError):
            store.failure_path("ab")


class TestContainsValidates:
    """Regression: contains() must agree with get(), not just stat the file."""

    def test_corrupt_entry_is_not_contained(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ab" + "2" * 30
        store.put(key, {"x": 1})
        assert store.contains(key)
        store.object_path(key).write_text("{ truncated")
        before = store.stats()
        assert not store.contains(key)
        # contains() is a pure probe: no counters, no quarantine.
        assert store.stats() == before
        assert store.object_path(key).exists()

    def test_foreign_schema_is_not_contained(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "cd" + "2" * 30
        path = store.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"schema": 999, "key": key, "payload": {"x": 1}})
        )
        assert not store.contains(key)
