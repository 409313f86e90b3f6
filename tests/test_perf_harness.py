"""Smoke tests for the ``repro bench`` harness and its report plumbing."""

import json

import pytest

from repro.cli import main as cli_main
from repro.perf.harness import (
    bench_lp_build,
    bench_lp_solve,
    bench_simulator,
    compare_reports,
    compare_with_previous,
    find_previous_report,
    format_report,
    run_bench,
    write_report,
)


class TestScenarios:
    def test_lp_build_scenario(self):
        scenario = bench_lp_build(quick=True, repeats=1)
        assert scenario["cases"], "lp_build produced no cases"
        for case in scenario["cases"]:
            assert case["nnz"] > 0
            assert case["rows"] > 0
            assert case["build_seconds"] > 0
            assert case["solve_seconds"] > 0
            # The vectorized builder must never be slower than the loops.
            assert case["build_speedup"] > 1.0
        assert scenario["summary"]["min_build_speedup"] > 1.0

    def test_lp_solve_scenario(self):
        scenario = bench_lp_solve(quick=True, repeats=1)
        assert scenario["cases"], "lp_solve produced no cases"
        for case in scenario["cases"]:
            assert case["solve_seconds_direct"] > 0
            assert case["solve_seconds_refine"] > 0
            assert case["solve_speedup_refine"] > 0
            # Refine solves the identical fine LP: objectives must agree.
            assert case["refine_objective_matches"]
        summary = scenario["summary"]
        assert summary["target_speedup"] > 1.0
        assert summary["all_refine_match"]
        assert summary["geomean_solve_speedup"] > 0

    def test_lp_solve_in_full_report(self):
        report = run_bench(quick=True, repeats=1, scenarios=["lp_solve"])
        assert "lp_solve" in report["scenarios"]
        assert "lp_solve" in report["repeats"]
        text = format_report(report)
        assert "Staged solve pipeline" in text
        assert "geomean refine speedup" in text

    def test_simulator_scenario(self):
        scenario = bench_simulator(quick=True, repeats=1)
        assert scenario["cases"]
        for case in scenario["cases"]:
            assert case["events"] > 0
            assert case["events_per_sec"] > 0
            assert case["incremental_matches_full"]
            assert case["reference_objective_rel_diff"] < 1e-2
        assert scenario["summary"]["all_match"]


class TestReportPlumbing:
    def test_write_find_compare_roundtrip(self, tmp_path):
        report = run_bench(quick=True, repeats=1, scenarios=["shared_lp_batch"])
        assert "shared_lp_batch" in report["scenarios"]
        first = write_report(report, tmp_path)
        assert first.name.startswith("BENCH_") and first.suffix == ".json"
        assert find_previous_report(tmp_path) == first

        previous = json.loads(first.read_text())
        comparison = compare_reports(previous, report)
        rows = comparison["scenarios"]["shared_lp_batch"]
        assert rows and "seconds_ratio" in rows[0]

        report["comparison"] = {**comparison, "previous": first.name}
        rendered = format_report(report)
        assert "Batch runner" in rendered
        assert "Trajectory" in rendered

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_bench(scenarios=["nope"])


class TestEmptyTrajectory:
    """The comparison path must not assume a previous report exists."""

    REPORT = {"quick": True, "scenarios": {}}

    def test_find_previous_in_missing_directory(self, tmp_path):
        assert find_previous_report(tmp_path / "never-created") is None

    def test_first_run_is_marked_as_first_trajectory_point(self, tmp_path):
        comparison = compare_with_previous(dict(self.REPORT), tmp_path)
        assert comparison["previous"] is None
        assert comparison["scenarios"] == {}
        assert "first point" in comparison["skipped"]
        rendered = format_report({**self.REPORT, "comparison": comparison})
        assert "first point" in rendered

    def test_unreadable_previous_report_is_skipped(self, tmp_path):
        (tmp_path / "BENCH_1.json").write_text("{not json")
        comparison = compare_with_previous(dict(self.REPORT), tmp_path)
        assert comparison["previous"] == "BENCH_1.json"
        assert "could not read" in comparison["skipped"]

    def test_foreign_json_previous_report_is_skipped(self, tmp_path):
        (tmp_path / "BENCH_1.json").write_text("null")
        comparison = compare_with_previous(dict(self.REPORT), tmp_path)
        assert comparison["scenarios"] == {}
        assert "skipped" in comparison
        (tmp_path / "BENCH_2.json").write_text('{"scenarios": []}')
        comparison = compare_with_previous(dict(self.REPORT), tmp_path)
        assert "skipped" in comparison

    def test_previous_cases_without_case_key_are_ignored(self):
        previous = {
            "quick": True,
            "scenarios": {"lp_build": {"cases": [{"build_seconds": 1.0}, 17]}},
        }
        current = {
            "quick": True,
            "scenarios": {
                "lp_build": {"cases": [{"case": "x", "build_seconds": 0.5}]}
            },
        }
        comparison = compare_reports(previous, current)
        assert comparison["scenarios"]["lp_build"] == []

    def test_cli_bench_first_run_in_empty_directory(self, tmp_path, capsys):
        code = cli_main(
            [
                "bench",
                "--quick",
                "--repeats",
                "1",
                "--scenario",
                "shared_lp_batch",
                "--output",
                str(tmp_path / "fresh"),
            ]
        )
        assert code == 0
        produced = list((tmp_path / "fresh").glob("BENCH_*.json"))
        assert len(produced) == 1
        payload = json.loads(produced[0].read_text())
        assert payload["comparison"]["previous"] is None


class TestCli:
    def test_bench_command_writes_json(self, tmp_path, capsys):
        code = cli_main(
            [
                "bench",
                "--quick",
                "--repeats",
                "1",
                "--scenario",
                "shared_lp_batch",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        produced = list(tmp_path.glob("BENCH_*.json"))
        assert len(produced) == 1
        payload = json.loads(produced[0].read_text())
        assert payload["schema"] == 1
        assert "shared_lp_batch" in payload["scenarios"]

    def test_bench_unknown_scenario_exit_code(self, tmp_path):
        code = cli_main(
            ["bench", "--scenario", "bogus", "--output", str(tmp_path)]
        )
        assert code == 2


class TestStoreTrajectory:
    """Bench reports archived in (and compared against) the result store."""

    def _fake_report(self, seconds, *, quick=True):
        return {
            "schema": 1,
            "quick": quick,
            "scenarios": {
                "shared_lp_batch": {
                    "cases": [
                        {
                            "case": "solve_many/shared-lp",
                            "instances": 2,
                            "seconds": seconds,
                        }
                    ],
                    "summary": {"seconds": seconds},
                }
            },
        }

    def test_write_report_archives_to_store(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        write_report(self._fake_report(1.0), tmp_path / "out", store=store)
        archived = store.latest_run("bench")
        assert archived is not None
        assert "shared_lp_batch" in archived["scenarios"]

    def test_empty_output_dir_falls_back_to_store_trajectory(self, tmp_path):
        from repro.perf.harness import compare_with_previous
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        store.put_run("bench", self._fake_report(2.0))
        # A fresh output directory has no BENCH_*.json, but the store does:
        # the comparison continues the durable trajectory instead of
        # restarting it.
        comparison = compare_with_previous(
            self._fake_report(1.0), tmp_path / "fresh", store=store
        )
        assert comparison["previous"] == "store:runs/bench"
        rows = comparison["scenarios"]["shared_lp_batch"]
        assert rows[0]["seconds_ratio"] == pytest.approx(2.0)

    def test_local_previous_report_still_wins(self, tmp_path):
        from repro.perf.harness import compare_with_previous
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        store.put_run("bench", self._fake_report(2.0))
        out = tmp_path / "out"
        write_report(self._fake_report(4.0), out)
        comparison = compare_with_previous(
            self._fake_report(1.0), out, store=store
        )
        assert comparison["previous"].startswith("BENCH_")
        rows = comparison["scenarios"]["shared_lp_batch"]
        assert rows[0]["seconds_ratio"] == pytest.approx(4.0)
