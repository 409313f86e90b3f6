"""Runner, suppression, report and CLI tests for ``repro lint``."""

import io
import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import (
    format_result,
    format_rule_table,
    result_to_json,
    rule_codes,
    rule_table,
    run_lint,
    write_lint_report,
)
from repro.lint.framework import parse_suppressions


def write_module(tmp_path, rel, code):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return path


VIOLATION = """
import time

def stamp():
    return time.time()
"""

SUPPRESSED = """
import time

def stamp():
    return time.time()  # repro-lint: allow[R002]
"""


class TestCleanTree:
    def test_shipped_source_tree_is_clean(self):
        """The acceptance gate: zero findings on the library itself."""
        result = run_lint()
        assert result.ok, "\n".join(f.render() for f in result.findings)
        assert result.files_checked > 50
        assert result.rules_run == rule_codes()

    def test_shipped_tree_uses_its_suppressions(self):
        """Every allow[...] comment in src/ suppresses a live finding."""
        result = run_lint()
        assert result.suppressions_used >= 1


class TestRunner:
    def test_violation_is_found_and_sorted(self, tmp_path):
        write_module(tmp_path, "b.py", VIOLATION)
        write_module(tmp_path, "a.py", VIOLATION)
        result = run_lint(tmp_path, select=["R002"])
        assert not result.ok
        assert [f.path for f in result.findings] == ["a.py", "b.py"]
        assert result.by_rule() == {"R002": 2}

    def test_single_file_root(self, tmp_path):
        path = write_module(tmp_path, "mod.py", VIOLATION)
        result = run_lint(path)
        assert [f.rule for f in result.findings] == ["R002"]
        assert result.files_checked == 1

    def test_unknown_rule_code_fails_fast(self, tmp_path):
        write_module(tmp_path, "mod.py", "x = 1\n")
        with pytest.raises(ValueError, match="R999"):
            run_lint(tmp_path, select=["R999"])

    def test_empty_selection_fails_fast(self, tmp_path):
        write_module(tmp_path, "mod.py", "x = 1\n")
        with pytest.raises(ValueError, match="at least one rule"):
            run_lint(tmp_path, select=[])

    def test_missing_root_fails_fast(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            run_lint(tmp_path / "nope")

    def test_unparseable_file_is_an_e001_finding(self, tmp_path):
        write_module(tmp_path, "broken.py", "def broken(:\n")
        result = run_lint(tmp_path)
        assert [f.rule for f in result.findings] == ["E001"]
        assert not result.ok


class TestSuppressions:
    def test_allow_comment_silences_the_finding(self, tmp_path):
        write_module(tmp_path, "mod.py", SUPPRESSED)
        result = run_lint(tmp_path, select=["R002"])
        assert result.ok
        assert result.suppressions_used == 1

    def test_unused_suppression_is_an_r000_finding(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def fine():
                return 1  # repro-lint: allow[R002]
            """,
        )
        result = run_lint(tmp_path)
        assert [f.rule for f in result.findings] == ["R000"]
        assert "suppresses nothing" in result.findings[0].message

    def test_unknown_code_suppression_is_an_r000_finding(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def fine():
                return 1  # repro-lint: allow[R999]
            """,
        )
        result = run_lint(tmp_path)
        assert [f.rule for f in result.findings] == ["R000"]
        assert "unknown rule" in result.findings[0].message

    def test_suppression_for_unselected_rule_is_not_unused(self, tmp_path):
        # R002 never ran, so its suppression had no chance to match.
        write_module(tmp_path, "mod.py", SUPPRESSED)
        result = run_lint(tmp_path, select=["R003", "R000"])
        assert result.ok

    def test_deselecting_r000_mutes_unused_suppressions(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def fine():
                return 1  # repro-lint: allow[R002]
            """,
        )
        result = run_lint(tmp_path, select=["R002"])
        assert result.ok

    def test_round_trip_fix_then_stale_comment(self, tmp_path):
        """Fixing the code turns the allow comment itself into a finding."""
        write_module(tmp_path, "mod.py", SUPPRESSED)
        assert run_lint(tmp_path).ok
        write_module(
            tmp_path,
            "mod.py",
            """
            import time

            def stamp():
                return time.perf_counter()  # repro-lint: allow[R002]
            """,
        )
        result = run_lint(tmp_path)
        assert [f.rule for f in result.findings] == ["R000"]

    def test_multiple_codes_in_one_comment(self):
        supp = parse_suppressions("x = 1  # repro-lint: allow[R002, R007]\n")
        assert supp == {1: {"R002", "R007"}}

    def test_marker_inside_string_is_not_a_suppression(self):
        supp = parse_suppressions('text = "# repro-lint: allow[R002]"\n')
        assert supp == {}


class TestReport:
    def test_result_to_json_shape(self, tmp_path):
        write_module(tmp_path, "mod.py", VIOLATION)
        doc = result_to_json(run_lint(tmp_path, select=["R002"]))
        assert doc["schema"] == 1
        assert doc["files_checked"] == 1
        assert [r["code"] for r in doc["rules"]] == ["R002"]
        assert doc["findings"][0]["rule"] == "R002"
        assert doc["summary"]["ok"] is False
        assert doc["summary"]["by_rule"] == {"R002": 1}
        json.dumps(doc)  # repro-lint not applicable: tests are unlinted

    def test_write_lint_report_into_directory(self, tmp_path):
        write_module(tmp_path, "mod.py", VIOLATION)
        result = run_lint(tmp_path, select=["R002"])
        out_dir = tmp_path / "reports"
        out_dir.mkdir()
        path = write_lint_report(result, out_dir)
        assert path.name.startswith("LINT_") and path.suffix == ".json"
        assert json.loads(path.read_text())["summary"]["findings"] == 1

    def test_write_lint_report_explicit_path(self, tmp_path):
        write_module(tmp_path, "mod.py", "x = 1\n")
        result = run_lint(tmp_path)
        path = write_lint_report(result, tmp_path / "out" / "lint.json")
        assert path == tmp_path / "out" / "lint.json"
        assert json.loads(path.read_text())["summary"]["ok"] is True

    def test_format_result_mentions_counts(self, tmp_path):
        write_module(tmp_path, "mod.py", VIOLATION)
        text = format_result(run_lint(tmp_path, select=["R002"]))
        assert "1 finding(s)" in text
        assert "R002" in text

    def test_rule_table_covers_all_rules_with_rationale(self):
        table = format_rule_table()
        for info in rule_table():
            assert info.code in table
            assert info.rationale, f"{info.code} has no provenance rationale"
        assert "allow[R004]" in table


class TestCli:
    def test_lint_command_clean_directory(self, tmp_path):
        write_module(tmp_path, "mod.py", "x = 1\n")
        out = io.StringIO()
        assert main(["lint", str(tmp_path)], out) == 0
        assert "clean" in out.getvalue()

    def test_lint_command_exits_nonzero_on_findings(self, tmp_path):
        write_module(tmp_path, "mod.py", VIOLATION)
        out = io.StringIO()
        assert main(["lint", str(tmp_path)], out) == 1
        assert "R002" in out.getvalue()

    def test_lint_command_json_format(self, tmp_path):
        write_module(tmp_path, "mod.py", VIOLATION)
        out = io.StringIO()
        assert main(["lint", str(tmp_path), "--format", "json"], out) == 1
        doc = json.loads(out.getvalue())
        assert doc["summary"]["by_rule"] == {"R002": 1}

    def test_lint_command_select(self, tmp_path):
        write_module(tmp_path, "mod.py", VIOLATION)
        out = io.StringIO()
        assert main(["lint", str(tmp_path), "--select", "R003"], out) == 0

    def test_lint_command_bad_select_is_usage_error(self, tmp_path):
        write_module(tmp_path, "mod.py", "x = 1\n")
        out = io.StringIO()
        assert main(["lint", str(tmp_path), "--select", "R999"], out) == 2

    def test_lint_command_writes_report(self, tmp_path):
        write_module(tmp_path, "mod.py", VIOLATION)
        out_dir = tmp_path / "reports"
        out = io.StringIO()
        code = main(
            ["lint", str(tmp_path), "--output", str(out_dir)], out
        )
        assert code == 1
        reports = list(out_dir.glob("LINT_*.json"))
        assert len(reports) == 1
        assert json.loads(reports[0].read_text())["summary"]["ok"] is False

    def test_list_rules(self):
        out = io.StringIO()
        assert main(["lint", "--list-rules"], out) == 0
        text = out.getvalue()
        assert "R001" in text and "R010" in text and "R000" in text
