"""The invariant linter (`repro lint`): rules, pragmas, baseline, CLI.

Fixture files under ``tests/fixtures/lint/`` seed at least one
violation per shipped rule code; golden-output tests pin the text and
JSON formats; and the tier-1 gate test asserts the repository's own
``src`` tree is clean against the shipped (empty) baseline — the same
invocation CI runs.
"""

from __future__ import annotations

import json
import pathlib
import textwrap

import pytest

from repro.analysis import (
    PARSE_FAILURE_CODE,
    Baseline,
    LintReport,
    collect_suppressions,
    format_json,
    format_text,
    lint_paths,
    lint_source,
    load_baseline,
    register_rule,
    rule_codes,
    save_baseline,
    unregister_rule,
)
from repro.analysis.rules.determinism import WallClockRule
from repro.cli import main
from repro.errors import LintError

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"
GOLDEN = FIXTURES / "golden"

#: Every fixture file that seeds violations, with the codes it must
#: fire (line numbers asserted separately where they are load-bearing).
VIOLATION_FIXTURES = {
    "det001.py": "DET001",
    "det002.py": "DET002",
    "det003.py": "DET003",
    "unit001.py": "UNIT001",
    "obs001.py": "OBS001",
}


def lint_fixture(name: str) -> LintReport:
    return lint_paths([str(FIXTURES / name)], root=str(FIXTURES))


class TestRulePack:
    def test_every_shipped_code_has_a_fixture(self):
        assert set(VIOLATION_FIXTURES.values()) == set(rule_codes())

    @pytest.mark.parametrize("fixture,code", sorted(VIOLATION_FIXTURES.items()))
    def test_fixture_fires_only_its_rule(self, fixture, code):
        report = lint_fixture(fixture)
        assert report.findings, f"{fixture} seeded no findings"
        assert {f.code for f in report.findings} == {code}

    def test_det001_sites_and_negatives(self):
        report = lint_fixture("det001.py")
        assert [f.line for f in report.findings] == [11, 15, 19, 23, 24, 25]
        text = format_text(report)
        assert "without a seed" in text
        assert "module-level global" in text
        assert "stdlib global RNG" in text

    def test_det002_sites_and_negatives(self):
        report = lint_fixture("det002.py")
        assert [f.line for f in report.findings] == [9, 10, 11, 12, 13]

    def test_det002_sanctioned_paths_are_exempt(self):
        source = "import time\nseconds = time.perf_counter()\n"
        for sanctioned in WallClockRule.sanctioned_path_suffixes:
            findings, _ = lint_source(source, path=f"src/{sanctioned}")
            assert findings == []
        findings, _ = lint_source(source, path="src/repro/serve/server.py")
        assert [f.code for f in findings] == ["DET002"]

    def test_det003_sites(self):
        report = lint_fixture("det003.py")
        assert [f.line for f in report.findings] == [6, 8, 10, 16, 17]

    def test_unit001_sites(self):
        report = lint_fixture("unit001.py")
        assert [f.line for f in report.findings] == [5, 6, 7, 12, 13, 14, 19]
        by_line = {f.line: f.message for f in report.findings}
        assert "mixes time units (s vs ms)" in by_line[5]
        assert "mixes bytes units (gb vs bytes)" in by_line[12]
        assert "mixes dimensions (time vs bytes)" in by_line[19]

    def test_obs001_sites(self):
        report = lint_fixture("obs001.py")
        assert [f.line for f in report.findings] == [7, 8]

    def test_masks_prefix_bug_is_caught(self):
        """DET001 catches the exact pre-fix random_nm_mask fallback
        (src/repro/sparsity/masks.py before this PR)."""
        pre_fix = textwrap.dedent(
            """
            import numpy as np

            def random_nm_mask(pattern, k, n, rng=None):
                g, q = 1, 1
                rng = rng if rng is not None else np.random.default_rng()
                keys = rng.random((g, pattern.m, q))
                return keys
            """
        )
        findings, _ = lint_source(pre_fix, path="src/repro/sparsity/masks.py")
        assert [f.code for f in findings] == ["DET001"]
        assert "without a seed" in findings[0].message

    def test_clean_fixture_is_clean(self):
        report = lint_fixture("clean.py")
        assert report.clean
        assert report.findings == []

    def test_syntax_error_becomes_lint999(self):
        report = lint_fixture("syntax_error.py")
        assert [f.code for f in report.findings] == [PARSE_FAILURE_CODE]
        assert report.findings[0].line == 3


class TestPragmas:
    def test_pragma_suppresses_only_its_line(self):
        report = lint_fixture("pragmas.py")
        assert report.suppressed == 4  # DET002 + DET001 + all(x2)
        assert [(f.code, f.line) for f in report.findings] == [("DET002", 17)]

    def test_collect_suppressions_parses_codes_and_all(self):
        source = (
            "x = 1  # repro-lint: disable=DET001,UNIT001 -- because\n"
            "y = 2  # repro-lint: disable=all\n"
        )
        supp = collect_suppressions(source)
        assert supp == {1: {"DET001", "UNIT001"}, 2: {"all"}}

    def test_pragma_inside_string_is_not_a_pragma(self):
        source = 's = "# repro-lint: disable=DET001"\n'
        assert collect_suppressions(source) == {}

    def test_malformed_pragma_raises(self):
        with pytest.raises(LintError, match="names no rule codes"):
            collect_suppressions("x = 1  # repro-lint: disable=\n")
        with pytest.raises(LintError, match="without a disable"):
            collect_suppressions("x = 1  # repro-lint: enable=DET001\n")


class TestBaseline:
    def test_round_trip_grandfathers_everything(self, tmp_path):
        report = lint_fixture("det001.py")
        path = tmp_path / "baseline.json"
        save_baseline(Baseline.from_findings(report.findings), str(path))
        loaded = load_baseline(str(path))
        assert len(loaded) == len(report.findings)
        report2 = lint_fixture("det001.py")
        report2.apply_baseline(loaded)
        assert report2.clean
        assert report2.new_findings == []
        assert len(report2.grandfathered) == len(report2.findings)
        assert report2.stale_baseline == 0

    def test_line_moves_stay_grandfathered_but_duplicates_fail(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        findings, _ = lint_source(source, path="mod.py")
        baseline = Baseline.from_findings(findings)
        # Same violation, different line: still grandfathered.
        moved, _ = lint_source("import numpy as np\n\n\nr = np.random.default_rng()\n",
                               path="mod.py")
        new, old, stale = baseline.partition(moved)
        assert (new, len(old), stale) == ([], 1, 0)
        # A *second* copy exceeds the multiset: it is new.
        doubled, _ = lint_source(
            "import numpy as np\na = np.random.default_rng()\n"
            "b = np.random.default_rng()\n",
            path="mod.py",
        )
        new, old, stale = baseline.partition(doubled)
        assert len(new) == 1 and len(old) == 1 and stale == 0

    def test_stale_entries_are_counted(self):
        baseline = Baseline.from_findings(
            lint_fixture("det002.py").findings
        )
        report = lint_fixture("clean.py")
        report.apply_baseline(baseline)
        assert report.clean
        assert report.stale_baseline == 5

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(LintError, match="schema"):
            load_baseline(str(path))
        path.write_text("not json")
        with pytest.raises(LintError, match="not valid JSON"):
            load_baseline(str(path))
        with pytest.raises(LintError, match="cannot read"):
            load_baseline(str(tmp_path / "missing.json"))


class TestGoldenOutputs:
    def _full_report(self) -> LintReport:
        return lint_paths([str(FIXTURES)], root=str(FIXTURES))

    def test_text_format_golden(self):
        rendered = format_text(self._full_report()) + "\n"
        assert rendered == (GOLDEN / "report.txt").read_text()

    def test_json_format_golden(self):
        rendered = format_json(self._full_report()) + "\n"
        assert rendered == (GOLDEN / "report.json").read_text()
        payload = json.loads(rendered)
        assert payload["schema"] == "repro-lint-report/v1"
        assert payload["summary"]["clean"] is False
        assert payload["summary"]["by_code"]["DET001"] >= 6


class TestRegistry:
    def test_register_requires_code_and_check(self):
        class NoCode:
            def check(self, context):  # pragma: no cover
                return []

        with pytest.raises(LintError, match="nonempty string"):
            register_rule(NoCode())

    def test_register_unregister_round_trip(self):
        class ToyRule:
            code = "TOY001"
            description = "toy"

            def check(self, context):
                yield context.finding(context.tree, self.code, "toy finding")

        register_rule(ToyRule())
        try:
            assert "TOY001" in rule_codes()
            with pytest.raises(LintError, match="already registered"):
                register_rule(ToyRule())
            findings, _ = lint_source("x = 1\n")
            assert "TOY001" in {f.code for f in findings}
        finally:
            unregister_rule("TOY001")
        assert "TOY001" not in rule_codes()
        with pytest.raises(LintError, match="unknown rule"):
            unregister_rule("TOY001")

    def test_unknown_lint_target_raises(self):
        with pytest.raises(LintError, match="neither a file nor a directory"):
            lint_paths([str(FIXTURES / "no_such_file.py")])


class TestCli:
    def test_lint_violations_exit_1(self, capsys):
        assert main(["lint", str(FIXTURES / "det001.py")]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "by code" in out

    def test_lint_clean_exit_0(self, capsys):
        assert main(["lint", str(FIXTURES / "clean.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        assert main(["lint", str(FIXTURES / "unit001.py"), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_code"] == {"UNIT001": 7}

    def test_lint_select_subset(self, capsys):
        target = str(FIXTURES / "det001.py")
        assert main(["lint", target, "--select", "DET002"]) == 0
        assert main(["lint", target, "--select", "DET001"]) == 1
        with pytest.raises(SystemExit, match="unknown rule"):
            main(["lint", target, "--select", "NOPE999"])

    def test_lint_exclude_prefix(self, monkeypatch, capsys):
        # The CI gate's escape hatch for the deliberately broken
        # fixture tree: excluded files are not scanned at all.
        monkeypatch.chdir(REPO_ROOT)
        target = "tests/fixtures/lint/det001.py"
        assert main(["lint", target]) == 1
        capsys.readouterr()
        assert main(["lint", target, "--exclude", "tests/fixtures/lint"]) == 0
        assert "0 files" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in rule_codes():
            assert code in out

    def test_lint_baseline_flow(self, tmp_path, capsys):
        target = str(FIXTURES / "det003.py")
        baseline = str(tmp_path / "baseline.json")
        assert main(
            ["lint", target, "--baseline", baseline, "--update-baseline"]
        ) == 0
        assert main(["lint", target, "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "grandfathered" in out

    def test_update_baseline_without_path_is_a_lint_error(self):
        with pytest.raises(SystemExit, match="--update-baseline requires"):
            main(["lint", str(FIXTURES / "clean.py"), "--update-baseline"])


class TestRepositoryGate:
    """The CI gate, asserted in tier-1: this repo lints clean."""

    def test_src_is_clean(self):
        report = lint_paths([str(REPO_ROOT / "src")], root=str(REPO_ROOT))
        assert report.clean, format_text(report)

    def test_src_is_clean_against_shipped_baseline(self):
        baseline = load_baseline(str(REPO_ROOT / "lint-baseline.json"))
        assert len(baseline) == 0  # all debt was fixed or pragma'd
        report = lint_paths([str(REPO_ROOT / "src")], root=str(REPO_ROOT))
        report.apply_baseline(baseline)
        assert report.clean, format_text(report)

    def test_tests_and_benchmarks_are_clean(self):
        # Same invocation as the CI gate: the deliberately broken lint
        # fixtures are excluded, everything else must be clean.
        report = lint_paths(
            [
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "benchmarks"),
                str(REPO_ROOT / "examples"),
            ],
            root=str(REPO_ROOT),
            exclude=("tests/fixtures/lint",),
        )
        assert report.findings == [], format_text(report)
        assert report.suppressed >= 4  # the justified pragma sites
