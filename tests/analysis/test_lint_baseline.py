"""Baseline contract, config loading, CLI exit codes, and the meta-test
that the shipped tree is clean against the committed (empty) baseline."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import (
    LintConfig,
    apply_baseline,
    lint_paths,
    lint_source,
    load_baseline,
    load_config,
)
from repro.analysis.lint.baseline import finding_key, format_entry, snippet_digest

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestBaselineFile:
    def test_missing_file_is_empty_baseline(self, tmp_path):
        entries, errors = load_baseline(tmp_path / "nope.txt")
        assert entries == [] and errors == []

    def test_justified_entry_parses(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text(
            "# comment\n"
            "\n"
            "D002 | src/repro/foo.py | abcdef012345 | legacy stopwatch\n"
        )
        entries, errors = load_baseline(path)
        assert errors == []
        (entry,) = entries
        assert entry.key == ("D002", "src/repro/foo.py", "abcdef012345")
        assert entry.justification == "legacy stopwatch"

    def test_unjustified_entry_is_an_error(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("D002 | src/repro/foo.py | abcdef012345 |\n")
        entries, errors = load_baseline(path)
        assert entries == []
        assert len(errors) == 1 and "justification" in errors[0]

    def test_malformed_and_unknown_code_entries_are_errors(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("garbage line\nD999 | a.py | 000000000000 | why\n")
        entries, errors = load_baseline(path)
        assert entries == [] and len(errors) == 2

    def test_matching_entry_suppresses_and_stale_entry_is_flagged(self, tmp_path):
        config = LintConfig(root=tmp_path)
        target = tmp_path / "src" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("import time\nt = time.time()\n")
        findings = lint_paths([target], config)
        assert [f.code for f in findings] == ["D002"]

        baseline = tmp_path / "baseline.txt"
        baseline.write_text(
            format_entry(findings[0], config, "grandfathered stopwatch")
            + "\n"
            + "D001 | src/mod.py | 000000000000 | no longer present\n"
        )
        entries, errors = load_baseline(baseline)
        assert errors == []
        new, stale = apply_baseline(findings, entries, config)
        assert new == []
        assert [e.code for e in stale] == ["D001"]

    def test_digest_tracks_snippet_not_line_number(self, tmp_path):
        config = LintConfig(root=tmp_path)
        src_a = "import time\nt = time.time()\n"
        src_b = "import time\n\n\n# moved down\nt = time.time()\n"
        (fa,) = lint_source(src_a, tmp_path / "m.py", config)
        (fb,) = lint_source(src_b, tmp_path / "m.py", config)
        assert fa.line != fb.line
        assert finding_key(fa, config) == finding_key(fb, config)
        assert snippet_digest(fa.snippet) == snippet_digest("t = time.time()")


class TestConfig:
    def test_pyproject_overrides(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint]\n"
            'wallclock-allow = ["tools/*"]\n'
            'identity-modules = ["src/pkg/*"]\n'
            'baseline = "lint-baseline.txt"\n'
        )
        config = load_config(root=tmp_path)
        assert config.wallclock_allowed(tmp_path / "tools" / "bench.py")
        assert not config.wallclock_allowed(tmp_path / "src" / "pkg" / "a.py")
        assert config.is_identity_module(tmp_path / "src" / "pkg" / "a.py")
        assert config.baseline_path() == tmp_path / "lint-baseline.txt"

    def test_defaults_without_pyproject(self, tmp_path):
        config = load_config(root=tmp_path)
        assert config.is_identity_module(tmp_path / "src/repro/sim/engine.py")
        assert not config.is_identity_module(tmp_path / "src/repro/cli.py")
        assert config.wallclock_allowed(tmp_path / "benchmarks/perf/harness.py")

    def test_repo_config_routes_this_repo(self):
        config = load_config(root=REPO_ROOT)
        assert config.is_identity_module(REPO_ROOT / "src/repro/sim/fastpath.py")
        assert config.wallclock_allowed(REPO_ROOT / "src/repro/cli.py")
        assert not config.wallclock_allowed(REPO_ROOT / "src/repro/sim/engine.py")


def run_cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\n")
        mod = tmp_path / "src" / "ok.py"
        mod.parent.mkdir()
        mod.write_text("import math\nx = math.sqrt(2)\n")
        result = run_cli("src", cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "repro-lint: clean" in result.stdout

    def test_finding_exits_one_with_location(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\n")
        mod = tmp_path / "src" / "bad.py"
        mod.parent.mkdir()
        mod.write_text("import random\nrandom.shuffle(x)\n")
        result = run_cli("src", cwd=tmp_path)
        assert result.returncode == 1
        assert "src/bad.py:2:" in result.stdout and "D001" in result.stdout

    def test_write_baseline_prints_entries(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\n")
        mod = tmp_path / "src" / "bad.py"
        mod.parent.mkdir()
        mod.write_text("import random\nrandom.shuffle(x)\n")
        result = run_cli("src", "--write-baseline", cwd=tmp_path)
        assert result.returncode == 1
        assert result.stdout.startswith("D001 | src/bad.py | ")
        assert "TODO: justify or fix" in result.stdout

    def test_list_rules(self, tmp_path):
        result = run_cli("--list-rules", cwd=tmp_path)
        assert result.returncode == 0
        for code in ("D001", "D002", "D003", "D004", "D005", "D006"):
            assert code in result.stdout


class TestShippedTree:
    """The acceptance meta-test: the committed tree is clean and the
    committed baseline has no (unjustified or stale) entries."""

    def test_committed_baseline_is_empty_and_valid(self):
        config = load_config(root=REPO_ROOT)
        entries, errors = load_baseline(config.baseline_path())
        assert errors == []
        for entry in entries:  # must each carry a justification
            assert entry.justification.strip()
        # Policy: the shipped baseline stays empty — justifications live
        # in disable comments next to the code instead.
        assert entries == []

    def test_shipped_tree_matches_baseline(self):
        config = load_config(root=REPO_ROOT)
        findings = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
            config,
        )
        entries, errors = load_baseline(config.baseline_path())
        assert errors == []
        new, stale = apply_baseline(findings, entries, config)
        assert stale == []
        assert new == [], "\n".join(
            f.render(config.relpath(f.path)) for f in new
        )
