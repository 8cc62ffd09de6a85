"""Suppression workflows, the lint engine, and the ``repro lint`` CLI."""

import json
import textwrap
from pathlib import Path

from repro.analysis import (
    lint_paths,
    lint_source,
    load_baseline,
    write_baseline,
)
from repro.cli import main as repro_main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)

CLEAN = textwrap.dedent(
    """
    def stamp(sim):
        return sim.now
    """
)


# -- inline suppressions --------------------------------------------------


def test_inline_allow_silences_named_rule():
    suppressed = BAD.replace(
        "time.time()", "time.time()  # repro: allow[DET101] -- test fixture"
    )
    assert lint_source(BAD, "mod.py")
    assert lint_source(suppressed, "mod.py") == []


def test_inline_allow_is_rule_specific():
    wrong_rule = BAD.replace("time.time()", "time.time()  # repro: allow[DET102]")
    assert [f.rule for f in lint_source(wrong_rule, "mod.py")] == ["DET101"]


def test_inline_allow_all_silences_everything():
    suppressed = BAD.replace("time.time()", "time.time()  # repro: allow[ALL]")
    assert lint_source(suppressed, "mod.py") == []


# -- baseline workflow ----------------------------------------------------


def test_baseline_suppresses_by_fingerprint_not_line(tmp_path):
    (tmp_path / "mod.py").write_text(BAD)
    baseline = tmp_path / "baseline.json"
    findings = lint_paths([tmp_path], root=tmp_path).findings
    write_baseline(baseline, findings)
    assert [e.rule for e in load_baseline(baseline)] == ["DET101"]

    # Shift the finding to a different line: the baseline still matches
    # because entries key on (rule, path, context), not line numbers.
    (tmp_path / "mod.py").write_text("# moved\n# down\n" + BAD)
    result = lint_paths([tmp_path], root=tmp_path, baseline=baseline)
    assert result.clean
    assert result.suppressed_baseline == 1
    assert result.unused_baseline == []


def test_stale_baseline_entry_is_reported(tmp_path):
    (tmp_path / "mod.py").write_text(CLEAN)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "entries": [
                    {
                        "rule": "DET101",
                        "path": "mod.py",
                        "context": "return time.time()",
                        "reason": "fixed long ago",
                    }
                ]
            }
        )
    )
    result = lint_paths([tmp_path], root=tmp_path, baseline=baseline)
    assert not result.findings
    assert [e.rule for e in result.unused_baseline] == ["DET101"]


def test_parse_error_is_a_finding_not_a_crash(tmp_path):
    (tmp_path / "broken.py").write_text("def oops(:\n")
    result = lint_paths([tmp_path], root=tmp_path)
    assert not result.clean
    assert [f.rule for f in result.parse_errors] == ["PARSE"]


# -- CLI ------------------------------------------------------------------


def test_cli_exit_zero_on_clean_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text(CLEAN)
    assert repro_main(["lint", str(tmp_path / "mod.py")]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exit_one_on_findings(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text(BAD)
    assert repro_main(["lint", str(tmp_path / "mod.py")]) == 1
    out = capsys.readouterr().out
    assert "DET101" in out and "sim.now" in out  # rule id + fix hint


def test_cli_exit_two_on_usage_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text(CLEAN)
    assert repro_main(["lint", str(tmp_path / "missing.py")]) == 2
    assert repro_main(["lint", "--rules", "DET999", str(tmp_path / "mod.py")]) == 2


def test_cli_json_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text(BAD)
    assert repro_main(["lint", "--json", str(tmp_path / "mod.py")]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is False
    assert report["files_checked"] == 1
    assert [f["rule"] for f in report["findings"]] == ["DET101"]


def test_cli_rules_filter(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text(BAD)
    assert repro_main(["lint", "--rules", "SIM101", str(tmp_path / "mod.py")]) == 0
    capsys.readouterr()


def test_cli_write_baseline_roundtrip(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text(BAD)
    assert repro_main(["lint", "--write-baseline", str(tmp_path / "mod.py")]) == 0
    # The checked-in default baseline now covers the finding.
    assert repro_main(["lint", str(tmp_path / "mod.py")]) == 0
    capsys.readouterr()


def test_cli_stale_baseline_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text(BAD)
    assert repro_main(["lint", "--write-baseline", str(tmp_path / "mod.py")]) == 0
    (tmp_path / "mod.py").write_text(CLEAN)
    assert repro_main(["lint", str(tmp_path / "mod.py")]) == 1
    assert "stale baseline entry" in capsys.readouterr().out


def test_repro_cli_dispatches_lint(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text(CLEAN)
    assert repro_main(["lint", str(tmp_path / "mod.py")]) == 0
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert repro_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET101", "DET203", "SIM104"):
        assert rule_id in out


# -- the repo itself lints clean ------------------------------------------


def test_repository_is_lint_clean():
    result = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "benchmarks"],
        root=REPO_ROOT,
        baseline=REPO_ROOT / "lint_baseline.json",
    )
    assert result.clean, [f.render() for f in result.findings + result.parse_errors]
    assert result.unused_baseline == []
