"""Tests for the command-line interface."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import CANONICAL, TARGETS, build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_list_targets(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == CANONICAL


def test_all_canonical_targets_resolvable():
    for name in CANONICAL:
        assert name in TARGETS


def test_aliases_share_runner():
    assert TARGETS["exp1"] is TARGETS["fig7a"]
    assert TARGETS["exp3"] is TARGETS["fig7cd"]
    assert TARGETS["fig5a"] is TARGETS["fig5"]


def test_unknown_target_errors():
    with pytest.raises(SystemExit):
        main(["figZZ"])


def test_run_single_figure_to_dir(tmp_path, capsys):
    assert main(["fig3a", "--no-plot", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Fig 3a" in out
    txt = tmp_path / "fig3a.txt"
    js = tmp_path / "fig3a.json"
    assert txt.exists() and js.exists()
    payload = json.loads(js.read_text())
    assert payload["figure"] == "Fig 3a"
    assert "measured" in payload["series"]


def test_run_ablation_table(tmp_path, capsys):
    assert main(["ablation-a5", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "worst_deviation" in out
    data = json.loads((tmp_path / "ablation-a5.json").read_text())
    assert data["worst_deviation"] < 0.01


def test_duplicate_aliases_run_once(capsys):
    assert main(["fig5a", "fig5b", "--no-plot"]) == 0
    out = capsys.readouterr().out
    # fig5a and fig5b share a runner producing both figures; dedup means
    # each figure header appears exactly once.
    assert out.count("== Fig 5a:") == 1
    assert out.count("== Fig 5b:") == 1


def _command_paths(parser, prefix=()):
    """Every command path of the table, nested ones included, once each."""
    seen = set()
    for action in parser._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        for name, sub in action.choices.items():
            if id(sub) not in seen:
                seen.add(id(sub))
                yield prefix + (name,)
                yield from _command_paths(sub, prefix + (name,))


def test_command_table_covers_every_command():
    paths = {" ".join(path) for path in _command_paths(build_parser())}
    assert paths == {
        "all", "trace", "metrics", "usage", "perf", "diff", "report", "dash",
        "sweep", "lint", "check", "check explore", "check flow", "bench",
        "bench check",
    }


@pytest.mark.parametrize(
    "path", sorted(_command_paths(build_parser())), ids=" ".join
)
def test_every_command_has_help(path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*path, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: repro")


def _documented_invocations():
    """(where, argv) for each ``python -m repro.cli ...`` line in the docs."""
    sources = [
        REPO_ROOT / "README.md",
        *sorted((REPO_ROOT / "docs").glob("*.md")),
        Path(repro.cli.__file__),
    ]
    for path in sources:
        lines = path.read_text().splitlines()
        for lineno, line in enumerate(lines, 1):
            end = lineno
            while line.rstrip().endswith("\\") and end < len(lines):
                line = line.rstrip()[:-1] + " " + lines[end]
                end += 1
            for match in re.finditer(r"python -m repro\.cli\b([^`'\"\n]*)", line):
                argv = shlex.split(match.group(1), comments=True)
                yield f"{path.name}:{lineno}", argv


DOCUMENTED = list(_documented_invocations())


@pytest.mark.parametrize(
    "argv", [argv for _, argv in DOCUMENTED], ids=[w for w, _ in DOCUMENTED]
)
def test_documented_invocations_parse(argv):
    """Every command line in README.md, docs/ and the usage docstring is valid."""
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"documented command does not parse: repro {shlex.join(argv)}")
