"""Tests for ``repro bench check`` — baselines, field kinds, --block-on,
--update."""

import json

import pytest

from repro.analysis.bench import (
    _bench_filename,
    compare_dirs,
    compare_records,
)
from repro.cli import main

BASELINE = {
    "bytes_identical": True,   # bool -> exact
    "cells": 24,               # int  -> exact
    "wall_time_s": 1.0,        # timing float -> band, lower is better
    "speedup": 2.0,            # throughput float -> band, higher is better
    "cpu_count": 8,            # info: never fails
}


def by_field(rows):
    return {r["field"]: r for r in rows}


def test_exact_fields_regress_on_any_drift():
    fresh = dict(BASELINE, bytes_identical=False, cells=23)
    rows = by_field(compare_records("b", fresh, BASELINE))
    assert rows["bytes_identical"]["status"] == "regression"
    assert rows["cells"]["status"] == "regression"
    assert rows["cpu_count"]["status"] == "info"


def test_band_fields_have_direction():
    # Timing doubled (past 50% tolerance) -> regression; speedup doubled
    # -> improvement, never a failure.
    fresh = dict(BASELINE, wall_time_s=2.0, speedup=4.0)
    rows = by_field(compare_records("b", fresh, BASELINE))
    assert rows["wall_time_s"]["status"] == "regression"
    assert rows["speedup"]["status"] == "improved"
    # The good direction for a timing is also just an improvement.
    rows = by_field(compare_records("b", dict(BASELINE, wall_time_s=0.1),
                                    BASELINE))
    assert rows["wall_time_s"]["status"] == "improved"


def test_missing_field_is_a_structural_regression():
    fresh = {k: v for k, v in BASELINE.items() if k != "cells"}
    rows = by_field(compare_records("b", fresh, BASELINE))
    assert rows["cells"]["status"] == "regression"
    assert rows["cells"]["kind"] == "missing"


def write_pair(tmp_path, fresh, baseline):
    fresh_dir, base_dir = tmp_path / "fresh", tmp_path / "base"
    fresh_dir.mkdir()
    base_dir.mkdir()
    (fresh_dir / "BENCH_x.json").write_text(json.dumps(fresh))
    (base_dir / "BENCH_x.json").write_text(json.dumps(baseline))
    return fresh_dir, base_dir


def test_compare_dirs_separates_exact_from_band_regressions(tmp_path):
    fresh = dict(BASELINE, cells=23, wall_time_s=2.0)
    fresh_dir, base_dir = write_pair(tmp_path, fresh, BASELINE)
    report = compare_dirs(fresh_dir, base_dir)
    assert report["regressions"] == 2
    assert report["exact_regressions"] == 1
    assert not report["ok"]


@pytest.mark.parametrize(
    "fresh_overrides,block_on,expected_exit",
    [
        ({}, "all", 0),                      # clean either way
        ({}, "exact", 0),
        ({"wall_time_s": 2.0}, "all", 1),    # band drift blocks under 'all'
        ({"wall_time_s": 2.0}, "exact", 0),  # ...but is advisory under 'exact'
        ({"cells": 23}, "exact", 1),         # exact drift always blocks
        ({"cells": 23}, "all", 1),
    ],
)
def test_block_on_policy_sets_exit_code(tmp_path, capsys,
                                        fresh_overrides, block_on,
                                        expected_exit):
    fresh_dir, base_dir = write_pair(
        tmp_path, dict(BASELINE, **fresh_overrides), BASELINE
    )
    rc = main([
        "bench", "check", "--fresh", str(fresh_dir), "--baseline", str(base_dir),
        "--block-on", block_on,
    ])
    capsys.readouterr()
    assert rc == expected_exit


def test_json_report_records_the_policy(tmp_path, capsys):
    fresh_dir, base_dir = write_pair(
        tmp_path, dict(BASELINE, wall_time_s=2.0), BASELINE
    )
    out = tmp_path / "report.json"
    rc = main([
        "bench", "check", "--fresh", str(fresh_dir), "--baseline", str(base_dir),
        "--block-on", "exact", "--json", "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["block_on"] == "exact"
    assert report["regressions"] == 1
    assert report["exact_regressions"] == 0
    assert not report["ok"]  # 'ok' still reports *any* regression


def test_missing_benchmark_file_blocks_under_exact(tmp_path, capsys):
    fresh_dir, base_dir = tmp_path / "fresh", tmp_path / "base"
    fresh_dir.mkdir()
    base_dir.mkdir()
    (base_dir / "BENCH_x.json").write_text(json.dumps(BASELINE))
    rc = main([
        "bench", "check", "--fresh", str(fresh_dir), "--baseline", str(base_dir),
        "--block-on", "exact",
    ])
    capsys.readouterr()
    assert rc == 1


def test_update_name_normalisation():
    assert _bench_filename("sim") == "BENCH_sim.json"
    assert _bench_filename("BENCH_sim") == "BENCH_sim.json"
    assert _bench_filename("BENCH_sim.json") == "BENCH_sim.json"


def test_update_accepts_drift_and_rewrites_baseline(tmp_path, capsys):
    # Exact drift (cells) would normally block, but --update x accepts
    # the fresh numbers: exit 0 and the baseline copy is overwritten.
    fresh = dict(BASELINE, cells=23, wall_time_s=2.0)
    fresh_dir, base_dir = write_pair(tmp_path, fresh, BASELINE)
    out = tmp_path / "report.json"
    rc = main([
        "bench", "check", "--fresh", str(fresh_dir), "--baseline", str(base_dir),
        "--update", "x", "--json", "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    assert json.loads((base_dir / "BENCH_x.json").read_text()) == fresh
    report = json.loads(out.read_text())
    assert report["updated"] == ["BENCH_x.json"]
    assert report["ok"]
    statuses = {r["field"]: r["status"] for r in report["rows"]}
    assert statuses["cells"] == "updated"
    assert statuses["wall_time_s"] == "updated"
    assert statuses["bytes_identical"] == "ok"  # unchanged fields stay ok


def test_update_only_unblocks_the_named_benchmark(tmp_path, capsys):
    fresh_dir, base_dir = write_pair(
        tmp_path, dict(BASELINE, cells=23), BASELINE
    )
    (fresh_dir / "BENCH_y.json").write_text(json.dumps({"cells": 9}))
    (base_dir / "BENCH_y.json").write_text(json.dumps({"cells": 10}))
    rc = main([
        "bench", "check", "--fresh", str(fresh_dir), "--baseline", str(base_dir),
        "--update", "y",
    ])
    capsys.readouterr()
    # BENCH_x's exact drift still blocks; only BENCH_y was accepted.
    assert rc == 1
    assert json.loads((base_dir / "BENCH_y.json").read_text()) == {"cells": 9}
    assert json.loads((base_dir / "BENCH_x.json").read_text()) == BASELINE


def test_update_missing_fresh_record_is_usage_error(tmp_path, capsys):
    fresh_dir, base_dir = write_pair(tmp_path, BASELINE, BASELINE)
    rc = main([
        "bench", "check", "--fresh", str(fresh_dir), "--baseline", str(base_dir),
        "--update", "nope",
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert "BENCH_nope.json" in err


def test_update_with_shared_fresh_and_baseline_dir(tmp_path, capsys):
    # The default invocation compares the committed copies to themselves;
    # --update must not corrupt the file by copying it onto itself.
    d = tmp_path / "out"
    d.mkdir()
    (d / "BENCH_x.json").write_text(json.dumps(BASELINE))
    rc = main(["bench", "check", "--fresh", str(d), "--update", "x"])
    capsys.readouterr()
    assert rc == 0
    assert json.loads((d / "BENCH_x.json").read_text()) == BASELINE
