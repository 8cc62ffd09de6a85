"""Smoke test of the benchmark itself: every workload at a tiny size, the
traced run's passivity check, mismatch localisation, and the refusal to
run without the program's sources.

Run from the repository root (about a minute on a 2-core machine)::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, digest_tree, first_divergence, tree_divergence  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_tiny(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_is_passive_and_complete():
    # Passivity (traced digests == untraced digests) is part of `correct`.
    result = _result(_bench("--workload", "adapt", "--seed", "1", "--seconds", "2",
                            "--trace", "1", "--tiny"))
    assert result["correct"], result
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["sim.events"] > 0 and metrics["runtime.monitor.ticks"] > 0
    assert metrics["runtime.monitor.self_frac"] > 0.05
    assert metrics["exec.cache_hit_frac"] == 0


def test_divergence_is_localised():
    ref = {"a": [1, 2, {"x": 3}], "b": "same"}
    bad = {"a": [1, 2, {"x": 4}], "b": "same"}
    assert first_divergence(bad, ref) == "$.a[2].x"
    assert tree_divergence(bad, digest_tree(ref)) == "$.a[2]"
    assert tree_divergence({"a": ref["a"], "b": "other"}, digest_tree(ref)) == "$.b"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "configure", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
