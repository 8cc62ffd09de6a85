"""Small-scale smoke tests for the crowd experiment harness.

The million-user acceptance runs live in ``benchmarks/bench_crowd.py``;
here the same scenarios run at populations small enough for tier-1, which
exercises every code path (controller wiring, crowd monitor estimates,
brownout plumbing, payload assembly, sweep cells) without the load.
"""

import json

import pytest

from repro.experiments import crowd_cell, run_crowd
from repro.experiments.crowd import DEFAULT_USERS
from repro.experiments.scene import Instruments

SMALL = dict(users=2_000, until=40.0, n_images=2)


def test_scenario_validation():
    with pytest.raises(ValueError, match="scenario must be one of"):
        run_crowd(scenario="tsunami")


def test_default_populations():
    assert DEFAULT_USERS == {
        "diurnal": 1_000_000, "flash": 200_000, "baseline": 100,
    }


def test_diurnal_small_scale_payload_shape():
    fig, payload = run_crowd(seed=0, scenario="diurnal", **SMALL)
    assert payload["experiment"] == "crowd"
    assert payload["scenario"] == "diurnal"
    assert payload["users"] == 2_000
    assert payload["crowd_closed"]
    assert payload["finished"]
    for name in ("free", "premium"):
        row = payload["classes"][name]
        assert row["served"] + row["shed"] + row["lost"] == row["issued"]
        assert row["inflight"] == 0
    totals = payload["totals"]
    assert totals["issued"] == sum(
        payload["classes"][c]["issued"] for c in ("free", "premium")
    )
    # The figure carries the interactive session's image timeline.
    (series,) = fig.series.values()
    assert len(series.points) == payload["n_images"] == 2
    assert any("class free" in n for n in fig.notes)


def test_flash_small_scale_has_overload_account():
    _fig, payload = run_crowd(seed=0, scenario="flash", **SMALL)
    assert payload["finished"]
    ov = payload["overload"]
    # At 2k users the spike is far below shed_depth: the guard admits
    # everything and brownout never engages — the account still exists.
    assert set(ov) >= {"served", "shed", "brownout_windows", "queue_peak"}
    assert ov["served"] > 0


def test_small_scale_byte_identity_and_seed_sensitivity():
    _f1, first = run_crowd(seed=0, scenario="diurnal", **SMALL)
    _f2, second = run_crowd(seed=0, scenario="diurnal", **SMALL)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    _f3, other = run_crowd(seed=1, scenario="diurnal", **SMALL)
    assert json.dumps(first, sort_keys=True) != json.dumps(other, sort_keys=True)


def test_baseline_scenario_runs_real_coroutines():
    _fig, payload = run_crowd(seed=0, scenario="baseline", users=8,
                              until=30.0, n_images=2)
    assert payload["finished"]
    row = payload["classes"]["baseline"]
    assert row["users"] == 8
    assert row["served"] > 0


def test_crowd_cell_matches_run_crowd():
    """The sweep job wrapper is a faithful uninstrumented run."""
    cell = crowd_cell({"scenario": "diurnal", **SMALL}, seed=0)
    _fig, direct = run_crowd(seed=0, scenario="diurnal", **SMALL)
    assert json.dumps(cell, sort_keys=True) == json.dumps(direct, sort_keys=True)


def test_instrumentation_is_passive():
    """recorder/usage attached -> byte-identical payload (chaos contract)."""
    from repro.obs import TraceRecorder, UsageAccountant

    _f, plain = run_crowd(seed=0, scenario="diurnal", **SMALL)
    _f, instrumented = run_crowd(
        seed=0, scenario="diurnal",
        instruments=Instruments(recorder=TraceRecorder(), usage=UsageAccountant()),
        **SMALL,
    )
    assert json.dumps(plain, sort_keys=True) == json.dumps(
        instrumented, sort_keys=True
    )
