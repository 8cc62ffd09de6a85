"""Trace diffing: structural keys, determinism, and divergence localization."""

import json

import pytest

from repro.experiments.chaos import run_chaos
from repro.experiments.scene import Instruments
from repro.obs import (
    TraceRecorder,
    diff_metrics,
    diff_traces,
    structural_keys,
    to_chrome,
)
from repro.obs.diff import format_key
from repro.obs.record import SpanRecord


def _trace(seed):
    recorder = TraceRecorder()
    run_chaos(seed=seed, instruments=Instruments(recorder=recorder))
    return recorder


@pytest.fixture(scope="module")
def chaos_pair():
    return _trace(0), _trace(0)


@pytest.fixture(scope="module")
def chaos_divergent():
    return _trace(0), _trace(1)


# -- structural keys -------------------------------------------------------


def _rec(sid, name, t0, parent=None):
    return SpanRecord(
        sid=sid, parent=parent, name=name, cat="test", kind="span", t0=t0
    )


def test_structural_keys_ordinal_same_named_siblings():
    records = [
        _rec(1, "root", 0.0),
        _rec(2, "work", 1.0, parent=1),
        _rec(3, "work", 2.0, parent=1),
        _rec(4, "other", 3.0, parent=1),
    ]
    keys = structural_keys(records)
    assert keys[2] != keys[3], "same-named siblings must get distinct ordinals"
    assert format_key(keys[2]) == "root[0]/work[0]"
    assert format_key(keys[3]) == "root[0]/work[1]"
    assert format_key(keys[4]) == "root[0]/other[0]"


def test_structural_keys_ignore_sids_and_timestamps():
    a = [_rec(1, "root", 0.0), _rec(2, "work", 1.0, parent=1)]
    # Same structure, different span ids and times.
    b = [_rec(10, "root", 5.0), _rec(42, "work", 9.0, parent=10)]
    keys_a = structural_keys(a)
    keys_b = structural_keys(b)
    assert keys_a[2] == keys_b[42]
    assert keys_a[1] == keys_b[10]


# -- whole-trace diff ------------------------------------------------------


def test_same_seed_chaos_diff_is_clean(chaos_pair):
    a, b = chaos_pair
    result = diff_traces(a.records, b.records)
    assert result.identical, (
        f"same-seed runs diverged: {result.divergences} divergence(s), "
        f"first={result.first_divergence}"
    )
    assert result.first_divergence is None
    assert result.matched > 0

    mdiff = diff_metrics(a.metrics.snapshot(), b.metrics.snapshot())
    assert mdiff["identical"]


def test_different_seed_diff_localizes_first_divergence(chaos_divergent):
    a, b = chaos_divergent
    result = diff_traces(a.records, b.records)
    assert not result.identical
    first = result.first_divergence
    assert first is not None
    assert first.kind in ("changed", "only_a", "only_b")
    assert first.causal_chain, "first divergence must carry causal context"
    # The divergence report is JSON-stable.
    payload = result.to_dict()
    assert json.dumps(payload, sort_keys=True)
    assert payload["first_divergence"]["key"]

    mdiff = diff_metrics(a.metrics.snapshot(), b.metrics.snapshot())
    assert not mdiff["identical"]
    assert mdiff["changed"], "different seeds must move at least one metric"


def test_diff_is_deterministic(chaos_divergent):
    a, b = chaos_divergent
    one = diff_traces(a.records, b.records).to_dict()
    two = diff_traces(a.records, b.records).to_dict()
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_diff_ignores_volatile_attrs(chaos_pair):
    a, _ = chaos_pair
    # A record differing only in `virtual_duration` must still match.
    clones = [
        SpanRecord(
            sid=r.sid, parent=r.parent, name=r.name, cat=r.cat, kind=r.kind,
            t0=r.t0, t1=r.t1, proc=r.proc,
            attrs={
                **r.attrs,
                **(
                    {"virtual_duration": 123.456}
                    if "virtual_duration" in r.attrs
                    else {}
                ),
            },
        )
        for r in a.records
    ]
    result = diff_traces(a.records, clones)
    assert result.identical


# -- metrics diff ----------------------------------------------------------


def test_diff_metrics_reports_counter_delta():
    snap_a = {"x": {"kind": "counter", "value": 3.0}}
    snap_b = {"x": {"kind": "counter", "value": 5.0}}
    result = diff_metrics(snap_a, snap_b)
    assert not result["identical"]
    assert result["changed"]["x"]["delta"] == pytest.approx(2.0)


def test_diff_metrics_only_in_one_side():
    snap_a = {"x": {"kind": "counter", "value": 1.0}}
    snap_b = {}
    result = diff_metrics(snap_a, snap_b)
    assert result["only_a"] == ["x"]
    assert not result["identical"]


# -- golden chrome trace ---------------------------------------------------


def test_fig5_chrome_trace_matches_golden(request):
    """Chrome export of the small seeded fig5 grid is byte-stable.

    Regenerate after an intentional trace-format change with::

        PYTHONPATH=src python - <<'PY'
        import json
        from repro.experiments.fig5 import fig5_database
        from repro.experiments.scene import Instruments
        from repro.obs import TraceRecorder, to_chrome
        r = TraceRecorder()
        fig5_database(shares=(0.4, 0.9), fovea_sizes=(80, 320),
                      n_images=1, seed=0,
                      instruments=Instruments(recorder=r))
        open('tests/obs/golden/fig5_chrome.json', 'w').write(
            json.dumps(to_chrome(r.records), indent=1, sort_keys=True) + '\\n')
        PY
    """
    from repro.experiments.fig5 import fig5_database

    recorder = TraceRecorder()
    fig5_database(
        shares=(0.4, 0.9), fovea_sizes=(80, 320), n_images=1, seed=0,
        instruments=Instruments(recorder=recorder),
    )
    rendered = json.dumps(to_chrome(recorder.records), indent=1, sort_keys=True) + "\n"
    golden = request.path.parent / "golden" / "fig5_chrome.json"
    assert rendered == golden.read_text(), (
        "Chrome trace export drifted from tests/obs/golden/fig5_chrome.json "
        "(see this test's docstring to regenerate after intentional changes)"
    )
