"""End-to-end observability: traced experiments stay byte-identical and
yield reconstructable causal adaptation chains."""

import json

import pytest

from repro.experiments.chaos import run_chaos
from repro.experiments.fig6 import fig6a_database
from repro.experiments.scene import Instruments
from repro.obs import (
    TraceRecorder,
    adaptation_chains,
    from_jsonl,
    to_jsonl,
)


@pytest.fixture(scope="module")
def traced_chaos():
    """One traced chaos run, shared by the assertions below."""
    recorder = TraceRecorder()
    _fig, payload = run_chaos(seed=0, instruments=Instruments(recorder=recorder))
    return recorder, payload


def test_traced_chaos_outcome_byte_identical(traced_chaos):
    _recorder, traced_payload = traced_chaos
    _fig, untraced_payload = run_chaos(seed=0)
    assert json.dumps(traced_payload, sort_keys=True) == json.dumps(
        untraced_payload, sort_keys=True
    )


def test_traced_chaos_runs_are_deterministic(traced_chaos):
    recorder, _payload = traced_chaos
    again = TraceRecorder()
    run_chaos(seed=0, instruments=Instruments(recorder=again))
    assert to_jsonl(recorder.records) == to_jsonl(again.records)
    assert recorder.metrics.snapshot() == again.metrics.snapshot()
    assert recorder.steps == again.steps


def test_chaos_causal_chain_reconstruction(traced_chaos):
    """At least one complete violation -> decision -> steering -> switch
    chain, with timestamps in simulated order and matching the payload."""
    recorder, payload = traced_chaos
    chains = adaptation_chains(recorder.records)
    assert chains, "no config.switch recorded"
    complete = []
    for records in chains:
        names = [r.name for r in records]
        if (
            "monitor.violation" in names
            and "sched.decision" in names
            and "steer.request" in names
            and names[-1] == "config.switch"
        ):
            complete.append(records)
    assert complete, f"no complete causal chain in {[[r.name for r in c] for c in chains]}"
    for records in complete:
        times = [r.t0 for r in records]
        assert times == sorted(times)
    # Switch timestamps agree with the runtime's own history.
    switch_times = sorted(r[-1].t0 for r in chains)
    payload_times = sorted(s["t"] for s in payload["switches"])
    assert switch_times == pytest.approx(payload_times)


def test_chaos_trace_survives_jsonl_round_trip(traced_chaos):
    recorder, _payload = traced_chaos
    back = from_jsonl(to_jsonl(recorder.records))
    chains = adaptation_chains(back)
    assert len(chains) == len(adaptation_chains(recorder.records))


def test_chaos_metrics_agree_with_payload(traced_chaos):
    recorder, payload = traced_chaos
    snap = recorder.metrics.snapshot()
    assert snap["steer.acks"]["value"] == len(payload["switches"])
    assert (
        snap["fault.dropped"]["value"]
        == payload["exchange"]["injector_dropped"]
    )
    assert snap["fault.injections"]["value"] == len(payload["injections"])


def test_traced_fig6a_byte_identical_and_spanned():
    recorder = TraceRecorder()
    db_traced, _dims, configs = fig6a_database(
        seed=0, instruments=Instruments(recorder=recorder)
    )
    db_plain, _dims, _configs = fig6a_database(seed=0)
    for config in configs:
        for point in db_plain.points_for(config):
            assert (
                db_traced.record_at(config, point).metrics
                == db_plain.record_at(config, point).metrics
            )
    measures = recorder.find("profile.measure")
    assert len(measures) == len(configs) * len(db_plain.points_for(configs[0]))
    assert all(r.t1 is not None for r in measures)
    assert recorder.metrics.counter("profile.runs").value == len(measures)
    # Every process span of a measurement run nests under its measure span.
    measure_sids = {r.sid for r in measures}
    proc_spans = [r for r in recorder.records if r.cat == "sim"]
    assert proc_spans
    roots = {r.parent for r in proc_spans if r.parent in measure_sids}
    assert roots  # ambient parenting grouped runs under measure spans
