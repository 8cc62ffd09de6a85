"""Tests for the schedule explorer and its tiebreak policies."""

import json

import pytest

from repro.analysis.explore import (
    Flip,
    Scenario,
    ScheduleExplorer,
    builtin_scenarios,
    first_payload_divergence,
    payload_digest,
    run_racy,
)
from repro.analysis.schedule import RANK_STRIDE, DemoteTiebreak, FifoTiebreak
from repro.experiments.scene import Instruments
from repro.sim import Simulator


# -- tiebreak policies -----------------------------------------------------


def test_empty_demote_policy_is_byte_identical_to_fifo():
    plain = run_racy(seed=0)
    fifo = run_racy(seed=0, instruments=Instruments(tiebreak=FifoTiebreak()))
    empty = run_racy(seed=0, instruments=Instruments(tiebreak=DemoteTiebreak({})))
    assert json.dumps(fifo, sort_keys=True) == json.dumps(plain, sort_keys=True)
    assert json.dumps(empty, sort_keys=True) == json.dumps(plain, sort_keys=True)


def test_demote_rank_must_be_positive():
    with pytest.raises(ValueError):
        DemoteTiebreak({3: 0})


def test_demote_records_applied_directives():
    policy = DemoteTiebreak({0: 1, 999999: 2})
    run_racy(seed=0, instruments=Instruments(tiebreak=policy))
    assert policy.applied == {0: 1}  # seq 999999 never enqueued
    assert policy.key(0.0, 1, 0, None) == 0 + RANK_STRIDE


def test_observe_counts_tie_windows():
    policy = DemoteTiebreak(observe=True)
    run_racy(seed=0, instruments=Instruments(tiebreak=policy))
    # The racy workload has (at least) its two same-instant write windows.
    assert policy.tie_windows() >= 2
    assert policy.events_in_ties() >= 4


# -- payload digest / divergence helpers -----------------------------------


def test_payload_digest_ignores_volatile_keys():
    a = {"x": 1, "races": ["anything"]}
    b = {"x": 1, "races": []}
    assert payload_digest(a) == payload_digest(b)
    assert payload_digest({"x": 2}) != payload_digest({"x": 1})


def test_first_payload_divergence_paths():
    assert first_payload_divergence({"a": 1}, {"a": 2}) == "$.a"
    assert (
        first_payload_divergence({"a": {"b": [1, 2]}}, {"a": {"b": [1, 3]}})
        == "$.a.b[1]"
    )
    assert first_payload_divergence({"a": 1}, {"a": 1}) is None


# -- exploration of the seeded racy workload -------------------------------


def test_racy_explorer_finds_minimal_divergent_schedule():
    explorer = ScheduleExplorer(builtin_scenarios(seed=0)["racy"])
    result = explorer.explore()
    assert not result.certified
    assert result.divergences, "the winner race must diverge"
    div = result.divergences[0]
    # Delta-debugged witness: at most 3 flips (here exactly one, the
    # t=2 winner window; the t=1 scratch race is benign).
    assert 1 <= len(div.flips) <= 3
    assert all(f.time == 2.0 for f in div.flips)
    assert set(div.flips) <= set(div.found_flips)
    assert div.payload_path is not None
    assert div.first_span is not None
    assert div.error is None


def test_racy_exploration_is_deterministic():
    scenarios = builtin_scenarios(seed=0)
    first = ScheduleExplorer(scenarios["racy"]).explore()
    second = ScheduleExplorer(builtin_scenarios(seed=0)["racy"]).explore()
    assert first.to_dict() == second.to_dict()


def test_benign_race_alone_does_not_diverge():
    explorer = ScheduleExplorer(builtin_scenarios(seed=0)["racy"])
    base_digest, races, _payload, _err = explorer._execute(())
    scratch = [r for r in races if r["label"] == "racy.scratch"]
    assert scratch, "baseline must report the scratch race"
    flip = Flip.from_report(scratch[0])
    digest, _r, _p, _e = explorer._execute((flip,), detect=False)
    assert digest == base_digest


def test_minimize_drops_irrelevant_flips():
    explorer = ScheduleExplorer(builtin_scenarios(seed=0)["racy"])
    base_digest, races, _payload, _err = explorer._execute(())
    flips = tuple(Flip.from_report(r) for r in races)
    assert len(flips) >= 2  # scratch + winner
    minimal = explorer._minimize(flips, base_digest)
    assert len(minimal) == 1
    assert minimal[0].time == 2.0


# -- certification and budgets ---------------------------------------------


def _clean_scenario():
    """Two same-instant callbacks touching disjoint state: race-free."""

    def run(instruments):
        sim = Simulator(tiebreak=instruments.tiebreak)
        log = {}
        sim.schedule_callback(1.0, lambda: log.__setitem__("a", 1))
        sim.schedule_callback(1.0, lambda: log.__setitem__("b", 2))
        sim.run()
        payload = {"log": dict(sorted(log.items()))}
        if instruments.detect_races:
            payload["races"] = []
        return payload

    return Scenario(name="clean", run=run, description="no shared state")


def test_race_free_scenario_certifies_immediately():
    result = ScheduleExplorer(_clean_scenario()).explore()
    assert result.certified
    assert result.exhausted
    assert result.explored == 0
    assert result.budget_hit is None
    assert result.divergences == []


def test_schedule_budget_blocks_certification():
    explorer = ScheduleExplorer(
        builtin_scenarios(seed=0)["racy"], max_schedules=1
    )
    result = explorer.explore()
    assert result.budget_hit == "max_schedules"
    assert not result.certified
    assert not result.exhausted
