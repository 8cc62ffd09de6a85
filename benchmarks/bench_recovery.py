"""Benchmark for the recovery subsystem: supervision, failover, overload.

Beyond the figure artifact, this benchmark enforces the recovery layer's
headline guarantees (docs/robustness.md):

* **Determinism** — two supervised same-seed runs produce byte-identical
  payloads: restart jitter comes from the dedicated ``"recovery"`` RNG
  stream and checkpointing is strictly passive.
* **Supervision pays** — supervised availability beats the unsupervised
  baseline for every service the crash storm touches.
* **Checkpoints pay** — warm (checkpoint-resumed) controller restarts
  come back strictly faster than cold ones: MTTR(warm) < MTTR(cold).
* **Failover is bounded** — the standby takes over within the watchdog
  window (``takeover_after`` + two heartbeat periods).
* **Recovery is free when off** — attaching an idle supervisor to the
  chaos run costs < 5 % wall clock and does not perturb the payload.

Headline numbers land in ``benchmarks/out/BENCH_recovery.json``; the
committed copy is the baseline ``repro bench check`` compares against.
"""

import json

from repro.experiments import run_chaos, run_recovery
from repro.experiments.scene import Instruments

#: Mirrors the FailoverMember parameters run_recovery wires up: a standby
#: declares the primary lost after ``takeover_after`` without heartbeats,
#: and the declaration itself can lag by up to two watchdog periods.
_TAKEOVER_AFTER = 1.5
_HEARTBEAT_PERIOD = 0.5
_WATCHDOG_WINDOW = _TAKEOVER_AFTER + 2 * _HEARTBEAT_PERIOD

_ROUNDS = 8
_REPEATS = 3
_MAX_IDLE_OVERHEAD = 0.05


def test_recovery_trajectory(benchmark, save_figure, artifact_dir):
    result, payload = benchmark.pedantic(
        lambda: run_recovery(seed=0), rounds=1, iterations=1
    )
    save_figure(result, "recovery_figure")
    encoded = json.dumps(payload, sort_keys=True, indent=1)
    (artifact_dir / "recovery.json").write_text(encoded + "\n")

    # The crash storm fired: two server kills, one controller kill, one
    # windowed host crash — and every kill produced a supervised restart.
    actions = [e["action"] for e in payload["injections"]]
    assert actions.count("kill") == 3
    assert "crash" in actions and "crash-recovered" in actions
    rec = payload["recovery"]
    assert rec["kills"] == 3
    assert rec["restarts"] == 3
    assert rec["escalations"] == 0
    assert rec["services"]["viz-server"]["restarts"] == 2
    assert rec["services"]["controller"]["restarts"] == 1
    # Teardown closed the books: nobody is mid-restart at the end.
    assert all(s["state"] == "stopped" for s in rec["services"].values())
    # Warm restarts: every MTTR record resumed from a checkpoint.
    assert rec["mttr"] and all(m["warm"] for m in rec["mttr"])
    assert rec["checkpoints"] > 0

    # The flash crowd was shed (QoS class 0) while the interactive
    # session (QoS class 1) never lost a round.
    ov = payload["overload"]
    assert ov["crowd_shed"] > 0 and ov["crowd_served"] > 0
    assert ov["shed_hard"] == 0, "soft shedding should absorb the crowd"
    assert ov["interactive_shed_rounds"] == 0

    # Sustained shedding tripped brownout into the cheap configuration
    # and handed back after the crowd passed.
    windows = ov["brownout_windows"]
    assert len(windows) == 1 and windows[0][1] is not None
    switches = [(s["from"], s["to"]) for s in payload["switches"]]
    assert ("c=lzw,dR=320,l=4", "c=lzw,dR=320,l=3") in switches
    assert ("c=lzw,dR=320,l=3", "c=lzw,dR=320,l=4") in switches
    assert payload["final_config"] == "c=lzw,dR=320,l=4"

    # The standby took over while the controller waited out its backoff
    # (and again during the host crash), each within the watchdog window.
    fo = payload["failover"]["server"]
    assert fo["takeovers"] >= 1
    assert fo["handbacks"] == fo["takeovers"]
    assert fo["latencies"] and all(
        lat <= _WATCHDOG_WINDOW for lat in fo["latencies"]
    )
    assert payload["failover"]["client"]["active_at_end"]

    # The interactive workload survived the whole storm.
    assert payload["finished"]
    assert len(payload["image_times"]) == payload["n_images"]


def test_recovery_deterministic_replay():
    """Same seed => byte-identical payload, supervision and all."""
    _, first = run_recovery(seed=0)
    _, second = run_recovery(seed=0)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    # A different seed perturbs at least the restart jitter and crowd.
    _, other = run_recovery(seed=7)
    assert json.dumps(first, sort_keys=True) != json.dumps(other, sort_keys=True)


def test_recovery_race_clean():
    """The seeded recovery run has no tie-order races on shared state.

    The detector watches every host mailbox, both exchanges' estimate
    tables, *and* the recovery subsystem's own shared state: the
    supervisor's service registry and restart planning, the checkpoint
    store's tables, each failover member's heartbeat/rank state, and the
    overload guard's admission path.  An empty report means none of it
    is ordered merely by the event queue's FIFO tiebreak.
    """
    _, payload = run_recovery(seed=0, instruments=Instruments(detect_races=True))
    assert payload["races"] == [], payload["races"]

    # The detector is passive: stripping its report recovers the baseline.
    _, baseline = run_recovery(seed=0)
    payload.pop("races")
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )


def test_recovery_tiebreak_invisible():
    """Installing a tiebreak policy with no directives is byte-invisible.

    The schedule explorer's whole soundness argument rests on this: the
    identity policy (and an empty ``DemoteTiebreak``) must reproduce the
    default FIFO payload bit for bit.
    """
    from repro.analysis.schedule import DemoteTiebreak, FifoTiebreak

    _, baseline = run_recovery(seed=0)
    _, fifo = run_recovery(
        seed=0, instruments=Instruments(tiebreak=FifoTiebreak())
    )
    _, empty = run_recovery(
        seed=0, instruments=Instruments(tiebreak=DemoteTiebreak({}))
    )
    assert json.dumps(fifo, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )
    assert json.dumps(empty, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )


def test_supervised_availability_beats_unsupervised():
    """Restarting what dies keeps services up; not restarting does not."""
    _, sup = run_recovery(seed=0)
    # The unsupervised baseline never finishes (the server stays dead), so
    # cap the horizon instead of waiting out the padded default.
    _, unsup = run_recovery(seed=0, supervise=False, until=60.0)
    assert sup["finished"] and not unsup["finished"]
    for name in ("viz-server", "controller"):
        a_sup = sup["recovery"]["services"][name]["availability"]
        a_unsup = unsup["recovery"]["services"][name]["availability"]
        assert a_sup > a_unsup, (name, a_sup, a_unsup)
    assert sup["recovery"]["services"]["viz-server"]["availability"] > 0.95


def test_warm_restart_beats_cold():
    """Checkpoint-resumed restarts ready faster than cold ones.

    A warm controller restores its monitor histories and answers the
    ready probe immediately; a cold one must refill its estimates from
    live traffic.  Restart *instants* are identical (checkpointing draws
    no RNG), so the MTTR gap isolates the resume path.
    """
    _, warm = run_recovery(seed=0, checkpoints=True)
    _, cold = run_recovery(seed=0, checkpoints=False)
    warm_ctl = [m for m in warm["recovery"]["mttr"] if m["service"] == "controller"]
    cold_ctl = [m for m in cold["recovery"]["mttr"] if m["service"] == "controller"]
    assert warm_ctl and cold_ctl
    assert all(m["warm"] for m in warm_ctl)
    assert all(not m["warm"] for m in cold_ctl)
    warm_mttr = sum(m["mttr"] for m in warm_ctl) / len(warm_ctl)
    cold_mttr = sum(m["mttr"] for m in cold_ctl) / len(cold_ctl)
    assert warm_mttr < cold_mttr, (warm_mttr, cold_mttr)


def test_recovery_headline_numbers(artifact_dir, interleaved_best):
    """Write BENCH_recovery.json for ``repro bench check``.

    The committed copy is the baseline; exact fields are deterministic
    guarantees, ``*_s``/``overhead`` floats are wall-clock bands.
    """
    _, sup = run_recovery(seed=0)
    _, sup2 = run_recovery(seed=0)
    _, unsup = run_recovery(seed=0, supervise=False, until=60.0)
    _, cold = run_recovery(seed=0, checkpoints=False)

    # Idle-supervision overhead on the chaos run: same workload, same
    # payload (asserted in bench_chaos), supervisor attached but never
    # needed.  Interleaved best-of damps scheduler noise.
    plain_s, supervised_s = interleaved_best(
        [lambda: run_chaos(seed=0), lambda: run_chaos(seed=0, supervise=True)],
        rounds=_ROUNDS, repeats=_REPEATS,
    )
    overhead_idle = supervised_s / plain_s - 1.0
    assert overhead_idle < _MAX_IDLE_OVERHEAD, (
        f"idle supervision costs {overhead_idle:.1%} "
        f"(limit {_MAX_IDLE_OVERHEAD:.0%})"
    )

    rec = sup["recovery"]
    warm_ctl = [m["mttr"] for m in rec["mttr"] if m["service"] == "controller"]
    cold_ctl = [
        m["mttr"] for m in cold["recovery"]["mttr"] if m["service"] == "controller"
    ]
    fo = sup["failover"]["server"]
    record = {
        "replay_identical": json.dumps(sup, sort_keys=True)
        == json.dumps(sup2, sort_keys=True),
        "finished": bool(sup["finished"]),
        "kills": rec["kills"],
        "restarts": rec["restarts"],
        "escalations": rec["escalations"],
        "availability_supervised": round(
            rec["services"]["viz-server"]["availability"], 4
        ),
        "availability_unsupervised": round(
            unsup["recovery"]["services"]["viz-server"]["availability"], 4
        ),
        "supervised_beats_unsupervised": rec["services"]["viz-server"][
            "availability"
        ]
        > unsup["recovery"]["services"]["viz-server"]["availability"],
        "warm_mttr_s": round(sum(warm_ctl) / len(warm_ctl), 3),
        "cold_mttr_s": round(sum(cold_ctl) / len(cold_ctl), 3),
        "warm_beats_cold": sum(warm_ctl) / len(warm_ctl)
        < sum(cold_ctl) / len(cold_ctl),
        "failover_takeovers": fo["takeovers"],
        "failover_handbacks": fo["handbacks"],
        "failover_latency_s": round(max(fo["latencies"]), 3),
        "failover_within_window": all(
            lat <= _WATCHDOG_WINDOW for lat in fo["latencies"]
        ),
        "brownout_windows": len(sup["overload"]["brownout_windows"]),
        "crowd_served": sup["overload"]["crowd_served"],
        "crowd_shed": sup["overload"]["crowd_shed"],
        "interactive_shed_rounds": sup["overload"]["interactive_shed_rounds"],
        "overhead_idle_supervision": round(overhead_idle, 3),
    }
    (artifact_dir / "BENCH_recovery.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"  # repro: allow[DET501] -- benchmark wall-time report, not sim state
    )
