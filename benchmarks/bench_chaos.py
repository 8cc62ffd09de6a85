"""Benchmark for the chaos experiment: adaptation under injected faults.

Beyond the usual figure artifact, this benchmark enforces the fault
subsystem's two headline guarantees:

* **Determinism** — two runs with the same seed produce a byte-identical
  trajectory payload (written to ``benchmarks/out/chaos.json``).
* **Recovery** — the controller survives every injected crash, partition,
  and lossy spell: the workload completes, no peer stays marked lost, and
  the final configuration is the one adaptation should settle on.
"""

import json

from repro.experiments import run_chaos
from repro.experiments.scene import Instruments


def _run(seed=0):
    result, payload = run_chaos(seed=seed)
    return result, payload


def test_chaos_trajectory(benchmark, save_figure, artifact_dir):
    result, payload = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_figure(result, "chaos_figure")

    encoded = json.dumps(payload, sort_keys=True, indent=1)
    (artifact_dir / "chaos.json").write_text(encoded + "\n")

    kinds = [e["kind"] for e in payload["events"]]

    # The fault schedule actually fired, in both directions.
    actions = [entry["action"] for entry in payload["injections"]]
    assert "crash" in actions and "crash-recovered" in actions
    assert "partition" in actions and "partition-recovered" in actions
    assert payload["network"]["lost"] > 0, "lossy window dropped nothing"
    assert payload["network"]["delayed"] > 0, "delay window delayed nothing"
    assert payload["network"]["parked"] > 0, "queue-mode faults parked nothing"

    # The watchdog noticed the dead/partitioned server and its recovery,
    # and re-selected over the degraded resource point.
    assert kinds.count("peer-lost") >= 2, "crash and partition both silence the peer"
    assert kinds.count("peer-recovered") == kinds.count("peer-lost")
    assert "degraded" in kinds
    # A steering handshake posted while the client was stalled was
    # abandoned by the ack timeout instead of hanging forever.
    assert "steering-timeout" in kinds

    # Recovery: the workload finished, adaptation switched down under the
    # bandwidth drop and back up after the restore, and nobody is still
    # considered dead at the end.
    assert payload["lost_peers_at_end"] == []
    assert len(payload["image_times"]) == payload["n_images"]
    switches = [(s["from"], s["to"]) for s in payload["switches"]]
    assert ("c=lzw,dR=320,l=4", "c=bzip2,dR=320,l=4") in switches
    assert ("c=bzip2,dR=320,l=4", "c=lzw,dR=320,l=4") in switches
    assert payload["final_config"] == "c=lzw,dR=320,l=4"


def test_chaos_deterministic_replay():
    """Same seed, same spec => byte-identical chaos.json payload."""
    _, first = _run(seed=0)
    _, second = _run(seed=0)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    # A different seed perturbs at least the randomized message faults.
    _, other = _run(seed=7)
    assert json.dumps(first, sort_keys=True) != json.dumps(other, sort_keys=True)


def test_chaos_supervision_transparent():
    """An attached-but-idle Supervisor must not perturb the trajectory.

    ``supervise=True`` registers the server under a Supervisor (safe-point
    checkpoints and all) but the chaos plan kills nothing, so nothing
    restarts: the payload must be byte-identical to the unsupervised run,
    and the supervised run must itself replay byte-identically and stay
    race-detector clean.
    """
    _, plain = _run(seed=0)
    _, supervised = run_chaos(seed=0, supervise=True)
    assert json.dumps(supervised, sort_keys=True) == json.dumps(
        plain, sort_keys=True
    )

    _, supervised2 = run_chaos(seed=0, supervise=True)
    assert json.dumps(supervised, sort_keys=True) == json.dumps(
        supervised2, sort_keys=True
    )

    _, raced = run_chaos(
        seed=0, supervise=True, instruments=Instruments(detect_races=True)
    )
    assert raced["races"] == [], raced["races"]


def test_chaos_race_clean():
    """The seeded run has no tie-order races on shared runtime state.

    The race detector watches every host mailbox and both exchanges'
    estimate tables; an empty report means no same-timestamp conflicting
    access pair is ordered merely by the event queue's FIFO tiebreak —
    the trajectory would survive a reshuffling of same-time scheduling.
    """
    _, payload = run_chaos(seed=0, instruments=Instruments(detect_races=True))
    assert payload["races"] == [], payload["races"]

    # Instrumentation must not perturb the trajectory itself.
    _, baseline = _run(seed=0)
    payload.pop("races")
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )


def test_chaos_tiebreak_invisible():
    """Installing a tiebreak policy with no directives is byte-invisible.

    The explorer replays chaos under flipped same-instant orders; its
    baseline anchor is that the identity policy (and an empty
    ``DemoteTiebreak``) reproduces the default FIFO payload bit for bit.
    """
    from repro.analysis.schedule import DemoteTiebreak, FifoTiebreak

    _, baseline = _run(seed=0)
    _, fifo = run_chaos(seed=0, instruments=Instruments(tiebreak=FifoTiebreak()))
    _, empty = run_chaos(
        seed=0, instruments=Instruments(tiebreak=DemoteTiebreak({}))
    )
    assert json.dumps(fifo, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )
    assert json.dumps(empty, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )
