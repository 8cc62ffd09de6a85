"""Tests for heartbeat-based controller failover on a two-host testbed."""

import pytest

from repro.recovery import FailoverMember
from repro.sandbox import Testbed
from repro.tunable import (
    ConfigSpace,
    Configuration,
    ControlParameter,
    ExecutionEnv,
    HostComponent,
    LinkComponent,
    QoSMetric,
    TaskGraph,
    TaskSpec,
    TunableApp,
)

PERIOD = 0.5
TAKEOVER_AFTER = 1.5
#: Worst-case silence-to-activation: the silence threshold plus up to two
#: watchdog ticks (one to age past the threshold, one for the URGENT tick).
WINDOW = TAKEOVER_AFTER + 2 * PERIOD


def make_rt(until=60.0):
    """A do-nothing two-host app runtime that stays alive until ``until``."""
    space = ConfigSpace([ControlParameter("mode", ("x",))])
    env = ExecutionEnv(
        [HostComponent("client", cpu_speed=100.0),
         HostComponent("server", cpu_speed=100.0)],
        [LinkComponent("client", "server", bandwidth=1e6, latency=0.001)],
    )

    def launcher(rt):
        def main():
            yield rt.sim.timeout(until)
            rt.qos.update("done", 1.0)

        return rt.sim.process(main())

    app = TunableApp(
        "idle", space, env,
        metrics=[QoSMetric("done")],
        tasks=TaskGraph([TaskSpec("idle", resources=("client.cpu",))]),
        launcher=launcher,
    )
    tb = Testbed(host_specs=env.host_specs(), link_specs=env.link_specs())
    rt = app.instantiate(tb, Configuration({"mode": "x"}))
    return tb, rt


def make_pair(tb, rt, snapshot=None, activations=None):
    primary = FailoverMember(
        rt, "client", ["client", "server"],
        activate=lambda state: None,
        snapshot=snapshot,
        period=PERIOD, takeover_after=TAKEOVER_AFTER, initially_active=True,
    ).start()
    standby = FailoverMember(
        rt, "server", ["client", "server"],
        activate=(activations.append if activations is not None
                  else (lambda state: None)),
        period=PERIOD, takeover_after=TAKEOVER_AFTER,
    ).start()
    return primary, standby


def test_ranks_follow_sorted_member_order():
    tb, rt = make_rt()
    primary, standby = make_pair(tb, rt)
    assert primary.rank == 0 and standby.rank == 1
    assert standby.peers == ["client"]


def test_member_validation():
    tb, rt = make_rt()
    with pytest.raises(ValueError, match="not in members"):
        FailoverMember(rt, "nowhere", ["client", "server"],
                       activate=lambda s: None)
    with pytest.raises(ValueError, match="positive"):
        FailoverMember(rt, "client", ["client"], activate=lambda s: None,
                       period=0.0)


def test_standby_stays_passive_while_primary_beats():
    tb, rt = make_rt()
    primary, standby = make_pair(tb, rt)
    tb.run(until=10.0)
    assert primary.active and not standby.active
    assert standby.takeovers == 0
    assert standby.last_seen["client"] > 0.0


def test_standby_takes_over_with_replicated_state_and_hands_back():
    tb, rt = make_rt()
    activations = []
    primary, standby = make_pair(
        tb, rt, snapshot=lambda: {"decision": "d1"}, activations=activations
    )
    tb.sim.schedule_callback(5.0, primary.stop)
    tb.sim.schedule_callback(12.0, primary.start)
    tb.run(until=20.0)

    assert standby.takeovers == 1
    # The standby resumed from the state the primary replicated in its
    # heartbeats before dying.
    assert activations == [{"decision": "d1"}]
    assert standby.failover_latencies[0] <= WINDOW
    # The primary's heartbeats resumed => the standby stood down again.
    assert standby.handbacks == 1
    assert primary.active and not standby.active


def test_takeover_latency_is_measured_from_last_heartbeat():
    tb, rt = make_rt()
    primary, standby = make_pair(tb, rt)
    tb.sim.schedule_callback(5.0, primary.stop)
    tb.run(until=10.0)
    (latency,) = standby.failover_latencies
    # Silence threshold is a lower bound; the watchdog tick cadence an upper.
    assert TAKEOVER_AFTER <= latency <= WINDOW


def test_stop_is_idempotent_and_kills_processes():
    tb, rt = make_rt()
    primary, _standby = make_pair(tb, rt)
    tb.run(until=3.0)
    primary.stop()
    primary.stop()
    tb.run(until=4.0)
    assert all(not p.is_alive for p in primary.processes())


def test_stop_cancels_a_heartbeat_in_flight():
    """A heartbeat on the wire when its member stops still arrives, but
    the stopped sender does not account it."""
    from repro.sandbox.sandbox import SandboxSend

    tb, rt = make_rt()
    primary, standby = make_pair(tb, rt)
    publisher = primary.processes()[0]
    while not isinstance(publisher.target, SandboxSend):
        tb.sim.step()
    sandbox = rt.sandboxes["client"]
    logged = len(sandbox.send_log)
    inbox = tb.hosts["server"].mailbox("recovery.failover")
    queued = len(inbox)
    primary.stop()
    standby.stop()  # its receiver leaves the heartbeat queued
    tb.run(until=tb.sim.now + 1.0)
    assert len(sandbox.send_log) == logged
    assert len(inbox) == queued + 1
