"""Tests for the monitoring agent, system monitor, and admission control."""

import json

import pytest

from repro.runtime import AdmissionController, AdmissionError, MonitoringAgent, SystemMonitor
from repro.sandbox import HostSpec, ResourceLimits, Testbed
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


def looping_app(rounds=2000, work_per_round=1.0):
    """Client computes in small rounds forever (enough for monitoring)."""
    space = ConfigSpace([ControlParameter("mode", ("x",))])
    env = ExecutionEnv(
        [HostComponent("client", cpu_speed=100.0), HostComponent("server", cpu_speed=100.0)],
        [LinkComponent("client", "server", bandwidth=1e6)],
    )

    def launcher(rt):
        def main():
            sb = rt.sandbox("client")
            for _ in range(rounds):
                yield sb.compute(work_per_round)
            rt.qos.update("done", 1.0, time=rt.sim.now)

        return rt.sim.process(main())

    return TunableApp(
        name="looper",
        space=space,
        env=env,
        metrics=[QoSMetric("done")],
        tasks=TaskGraph([TaskSpec("loop", resources=("client.cpu",))]),
        launcher=launcher,
    )


def start_app(limits=None, mode="ideal"):
    app = looping_app()
    tb = Testbed(
        host_specs=app.env.host_specs(),
        link_specs=app.env.link_specs(),
        mode=mode,
    )
    rt = app.instantiate(tb, Configuration({"mode": "x"}), limits=limits or {})
    return app, tb, rt


def test_system_monitor_from_runtime():
    app, tb, rt = start_app()
    sysmon = SystemMonitor.from_runtime(rt)
    assert sysmon.capacity("client.cpu") == 100.0
    assert sysmon.capacity("client.network") == 1e6
    assert sysmon.capacity("client.memory") > 0
    with pytest.raises(KeyError):
        sysmon.capacity("ghost.cpu")


def test_monitor_estimates_cpu_share():
    app, tb, rt = start_app(limits={"client": ResourceLimits(cpu_share=0.4)})
    agent = MonitoringAgent(rt, watch=["client.cpu"]).start()
    tb.run(until=2.0)
    est = agent.estimates()["client.cpu"]
    assert est == pytest.approx(0.4, abs=0.05)
    agent.stop()


def test_monitor_estimate_tracks_limit_change():
    app, tb, rt = start_app(limits={"client": ResourceLimits(cpu_share=0.9)})
    agent = MonitoringAgent(rt, watch=["client.cpu"], window=0.3).start()

    def vary():
        yield tb.sim.timeout(2.0)
        rt.sandboxes["client"].set_limits(ResourceLimits(cpu_share=0.3))

    tb.sim.process(vary())
    tb.run(until=1.9)
    before = agent.estimates()["client.cpu"]
    tb.run(until=4.0)
    after = agent.estimates()["client.cpu"]
    agent.stop()
    assert before == pytest.approx(0.9, abs=0.05)
    assert after == pytest.approx(0.3, abs=0.05)


def test_monitor_violation_triggers_once_per_cooldown():
    app, tb, rt = start_app(limits={"client": ResourceLimits(cpu_share=0.9)})
    triggers = []
    agent = MonitoringAgent(
        rt,
        watch=["client.cpu"],
        window=0.3,
        cooldown=10.0,
        on_violation=lambda est: triggers.append((tb.sim.now, est["client.cpu"])),
    ).start()
    agent.retarget(conditions={"client.cpu": (0.6, float("inf"))})

    def vary():
        yield tb.sim.timeout(1.0)
        rt.sandboxes["client"].set_limits(ResourceLimits(cpu_share=0.3))

    tb.sim.process(vary())
    tb.run(until=4.0)
    agent.stop()
    assert len(triggers) == 1  # cooldown suppresses repeats
    t, est = triggers[0]
    assert 1.0 < t < 2.0  # detected soon after the drop
    assert est < 0.6


def test_monitor_no_trigger_within_conditions():
    app, tb, rt = start_app(limits={"client": ResourceLimits(cpu_share=0.9)})
    triggers = []
    agent = MonitoringAgent(
        rt,
        watch=["client.cpu"],
        on_violation=lambda est: triggers.append(est),
    ).start()
    agent.retarget(conditions={"client.cpu": (0.5, float("inf"))})
    tb.run(until=3.0)
    agent.stop()
    assert triggers == []


def network_app():
    """Client fetches 20 x 50 kB replies, shaped to 1e5 B/s on its side."""
    space = ConfigSpace([ControlParameter("mode", ("x",))])
    env = ExecutionEnv(
        [HostComponent("client", cpu_speed=100.0), HostComponent("server", cpu_speed=100.0)],
        [LinkComponent("client", "server", bandwidth=1e7)],
    )

    def launcher(rt):
        def server():
            ssb = rt.sandbox("server")
            for _ in range(20):
                msg = yield ssb.recv("req")
                yield ssb.send("client", "data", None, size=50_000.0)

        def client():
            csb = rt.sandbox("client")
            for _ in range(20):
                yield csb.send("server", "req", None, size=100.0)
                yield csb.recv("data")
            rt.qos.update("done", 1.0)

        rt.sim.process(server())
        return rt.sim.process(client())

    app = TunableApp(
        "netapp", space, env,
        metrics=[QoSMetric("done")],
        tasks=TaskGraph([TaskSpec("xfer", resources=("client.network",))]),
        launcher=launcher,
    )
    tb = Testbed(host_specs=env.host_specs(), link_specs=env.link_specs())
    rt = app.instantiate(
        tb, Configuration({"mode": "x"}),
        limits={"client": ResourceLimits(net_bw=100_000.0)},
    )
    return app, tb, rt


def test_monitor_network_estimate():
    """Effective bandwidth seen by a shaped receiver ~= the sandbox limit."""
    app, tb, rt = network_app()
    agent = MonitoringAgent(rt, watch=["client.network"], window=5.0).start()
    tb.run()
    est = agent.estimates()["client.network"]
    # Each 50 kB reply is shaped to ~0.5 s -> effective ~1e5 B/s.
    assert est == pytest.approx(100_000.0, rel=0.25)


def test_monitor_validation():
    app, tb, rt = start_app()
    with pytest.raises(ValueError):
        MonitoringAgent(rt, watch=["client.cpu"], period=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window": 0.0},
        {"window": -1.0},
        {"hysteresis": -0.05},
        {"cooldown": -0.5},
    ],
)
@pytest.mark.parametrize("watch", [[], ["client.cpu"]])
def test_monitor_rejects_bad_arguments_at_construction(kwargs, watch):
    # With an empty watch list no history is built, so only the constructor
    # can catch a bad window before retarget() or restore() trips on it.
    app, tb, rt = start_app()
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        MonitoringAgent(rt, watch=watch, **kwargs)


def test_monitor_accepts_zero_hysteresis_and_cooldown():
    app, tb, rt = start_app()
    agent = MonitoringAgent(rt, watch=["client.cpu"], hysteresis=0.0, cooldown=0.0)
    assert agent.hysteresis == 0.0 and agent.cooldown == 0.0


def _roundtrip(agent, rt):
    """A fresh agent restored from ``agent``'s (JSON round-tripped) state."""
    fresh = MonitoringAgent(rt, watch=[], window=agent.window)
    fresh.restore(json.loads(json.dumps(agent.snapshot())))
    return fresh


def test_monitor_checkpoint_roundtrip_is_exact():
    # client.network and server.disk see no traffic: their log keys must
    # still be in the snapshot, with the value 0.
    app, tb, rt = start_app(limits={"client": ResourceLimits(cpu_share=0.6)})
    watch = ["client.cpu", "client.network", "server.disk"]
    agent = MonitoringAgent(rt, watch=watch, window=0.3).start()
    agent.retarget(conditions={"client.cpu": (0.8, float("inf"))})
    tb.run(until=1.0)
    state = agent.snapshot()
    assert state["net_seen"] == {
        "client.network:recv": 0, "client.network:send": 0, "server.disk:ops": 0,
    }
    assert len(state["histories"]["client.cpu"]) > 1
    assert agent.estimates()["client.cpu"] == pytest.approx(0.6, abs=0.05)

    fresh = _roundtrip(agent, rt)
    assert fresh.estimates() == agent.estimates()
    assert fresh.estimates() == fresh.estimates()  # cached mean is stable
    assert fresh.snapshot() == state
    # The estimate sits below the bound: both report the full estimates.
    assert fresh._check_conditions() == agent._check_conditions() == agent.estimates()
    agent.stop()


def test_monitor_checkpoint_roundtrip_with_traffic():
    app, tb, rt = network_app()
    watch = ["client.network", "server.network", "client.disk"]
    agent = MonitoringAgent(rt, watch=watch, window=5.0).start()
    tb.run(until=4.0)
    state = agent.snapshot()
    assert state["net_seen"]["client.network:recv"] > 0
    assert state["net_seen"]["client.disk:ops"] == 0
    assert state["histories"]["client.network"]

    fresh = _roundtrip(agent, rt)
    assert fresh.estimates() == agent.estimates()
    assert fresh.snapshot() == state
    # Bandwidth samples are stamped with log times, not tick times, so the
    # restored agent carries on exactly where the original stands.
    fresh.start()
    tb.run()
    agent.stop()
    fresh.stop()
    assert fresh.estimates() == agent.estimates()
    assert fresh.snapshot() == agent.snapshot()


# ------------------------------------------------------------- admission


def test_admission_threshold():
    tb = Testbed(host_specs=[HostSpec("h", 100.0)])
    host = tb.hosts["h"]
    ac = AdmissionController(cpu_threshold=0.9)
    r1 = ac.admit(host, ResourceLimits(cpu_share=0.5))
    r2 = ac.admit(host, ResourceLimits(cpu_share=0.4))
    assert ac.cpu_reserved(host) == pytest.approx(0.9)
    with pytest.raises(AdmissionError):
        ac.admit(host, ResourceLimits(cpu_share=0.1))
    assert ac.rejections == 1
    ac.release(r1)
    ac.admit(host, ResourceLimits(cpu_share=0.1))  # now fits


def test_admission_bandwidth_capacity():
    tb = Testbed(host_specs=[HostSpec("h", 100.0)])
    host = tb.hosts["h"]
    ac = AdmissionController(bw_capacity={"h": 1000.0})
    ac.admit(host, ResourceLimits(net_bw=800.0))
    with pytest.raises(AdmissionError):
        ac.admit(host, ResourceLimits(net_bw=300.0))


def test_admission_memory_bounded_by_physical():
    tb = Testbed(host_specs=[HostSpec("h", 100.0, mem_pages=100)])
    host = tb.hosts["h"]
    ac = AdmissionController()
    ac.admit(host, ResourceLimits(mem_pages=80))
    with pytest.raises(AdmissionError):
        ac.admit(host, ResourceLimits(mem_pages=30))


def test_admitted_sandboxes_are_isolated():
    """Reservation-backed sandboxes each get their promised share."""
    tb = Testbed(host_specs=[HostSpec("h", 100.0)])
    host = tb.hosts["h"]
    ac = AdmissionController()
    r1 = ac.admit(host, ResourceLimits(cpu_share=0.25), name="a")
    r2 = ac.admit(host, ResourceLimits(cpu_share=0.25), name="b")
    done = {}

    def run(tag, sandbox):
        yield sandbox.compute(25.0)
        done[tag] = tb.sim.now

    tb.sim.process(run("a", r1.sandbox))
    tb.sim.process(run("b", r2.sandbox))
    tb.run()
    assert done["a"] == pytest.approx(1.0)
    assert done["b"] == pytest.approx(1.0)


def test_admission_validation():
    with pytest.raises(ValueError):
        AdmissionController(cpu_threshold=0.0)
