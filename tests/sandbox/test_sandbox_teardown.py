"""Tearing down a process parked in ``Sandbox.send``/``recv``.

A supervisor kill must unwind the message operation the victim was
waiting on exactly: a send still in its token-bucket delay never reaches
the network, a send already on the wire is delivered but not accounted
to the dead sender, a parked receive never swallows a later message, and
a receive killed while its bytes are being shaped loses the message
without logging it.  A failed link transfer reaches the awaiting process.
"""

import pytest

from repro.cluster import Host, Network
from repro.recovery import RestartPolicy, Supervisor
from repro.sandbox import LimiterMode, ResourceLimits, Sandbox
from repro.sim import SimulationError, Simulator

POLICY = RestartPolicy(base_delay=0.5, factor=2.0, jitter=0.0)


def make_pair(sim, bandwidth=1000.0):
    net = Network(sim)
    a = Host(sim, "a", cpu_speed=100.0)
    b = Host(sim, "b", cpu_speed=100.0)
    net.register(a)
    net.register(b)
    net.connect("a", "b", bandwidth=bandwidth)
    return net, a, b


def supervise(sim, body, restarts=False):
    """One supervised service running ``body(incarnation)``."""
    sup = Supervisor(sim, seed=0).attach()
    runs = []

    def start(_state):
        runs.append(None)
        return sim.process(body(len(runs)), name="svc")

    sup.supervise("svc", start, policy=POLICY, restarts=restarts)
    return sup


def test_kill_during_send_bucket_delay_never_reaches_the_network():
    sim = Simulator()
    net, a, b = make_pair(sim)
    # Quantum mode shapes sends with a token bucket: burst 50 B at 1000 B/s.
    sb = Sandbox(a, ResourceLimits(net_bw=1000.0), mode=LimiterMode.QUANTUM)

    def body(incarnation):
        size = 500.0 if incarnation == 1 else 100.0
        yield sb.send("b", "p", incarnation, size=size)
        yield sim.timeout(100.0)  # stay up: a normal exit also restarts

    sup = supervise(sim, body, restarts=True)
    sim.schedule_callback(0.2, lambda: sup.kill("svc"))  # inside the 0.45 s delay
    sim.run(until=5.0)
    # Only the restarted incarnation's message was sent.  It still pays
    # for the killed send's reservation: at 0.7 the bucket holds its 50 B
    # burst, so 100 B wait 0.05 s, then drain for 0.1 s.
    assert [m.payload for m in b.mailbox("p").items] == [2]
    assert sb.send_log == [(0.7, pytest.approx(0.85), 100.0)]
    assert sb.bytes_sent == 100.0
    assert net.messages_delivered == 1
    assert net.link("a", "b").bytes_carried == 100.0


def test_kill_during_send_in_flight_delivers_but_does_not_account():
    sim = Simulator()
    net, a, b = make_pair(sim)
    sb = Sandbox(a)

    def body(_incarnation):
        yield sb.send("b", "p", "late", size=500.0)

    sup = supervise(sim, body)
    sim.schedule_callback(0.2, lambda: sup.kill("svc"))  # wire time is 0.5 s
    sim.run(until=5.0)
    (msg,) = b.mailbox("p").items
    assert msg.payload == "late" and msg.deliver_time == pytest.approx(0.5)
    assert sb.send_log == [] and sb.bytes_sent == 0.0
    assert net.messages_delivered == 1


def test_failed_transfer_after_kill_does_not_crash_the_run():
    sim = Simulator()
    net, a, b = make_pair(sim)
    sb = Sandbox(a)

    def body(_incarnation):
        yield sb.send("b", "p", "doomed", size=500.0)

    sup = supervise(sim, body)
    link = net.link("a", "b")
    sim.schedule_callback(0.2, lambda: sup.kill("svc"))
    sim.schedule_callback(0.3, lambda: next(iter(link.share._jobs)).cancel())
    sim.run(until=5.0)
    assert len(b.mailbox("p")) == 0
    assert sb.send_log == [] and sb.bytes_sent == 0.0
    assert net.messages_delivered == 0


# With a fast receive limit the 100 B message is shaped with no delay.
RECV_LIMITS = [ResourceLimits(), ResourceLimits(net_bw=1e6)]


@pytest.mark.parametrize("limits", RECV_LIMITS, ids=["unshaped", "shaped"])
def test_kill_during_parked_recv_never_swallows_a_message(limits):
    sim = Simulator()
    net, a, b = make_pair(sim)
    sb = Sandbox(b, limits)
    got = []

    def body(incarnation):
        msg = yield sb.recv("p")
        got.append((incarnation, msg.payload, sim.now))

    sup = supervise(sim, body, restarts=True)
    sim.schedule_callback(0.2, lambda: sup.kill("svc"))
    sim.schedule_callback(1.0, lambda: a.send("b", "p", "hello", 100.0))
    sim.run(until=5.0)
    # The restarted incarnation (up at 0.7) gets the message.
    assert got == [(2, "hello", pytest.approx(1.1))]
    assert sb.recv_log == [(1.0, pytest.approx(1.1), 100.0)]
    assert sb.bytes_received == 100.0
    assert len(b.mailbox("p")) == 0


@pytest.mark.parametrize("limits", RECV_LIMITS, ids=["unshaped", "shaped"])
def test_killed_parked_recv_leaves_the_message_queued(limits):
    sim = Simulator()
    net, a, b = make_pair(sim)
    sb = Sandbox(b, limits)

    def body(_incarnation):
        yield sb.recv("p")

    sup = supervise(sim, body)
    sim.schedule_callback(0.2, lambda: sup.kill("svc"))
    sim.schedule_callback(1.0, lambda: a.send("b", "p", "hello", 100.0))
    sim.run(until=5.0)
    assert [m.payload for m in b.mailbox("p").items] == ["hello"]
    assert sb.recv_log == [] and sb.bytes_received == 0.0


def test_kill_during_recv_shaping_loses_the_message_unlogged():
    sim = Simulator()
    net, a, b = make_pair(sim)
    # Receive shaping: burst 10 B at 1000 B/s, so a 500 B message that
    # arrives at 0.5 is held until 0.99.
    sb = Sandbox(b, ResourceLimits(net_bw=1000.0))
    got = []

    def body(_incarnation):
        msg = yield sb.recv("p")
        got.append(msg)

    sup = supervise(sim, body)
    a.send("b", "p", "shaped", 500.0)
    sim.schedule_callback(0.7, lambda: sup.kill("svc"))
    sim.run(until=5.0)
    assert got == []
    assert len(b.mailbox("p")) == 0
    assert sb.recv_log == [] and sb.bytes_received == 0.0
    assert net.messages_delivered == 1


def test_recv_shaping_completes_when_not_killed():
    sim = Simulator()
    net, a, b = make_pair(sim)
    sb = Sandbox(b, ResourceLimits(net_bw=1000.0))

    def app():
        msg = yield sb.recv("p")
        return msg.payload, sim.now

    a.send("b", "p", "shaped", 500.0)
    payload, when = sim.run_process(app())
    assert payload == "shaped" and when == pytest.approx(0.99)
    assert sb.recv_log == [(0.0, pytest.approx(0.99), 500.0)]
    assert sb.bytes_received == 500.0


def test_failed_link_transfer_reaches_the_awaiting_process():
    sim = Simulator()
    net, a, b = make_pair(sim)
    sb = Sandbox(a)
    caught = []

    def app():
        try:
            yield sb.send("b", "p", "doomed", size=500.0)
        except SimulationError as exc:
            caught.append((str(exc), sim.now))

    sim.process(app())
    link = net.link("a", "b")
    sim.schedule_callback(0.2, lambda: next(iter(link.share._jobs)).cancel())
    sim.run(until=5.0)
    assert caught == [("job cancelled", pytest.approx(0.2))]
    assert sb.send_log == [] and sb.bytes_sent == 0.0
    assert len(b.mailbox("p")) == 0


def test_fire_and_forget_send_still_goes_out():
    sim = Simulator()
    net, a, b = make_pair(sim)
    sb = Sandbox(a, ResourceLimits(net_bw=1000.0), mode=LimiterMode.QUANTUM)
    sb.send("b", "p", "ff", size=100.0)  # nobody awaits it
    sim.run(until=5.0)
    assert [m.payload for m in b.mailbox("p").items] == ["ff"]
    # Burst 50 B: 100 B wait 0.05 s, then drain for 0.1 s.
    assert sb.send_log == [(0.0, pytest.approx(0.15), 100.0)]
    assert sb.bytes_sent == 100.0
