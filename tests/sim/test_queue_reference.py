"""Differential test: the kernel's event heap against a naive sorted list.

Hypothesis generates small process programs — timeouts with colliding
delays, URGENT/NORMAL priorities, ``succeed``/``fail`` of shared manual
events, nested spawns and interrupts, also of a process whose awaited
event is dispatching in the same step.  A step observer compares every
event the kernel dispatches with the head of a reference queue: a plain
list of ``(time, priority, key)`` entries re-sorted on every pop, where
``key`` is the FIFO enqueue counter, demoted by ``rank * RANK_STRIDE``
for each :class:`DemoteTiebreak` directive.  The reference is fed from an
instance shadow of ``Simulator._enqueue``, so it sees exactly what the
kernel was asked to schedule and nothing of how the heap orders it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.schedule import RANK_STRIDE, DemoteTiebreak, FifoTiebreak
from repro.sim import NORMAL, URGENT, Interrupt, Simulator

N_EVENTS = 3
N_PROCS = 8

DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])
PRIOS = st.sampled_from([URGENT, NORMAL])
LEAF_OP = st.one_of(
    st.tuples(st.just("wait"), DELAYS, PRIOS),
    st.tuples(st.just("timeout"), DELAYS, PRIOS),
    st.tuples(st.just("succeed"), st.integers(0, N_EVENTS - 1), PRIOS),
    st.tuples(st.just("fail"), st.integers(0, N_EVENTS - 1), PRIOS),
    st.tuples(st.just("await"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("interrupt"), st.integers(0, N_PROCS - 1)),
)
OP = st.one_of(
    LEAF_OP, st.tuples(st.just("spawn"), st.lists(LEAF_OP, max_size=6))
)
PROGRAMS = st.lists(st.lists(OP, max_size=8), min_size=1, max_size=4)
DIRECTIVES = st.dictionaries(st.integers(0, 40), st.integers(1, 3), max_size=6)


class ReferenceQueue:
    """Pending events in a plain list, sorted on every pop."""

    def __init__(self, directives):
        self.directives = directives
        self.pending = []
        self.enqueued = 0

    def push(self, time, priority, event):
        seq = self.enqueued
        self.enqueued += 1
        key = seq + self.directives.get(seq, 0) * RANK_STRIDE
        self.pending.append((time, priority, key, event))

    def pop(self):
        self.pending.sort(key=lambda entry: entry[:3])
        return self.pending.pop(0)


class Driver:
    """Runs generated programs as processes over shared manual events."""

    def __init__(self, sim):
        self.sim = sim
        self.events = [sim.event() for _ in range(N_EVENTS)]
        for event in self.events:
            event.defused = True  # a failure nobody awaits must not abort
        self.procs = []

    def spawn(self, script):
        proc = self.sim.process(self.body(script), name=f"p{len(self.procs)}")
        self.procs.append(proc)

    def body(self, script):
        sim = self.sim
        for op in script:
            kind = op[0]
            try:
                if kind == "wait":
                    yield sim.timeout(op[1], priority=op[2])
                elif kind == "timeout":
                    sim.timeout(op[1], priority=op[2])
                elif kind == "succeed" and not self.events[op[1]].triggered:
                    self.events[op[1]].succeed(priority=op[2])
                elif kind == "fail" and not self.events[op[1]].triggered:
                    self.events[op[1]].fail(RuntimeError("boom"), priority=op[2])
                elif kind == "await":
                    yield self.events[op[1]]
                elif kind == "interrupt" and op[1] < len(self.procs):
                    target = self.procs[op[1]]
                    # Any live process but this one: parked, not yet
                    # started, already interrupted, or due to resume on an
                    # event that is dispatching right now.
                    if target.is_alive and target is not sim.active_process:
                        target.interrupt("poke")
                elif kind == "spawn":
                    self.spawn(op[1])
            except (Interrupt, RuntimeError):
                pass


def _policy(name, directives):
    if name == "fifo":
        return FifoTiebreak()
    if name == "demote":
        return DemoteTiebreak(directives)
    return None


@pytest.mark.parametrize("policy", [None, "fifo", "demote"])
@given(programs=PROGRAMS, directives=DIRECTIVES)
@settings(max_examples=80, deadline=None)
def test_dispatch_order_matches_sorted_list_reference(policy, programs, directives):
    if policy != "demote":
        directives = {}
    sim = Simulator(tiebreak=_policy(policy, directives))
    reference = ReferenceQueue(directives)
    original = sim._enqueue

    def enqueue(event, delay, priority):
        if not event._scheduled:
            reference.push(sim.now + delay, priority, event)
        original(event, delay, priority)

    sim._enqueue = enqueue

    def observe(t, prio, seq, event):
        want_t, want_prio, want_key, want_event = reference.pop()
        assert (t, prio, seq) == (want_t, want_prio, want_key)
        assert event is want_event

    sim.observers.append(observe)
    driver = Driver(sim)
    for script in programs:
        driver.spawn(script)
    sim.run()
    assert reference.pending == []  # every enqueued event was dispatched
