"""Dynamic tie-order race detector tests.

The canonical positive case: two independent processes touch the same
Store at the same virtual timestamp with no causal path between them, so
their relative order exists only because one event was pushed onto the
heap first.  The detector must flag it — deterministically, with the same
report on every run.
"""

from repro.analysis.races import RaceDetector
from repro.sim import NORMAL, Simulator, Store, URGENT


def _racy_run():
    """Two unrelated writers hit one store at t=1.0; returns the reports."""
    sim = Simulator()
    store = Store(sim)
    detector = RaceDetector(sim).attach()
    detector.watch_store(store, "shared")

    def writer(value):
        yield sim.timeout(1.0)
        store.put(value)

    sim.process(writer("a"), name="first")
    sim.process(writer("b"), name="second")
    sim.run()
    reports = detector.finish()
    detector.detach()
    return reports


def test_same_timestamp_store_conflict_is_flagged():
    reports = _racy_run()
    assert len(reports) == 1
    report = reports[0]
    assert report.label == "shared"
    assert report.time == 1.0
    assert report.first.context != report.second.context
    assert "FIFO" in report.message()


def test_report_is_deterministic_across_runs():
    first = [r.to_dict() for r in _racy_run()]
    second = [r.to_dict() for r in _racy_run()]
    assert first == second


def test_different_timestamps_do_not_race():
    sim = Simulator()
    store = Store(sim)
    detector = RaceDetector(sim).attach()
    detector.watch_store(store, "shared")

    def writer(value, at):
        yield sim.timeout(at)
        store.put(value)

    sim.process(writer("a", 1.0))
    sim.process(writer("b", 2.0))
    sim.run()
    assert detector.finish() == []


def test_same_process_does_not_race_with_itself():
    sim = Simulator()
    store = Store(sim)
    detector = RaceDetector(sim).attach()
    detector.watch_store(store, "shared")

    def writer():
        yield sim.timeout(1.0)
        store.put("a")
        store.put("b")

    sim.process(writer())
    sim.run()
    assert detector.finish() == []


def test_put_wakes_receiver_is_causal_not_racy():
    # The classic chain: a parked get resumes *because of* the put, at the
    # same timestamp.  That order is causal (happens-before), not a tie.
    sim = Simulator()
    store = Store(sim)
    detector = RaceDetector(sim).attach()
    detector.watch_store(store, "shared")
    received = []

    def receiver():
        item = yield store.get()
        received.append(item)

    def sender():
        yield sim.timeout(1.0)
        store.put("msg")

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert received == ["msg"]
    assert detector.finish() == []


def test_priority_separated_accesses_are_not_a_tie():
    # URGENT-before-NORMAL at one timestamp is semantic ordering, not a
    # FIFO accident, so it must not be reported.
    sim = Simulator()
    store = Store(sim)
    detector = RaceDetector(sim).attach()
    detector.watch_store(store, "shared")

    def writer(value, priority):
        yield sim.timeout(1.0, priority=priority)
        store.put(value)

    sim.process(writer("urgent", URGENT))
    sim.process(writer("normal", NORMAL))
    sim.run()
    assert detector.finish() == []


def test_watch_mapping_flags_read_write_tie():
    sim = Simulator()

    class Table:
        def __init__(self):
            self.entries = {}

    table = Table()
    detector = RaceDetector(sim).attach()
    detector.watch_mapping(table, "entries", "table.entries")

    def writer():
        yield sim.timeout(1.0)
        table.entries["k"] = 1

    def reader(out):
        yield sim.timeout(1.0)
        out.append(table.entries.get("k"))

    seen = []
    sim.process(writer(), name="writer")
    sim.process(reader(seen), name="reader")
    sim.run()
    reports = detector.finish()
    assert [r.label for r in reports] == ["table.entries"]
    assert {reports[0].first.op, reports[0].second.op} == {"read", "write"}


def test_watch_mapping_read_read_is_not_a_race():
    sim = Simulator()

    class Table:
        def __init__(self):
            self.entries = {"k": 1}

    table = Table()
    detector = RaceDetector(sim).attach()
    detector.watch_mapping(table, "entries", "table.entries")

    def reader(out):
        yield sim.timeout(1.0)
        out.append(table.entries.get("k"))

    seen = []
    sim.process(reader(seen))
    sim.process(reader(seen))
    sim.run()
    assert seen == [1, 1]
    assert detector.finish() == []


def test_setup_accesses_never_race():
    sim = Simulator()
    store = Store(sim)
    detector = RaceDetector(sim).attach()
    detector.watch_store(store, "shared")
    store.put("preloaded")  # before run(): no executing step, cannot race

    def consumer(out):
        yield sim.timeout(1.0)
        out.append(store.try_get())

    got = []
    sim.process(consumer(got))
    sim.run()
    assert got == ["preloaded"]
    assert detector.finish() == []


def test_detach_restores_simulator_hooks():
    sim = Simulator()
    detector = RaceDetector(sim).attach()
    assert sim.observers == [detector._on_step]
    assert "_enqueue" in sim.__dict__  # instrumented shadow installed
    detector.detach()
    assert sim.observers == []
    assert "_enqueue" not in sim.__dict__  # class method restored
    assert sim._enqueue.__func__ is Simulator._enqueue
