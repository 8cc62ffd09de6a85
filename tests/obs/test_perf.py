"""Kernel self-profiler tests: byte-invisibility, sampling arithmetic,
bucket attribution, exporters, and the ``repro perf`` CLI.

The profiler's headline guarantee is the *determinism split*: attaching
it must not change a single byte of simulation output, its virtual-time
telemetry (step/push counts, tie census, bucket event counts) must be a
pure function of the seeded run, and only the wall-clock seconds vary
host to host.  The wall-clock tests here use an injected fake clock so
they are exact, not statistical.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import fig5_database, run_chaos, run_recovery
from repro.experiments.scene import Instruments
from repro.obs import KernelProfiler, ObsError, to_chrome_profile, to_folded
from repro.sim import Simulator


class FakeClock:
    """Deterministic host clock: each read advances by ``tick``."""

    def __init__(self, tick=0.0001):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        self.t += self.tick
        return self.t

    def advance(self, dt):
        self.t += dt


def spin(sim, n, name=""):
    def proc():
        for _ in range(n):
            yield sim.timeout(1.0)

    return sim.process(proc(), name=name)


# -- byte-invisibility ------------------------------------------------------


def test_fig5_byte_identical_with_profiler():
    db_bare, _, _ = fig5_database(seed=0)
    db_prof, _, _ = fig5_database(
        seed=0, instruments=Instruments(profiler=KernelProfiler())
    )
    assert json.dumps(db_prof.to_dict(), sort_keys=True) == json.dumps(
        db_bare.to_dict(), sort_keys=True
    )


def test_chaos_byte_identical_with_profiler():
    _, bare = run_chaos(seed=0)
    _, prof = run_chaos(
        seed=0, instruments=Instruments(profiler=KernelProfiler(full=True))
    )
    assert json.dumps(prof, sort_keys=True) == json.dumps(bare, sort_keys=True)


def test_recovery_byte_identical_with_profiler():
    _, bare = run_recovery(seed=0)
    _, prof = run_recovery(
        seed=0, instruments=Instruments(profiler=KernelProfiler())
    )
    assert json.dumps(prof, sort_keys=True) == json.dumps(bare, sort_keys=True)


def test_profile_deterministic_modulo_wall_clock():
    """Same seed, two runs: everything but the seconds is identical."""
    summaries, foldeds = [], []
    for _ in range(2):
        profiler = KernelProfiler(full=True)
        run_chaos(seed=0, instruments=Instruments(profiler=profiler))
        summaries.append(profiler.summary())
        foldeds.append(to_folded(profiler))
    a, b = summaries
    assert a["sim"] == b["sim"]  # steps, pushes, ties, mix, fluid: exact
    assert {
        name: bucket["count"] for name, bucket in a["wall"]["buckets"].items()
    } == {
        name: bucket["count"] for name, bucket in b["wall"]["buckets"].items()
    }
    # Folded output: the stacks (all but the trailing value) are stable.
    stacks = [
        [line.rsplit(" ", 1)[0] for line in folded.splitlines()]
        for folded in foldeds
    ]
    assert stacks[0] == stacks[1]
    assert stacks[0] == sorted(stacks[0])


# -- sampling arithmetic ----------------------------------------------------


def test_steps_and_pushes_exact_in_every_mode():
    def counts(**kw):
        sim = Simulator()
        spin(sim, 100, name="a")
        spin(sim, 57, name="b")
        profiler = KernelProfiler(clock=FakeClock(), **kw)
        profiler.attach(sim)
        sim.run()
        profiler.detach()
        return profiler.steps, profiler.pushes

    expected = counts(full=True)
    assert expected[0] > 150
    assert counts(burst=2, cycle=4) == expected
    assert counts(burst=2, cycle=3) == expected
    assert counts(burst=16, cycle=1000) == expected  # ends mid-off-phase


def test_steps_survive_detach_mid_off_phase():
    """A detach inside an off phase must not corrupt the arithmetic."""
    profiler = KernelProfiler(clock=FakeClock(), burst=2, cycle=50)
    total = 0
    for n in (30, 41, 7):  # each run ends mid-off-phase
        sim = Simulator()
        profiler.attach(sim)  # before spin: the init push counts too
        spin(sim, n)
        sim.run()
        profiler.detach()
        total += n + 2  # n timeouts + init + exit
    assert profiler.steps == total
    assert profiler.pushes == total
    assert profiler.attaches == 3


def test_pushes_count_events_left_in_heap():
    sim = Simulator()
    profiler = KernelProfiler(clock=FakeClock(), full=True)
    profiler.attach(sim)
    spin(sim, 5)
    spin(sim, 5)
    sim.run(until=2.5)  # stop mid-run: later timeouts still queued
    assert profiler.pushes > profiler.steps
    live = profiler.pushes
    profiler.detach()
    assert profiler.pushes == live  # folding at detach changes nothing


# -- attribution ------------------------------------------------------------


def test_bucket_names_cover_process_lifecycle_and_callbacks():
    sim = Simulator()
    spin(sim, 3, name="worker")

    fired = []

    def on_tick():
        fired.append(sim.now)

    sim.schedule_callback(1.5, on_tick)
    sim.timeout(2.5)  # scheduled, never waited on

    profiler = KernelProfiler(clock=FakeClock(), full=True)
    profiler.attach(sim)
    sim.run()
    profiler.detach()

    names = set(profiler.buckets)
    assert "kernel;init;proc:worker" in names
    assert "kernel;Timeout;proc:worker" in names
    assert "kernel;exit;proc:worker" in names
    assert any(
        name.startswith("kernel;Timeout;call:") and "on_tick" in name
        for name in names
    )
    assert "kernel;Timeout;unwaited" in names
    assert fired == [1.5]

    mix = profiler.event_mix
    assert mix["init"] == 1
    assert mix["exit"] == 1
    assert mix["Timeout"] == 3 + 1 + 1  # resumes + callback + unwaited


def test_wall_attribution_with_fake_clock_is_exact():
    clock = FakeClock(tick=0.001)
    sim = Simulator()
    spin(sim, 10, name="w")
    profiler = KernelProfiler(clock=clock, full=True)
    profiler.attach(sim)
    sim.run()
    profiler.detach()
    # One clock read per observed step + one closing read: every tick of
    # host time lands in a named bucket, none is lost or double-counted.
    total_counts = sum(acc[0] for acc in profiler.buckets.values())
    assert total_counts == profiler.steps
    assert profiler.total_wall == pytest.approx(profiler.steps * clock.tick)
    assert profiler.coverage == 1.0
    assert "kernel;external" not in profiler.buckets


def test_run_pause_keeps_host_time_between_runs_out_of_buckets():
    clock = FakeClock(tick=0.0001)
    sim = Simulator()
    spin(sim, 5, name="w")
    profiler = KernelProfiler(clock=clock, full=True)
    profiler.attach(sim)
    sim.run()
    clock.advance(10.0)  # host-side work between run segments
    spin(sim, 5, name="w")
    sim.run()
    profiler.detach()
    assert profiler.total_wall < 1.0  # the 10 s never reached a bucket
    assert profiler.coverage == 1.0


def test_tie_census_counts_same_instant_windows():
    sim = Simulator()

    def waiter():
        yield sim.timeout(1.0)

    for _ in range(3):  # three resumes at t=1.0, same priority
        sim.process(waiter())
    profiler = KernelProfiler(clock=FakeClock(), full=True)
    profiler.attach(sim)
    sim.run()
    profiler.detach()
    summary = profiler.summary()
    ties = summary["sim"]["ties"]
    assert ties["max_window"] >= 3
    assert ties["windows"] >= 1
    assert sum(ties["census"].values()) == ties["windows"]


def test_fluid_telemetry_aggregates_per_share():
    profiler = KernelProfiler(clock=FakeClock())
    profiler.fluid_event("cpu", "submit")
    profiler.fluid_event("cpu", "set_speed")
    profiler.fluid_reschedule("cpu", fanout=3)
    profiler.fluid_reschedule("net", fanout=7)
    fluid = profiler.summary()["sim"]["fluid"]
    assert fluid["updates"] == 2
    assert fluid["reschedules"] == 2
    assert fluid["fanout_sum"] == 10
    assert fluid["fanout_max"] == 7
    assert set(fluid["shares"]) == {"cpu", "net"}


def test_chaos_fluid_updates_observed():
    profiler = KernelProfiler()
    run_chaos(seed=0, instruments=Instruments(profiler=profiler))
    fluid = profiler.summary()["sim"]["fluid"]
    assert fluid["updates"] > 0
    assert fluid["reschedules"] > 0
    assert fluid["fanout_max"] >= 1


# -- lifecycle errors -------------------------------------------------------


def test_attach_twice_raises():
    sim = Simulator()
    profiler = KernelProfiler(clock=FakeClock())
    profiler.attach(sim)
    with pytest.raises(ObsError):
        profiler.attach(Simulator())
    with pytest.raises(ObsError):
        KernelProfiler(clock=FakeClock()).attach(sim)
    profiler.detach()
    assert sim.perf is None


def test_detach_without_attach_is_noop():
    profiler = KernelProfiler(clock=FakeClock())
    assert profiler.detach() is profiler


def test_bad_sampling_schedule_rejected():
    with pytest.raises(ObsError):
        KernelProfiler(burst=1, cycle=64)
    with pytest.raises(ObsError):
        KernelProfiler(burst=64, cycle=64)


# -- exporters --------------------------------------------------------------


def profiled_sim():
    sim = Simulator()
    spin(sim, 20, name="w")
    profiler = KernelProfiler(clock=FakeClock(tick=0.001), full=True)
    profiler.attach(sim)
    sim.run()
    profiler.detach()
    return profiler


def test_to_folded_integer_microseconds():
    folded = to_folded(profiled_sim())
    for line in folded.splitlines():
        stack, value = line.rsplit(" ", 1)
        assert stack.startswith("kernel;")
        assert int(value) >= 0
    assert any(";proc:w " in line for line in folded.splitlines())


def test_to_chrome_profile_tiles_buckets_end_to_end():
    payload = to_chrome_profile(profiled_sim())
    events = payload["traceEvents"]
    assert events
    cursor = 0
    durations = []
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] == cursor
        cursor += event["dur"]
        durations.append(event["dur"])
    assert durations == sorted(durations, reverse=True)
    assert payload["otherData"]["coverage"] == 1.0


# -- the repro perf CLI -----------------------------------------------------


def test_perf_cli_human_rendering(capsys):
    assert main(["perf", "chaos"]) == 0
    out = capsys.readouterr().out
    assert "kernel profile" in out
    assert "sampling: full" in out
    assert "coverage" in out


def test_perf_cli_flame_attributes_kernel_wall(tmp_path):
    out_file = tmp_path / "chaos.folded"
    assert main(["perf", "chaos", "--flame", "--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert lines
    named_us = 0
    for line in lines:
        stack, value = line.rsplit(" ", 1)
        assert stack.startswith("kernel;")
        if stack != "kernel;external":
            named_us += int(value)
    assert named_us > 0
    assert any(stack.startswith("kernel;FluidShare") or ";call:" in stack
               for stack in (line.rsplit(" ", 1)[0] for line in lines))


def test_perf_cli_json_summary(tmp_path):
    out_file = tmp_path / "perf.json"
    assert main(
        ["perf", "recovery", "--json", "--out", str(out_file)]
    ) == 0
    payload = json.loads(out_file.read_text())
    assert payload["experiment"] == "recovery"
    perf = payload["perf"]
    assert perf["sim"]["steps"] > 0
    assert perf["sim"]["sampling"]["mode"] == "full"
    # The acceptance bar: >= 95 % of measured kernel wall-clock is
    # attributed to named buckets.
    assert perf["wall"]["coverage"] >= 0.95


def test_perf_cli_chrome_output(tmp_path):
    out_file = tmp_path / "perf.chrome.json"
    assert main(["perf", "fig5", "--chrome", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["traceEvents"]
    assert all(e["ph"] == "X" for e in payload["traceEvents"])
