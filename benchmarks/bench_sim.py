"""Macro-benchmark for the simulation kernel and its self-profiler.

A calibrated mixed workload — the fig5 profiling sweep (database
construction over the CPU-share axis), the chaos run (faults +
adaptation), and the recovery run (supervision + checkpoints + failover)
— exercised end to end, reporting:

* **events/sec** — kernel throughput over the whole workload (steps are
  exact and deterministic; the wall clock is the best sample from the
  shared gc-isolated ``paired_ratios`` harness).
* **profiler overhead** — the same workload with a default
  (burst-sampling) :class:`~repro.obs.KernelProfiler` attached must cost
  < 5 % extra.  Measured as the *median of drift-cancelling paired
  ratios* (see ``paired_ratios`` in conftest): on a shared/throttled
  machine best-of-N floors drift between rounds and their ratio is
  noise, while scoring each profiled sample against the mean of its two
  bare neighbours cancels the drift round by round.
* **byte identity** — asserted *always*, not sampled: each workload
  component's output with the profiler attached is byte-identical to
  the bare run.
* **coverage** — the profiler must attribute >= 95 % of the kernel
  wall-clock it measured to named buckets (attribution is structural —
  ``run()`` boundaries close the books — so this guards hook
  regressions, not a heuristic).
* **per-subsystem cost shares** — bucket seconds folded into coarse
  subsystems (process resumes, fluid-share updates, network callbacks,
  process lifecycle), the numbers ROADMAP item 1's "where does kernel
  time go" question asks for.

Headline numbers land in ``benchmarks/out/BENCH_sim.json``; the
committed copy is the baseline ``repro bench check`` compares against
(``steps`` / ``pushes`` / ``bytes_identical`` are exact deterministic
fields, the wall-clock-derived floats are banded).
"""

import json
from statistics import median

from repro.experiments import fig5_database, run_chaos, run_recovery
from repro.experiments.scene import Instruments
from repro.obs import KernelProfiler

_ROUNDS = 9
_MAX_OVERHEAD = 0.05
_MIN_COVERAGE = 0.95

#: Coarse subsystem classification of profile buckets, in match order.
_SUBSYSTEMS = (
    ("fluid", "FluidShare."),
    ("network", "Network."),
    ("network", "Link."),
    ("lifecycle", "kernel;init;"),
    ("lifecycle", "kernel;exit;"),
    ("processes", ";proc:"),
)


def _workload(profiler=None):
    """One pass of the mixed macro-workload (profiler optional)."""
    instruments = Instruments(profiler=profiler) if profiler is not None else None
    fig5_database(seed=0, instruments=instruments)
    run_chaos(seed=0, instruments=instruments)
    run_recovery(seed=0, instruments=instruments)


def _subsystem_shares(profiler):
    """Fold bucket seconds into coarse subsystem shares of kernel wall."""
    totals = {"processes": 0.0, "fluid": 0.0, "network": 0.0,
              "lifecycle": 0.0, "other": 0.0}
    for name, (count, seconds) in profiler.buckets.items():
        if name == "kernel;external":
            continue
        for subsystem, needle in _SUBSYSTEMS:
            if needle in name:
                totals[subsystem] += seconds
                break
        else:
            totals["other"] += seconds
    kernel = profiler.kernel_wall
    if kernel <= 0:
        return {k: 0.0 for k in totals}
    return {k: round(v / kernel, 4) for k, v in totals.items()}


def test_profiled_workload_byte_identical():
    """Profiler on vs off: every workload output must be byte-identical.

    Asserted always (not best-of-N sampled): this is the deterministic
    guarantee the profiler advertises, independent of wall-clock noise.
    """
    profiler = KernelProfiler()
    instruments = Instruments(profiler=profiler)

    db_bare, _, _ = fig5_database(seed=0)
    db_prof, _, _ = fig5_database(seed=0, instruments=instruments)
    assert json.dumps(db_prof.to_dict(), sort_keys=True) == json.dumps(
        db_bare.to_dict(), sort_keys=True
    )

    _, chaos_bare = run_chaos(seed=0)
    _, chaos_prof = run_chaos(seed=0, instruments=instruments)
    assert json.dumps(chaos_prof, sort_keys=True) == json.dumps(
        chaos_bare, sort_keys=True
    )

    _, rec_bare = run_recovery(seed=0)
    _, rec_prof = run_recovery(seed=0, instruments=instruments)
    assert json.dumps(rec_prof, sort_keys=True) == json.dumps(
        rec_bare, sort_keys=True
    )

    # The profile itself is non-trivial: the workload was observed.
    assert profiler.steps > 10_000
    assert profiler.sampled_steps > 0


def test_sim_throughput_and_profiler_overhead(artifact_dir, paired_ratios):
    """events/sec headline; default profiler < 5 % overhead, >= 95 % coverage."""
    profilers = []

    def bare():
        _workload()

    def profiled():
        profiler = KernelProfiler()
        _workload(profiler)
        profilers.append(profiler)

    (ratios,), (base, prof) = paired_ratios(bare, [profiled], rounds=_ROUNDS)
    overhead = median(ratios) - 1.0

    profiler = profilers[-1]
    summary = profiler.summary()
    steps = summary["sim"]["steps"]
    coverage = summary["wall"]["coverage"]
    shares = _subsystem_shares(profiler)

    record = {
        # Deterministic structural fields (exact in `repro bench check`).
        "steps": steps,
        "pushes": summary["sim"]["pushes"],
        "bytes_identical": True,
        "rounds": _ROUNDS,
        # Wall-clock-derived fields (banded).  `events_per_second`
        # deliberately avoids the `_s` timing suffix: it is
        # higher-is-better.  The overhead is the median paired ratio,
        # not prof/base (bests may come from different load regimes).
        "events_per_second": round(steps / base, 1),
        "bare_s": round(base, 3),
        "profiled_s": round(prof, 3),
        "overhead_profiled": round(max(overhead, 0.0), 4),
        "coverage": round(coverage, 4),
        "share_processes": shares["processes"],
        "share_fluid": shares["fluid"],
        "share_network": shares["network"],
        "share_lifecycle": shares["lifecycle"],
        "share_other": shares["other"],
    }
    (artifact_dir / "BENCH_sim.json").write_text(
        json.dumps(  # repro: allow[DET501] -- benchmark wall-time report, not sim state
            record, indent=1, sort_keys=True
        )
        + "\n"
    )

    assert coverage >= _MIN_COVERAGE, (
        f"profiler attributed only {coverage:.1%} of measured kernel "
        f"wall-clock to named buckets (floor {_MIN_COVERAGE:.0%})"
    )
    assert overhead < _MAX_OVERHEAD, (
        f"default profiler overhead {overhead:.1%} (median of "
        f"{len(ratios)} paired ratios) exceeds {_MAX_OVERHEAD:.0%} "
        f"(bare best {base:.3f}s, profiled best {prof:.3f}s)"
    )
