"""One benchmark process: a fresh interpreter that runs a workload.

Modes:

* ``setup``   — time the import and the cold first-seed runs (the first
  run of each scenario, which pays the one-time work);
* ``measure`` — time the import and a cold pass, then warm passes until
  ``--seconds`` have elapsed (untraced; the end-to-end numbers);
* ``trace``   — a traced cold pass, untraced warm passes for half of
  ``--seconds``, then traced warm passes for the other half.

Every scenario run of every pass is checked (``workloads.Checker``).  The
garbage collector stays in its default state inside passes and is run
between them, outside the timed region.  The process prints one JSON
object as the last line of its standard output.
"""

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import TINY_USERS, WORKLOADS, Checker, load_reference, make_runner, plan  # noqa: E402

#: Fewest warm passes per timed phase, whatever ``--seconds`` says.
MIN_PASSES = 3
OUT_DIR = Path(__file__).resolve().parent / "out"


def run_pass(run, runs, checker, tracer=None, tag=""):
    """One pass over ``runs``.

    Returns (host wall s, process CPU s, host seconds of each run).
    """
    gc.collect()
    results, times = [], []
    w0, c0 = perf_counter(), process_time()
    for name, seed in runs:
        t = perf_counter()
        try:
            if tracer is None:
                raw = run(name, seed)
            else:
                raw = tracer.run_scenario(f"{name}@{seed}", run, name, seed)
            error = None
        except Exception as exc:  # a failed run is counted, not fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - t)
        results.append((name, seed, raw, error))
    wall, cpu = perf_counter() - w0, process_time() - c0
    for name, seed, raw, error in results:
        checker.check(name, seed, raw, error, tag=tag)
    return wall, cpu, times


def timed_passes(run, runs, checker, seconds, tracer=None, tag=""):
    """Warm passes until ``seconds`` elapse (at least MIN_PASSES).

    Returns per-pass walls, CPU times and tracer snapshots, and each
    run's median host seconds.
    """
    walls, cpus, snaps, times = [], [], [], []
    deadline = perf_counter() + seconds
    while len(walls) < MIN_PASSES or perf_counter() < deadline:
        if tracer is not None:
            tracer.start_pass()
        wall, cpu, run_times = run_pass(run, runs, checker, tracer, tag)
        walls.append(wall)
        cpus.append(cpu)
        times.append(run_times)
        if tracer is not None:
            snaps.append(tracer.snapshot())
    return walls, cpus, snaps, [median(col) for col in zip(*times)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    # The import of the entry points is the first part of set-up.
    t0 = perf_counter()
    import repro.exec  # noqa: F401
    import repro.experiments  # noqa: F401
    import_s = perf_counter() - t0

    reference = load_reference()
    if args.tiny:
        reference = {k: v for k, v in reference.items() if k not in TINY_USERS}
    checker = Checker(reference)
    run = make_runner(tiny=args.tiny)
    runs = plan(args.workload, args.seed, tiny=args.tiny)
    out = {"mode": args.mode, "import_s": import_s}

    # The first run of each scenario pays the one-time work.
    first_runs = len(WORKLOADS[args.workload][0])
    if args.mode == "setup":
        _, _, out["cold_runs"] = run_pass(run, runs[:first_runs], checker)
    elif args.mode == "measure":
        _, _, cold = run_pass(run, runs, checker)
        out["cold_runs"] = cold[:first_runs]
        out["walls"], out["cpus"], _, warm = timed_passes(run, runs, checker, args.seconds)
        out["warm_runs"] = warm[:first_runs]
    else:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.start_pass()
        run_pass(run, runs, checker, tracer, tag="traced")
        out["cold_trace"] = tracer.snapshot()
        tracer.uninstall()
        half = args.seconds / 2
        out["untraced_walls"], _, _, _ = timed_passes(
            run, runs, checker, half, tag="untraced")
        tracer.install()
        out["walls"], _, out["traced"], _ = timed_passes(
            run, runs, checker, half, tracer, tag="traced")
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write_spans(spans_file, {"workload": args.workload, "seed": args.seed,
                                        "wall_s": out["walls"][-1]})
        tracer.uninstall()
        out["spans_file"] = str(spans_file.relative_to(OUT_DIR.parent.parent))
        out["missing_hooks"] = sorted(tracer.missing)
        traced, untraced = checker.tagged.get("traced", {}), checker.tagged.get("untraced", {})
        out["passive"] = traced == untraced

    out["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["attempted"] = checker.attempted
    out["failed"] = checker.failed
    out["messages"] = checker.messages
    out["distinct_problems"] = checker.distinct_seeds()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
