"""The repository benchmark: one workload, end-to-end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload configure --seed 0 --seconds 30 --trace 0

``--trace 0`` runs set-up probes and one measuring process (see
``worker.py``) and reports the end-to-end metrics; ``--trace 1`` runs one
traced process and reports the per-layer metrics.  Every scenario run is
checked against ``reference.json`` (or same-seed replay for seeds with
no reference).  A human-readable table, a machine fingerprint line, and
finally one JSON result line go to standard output; the result, stamped
with the fingerprint, is also written to ``perfbench/out/``.

The load is generated serially: each worker process runs its scenarios
one after another, and the workers run one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Fresh-interpreter set-up probes per run, besides the measuring process.
SETUP_PROBES = 3
#: Seconds a worker may take beyond the measured time before it is killed.
WORKER_SLACK = 60.0

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: Layers whose self time is reported as a share of the traced pass wall.
SELF_FRAC_LAYERS = (
    "sim.fluid", "sim.aggregate", "sandbox", "cluster.link", "runtime.monitor",
    "runtime.history", "runtime.scheduler", "profiling.interpolate", "exec",
    "crowd", "recovery",
)

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "sim.events": "count",
    "sim.heap_pushes": "count",
    "sim.processes": "count",
    "sim.self_s": "s",
    "sim.us_per_event": "us",
    "sim.events_per_s": "1/s",
    "sim.fluid.calls": "count",
    "sim.fluid.jobs_per_call": "jobs",
    "sim.aggregate.calls": "count",
    "sandbox.sends": "count",
    "sandbox.recvs": "count",
    "sandbox.computes": "count",
    "cluster.net.sends": "count",
    "cluster.net.bytes": "B",
    "cluster.net.delivered_frac": "frac",
    "cluster.link.transfers": "count",
    "runtime.monitor.ticks": "count",
    "runtime.monitor.estimates_calls": "count",
    "runtime.history.records": "count",
    "runtime.history.mean_calls": "count",
    "runtime.scheduler.selects": "count",
    "runtime.exchange.publishes": "count",
    "runtime.steering.requests": "count",
    "runtime.steering.retry_frac": "frac",
    "profiling.cells": "count",
    "profiling.interpolate_calls": "count",
    "exec.jobs": "count",
    "exec.cache_hit_frac": "frac",
    "codecs.bytes_in": "B",
    "codecs.self_s": "s",
    "crowd.batches": "count",
    "crowd.admitted_frac": "frac",
    "recovery.restarts": "count",
    "recovery.shed_frac": "frac",
    "faults.injected": "count",
    "setup.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}
PER_LAYER.update({f"{layer}.self_frac": "frac" for layer in SELF_FRAC_LAYERS})


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def worker(args: argparse.Namespace, mode: str, env: Dict[str, str]) -> Dict[str, Any]:
    """Run one worker process to completion; its parsed JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=args.seconds + WORKER_SLACK,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(probes: List[Dict[str, Any]], main: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics from the set-up probes and measuring process.

    Set-up is the import plus the extra cost of the cold first run of
    each scenario (where all one-time work lands) over the same runs warm,
    measured in each fresh interpreter; the median is reported.  Warm run
    times are the measuring process's medians.
    """
    warm = sum(main["warm_runs"])
    runs = probes + [main]
    setups = [r["import_s"] + max(0.0, sum(r["cold_runs"]) - warm) for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "setup_s": median(setups),
        "wall_s": median(main["walls"]),
        "cpu_s": median(main["cpus"]),
        "peak_rss_mb": main["max_rss_mb"],
        "ok_frac": 1.0 - _ratio(failed, attempted),
    }


def pass_layers(snap: Dict[str, Any], wall: float, untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``snap`` from the tracer)."""
    layers, c = snap["layers"], snap["counts"]

    def self_s(layer: str) -> float:
        return layers.get(layer, [0, 0.0])[1]

    events = snap["events"]
    m = {
        "sim.events": events,
        "sim.heap_pushes": snap["pushes"],
        "sim.processes": c.get("sim.processes", 0),
        "sim.self_s": self_s("sim"),
        "sim.us_per_event": _ratio(self_s("sim") * 1e6, events),
        "sim.events_per_s": events / untraced_wall,
        "sim.fluid.calls": c.get("sim.fluid.calls", 0),
        "sim.fluid.jobs_per_call": _ratio(c.get("sim.fluid.jobs", 0),
                                          c.get("sim.fluid.calls", 0)),
        "sim.aggregate.calls": c.get("sim.aggregate.calls", 0),
        "sandbox.sends": c.get("sandbox.sends", 0),
        "sandbox.recvs": c.get("sandbox.recvs", 0),
        "sandbox.computes": c.get("sandbox.computes", 0),
        "cluster.net.sends": c.get("cluster.net.sends", 0),
        "cluster.net.bytes": c.get("cluster.net.bytes", 0),
        "cluster.net.delivered_frac": _ratio(c.get("cluster.net.delivered", 0),
                                             c.get("cluster.net.sends", 0), 1.0),
        "cluster.link.transfers": c.get("cluster.link.transfers", 0),
        "runtime.monitor.ticks": c.get("runtime.monitor.ticks", 0),
        "runtime.monitor.estimates_calls": c.get("runtime.monitor.estimates_calls", 0),
        "runtime.history.records": c.get("runtime.history.records", 0),
        "runtime.history.mean_calls": c.get("runtime.history.mean_calls", 0),
        "runtime.scheduler.selects": c.get("runtime.scheduler.selects", 0),
        "runtime.exchange.publishes": c.get("runtime.exchange.publishes", 0),
        "runtime.steering.requests": c.get("runtime.steering.requests", 0),
        "runtime.steering.retry_frac": _ratio(
            c.get("runtime.steering.attempts", 0) - c.get("runtime.steering.posts", 0),
            c.get("runtime.steering.attempts", 0)),
        "profiling.cells": c.get("profiling.cells", 0),
        "profiling.interpolate_calls": c.get("profiling.interpolate_calls", 0),
        "exec.jobs": c.get("exec.jobs", 0),
        "exec.cache_hit_frac": _ratio(c.get("exec.cache_hits", 0), c.get("exec.jobs", 0)),
        "crowd.batches": c.get("crowd.batches", 0),
        "crowd.admitted_frac": 1.0 - _ratio(c.get("crowd.shed", 0),
                                            c.get("crowd.issued", 0), 1.0),
        "recovery.restarts": c.get("recovery.restarts", 0),
        "recovery.shed_frac": _ratio(c.get("recovery.shed", 0), c.get("recovery.admits", 0)),
        "faults.injected": c.get("faults.injected", 0),
        "trace.wall_s": wall,
        "trace.unattributed_frac": self_s("scenario") / wall,
    }
    for layer in SELF_FRAC_LAYERS:
        m[f"{layer}.self_frac"] = self_s(layer) / wall
    return m


def per_layer(child: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced warm passes."""
    untraced = median(child["untraced_walls"])
    passes = [pass_layers(s, w, untraced) for s, w in zip(child["traced"], child["walls"])]
    metrics = {k: median(p[k] for p in passes) for k in passes[0]}
    cold = child["cold_trace"]
    # Codec work is one-time calibration, so it is read off the cold pass.
    metrics["codecs.bytes_in"] = cold["counts"].get("codecs.bytes_in", 0)
    metrics["codecs.self_s"] = cold["layers"].get("codecs", [0, 0.0])[1]
    metrics["setup.import_s"] = child["import_s"]
    metrics["trace.overhead_frac"] = median(child["walls"]) / untraced - 1.0
    return metrics


def layer_mix(child: Dict[str, Any]) -> Dict[str, float]:
    """Every layer's self share of the median traced pass (for the table)."""
    walls = child["walls"]
    i = sorted(range(len(walls)), key=walls.__getitem__)[len(walls) // 2]
    layers = child["traced"][i]["layers"]
    return {k: v[1] / walls[i] for k, v in sorted(layers.items(), key=lambda kv: -kv[1][1])}


def fingerprint() -> Dict[str, Any]:
    """Machine and source identity; numbers with different ones never compare."""
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 timeout=30)
            commit = git.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    return {"cpu_count": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), **versions,
            "git_commit": commit, "source_sha256": src.hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="two seeds per scenario and small crowds (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    try:
        if args.trace:
            children = [worker(args, "trace", env)]
            metrics = per_layer(children[0])
            units = PER_LAYER
        else:
            probes = [worker(args, "setup", env) for _ in range(SETUP_PROBES)]
            children = probes + [worker(args, "measure", env)]
            metrics = end_to_end(probes, children[-1])
            units = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [m for c in children for m in c["messages"] + c["distinct_problems"]]
    if any(c.get("passive") is False for c in children):
        problems.append("traced payloads differ from untraced ones")
    for c in children:
        for hook in c.get("missing_hooks", []):
            print(f"note: trace hook not found: {hook}", file=sys.stderr)
    for message in problems:
        print(f"FAILED: {message}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_frac':34s} {_ratio(failed, attempted):>16.6g} frac")
    else:
        print("  layer mix (self share of the traced pass):")
        for layer, share in layer_mix(children[0]).items():
            print(f"    {layer:32s} {share:>8.1%}")
    stamp = fingerprint()
    print("fingerprint " + json.dumps(stamp, sort_keys=True))

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "fingerprint": stamp, "seconds": args.seconds}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
