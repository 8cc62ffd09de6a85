"""Run and render helpers behind ``repro trace|metrics|usage|perf|diff|report|dash``.

Every renderer is a pure function of ``(experiment, seed)``: traced runs
are byte-identical to untraced ones, and the trace itself is
deterministic (see ``docs/observability.md``).  The commands themselves
are declared in :mod:`repro.cli`.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import List, Optional

from .diff import format_key
from .export import ordered
from .query import adaptation_chains, dwell_times
from .record import TraceRecorder
from .usage import UsageAccountant

__all__ = [
    "dash_traced_cell",
    "fig5_sweep_cells",
    "metrics_csv",
    "render_diff",
    "render_metrics",
    "render_perf",
    "render_timeline",
    "render_usage",
    "run",
    "traced_run",
    "write_or_print",
]


def run(experiment: str, seed: int, **instruments) -> object:
    """Run a registered scenario under the given instruments."""
    from ..experiments.scene import SCENARIOS, Instruments

    return SCENARIOS[experiment].execute(seed, Instruments(**instruments))


def _record_line(record) -> str:
    if record.kind == "span" and record.t1 is not None:
        when = f"{record.t0:10.4f} +{record.duration:<8.4f}"
    else:
        when = f"{record.t0:10.4f}  {'':8s}"
    parent = f" <-#{record.parent}" if record.parent is not None else ""
    attrs = ""
    if record.attrs:
        attrs = " " + " ".join(
            f"{k}={v}" for k, v in sorted(record.attrs.items())
        )
    proc = f" [{record.proc}]" if record.proc else ""
    return f"{when} #{record.sid}{parent} {record.cat}/{record.name}{proc}{attrs}"


def render_timeline(recorder: TraceRecorder, limit: Optional[int]) -> str:
    lines = []
    records = ordered(recorder.records)
    shown = records if limit is None else records[:limit]
    lines.append(f"== trace: {len(records)} records ==")
    for record in shown:
        lines.append(_record_line(record))
    if limit is not None and len(records) > limit:
        lines.append(f"... {len(records) - limit} more (use --limit 0 for all)")
    chains = adaptation_chains(recorder.records)
    lines.append(f"== adaptation chains: {len(chains)} ==")
    for chain_records in chains:
        steps = " -> ".join(
            f"{r.name}@{r.t0:.3f}" for r in chain_records if r.cat != "sim"
        )
        lines.append(f"  {steps}")
    dwell = dwell_times(recorder.records)
    if dwell:
        lines.append("== configuration dwell times ==")
        for label, total in dwell.items():
            lines.append(f"  {label}: {total:.3f}s")
    return "\n".join(lines)


def render_metrics(recorder: TraceRecorder) -> str:
    lines = [f"== metrics: {len(recorder.metrics)} ==\n"]
    for name, payload in recorder.metrics.snapshot().items():
        kind = payload["kind"]
        if kind == "counter":
            lines.append(f"  {name:36s} counter   {payload['value']:g}")
        elif kind == "gauge":
            lines.append(
                f"  {name:36s} gauge     {payload['value']} "
                f"({payload['updates']} updates)"
            )
        elif kind == "histogram":
            lines.append(
                f"  {name:36s} histogram n={payload['count']} "
                f"mean={payload['mean']} min={payload['min']} "
                f"max={payload['max']}"
            )
            edges = payload["edges"]
            labels = [f"<={e:g}" for e in edges] + [f">{edges[-1]:g}"]
            buckets = " ".join(
                f"{label}:{count}"
                for label, count in zip(labels, payload["counts"])
            )
            lines.append(f"  {'':36s}           {buckets}")
        else:
            lines.append(
                f"  {name:36s} series    {len(payload['samples'])} samples"
            )
    return "\n".join(lines)


def metrics_csv(snapshot: dict) -> str:
    """Long-format CSV with a fixed, deterministic column and row order.

    Columns are always ``name,kind,field,t,value``; rows are ordered by
    metric name (sorted), then by a fixed per-kind field order, then by
    sample index — so two identical snapshots produce identical bytes.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "kind", "field", "t", "value"])
    for name in sorted(snapshot):
        payload = snapshot[name]
        kind = payload["kind"]
        if kind == "counter":
            writer.writerow([name, kind, "value", "", payload["value"]])
        elif kind == "gauge":
            writer.writerow([name, kind, "value", "", payload["value"]])
            writer.writerow([name, kind, "updates", "", payload["updates"]])
        elif kind == "histogram":
            for field in ("count", "total", "min", "max", "mean"):
                writer.writerow([name, kind, field, "", payload[field]])
            edges = payload["edges"]
            labels = [f"le_{e:g}" for e in edges] + ["overflow"]
            for label, count in zip(labels, payload["counts"]):
                writer.writerow([name, kind, label, "", count])
        else:  # series
            for t, value in payload["samples"]:
                writer.writerow([name, kind, "sample", repr(t), value])
    return buf.getvalue().rstrip("\n")


def render_usage(usage: UsageAccountant) -> str:
    s = usage.summary()
    lines = [
        f"== usage account: {len(s['resources'])} resources, "
        f"{len(s['memory'])} memories, {s['elapsed']:.3f}s =="
    ]
    for name, res in s["resources"].items():
        lines.append(
            f"  {name:24s} {res['kind']:5s} util={100 * res['utilization']:6.2f}%  "
            f"served={res['served']:.6g}  capacity={res['capacity']:.6g}"
        )
        for owner, amount in res["by_owner"].items():
            lines.append(f"    {'by process':22s} {owner}: {amount:.6g}")
        for config, amount in res["by_config"].items():
            lines.append(f"    {'by configuration':22s} {config}: {amount:.6g}")
    for name, mem in s["memory"].items():
        lines.append(
            f"  {name:24s} mem   faults={mem['faults']}  "
            f"peak_resident={mem['peak_resident_pages']}/{mem['total_pages']}"
        )
        for config, faults in mem["faults_by_config"].items():
            lines.append(f"    {'faults by config':22s} {config}: {faults}")
    if s["config_marks"]:
        lines.append("  -- configuration attribution marks --")
        for t, label in s["config_marks"]:
            lines.append(f"    t={t:10.4f}  {label}")
    return "\n".join(lines)


def render_perf(profiler, experiment: str, seed: int) -> str:
    s = profiler.summary()
    sim, wall = s["sim"], s["wall"]
    lines = [
        f"== kernel profile: {experiment} (seed {seed}) ==",
        f"  steps={sim['steps']}  pushes={sim['pushes']}  "
        f"max_heap={sim['max_heap']}",
        f"  sampling: {sim['sampling']['mode']} "
        f"({sim['sampling']['sampled_steps']}/{sim['steps']} steps observed)",
        "  event mix: " + "  ".join(
            f"{kind}:{n}" for kind, n in sim["event_mix"].items()
        ),
        f"  tie windows: {sim['ties']['windows']} "
        f"({sim['ties']['tied_events']} tied events, "
        f"max window {sim['ties']['max_window']})",
    ]
    fluid = sim["fluid"]
    if fluid["shares"]:
        lines.append(
            f"  fluid: {fluid['updates']} updates, "
            f"{fluid['reschedules']} reschedules, "
            f"fan-out sum {fluid['fanout_sum']} "
            f"(max {fluid['fanout_max']} flows/update)"
        )
        for name, entry in fluid["shares"].items():
            mutations = "  ".join(
                f"{kind}:{entry[kind]}"
                for kind in ("submit", "cancel", "set_speed", "set_weight", "set_cap")
                if entry[kind]
            )
            lines.append(f"    {name}: {mutations or 'no mutations'}")
    lines.append(
        f"  wall: {wall['total_s']:.4f}s attributed over "
        f"{len(wall['buckets'])} buckets "
        f"(coverage {100 * wall['coverage']:.1f}%)"
    )
    ranked = sorted(
        wall["buckets"].items(), key=lambda kv: (-kv[1]["seconds"], kv[0])
    )
    for name, bucket in ranked[:20]:
        lines.append(
            f"    {100 * bucket['share']:5.1f}%  {bucket['seconds']:9.6f}s  "
            f"x{bucket['count']:<7d} {name}"
        )
    if len(ranked) > 20:
        lines.append(f"    ... {len(ranked) - 20} more buckets (use --json)")
    return "\n".join(lines)


def render_diff(result, metrics_delta: Optional[dict]) -> str:
    lines = []
    if result.identical and (metrics_delta is None or metrics_delta["identical"]):
        lines.append(
            f"== traces are structurally identical "
            f"({result.matched} spans matched) =="
        )
    else:
        lines.append(
            f"== {result.divergences} divergence(s): "
            f"{result.matched} matched, {len(result.changed)} changed, "
            f"{len(result.only_a)} only-in-A, {len(result.only_b)} only-in-B =="
        )
    divergence = result.first_divergence
    if divergence is not None:
        lines.append(
            f"first divergence ({divergence.kind}, side {divergence.side}) "
            f"at t={divergence.record.t0:.4f}:"
        )
        lines.append(f"  key: {format_key(divergence.key)}")
        lines.append("  causal chain (root first):")
        for record in divergence.causal_chain:
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(record.attrs.items())
            )
            lines.append(f"    {record.name}@{record.t0:.4f} {attrs}".rstrip())
        if divergence.other is not None:
            lines.append(
                f"  counterpart in B: {divergence.other.name}"
                f"@{divergence.other.t0:.4f}"
            )
    if metrics_delta is not None and not metrics_delta["identical"]:
        lines.append(
            f"metric deltas: {len(metrics_delta['changed'])} changed, "
            f"{len(metrics_delta['only_a'])} only-in-A, "
            f"{len(metrics_delta['only_b'])} only-in-B"
        )
        for name, entry in metrics_delta["changed"].items():
            if "delta" in entry and entry["delta"] is not None:
                lines.append(
                    f"  {name}: {entry['a']} -> {entry['b']} "
                    f"(delta {entry['delta']:+g})"
                )
            else:
                lines.append(f"  {name}: changed ({entry['kind']})")
    return "\n".join(lines)


def write_or_print(text: str, out: Optional[Path]) -> None:
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + ("" if text.endswith("\n") else "\n"))
        print(f"wrote {out}")
    else:
        print(text)


def traced_run(experiment: str, seed: int, with_usage: bool, profiler=None):
    """Run one experiment traced (and optionally usage-accounted)."""
    recorder = TraceRecorder()
    usage = None
    if with_usage:
        # Share the recorder's registry so usage.* series appear in the
        # metrics snapshot (and therefore in reports and CSV exports).
        usage = UsageAccountant(metrics=recorder.metrics)
    run(experiment, seed, recorder=recorder, usage=usage, profiler=profiler)
    return recorder, usage


#: The built-in ``fig5-sweep`` source: a 2x2 (cpu share x fovea size)
#: grid of Experiment-3 profiling cells run through the exec engine.
_FIG5_SWEEP_SHARES = (0.4, 0.9)
_FIG5_SWEEP_FOVEAS = (80, 160)


def dash_traced_cell(source: str, seed: int):
    from .dash import dashboard_cell_from_run

    recorder = TraceRecorder()
    usage = UsageAccountant(metrics=recorder.metrics)
    _fig, payload = run(source, seed, recorder=recorder, usage=usage)
    return dashboard_cell_from_run(
        f"{source}@seed={seed}", recorder, usage=usage, payload=payload,
        group=source, seed=seed,
    )


def fig5_sweep_cells(seed: int, cache: Path, jobs: int) -> List[dict]:
    """The 2x2 fig5 sweep as result-store cells (cache-backed, parallel)."""
    from ..exec import AppSpec, JobSpec, ResultStore, SweepEngine
    from ..exec.profile_jobs import app_spec_payload
    from ..experiments.fig5 import EXP3_BW
    from .dash import dashboard_cell

    app_spec = AppSpec(
        "repro.apps.visualization:make_viz_app",
        workload="repro.experiments.fig5:exp3_workload",
        workload_kwargs={"n_images": 2},
    )
    labels, specs = [], []
    for share in _FIG5_SWEEP_SHARES:
        for fovea in _FIG5_SWEEP_FOVEAS:
            payload = app_spec_payload(
                app_spec,
                config={"dR": fovea, "c": "lzw", "l": 4},
                point={"client.cpu": share, "client.network": EXP3_BW},
                mode="ideal",
                max_run_time=3600.0,
            )
            payload["with_usage"] = True
            labels.append(f"fig5 dR={fovea} cpu={share:g} seed={seed}")
            specs.append(
                JobSpec(
                    kind="repro.exec.profile_jobs:measure_cell",
                    payload=payload, seed=seed,
                    key=f"cpu={share:g}/dR={fovea}",
                )
            )
    engine = SweepEngine(jobs=jobs, store=ResultStore(cache))
    report = engine.run(specs)
    return [
        dashboard_cell(
            label, group="fig5-sweep",
            payload=report.value(spec.key),
            usage=next(
                (r.usage for r in report.outcomes if r.key == spec.key), None
            ),
            seed=seed,
        )
        for label, spec in zip(labels, specs)
    ]
