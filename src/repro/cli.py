"""The ``repro`` command line: one table for every command of the pipeline.

Figures and tables (the default form; targets and aliases in ``FIGURES``)::

    python -m repro.cli list                 # canonical targets
    python -m repro.cli fig3a fig6a
    python -m repro.cli exp1                 # alias for fig7a
    python -m repro.cli all --out results/
    python -m repro.cli all --jobs 4         # parallel cells + result cache

Runs of a registered scenario (``repro.experiments.scene.SCENARIOS``)::

    python -m repro.cli trace chaos          # timeline + causal chains
    python -m repro.cli trace chaos --chrome # chrome://tracing JSON
    python -m repro.cli metrics chaos --format csv
    python -m repro.cli usage chaos          # who consumed what
    python -m repro.cli perf chaos --flame   # kernel cost buckets, folded
    python -m repro.cli diff chaos chaos --seed-b 1   # first divergence
    python -m repro.cli diff a.jsonl b.jsonl          # two trace exports
    python -m repro.cli report chaos --out report.html
    python -m repro.cli report chaos --compare chaos --seed-b 1
    python -m repro.cli dash fig5-sweep chaos recovery --out fleet.html

The sweep engine, the analysis passes and the benchmark gate::

    python -m repro.cli sweep toy --jobs 4   # profile a grid, cached
    python -m repro.cli lint --json          # determinism/sim-protocol linter
    python -m repro.cli check flow           # interprocedural dataflow linter
    python -m repro.cli check explore chaos  # schedule-invariance check
    python -m repro.cli bench check          # benchmarks vs committed baselines

Everything printed is a pure function of the command and its seed; a
sweep reuses cached cells until the source tree, the spec or the seed
changes (``docs/parallel.md``).  Exit codes: 0 success (clean,
certified, identical); 1 findings, a divergence, a stale baseline entry
or a blocking regression; 2 a usage error.  An exploration that hits
its budget without a divergence exits 0 with an "inconclusive" note.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from .analysis import bench
from .analysis.dataflow import DATAFLOW_RULES, flow_paths
from .analysis.explore import ScheduleExplorer, builtin_scenarios
from .analysis.lint import ALL_RULES, BASELINE_NAME, lint_paths, write_baseline
from .apps import make_toy_app
from .apps.visualization import make_viz_app
from .exec import AppSpec, ResultStore, SweepEngine, set_default_engine
from .experiments import (
    FigureResult,
    hysteresis_ablation,
    isolation_ablation,
    limiter_mode_ablation,
    run_experiment1,
    run_experiment2,
    run_experiment3,
    run_fig3a,
    run_fig3b,
    run_fig4a,
    run_fig4b,
    run_chaos,
    run_crowd_figure,
    run_recovery,
    run_fig5,
    run_fig6a,
    run_fig6b,
    sampling_strategy_ablation,
    scheduler_interpolation_ablation,
)
from .experiments.fig6 import exp1_workload
from .experiments.scene import SCENARIOS
from .obs import cli as obs
from .obs.dash import load_store_cells, render_dashboard
from .obs.diff import diff_metrics, diff_traces
from .obs.export import from_jsonl, summary, to_chrome, to_jsonl
from .obs.perf import KernelProfiler, to_chrome_profile, to_folded
from .obs.record import TraceRecorder
from .obs.report import render_comparison, render_report
from .obs.usage import UsageAccountant
from .profiling import ProfilingDriver, ResourceDimension

__all__ = ["main", "build_parser", "CANONICAL", "FIGURES", "SWEEPS", "TARGETS"]

Row = Tuple[Tuple[str, ...], Callable[..., Any]]

#: Figure targets, one row per runner: its names (the first canonical,
#: the rest aliases) and a runner called as ``runner(seed=...)``.  A dict
#: result is a table printed under the canonical name.
FIGURES: Tuple[Row, ...] = (
    (("fig3a",), run_fig3a),
    (("fig3b",), run_fig3b),
    (("fig4a",), run_fig4a),
    (("fig4b",), run_fig4b),
    (("fig5", "fig5a", "fig5b"), run_fig5),
    (("fig6a",), run_fig6a),
    (("fig6b",), run_fig6b),
    (("fig7a", "exp1"), lambda seed: run_experiment1(seed=seed)[0]),
    (("fig7b", "exp2"), lambda seed: run_experiment2(seed=seed)[0]),
    (
        ("fig7cd", "exp3", "fig7c", "fig7d"),
        lambda seed: run_experiment3(seed=seed)[:2],
    ),
    (("chaos",), run_chaos),
    (("recovery",), run_recovery),
    (("crowd",), run_crowd_figure),
    (("ablation-a1",), scheduler_interpolation_ablation),
    (("ablation-a2",), sampling_strategy_ablation),
    (("ablation-a3",), hysteresis_ablation),
    (("ablation-a4",), limiter_mode_ablation),
    (("ablation-a5",), isolation_ablation),
)

#: Every target name and alias -> its row.
TARGETS: Dict[str, Row] = {name: row for row in FIGURES for name in row[0]}

#: Canonical (deduplicated) target list for ``list`` and ``all``.
CANONICAL: List[str] = [names[0] for names, _runner in FIGURES]


def _toy_sweep():
    app = make_toy_app()
    dims = [
        ResourceDimension("node.cpu", (0.25, 0.5, 0.75, 1.0), lo=0.01, hi=1.0)
    ]
    return app, dims, AppSpec("repro.apps:make_toy_app"), None


def _viz_sweep():
    app = make_viz_app()
    dims = [
        ResourceDimension("client.cpu", (0.5, 1.0), lo=0.01, hi=1.0),
        ResourceDimension("client.network", (500e3, 1e6), lo=1.0),
    ]
    app_spec = AppSpec(
        "repro.apps.visualization:make_viz_app",
        workload="repro.experiments.fig6:exp1_workload",
        workload_kwargs={"n_images": 1},
    )

    def workload(config, point, run_seed):
        return exp1_workload(config, point, run_seed, n_images=1)

    return app, dims, app_spec, workload


#: ``repro sweep`` application -> builder of (app, dims, app_spec, workload).
SWEEPS: Dict[str, Callable[[], Tuple[Any, Any, Any, Any]]] = {
    "toy": _toy_sweep,
    "viz": _viz_sweep,
}

#: Scenarios that run as one Scene, so their result carries a payload.
_DASH_RUNNABLE = sorted(n for n, entry in SCENARIOS.items() if entry.run is None)


class UsageError(Exception):
    """A command's input is unusable: printed as one line, exit code 2."""


# -- figures and sweeps -----------------------------------------------------


def _items(names: Tuple[str, ...], result: Any) -> List[Any]:
    """The figures and tables one runner result emits."""
    if isinstance(result, dict):
        return [(names[0], result)]
    if isinstance(result, tuple):
        return [r for r in result if isinstance(r, FigureResult)]
    return [result]


def _emit(item: Any, out_dir: Optional[Path] = None, plot: bool = True) -> None:
    if isinstance(item, FigureResult):
        text = item.render(plot=plot)
        print(text)
        if out_dir is not None:
            stem = item.figure.lower().replace(" ", "")
            (out_dir / f"{stem}.txt").write_text(text + "\n")
            payload = {
                "figure": item.figure,
                "title": item.title,
                "series": {k: s.points for k, s in item.series.items()},
                "notes": item.notes,
            }
            (out_dir / f"{stem}.json").write_text(json.dumps(payload, indent=1))
    else:
        name, data = item
        print(f"== {name} ==")
        for k, v in data.items():
            print(f"  {k}: {v:.6g}" if isinstance(v, float) else f"  {k}: {v}")
        if out_dir is not None:
            (out_dir / f"{name}.json").write_text(json.dumps(data, indent=1))


def _engine(args: argparse.Namespace, **options: Any) -> SweepEngine:
    """The engine the shared ``--jobs/--cache-dir/--no-cache`` options ask for."""
    store = None
    if not args.no_cache:
        store = ResultStore(args.cache_dir or Path(".repro_cache"))
    return SweepEngine(jobs=args.jobs or 1, store=store, **options)


def _engine_summary(engine: SweepEngine, label: str) -> str:
    m = engine.metrics
    return (
        f"{label}: "
        f"{m.counter('exec.jobs.run').value:g} run, "
        f"{m.counter('exec.jobs.cached').value:g} cached, "
        f"{m.counter('exec.jobs.retried').value:g} retried, "
        f"{m.counter('exec.wall.saved').value:.2f}s saved "
        f"({engine.jobs} workers)"
    )


def _figures(args: argparse.Namespace) -> int:
    if args.command in ("list", "all") and args.targets:
        raise UsageError(f"repro: {args.command!r} takes no other targets")
    if args.command == "list":
        print("\n".join(CANONICAL))
        return 0
    targets = CANONICAL if args.command == "all" else [args.command, *args.targets]
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    # Install a process-wide sweep engine only when explicitly requested,
    # so plain invocations neither spawn workers nor touch the cache dir.
    engine: Optional[SweepEngine] = None
    if args.jobs is not None or args.cache_dir is not None:
        engine = _engine(args)
        previous = set_default_engine(engine)
    try:
        for names, runner in dict.fromkeys(TARGETS[t] for t in targets):
            for item in _items(names, runner(seed=args.seed)):
                _emit(item, out_dir=args.out, plot=not args.no_plot)
    finally:
        if engine is not None:
            set_default_engine(previous)
    if engine is not None:
        print(_engine_summary(engine, "sweep engine"))
    return 0


def _sweep(args: argparse.Namespace) -> int:
    app, dims, app_spec, workload = SWEEPS[args.app]()
    engine = _engine(args, timeout=args.timeout, retries=args.retries)
    driver = ProfilingDriver(
        app, dims, workload_factory=workload, seed=args.seed, app_spec=app_spec
    )
    db = driver.profile(engine=engine)

    print(f"== sweep {args.app}: {len(db)} cells ==")
    for config in db.configurations():
        for record in db.records_for(config):
            metrics = "  ".join(
                f"{k}={v:.4g}" for k, v in sorted(record.metrics.items())
            )
            print(f"  {config.label()} @ {record.point.label()}: {metrics}")
    print(_engine_summary(engine, "engine"))
    if args.out is not None:
        db.save(args.out)
        print(f"database written to {args.out}")
    return 0


# -- scenario runs (renderers in repro.obs.cli) -----------------------------


def _trace(args: argparse.Namespace) -> int:
    recorder = TraceRecorder()
    obs.run(args.experiment, args.seed, recorder=recorder)
    if args.chrome:
        text = json.dumps(to_chrome(recorder.records), sort_keys=True)
    elif args.json:
        text = to_jsonl(recorder.records)
    else:
        limit = None if args.limit == 0 else args.limit
        text = obs.render_timeline(recorder, limit)
    obs.write_or_print(text, args.out)
    return 0


def _metrics(args: argparse.Namespace) -> int:
    recorder = TraceRecorder()
    obs.run(args.experiment, args.seed, recorder=recorder)
    if args.json:
        payload = {
            "experiment": args.experiment,
            "seed": args.seed,
            "metrics": recorder.metrics.snapshot(),
            "summary": summary(recorder.records),
        }
        text = json.dumps(payload, indent=1, sort_keys=True)
    elif args.format == "csv":
        text = obs.metrics_csv(recorder.metrics.snapshot())
    else:
        text = obs.render_metrics(recorder)
    obs.write_or_print(text, args.out)
    return 0


def _usage(args: argparse.Namespace) -> int:
    recorder = TraceRecorder()
    usage = UsageAccountant(metrics=recorder.metrics, resolution=args.resolution)
    obs.run(args.experiment, args.seed, recorder=recorder, usage=usage)
    if args.json:
        payload = {
            "experiment": args.experiment,
            "seed": args.seed,
            "usage": usage.summary(),
        }
        text = json.dumps(payload, indent=1, sort_keys=True)
    else:
        text = obs.render_usage(usage)
    obs.write_or_print(text, args.out)
    return 0


def _perf(args: argparse.Namespace) -> int:
    # Full fidelity (every step observed): a one-off profile capture
    # wants exact attribution and census, not low overhead.
    profiler = KernelProfiler(full=True)
    obs.run(args.experiment, args.seed, profiler=profiler)
    if args.flame:
        text = to_folded(profiler)
    elif args.chrome:
        text = json.dumps(to_chrome_profile(profiler), sort_keys=True)
    elif args.json:
        payload = {
            "experiment": args.experiment,
            "seed": args.seed,
            "perf": profiler.summary(),
        }
        text = json.dumps(payload, indent=1, sort_keys=True)
    else:
        text = obs.render_perf(profiler, args.experiment, args.seed)
    obs.write_or_print(text, args.out)
    return 0


def _load_side(source: str, seed: int, prog: str):
    """A diff operand: a trace-JSONL file, or a scenario to run traced."""
    path = Path(source)
    if path.is_file():
        return source, from_jsonl(path.read_text()), None
    if source not in SCENARIOS:
        raise UsageError(
            f"{prog}: {source!r} is neither a trace .jsonl file nor an "
            f"experiment ({', '.join(sorted(SCENARIOS))})"
        )
    recorder, _ = obs.traced_run(source, seed, with_usage=False)
    return f"{source}@seed={seed}", recorder.records, recorder.metrics.snapshot()


def _diff(args: argparse.Namespace) -> int:
    seed_b = args.seed if args.seed_b is None else args.seed_b
    label_a, records_a, snap_a = _load_side(args.a, args.seed, "repro diff")
    label_b, records_b, snap_b = _load_side(args.b, seed_b, "repro diff")
    result = diff_traces(records_a, records_b)
    metrics_delta = (
        diff_metrics(snap_a, snap_b)
        if snap_a is not None and snap_b is not None
        else None
    )
    if args.json:
        payload = {"a": label_a, "b": label_b, **result.to_dict()}
        if metrics_delta is not None:
            payload["metrics"] = metrics_delta
        text = json.dumps(payload, indent=1, sort_keys=True)
    else:
        text = f"A: {label_a}\nB: {label_b}\n" + obs.render_diff(
            result, metrics_delta
        )
    obs.write_or_print(text, args.out)
    identical = result.identical and (
        metrics_delta is None or metrics_delta["identical"]
    )
    return 0 if identical else 1


def _report(args: argparse.Namespace) -> int:
    profiler = KernelProfiler(full=True) if args.perf else None
    recorder, usage = obs.traced_run(
        args.experiment, args.seed, with_usage=True, profiler=profiler
    )
    if args.compare is None:
        text = render_report(
            recorder.records,
            recorder.metrics.snapshot(),
            title=f"repro report: {args.experiment} (seed {args.seed})",
            usage_summary=usage.summary(),
            perf_summary=profiler.summary() if profiler is not None else None,
        )
    else:
        seed_b = args.seed if args.seed_b is None else args.seed_b
        label_b, records_b, snap_b = _load_side(
            args.compare, seed_b, "repro report"
        )
        result = diff_traces(recorder.records, records_b)
        if snap_b is not None:
            metrics_delta = diff_metrics(recorder.metrics.snapshot(), snap_b)
        else:
            metrics_delta = {
                "identical": result.identical,
                "only_a": [], "only_b": [], "changed": {},
            }
        text = render_comparison(
            f"{args.experiment}@seed={args.seed}",
            label_b,
            result,
            metrics_delta,
            title=f"repro report: {args.experiment} vs {args.compare}",
        )
    out = args.out or Path(f"report_{args.experiment}.html")
    obs.write_or_print(text, out)
    return 0


def _dash(args: argparse.Namespace) -> int:
    cells: List[dict] = []
    for source in args.sources:
        if source in _DASH_RUNNABLE:
            cells.append(obs.dash_traced_cell(source, args.seed))
        elif source == "fig5-sweep":
            cells.extend(obs.fig5_sweep_cells(args.seed, args.cache, args.jobs))
        elif Path(source).is_dir():
            store_cells = load_store_cells(source)
            if not store_cells:
                raise UsageError(
                    f"repro dash: no result-store entries under {source!r}"
                )
            cells.extend(store_cells)
        else:
            raise UsageError(
                f"repro dash: {source!r} is neither a runnable scenario "
                f"({', '.join(_DASH_RUNNABLE)}), 'fig5-sweep', nor a "
                "result-store directory"
            )
    title = args.title or (
        f"repro fleet dashboard: {', '.join(args.sources)} (seed {args.seed})"
    )
    obs.write_or_print(render_dashboard(cells, title=title), args.out)
    return 0


# -- analysis and benchmark gates -------------------------------------------


def _print_rules(rules: Dict[str, str]) -> None:
    for rule_id in sorted(rules):
        print(f"{rule_id}  {rules[rule_id]}")


def _lint_inputs(
    args: argparse.Namespace, prog: str
) -> Tuple[Path, List[Path], Optional[Path]]:
    """Root, paths (default src/ and benchmarks/) and baseline of a lint pass."""
    root = Path.cwd()
    paths = args.paths or [root / "src", root / "benchmarks"]
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise UsageError(f"{prog}: no such path: {missing[0]}")
    baseline = args.baseline
    if baseline is None and (root / BASELINE_NAME).exists():
        baseline = root / BASELINE_NAME
    return root, paths, baseline


def _report_findings(
    result: Any, args: argparse.Namespace, prog: str, stale: List[Any],
    inline: bool = True,
) -> int:
    """Print findings and stale baseline entries; exit 1 if there are any."""
    if args.json:
        print(json.dumps(result.to_dict(), indent=1, sort_keys=True))
    else:
        for finding in result.parse_errors + result.findings:
            print(finding.render())
        for entry in stale:
            print(
                f"stale baseline entry: {entry.rule} {entry.path} "
                f"({entry.reason or 'no reason recorded'})"
            )
        status = "clean" if result.clean else f"{len(result.findings)} finding(s)"
        suppressed = (
            f"{result.suppressed_inline} inline suppression(s), " if inline else ""
        )
        print(
            f"{prog}: {status}; {result.files_checked} file(s), "
            f"{suppressed}{result.suppressed_baseline} baselined"
        )
    return 1 if not result.clean or stale else 0


def _lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        _print_rules(ALL_RULES)
        return 0
    root, paths, baseline = _lint_inputs(args, "repro lint")
    rules: Optional[List[str]] = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in ALL_RULES]
        if unknown:
            raise UsageError(f"repro lint: unknown rule(s): {unknown}")

    result = lint_paths(paths, root=root, baseline=baseline, rules=rules)
    if args.write_baseline:
        target = args.baseline or (root / BASELINE_NAME)
        write_baseline(target, result.findings)
        print(f"wrote {len(result.findings)} entr(y/ies) to {target}")
        return 0
    return _report_findings(result, args, "repro lint", result.unused_baseline)


def _check_flow(args: argparse.Namespace) -> int:
    if args.list_rules:
        _print_rules(DATAFLOW_RULES)
        return 0
    root, paths, baseline = _lint_inputs(args, "repro check flow")
    result = flow_paths(paths, root=root, baseline=baseline)
    stale = [e for e in result.unused_baseline if e.rule in DATAFLOW_RULES]
    return _report_findings(result, args, "repro check flow", stale, inline=False)


def _check_explore(args: argparse.Namespace) -> int:
    scenarios = builtin_scenarios(seed=args.seed)
    if args.list:
        for name in sorted(scenarios):
            print(f"{name}  {scenarios[name].description}")
        return 0
    if args.scenario is None:
        raise UsageError("repro check explore: scenario required")
    if args.scenario not in scenarios:
        raise UsageError(
            f"repro check explore: unknown scenario {args.scenario!r} "
            f"(known: {', '.join(sorted(scenarios))})"
        )

    explorer = ScheduleExplorer(
        scenarios[args.scenario],
        max_schedules=args.max_schedules,
        max_depth=args.max_depth,
        localize=not args.no_localize,
    )
    result = explorer.explore()

    if args.json:
        print(json.dumps(result.to_dict(), indent=1, sort_keys=True))
    else:
        print(result.summary())
        for div in result.divergences:
            print(f"  minimal divergent schedule ({len(div.flips)} flip(s)):")
            for flip in div.flips:
                print(
                    f"    t={flip.time:g} demote seq {flip.seq} on "
                    f"{flip.label!r}: {flip.second_context} before "
                    f"{flip.first_context}"
                )
            if div.error:
                print(f"  flipped run crashed: {div.error}")
            if div.payload_path:
                print(f"  first payload divergence: {div.payload_path}")
            if div.first_span:
                print(
                    f"  first divergent span: {div.first_span.get('key')} "
                    f"({div.first_span.get('kind')}) at "
                    f"t={div.first_span.get('t')}"
                )
        if not result.certified and not result.divergences:
            print(
                "note: inconclusive (budget bound the search); raise "
                "--max-schedules/--max-depth for a full certificate"
            )
    return 1 if result.divergences else 0


def _bench_check(args: argparse.Namespace) -> int:
    baseline_dir = args.baseline if args.baseline is not None else args.fresh
    for label, path in (("fresh", args.fresh), ("baseline", baseline_dir)):
        if not path.is_dir():
            raise UsageError(f"repro bench check: no such {label} directory: {path}")

    report = bench.compare_dirs(args.fresh, baseline_dir, tolerance=args.tolerance)
    report["block_on"] = args.block_on
    if args.update:
        errors = bench.apply_updates(report, args.update, args.fresh, baseline_dir)
        if errors:
            raise UsageError(
                "\n".join(f"repro bench check: {error}" for error in errors)
            )
    if not report["benchmarks"]:
        raise UsageError(
            f"repro bench check: no BENCH_*.json files under {args.fresh} "
            f"or {baseline_dir}"
        )

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(bench.render_report(report))
    blocking = (
        report["regressions"] if args.block_on == "all"
        else report["exact_regressions"]
    )
    return 0 if not blocking else 1


# -- the command table ------------------------------------------------------


def positive_int(text: str) -> int:
    """The ``--jobs`` type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _target(name: str) -> str:
    if name not in TARGETS:
        raise argparse.ArgumentTypeError(
            f"unknown target {name!r}; run 'python -m repro.cli list'"
        )
    return name


def _seed(p: argparse.ArgumentParser, help: str = "experiment seed") -> None:
    p.add_argument("--seed", type=int, default=0, help=help)


def _json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _out(
    p: argparse.ArgumentParser, help: str, default: Optional[Path] = None
) -> None:
    p.add_argument("--out", type=Path, default=default, help=help)


def _jobs(
    p: argparse.ArgumentParser, help: str, default: Optional[int] = None
) -> None:
    p.add_argument(
        "--jobs", type=positive_int, default=default, metavar="N", help=help
    )


def _engine_options(p: argparse.ArgumentParser) -> None:
    _jobs(
        p, "run cells through the sweep engine with N worker processes "
        "(output is byte-identical to the serial run)",
    )
    p.add_argument(
        "--cache-dir", type=Path, default=None,
        help="persistent result-cache directory (default .repro_cache; "
        "for figure targets it implies the sweep engine)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="run cells without the persistent result cache",
    )


def _scenario(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "experiment", choices=sorted(SCENARIOS), help="scenario to run"
    )
    _seed(p)
    _json(p)
    _out(p, "write to file instead of stdout")


def _lint_options(p: argparse.ArgumentParser, rules: str) -> None:
    p.add_argument(
        "paths", nargs="*", type=Path, default=None,
        help="files/directories to check (default: src/ and benchmarks/)",
    )
    p.add_argument(
        "--baseline", type=Path, default=None,
        help=f"baseline file (default: ./{BASELINE_NAME} when present)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help=f"print every {rules} rule id and exit",
    )
    _json(p)


def _command(
    table: Any, name: str, handler: Callable[[argparse.Namespace], int],
    help: str, **kwargs: Any,
) -> argparse.ArgumentParser:
    p = table.add_parser(name, help=help, description=help, **kwargs)
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The command table: one subparser per command, bound to its handler."""
    aliases = ", ".join(
        f"{alias}={names[0]}" for names, _ in FIGURES for alias in names[1:]
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from Chang & Karamcheti (HPDC 2000) "
        "and drive the configuration/adaptation pipeline.",
        epilog=f"figure targets: {', '.join(CANONICAL)}; aliases: {aliases}",
    )
    table = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = _command(
        table, "all", _figures,
        "regenerate figure targets ('list' prints them, 'all' runs every one)",
        aliases=["list", *TARGETS], prog="repro TARGET",
    )
    p.add_argument("targets", nargs="*", type=_target, help="more figure targets")
    _seed(p)
    _out(p, "artifact directory")
    p.add_argument(
        "--no-plot", action="store_true", help="tables only, no ASCII plots"
    )
    _engine_options(p)

    p = _command(table, "trace", _trace, "traced run: timeline + causal chains")
    _scenario(p)
    p.add_argument(
        "--chrome", action="store_true",
        help="chrome://tracing / Perfetto trace_event JSON",
    )
    p.add_argument(
        "--limit", type=int, default=40,
        help="max timeline rows in human output (0 = all)",
    )

    p = _command(table, "metrics", _metrics, "traced run: metrics snapshot")
    _scenario(p)
    p.add_argument(
        "--format", choices=("table", "csv"), default="table",
        help="output format (csv columns/rows are deterministic)",
    )

    p = _command(table, "usage", _usage, "usage account: who consumed what")
    _scenario(p)
    p.add_argument(
        "--resolution", type=float, default=1.0,
        help="virtual-time resolution of the utilization series",
    )

    p = _command(table, "perf", _perf, "kernel profile: cost buckets + census")
    _scenario(p)
    p.add_argument(
        "--flame", action="store_true",
        help="collapsed-stack folded output for flamegraph tools",
    )
    p.add_argument(
        "--chrome", action="store_true",
        help="chrome://tracing flame-chart JSON of the cost buckets",
    )

    p = _command(
        table, "diff", _diff,
        "first divergence of two runs (exit 1 when they diverge)",
    )
    p.add_argument("a", help="experiment name or trace .jsonl file (run A)")
    p.add_argument("b", help="experiment name or trace .jsonl file (run B)")
    _seed(p, "seed for run A (and B unless --seed-b)")
    p.add_argument("--seed-b", type=int, default=None, help="seed for run B")
    _json(p)
    _out(p, "write to file instead of stdout")

    p = _command(table, "report", _report, "self-contained HTML report")
    _scenario(p)
    single_or_compare = p.add_mutually_exclusive_group()
    single_or_compare.add_argument(
        "--compare", default=None, metavar="B",
        help="second experiment (or trace .jsonl) for a comparison report",
    )
    p.add_argument(
        "--seed-b", type=int, default=None,
        help="seed for the comparison run (defaults to --seed)",
    )
    single_or_compare.add_argument(
        "--perf", action="store_true",
        help="attach a kernel profiler and add a perf section "
        "(single-run reports only, not with --compare)",
    )

    p = _command(
        table, "dash", _dash,
        "aggregate N runs/cells into one fleet-dashboard HTML page",
    )
    p.add_argument(
        "sources", nargs="+",
        help="traced experiments (%s), 'fig5-sweep' (2x2 grid via the exec "
        "engine), or repro.exec result-store directories"
        % ", ".join(_DASH_RUNNABLE),
    )
    _seed(p, "seed for every run")
    _jobs(p, "worker processes for the fig5-sweep source", default=2)
    p.add_argument(
        "--cache", type=Path, default=Path(".repro_cache/dash"),
        help="result-store directory backing the fig5-sweep source",
    )
    p.add_argument("--title", default=None, help="page title")
    _out(p, "output HTML file", default=Path("fleet_dashboard.html"))

    p = _command(
        table, "sweep", _sweep,
        "profile an application grid through the sweep engine and its cache",
    )
    p.add_argument("app", choices=sorted(SWEEPS), help="application to sweep")
    _seed(p, "sweep seed")
    _engine_options(p)
    p.add_argument("--timeout", type=float, default=600.0, help="per-job timeout (s)")
    p.add_argument(
        "--retries", type=int, default=2, help="retries per crashed/stuck job"
    )
    _out(p, "write the database as JSON")

    p = _command(
        table, "lint", _lint, "determinism and sim-protocol linter"
    )
    _lint_options(p, "DET/SIM")
    p.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to check (default: all)",
    )
    p.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings to the baseline file and exit 0",
    )

    checks = table.add_parser(
        "check", help="schedule-invariance exploration and dataflow linting"
    ).add_subparsers(dest="check", metavar="CHECK", required=True)
    p = _command(
        checks, "explore", _check_explore,
        "replay a scenario under permuted event-tie orders",
    )
    p.add_argument(
        "scenario", nargs="?", default=None, help="scenario name (see --list)"
    )
    _seed(p, "scenario seed")
    p.add_argument(
        "--max-schedules", type=int, default=24,
        help="total schedule budget for the search (default 24)",
    )
    p.add_argument(
        "--max-depth", type=int, default=3,
        help="max nested flips per schedule (default 3)",
    )
    p.add_argument(
        "--no-localize", action="store_true",
        help="skip trace-diff localization of divergences",
    )
    p.add_argument("--list", action="store_true", help="list scenarios and exit")
    _json(p)
    p = _command(
        checks, "flow", _check_flow,
        "interprocedural nondeterminism dataflow linter (DET5xx)",
    )
    _lint_options(p, "DET5xx")

    benches = table.add_parser(
        "bench", help="compare fresh benchmark numbers against baselines"
    ).add_subparsers(dest="bench", metavar="BENCH", required=True)
    p = _command(
        benches, "check", _bench_check,
        "diff BENCH_*.json files between two directories",
    )
    p.add_argument(
        "--fresh", type=Path, default=Path("benchmarks/out"),
        help="directory holding freshly generated BENCH_*.json files "
        "(default: benchmarks/out)",
    )
    p.add_argument(
        "--baseline", type=Path, default=None,
        help="directory holding baseline BENCH_*.json files "
        "(default: same as --fresh, i.e. the committed copies)",
    )
    p.add_argument(
        "--tolerance", type=float, default=bench.DEFAULT_TOLERANCE,
        help="relative tolerance band for wall-clock fields "
        f"(default {bench.DEFAULT_TOLERANCE})",
    )
    _json(p)
    p.add_argument(
        "--block-on", choices=("all", "exact"), default="all",
        help="which regressions set a failing exit code: 'all' (default) "
        "or 'exact' (only deterministic/exact-field and structural "
        "regressions block; wall-clock band drift is advisory)",
    )
    _out(p, "also write the JSON comparison report to this file")
    p.add_argument(
        "--update", action="append", metavar="NAME", default=None,
        help="accept the fresh numbers of this benchmark as the new "
        "baseline ('sim' means BENCH_sim.json; repeatable): its drift "
        "is reported but never blocks, and the fresh record is copied "
        "over the baseline copy",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        import os

        # The reader went away (``repro trace fig6a | head``): stop quietly,
        # with stdout on devnull so the interpreter's final flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
