"""Extension experiment: adapting to *memory* variations.

The paper's evaluation varies only CPU and network, "keeping memory
resources at a fixed level", but both its sandbox (page-protection
resident-set limits) and its framework treat memory as a first-class
resource.  This extension closes that loop with the memory-bound grid
application: profile the ``tile`` configurations over the resident-limit
axis, then drop the limit mid-run and watch the framework re-tile.

This is future work the paper enables but does not evaluate; the shape to
expect follows from the working-set model: large tiles win with ample
memory (less recomputation), small tiles win under pressure (no thrash).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..apps import MemWorkload, make_membound_app
from ..profiling import (
    PerformanceDatabase,
    ProfilingDriver,
    ResourceDimension,
    ResourcePoint,
)
from ..runtime import Objective, UserPreference
from ..sandbox import ResourceLimits, Testbed
from ..tunable import Configuration
from .common import FigureResult, build_adaptive_session
from .scene import Instruments, Scene

__all__ = ["build_memory_session", "memory_database", "run_memory_adaptation"]

#: Disk-backed paging cost (seconds per fault).
FAULT_COST = 2e-3
MEM_LEVELS: Tuple[float, ...] = (150, 300, 600, 1200, 4000)


def memory_database(
    levels: Tuple[float, ...] = MEM_LEVELS,
    seed: int = 0,
) -> Tuple[PerformanceDatabase, list]:
    """Profile every tile size over the resident-limit axis."""
    app = make_membound_app()
    dims = [ResourceDimension("node.memory", tuple(levels), lo=1)]

    def workload(config, point, run_seed):
        return MemWorkload(sweeps=8)

    driver = ProfilingDriver(app, dims, workload_factory=workload, seed=seed)
    # The profiling sandboxes must model expensive (disk-backed) faults.
    original_measure = driver.measure

    def measure_with_fault_cost(config, point):
        # Rebuild the one-off path with sandbox kwargs: reuse driver
        # internals by temporarily instantiating manually.
        from ..sim import derive_seed

        run_seed = derive_seed(driver.seed, f"{config.label()}|{point.label()}")
        testbed = Testbed(host_specs=app.env.host_specs(), seed=run_seed)
        rt = app.instantiate(
            testbed,
            config,
            limits={"node": ResourceLimits(mem_pages=int(point["node.memory"]))},
            workload=workload(config, point, run_seed),
            seed=run_seed,
            sandbox_kwargs={"fault_cost": FAULT_COST},
        )
        testbed.run(until=driver.max_run_time)
        testbed.shutdown()
        from ..profiling import Record

        return Record(
            config=config,
            point=point,
            metrics=rt.qos.snapshot(),
            meta={"seed": run_seed},
        )

    driver.measure = measure_with_fault_cost
    db = driver.profile()
    return db, app.configurations()


def build_memory_session(
    seed: int = 0,
    drop_at_sweep_time: float = 2.0,
    from_pages: int = 4000,
    to_pages: int = 300,
    db: Optional[PerformanceDatabase] = None,
    forced_config: Optional[Configuration] = None,
    instruments: Optional[Instruments] = None,
) -> Scene:
    """One memory-bound session whose resident limit drops mid-run.

    The controller picks the tile for ``from_pages`` and re-tiles after
    the drop to ``to_pages``; with ``forced_config`` the run is static.
    """
    if db is None:
        db, _ = memory_database(seed=seed)
    return build_adaptive_session(
        "ext-memory", make_membound_app(), db,
        UserPreference.single(Objective("elapsed")),
        ResourcePoint({"node.memory": float(from_pages)}),
        {"node": ResourceLimits(mem_pages=from_pages)},
        ((drop_at_sweep_time, ResourceLimits(mem_pages=to_pages)),),
        workload=MemWorkload(sweeps=24),
        summarize=_summarize_memory_session,
        forced_config=forced_config,
        tuning={"monitor_kwargs": {"window": 0.5, "cooldown": 1.0}},
        sandbox_kwargs={"fault_cost": FAULT_COST},
        seed=seed,
        until=3600.0,
        instruments=instruments,
    )


def _summarize_memory_session(scene) -> Tuple[FigureResult, Dict]:
    rt = scene.rt
    label = "adaptive" if scene.controller is not None else "static"
    figure = FigureResult(
        figure="Ext M",
        title=f"Page faults per sweep of the {label} memory run",
        xlabel="sweep",
        ylabel="page faults",
    )
    series = figure.new_series(label)
    for sweep, faults in scene.workload.fault_log:
        series.add(sweep, faults)
    return figure, {
        "elapsed": rt.qos.get("elapsed"),
        "faults": rt.qos.get("faults"),
        "switches": [
            {"t": t, "from": old.label(), "to": new.label()}
            for t, old, new in rt.controls.history
        ],
        "final_config": rt.controls.current.label(),
    }


def run_memory_adaptation(
    seed: int = 0,
    drop_at_sweep_time: float = 2.0,
    from_pages: int = 4000,
    to_pages: int = 300,
    db: Optional[PerformanceDatabase] = None,
) -> Tuple[FigureResult, Dict]:
    """Adaptive run and static run from the same start: the limit drops.

    Returns the per-sweep fault figure and a dict with the runs' outcomes.
    """
    if db is None:
        db, _ = memory_database(seed=seed)
    figure = FigureResult(
        figure="Ext M",
        title=f"Adapting tile size when the resident limit drops "
        f"{from_pages} -> {to_pages} pages",
        xlabel="sweep",
        ylabel="page faults",
    )
    runs: Dict[str, Dict] = {}

    def run(key: str, forced_config: Optional[Configuration] = None) -> Scene:
        scene = build_memory_session(
            seed, drop_at_sweep_time, from_pages, to_pages, db, forced_config
        )
        run_figure, payload = scene.run()
        figure.series[key] = run_figure.series[key]
        runs[key] = {
            "workload": scene.workload,
            "elapsed": payload["elapsed"],
            "faults": payload["faults"],
            "switches": list(scene.rt.controls.history),
        }
        return scene

    # The static run keeps the tile the adaptive run was configured with.
    initial_config = run("adaptive").controller.events[0].config
    run("static", initial_config)
    outcomes = {"initial_config": initial_config, "runs": runs}
    if runs["adaptive"]["switches"]:
        t, old, new = runs["adaptive"]["switches"][0]
        figure.note(f"adaptive re-tiled {old.tile} -> {new.tile} at t={t:.2f}s")
    figure.note(
        f"total elapsed: adaptive={runs['adaptive']['elapsed']:.2f}s, "
        f"static={runs['static']['elapsed']:.2f}s"
    )
    return figure, outcomes
