"""Figure 6: compression-method and resolution tradeoffs.

(a) Image transmission time vs network bandwidth for LZW ("compression A")
    and bzip2 ("compression B"): B wins on thin pipes (smaller payload), A
    wins on fat pipes (CPU becomes the bottleneck) — the crossover that
    drives Experiment 1.
(b) Image transmission time vs CPU share for resolution levels 3 and 4 —
    the basis of Experiment 2's quality degradation.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..apps.visualization import VizCosts, VizWorkload, make_viz_app
from ..exec import AppSpec, default_engine
from ..profiling import (
    ProfilingDriver,
    ResourceDimension,
    ResourcePoint,
    vary_one_plan,
)
from ..tunable import Configuration
from .common import FigureResult
from .scene import Instruments

__all__ = [
    "EXP1_COSTS",
    "EXP2_COSTS",
    "EXP2_BW",
    "run_fig6a",
    "run_fig6b",
    "fig6a_database",
    "fig6b_database",
    "exp1_workload",
    "exp2_workload",
]

#: Experiment-1 calibration: light rendering; time is network/codec bound.
EXP1_COSTS = VizCosts(display_cost=3e-5)
#: Experiment-2 calibration: heavy rendering; a 1 MB/s pipe (the Fig-4b
#: server limit), so CPU dominates and the 10 s deadline bites: level 4
#: lands just inside the deadline at 90 % CPU and far outside at 40 %.
EXP2_COSTS = VizCosts(display_cost=4.2e-4)
EXP2_BW = 1e6

BANDWIDTHS: Tuple[float, ...] = (25e3, 50e3, 100e3, 200e3, 350e3, 500e3, 750e3, 1e6)
CPU_SHARES: Tuple[float, ...] = (0.2, 0.3, 0.4, 0.6, 0.8, 0.9, 1.0)


def exp1_workload(config, point, run_seed, n_images: int = 1):
    """Module-level Experiment-1 workload factory (importable by workers)."""
    return VizWorkload(n_images=n_images, costs=EXP1_COSTS, seed=run_seed)


def exp2_workload(config, point, run_seed, n_images: int = 1):
    """Module-level Experiment-2 workload factory (importable by workers)."""
    return VizWorkload(n_images=n_images, costs=EXP2_COSTS, seed=run_seed)


def fig6a_database(
    bandwidths: Tuple[float, ...] = BANDWIDTHS,
    n_images: int = 1,
    seed: int = 0,
    engine=None,
    instruments: Optional[Instruments] = None,
):
    """Profile {lzw, bzip2} over the client-bandwidth axis (CPU fixed)."""
    app = make_viz_app()
    dims = [
        ResourceDimension("client.cpu", (0.5, 1.0), lo=0.01, hi=1.0),
        ResourceDimension("client.network", tuple(bandwidths), lo=1.0),
    ]
    app_spec = AppSpec(
        "repro.apps.visualization:make_viz_app",
        workload="repro.experiments.fig6:exp1_workload",
        workload_kwargs={"n_images": n_images},
    )
    if engine is None and instruments is None:
        engine = default_engine()
    driver = ProfilingDriver(
        app,
        dims,
        workload_factory=app_spec.build_workload_factory(),
        seed=seed,
        app_spec=app_spec,
        instruments=instruments,
    )
    configs = [
        Configuration({"dR": 320, "c": codec, "l": 4}) for codec in ("lzw", "bzip2")
    ]
    base = ResourcePoint({"client.cpu": 1.0, "client.network": bandwidths[-1]})
    plan = vary_one_plan(dims, "client.network", base)
    db = driver.profile(configs=configs, plan=plan, engine=engine)
    return db, dims, configs


def fig6b_database(
    shares: Tuple[float, ...] = CPU_SHARES,
    n_images: int = 1,
    seed: int = 0,
    engine=None,
    instruments: Optional[Instruments] = None,
):
    """Profile resolution levels {3, 4} over the CPU-share axis."""
    app = make_viz_app()
    dims = [
        ResourceDimension("client.cpu", tuple(shares), lo=0.01, hi=1.0),
        ResourceDimension("client.network", (EXP2_BW / 2, EXP2_BW), lo=1.0),
    ]
    app_spec = AppSpec(
        "repro.apps.visualization:make_viz_app",
        workload="repro.experiments.fig6:exp2_workload",
        workload_kwargs={"n_images": n_images},
    )
    if engine is None and instruments is None:
        engine = default_engine()
    driver = ProfilingDriver(
        app,
        dims,
        workload_factory=app_spec.build_workload_factory(),
        seed=seed,
        app_spec=app_spec,
        instruments=instruments,
    )
    configs = [
        Configuration({"dR": 320, "c": "lzw", "l": level}) for level in (3, 4)
    ]
    base = ResourcePoint({"client.cpu": 1.0, "client.network": EXP2_BW})
    plan = vary_one_plan(dims, "client.cpu", base)
    db = driver.profile(configs=configs, plan=plan, engine=engine)
    return db, dims, configs


def run_fig6a(seed: int = 0, engine=None) -> FigureResult:
    db, _dims, configs = fig6a_database(seed=seed, engine=engine)
    result = FigureResult(
        figure="Fig 6a",
        title="Image transmission time for different compression methods "
        "vs network bandwidth",
        xlabel="bandwidth (KB/s)",
        ylabel="transmission time (s)",
    )
    for config in configs:
        label = "A (LZW)" if config.c == "lzw" else "B (bzip2)"
        series = result.new_series(label)
        for point in db.points_for(config):
            rec = db.record_at(config, point)
            series.add(point["client.network"] / 1e3, rec.metrics["transmit_time"])
        series.points.sort()
    return result


def run_fig6b(seed: int = 0, engine=None) -> FigureResult:
    db, _dims, configs = fig6b_database(seed=seed, engine=engine)
    result = FigureResult(
        figure="Fig 6b",
        title="Image transmission time for images of different resolutions "
        "vs CPU share",
        xlabel="CPU share (%)",
        ylabel="transmission time (s)",
    )
    for config in configs:
        series = result.new_series(f"level {config.l}")
        for point in db.points_for(config):
            rec = db.record_at(config, point)
            series.add(point["client.cpu"] * 100, rec.metrics["transmit_time"])
        series.points.sort()
    return result
