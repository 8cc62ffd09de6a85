"""Figure 5: fovea-size tradeoff as CPU share varies.

(a) Image transmission time and (b) average response time for fovea sizes
{80, 160, 320} across CPU shares: more CPU improves both; a larger fovea
lowers total transmission time but raises per-round response time
(opposite trends — the reason adaptation must pick dR per CPU level).

Uses the Experiment-3 cost calibration (DESIGN.md §5): a fast link, with
client-side rendering dominating.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..apps.visualization import VizCosts, VizWorkload, make_viz_app
from ..exec import AppSpec, default_engine
from ..profiling import (
    ProfilingDriver,
    ResourceDimension,
    ResourcePoint,
    vary_one_plan,
)
from ..sandbox import ResourceLimits, Testbed
from ..tunable import Configuration
from .common import FigureResult, build_viz_controller, start_estimate_exchanges
from .scene import Instruments, Scene

__all__ = [
    "EXP3_COSTS",
    "EXP3_BW",
    "run_fig5",
    "fig5_database",
    "exp3_workload",
    "build_fig5_session",
    "run_fig5_session",
    "DEFAULT_SESSION_VARIATIONS",
]

#: Experiment-3 calibration: rendering cost placed so that the 1 s
#: response bound separates the fovea sizes the way the paper reports —
#: fovea 320 satisfies it at 90 % CPU (≈0.95 s) but not at 40 % (≈1.9 s),
#: and fovea 160 *barely misses* it at 40 % (≈1.05 s), making 80 the
#: scheduler's pick after the drop.  Per-request server work (pyramid
#: extraction) penalizes small fovea increments; 10 MB/s pipe.
EXP3_COSTS = VizCosts(
    display_cost=1.45e-4, client_round_overhead=9.0, server_round_overhead=20.0
)
EXP3_BW = 10e6

FOVEA_SIZES: Tuple[int, ...] = (80, 160, 320)
CPU_SHARES: Tuple[float, ...] = (0.2, 0.3, 0.4, 0.6, 0.8, 0.9, 1.0)


def exp3_workload(config, point, run_seed, n_images: int = 2):
    """Module-level Experiment-3 workload factory (importable by workers)."""
    return VizWorkload(n_images=n_images, costs=EXP3_COSTS, seed=run_seed)


def fig5_database(
    shares: Tuple[float, ...] = CPU_SHARES,
    fovea_sizes: Tuple[int, ...] = FOVEA_SIZES,
    n_images: int = 2,
    seed: int = 0,
    engine=None,
    instruments: Optional[Instruments] = None,
):
    """Profile the fovea-size configurations over the CPU-share axis.

    Returns (database, dims, configs) — also used by the Experiment-3
    adaptive run (Fig. 7c/d), which is how the paper uses these curves.
    ``instruments`` observe every measurement (its recorder wraps each in
    a ``profile.measure`` span); since engine workers carry no trace
    context, the sweep engine is only consulted without ``instruments`` —
    or when ``engine`` is passed explicitly.
    """
    app = make_viz_app()
    dims = [
        ResourceDimension("client.cpu", tuple(shares), lo=0.01, hi=1.0),
        ResourceDimension("client.network", (EXP3_BW / 2, EXP3_BW), lo=1.0),
    ]
    app_spec = AppSpec(
        "repro.apps.visualization:make_viz_app",
        workload="repro.experiments.fig5:exp3_workload",
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
        Configuration({"dR": dr, "c": "lzw", "l": 4}) for dr in fovea_sizes
    ]
    base = ResourcePoint({"client.cpu": 1.0, "client.network": EXP3_BW})
    plan = vary_one_plan(dims, "client.cpu", base)
    db = driver.profile(configs=configs, plan=plan, engine=engine)
    return db, dims, configs


#: CPU-share steps of the single adaptive Experiment-3 session: a drop to
#: the 40 % regime (where fovea 320 and 160 both miss the response bound,
#: per the EXP3 calibration above — the scheduler re-picks 80) and a late
#: recovery that lets adaptation switch back up.
DEFAULT_SESSION_VARIATIONS: Tuple[Tuple[float, float], ...] = (
    (20.0, 0.4),
    (60.0, 0.9),
)


def build_fig5_session(
    seed: int = 0,
    n_images: int = 30,
    variations: Tuple[Tuple[float, float], ...] = DEFAULT_SESSION_VARIATIONS,
    until: float = 2000.0,
    instruments: Optional[Instruments] = None,
) -> Scene:
    """Construct one adaptive Experiment-3 session without running it.

    The fig5 *figure* is a profiling sweep (many independent testbeds);
    this is its adaptive counterpart — a single fovea-rendering session
    over the fig5 performance database whose client CPU share steps
    through ``variations``, so the monitor sees the drop, the response
    bound breaks, and the scheduler re-picks the fovea size exactly as
    the Fig. 5 curves predict.  Scenario of choice for the interactive
    context: short, fault-free, one clean violation -> re-selection ->
    recovery arc (fovea 320 -> 80 at the drop, back to 320 after).
    """
    from ..runtime import Objective, UserPreference
    from ..tunable import MetricRange

    db, _dims, _configs = fig5_database(seed=seed)
    # The paper's Experiment-3 preference: minimize transmission time
    # subject to the 1 s round-response bound that separates the fovea
    # sizes (see EXP3_COSTS above and run_experiment3 in fig7).
    preference = UserPreference.single(
        Objective("transmit_time", "minimize"),
        [MetricRange("response_time", hi=1.0)],
    )
    initial_point = ResourcePoint(
        {"client.cpu": 0.9, "client.network": EXP3_BW}
    )

    ins = instruments or Instruments()
    app = make_viz_app()
    _scheduler, controller = build_viz_controller(app, db, preference, ins)
    config = controller.select_initial(initial_point).config

    testbed = Testbed(
        host_specs=app.env.host_specs(), link_specs=app.env.link_specs(),
        seed=seed, tiebreak=ins.tiebreak,
    )
    workload = VizWorkload(n_images=n_images, costs=EXP3_COSTS, seed=seed)
    rt = app.instantiate(
        testbed,
        config,
        limits={"client": ResourceLimits(cpu_share=0.9, net_bw=EXP3_BW)},
        workload=workload,
    )
    controller.attach(rt)
    server_agent, client_ex, server_ex = start_estimate_exchanges(rt, controller)

    ins.attach(testbed, config)

    def vary():
        for at, share in variations:
            yield testbed.sim.timeout(at - testbed.sim.now)
            rt.sandboxes["client"].set_limits(
                ResourceLimits(cpu_share=share, net_bw=EXP3_BW)
            )

    if variations:
        testbed.sim.process(vary())

    def _finalize():
        testbed.shutdown()
        if not rt.finished.triggered:
            raise RuntimeError(f"fig5 session did not finish by t={until}")
        return _summarize_fig5_session(
            seed=seed, n_images=n_images, variations=variations,
            controller=controller, rt=rt, workload=workload, testbed=testbed,
            client_ex=client_ex, server_ex=server_ex,
        )

    return Scene(
        name="fig5", seed=seed, until=until, testbed=testbed,
        finalize=_finalize, instruments=ins, rt=rt, controller=controller,
        workload=workload, client_exchange=client_ex, server_exchange=server_ex,
    )


def _summarize_fig5_session(
    seed, n_images, variations, controller, rt, workload, testbed,
    client_ex, server_ex,
) -> Tuple[FigureResult, Dict]:
    payload: Dict = {
        "experiment": "fig5_session",
        "seed": seed,
        "n_images": n_images,
        "variations": [[at, share] for at, share in variations],
        "events": [
            {
                "t": e.time,
                "kind": e.kind,
                "config": e.config.label() if e.config is not None else None,
            }
            for e in controller.events
        ],
        "switches": [
            {"t": t, "from": old.label(), "to": new.label()}
            for t, old, new in rt.controls.history
        ],
        "final_config": rt.controls.current.label(),
        "qos": rt.qos.snapshot(),
        "image_times": [[t, d] for t, d in workload.image_times],
        "network": {
            "delivered": testbed.network.messages_delivered,
            "lost": testbed.network.messages_lost,
        },
        "exchange": {
            "client_updates_received": client_ex.updates_received,
            "server_updates_received": server_ex.updates_received,
        },
        "total_time": workload.image_times[-1][0] if workload.image_times else 0.0,
    }

    result = FigureResult(
        figure="Fig 5 session",
        title="Adaptive fovea selection as client CPU share steps",
        xlabel="time (s)",
        ylabel="image transmission time (s)",
    )
    series = result.new_series("adaptive session")
    for t, duration in workload.image_times:
        series.add(t, duration)
    for at, share in variations:
        result.note(f"t={at:.1f}s: client CPU share -> {share:g}")
    for switch in payload["switches"]:
        result.note(
            f"t={switch['t']:.1f}s: switched {switch['from']} -> {switch['to']}"
        )
    result.note(f"final config: {payload['final_config']}")
    return result, payload


def run_fig5_session(
    seed: int = 0,
    n_images: int = 30,
    variations: Tuple[Tuple[float, float], ...] = DEFAULT_SESSION_VARIATIONS,
    until: float = 2000.0,
    instruments: Optional[Instruments] = None,
) -> Tuple[FigureResult, Dict]:
    """Run the adaptive Experiment-3 session (see :func:`build_fig5_session`)."""
    return build_fig5_session(
        seed=seed, n_images=n_images, variations=variations, until=until,
        instruments=instruments,
    ).run()


def run_fig5(seed: int = 0, engine=None) -> Tuple[FigureResult, FigureResult]:
    """(transmission-time figure, response-time figure)."""
    db, _dims, configs = fig5_database(seed=seed, engine=engine)
    fig_a = FigureResult(
        figure="Fig 5a",
        title="Image transmission time for different fovea sizes vs CPU share",
        xlabel="CPU share (%)",
        ylabel="transmission time (s)",
    )
    fig_b = FigureResult(
        figure="Fig 5b",
        title="Response time for different fovea sizes vs CPU share",
        xlabel="CPU share (%)",
        ylabel="response time (s)",
    )
    for config in configs:
        sa = fig_a.new_series(f"fovea={config.dR}")
        sb = fig_b.new_series(f"fovea={config.dR}")
        for point in db.points_for(config):
            rec = db.record_at(config, point)
            sa.add(point["client.cpu"] * 100, rec.metrics["transmit_time"])
            sb.add(point["client.cpu"] * 100, rec.metrics["response_time"])
        sa.points.sort()
        sb.points.sort()
    return fig_a, fig_b
