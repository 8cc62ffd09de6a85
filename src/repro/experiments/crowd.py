"""Crowd experiments: million-user adaptation scenarios.

Three scenarios, all built on the same visualization app, adaptation
controller, and estimate-exchange plumbing as the chaos/recovery runs —
the only thing that changes is who generates the load:

- ``diurnal``: a fig5-style adaptation run at 1M simulated users.  A
  free-tier population follows a sinusoidal day/night curve whose peaks
  saturate the client-server link; the monitoring agent watches the
  interactive session's effective bandwidth collapse, the scheduler
  re-decides (lzw -> bzip2 and back), and the crowd's own per-class QoS
  tallies record the peak-hour violations.
- ``flash``: a flash-crowd ramp against the server's
  :class:`~repro.recovery.OverloadGuard`.  Sustained batch shedding
  trips the :class:`~repro.recovery.BrownoutController` into the
  known-cheap pinned configuration; new arrivals are priced under it,
  the backlog drains, and the brownout window closes.
- ``baseline``: the 100-coroutine-client control group — the same
  closed-loop users the recovery experiment's flash crowd uses, driven
  as real per-user processes.  The crowd benchmark compares the 1M-user
  aggregate run's wall-clock against this scenario.

Determinism: crowd randomness comes only from the named ``"crowd"``
stream (baseline user think times from per-user ``crowd.baseline.<uid>``
streams), so same-seed runs are byte-identical — the crowd benchmark
asserts it at 1M users.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..apps.visualization import VizWorkload, make_viz_app
from ..apps.visualization.server import SERVER_HOST
from ..crowd import (
    ClosedLoop,
    CrowdAgent,
    CrowdClass,
    CrowdSource,
    DiurnalRate,
    FlashCrowd,
    ServiceClass,
)
from ..recovery import BrownoutController, OverloadGuard, OverloadPolicy
from ..sandbox import ResourceLimits, Testbed
from ..tunable import Configuration
from .common import (
    FigureResult,
    build_viz_controller,
    closed_loop_viz_user,
    start_estimate_exchanges,
    sweep_cells,
    viz_initial_point,
    viz_preference,
)
from .fig6 import EXP1_COSTS, fig6a_database
from .recovery import CHEAP_CONFIG
from .scene import Instruments, Scene

__all__ = [
    "build_crowd",
    "run_crowd",
    "run_crowd_figure",
    "crowd_cell",
    "DEFAULT_USERS",
    "CROWD_PORT",
]

#: Mailbox port crowd batches arrive on (separate from the interactive
#: request port so the viz server never sees aggregate traffic).
CROWD_PORT = "crowd.req"

#: Default population per scenario.
DEFAULT_USERS = {"diurnal": 1_000_000, "flash": 200_000, "baseline": 100}

#: Compression behaviour of the crowd's small foveal replies, matching
#: the codec family the visualization app adapts over.
_CODEC_RATIOS = {"none": 1.0, "lzw": 1.8, "bzip2": 3.0}
_CODEC_WORK = {"none": 0.5, "lzw": 1.0, "bzip2": 2.6}

#: Uncompressed reply payload per crowd request at full resolution.
#: Sized so the diurnal peak (~53e3 req/s) oversubscribes the 12.5 MB/s
#: server->client link under lzw (wire 311 B -> 1.3x capacity) but fits
#: under bzip2 (187 B -> 0.75x) — switching codec genuinely decongests.
_CROWD_RAW_BYTES = 560.0
#: Fixed per-request server work (pyramid lookup) before codec cost.
_CROWD_BASE_WORK = 1.0e-3

#: Baseline scenario: the coroutine closed-loop user population.
_BASELINE_SPEC = {
    "start": 1.0,
    "duration": 110.0,
    "think": 0.5,
    "r1": 12,
    "level": 3,
}


def crowd_reply_price(config: Mapping) -> Tuple[float, float]:
    """(work per request, reply wire bytes) under a configuration.

    Resolution level scales the raw reply quadratically and the codec
    trades wire bytes against compression work — so the brownout config
    (l=3, lzw) genuinely cheapens both the CPU and the link cost of every
    request admitted under it.
    """
    level = int(config.get("l", 4))
    codec = str(config.get("c", "lzw"))
    raw = _CROWD_RAW_BYTES * (level / 4.0) ** 2
    wire = raw / _CODEC_RATIOS.get(codec, 1.0)
    work = _CROWD_BASE_WORK + 2.0e-6 * raw * _CODEC_WORK.get(codec, 1.0)
    return work, wire


def _crowd_classes(
    scenario: str, users: int
) -> Tuple[List[CrowdClass], List[ServiceClass]]:
    """Population + service specs for one aggregate scenario."""
    premium_users = max(1, users // 20)
    bulk_users = users - premium_users
    premium = CrowdClass(
        "premium",
        users=premium_users,
        arrivals=ClosedLoop(think=12.5),
        request_bytes=64.0,
        qos_deadline=1.0,
        timeout=8.0,
        priority=1,
    )
    if scenario == "diurnal":
        bulk = CrowdClass(
            "free",
            users=bulk_users,
            arrivals=DiurnalRate(base=0.028, amplitude=0.025, period=60.0,
                                 phase=-1.5707963267948966),
            request_bytes=64.0,
            qos_deadline=1.0,
            timeout=8.0,
            priority=0,
        )
    elif scenario == "flash":
        bulk = CrowdClass(
            "free",
            users=bulk_users,
            arrivals=FlashCrowd(baseline=0.002, spike=0.35, t_start=12.0,
                                t_peak=16.0, t_fall=28.0, t_end=36.0),
            request_bytes=64.0,
            qos_deadline=1.0,
            timeout=8.0,
            priority=0,
        )
    else:
        raise ValueError(f"unknown aggregate scenario {scenario!r}")
    # Fixed link weights bound the crowd's reply share: with both classes
    # transferring, a weight-1 interactive flow keeps ~12.5e6/104 ~= 120e3
    # B/s — beyond the initial decision's validity bound (150e3) and
    # below the lzw->bzip2 crossover, so the monitor sees the squeeze,
    # yet fast enough that ring transfers still complete and produce
    # bandwidth samples while the congestion lasts.
    service = [
        ServiceClass("free", price=crowd_reply_price, weight=4.0,
                     link_weight=66.0),
        ServiceClass("premium", price=crowd_reply_price, weight=2.0,
                     link_weight=37.0),
    ]
    return [bulk, premium], service


def build_crowd(
    seed: int = 0,
    scenario: str = "diurnal",
    users: Optional[int] = None,
    until: float = 120.0,
    n_images: Optional[int] = None,
    instruments: Optional[Instruments] = None,
) -> Scene:
    """Construct one crowd scenario without running it.

    Performs every construction statement of :func:`run_crowd` in the
    original order (byte-identity-gated by ``bench_crowd``) and returns a
    :class:`~repro.experiments.scene.Scene` whose ``finalize()`` produces
    the figure + payload once the sim reaches ``until``.
    """
    if scenario not in DEFAULT_USERS:
        raise ValueError(
            f"scenario must be one of {sorted(DEFAULT_USERS)}, got {scenario!r}"
        )
    if users is None:
        users = DEFAULT_USERS[scenario]
    if n_images is None:
        # Flash runs longer: the interactive session must outlive the
        # brownout exit (its images speed up under the pinned cheap
        # config, and the controller stops when the app finishes).
        n_images = 18 if scenario == "flash" else 10
    db, _dims, _configs = fig6a_database(seed=seed)
    preference = viz_preference()
    initial_point = viz_initial_point()

    ins = instruments or Instruments()
    app = make_viz_app()
    _scheduler, controller = build_viz_controller(app, db, preference, ins)
    config = controller.select_initial(initial_point).config

    testbed = Testbed(
        host_specs=app.env.host_specs(), link_specs=app.env.link_specs(),
        seed=seed, tiebreak=ins.tiebreak,
    )
    workload = VizWorkload(n_images=n_images, costs=EXP1_COSTS, seed=seed)
    rt = app.instantiate(
        testbed,
        config,
        limits={"client": ResourceLimits(net_bw=500e3)},
        workload=workload,
    )
    controller.attach(rt)
    server_agent, client_ex, server_ex = start_estimate_exchanges(rt, controller)

    source: Optional[CrowdSource] = None
    agent: Optional[CrowdAgent] = None
    guard: Optional[OverloadGuard] = None
    brownout_ctl: Optional[BrownoutController] = None
    baseline_stats: Dict[int, Dict[str, int]] = {}

    if scenario == "baseline":
        # Control group: every user is a real coroutine (the recovery
        # experiment's closed-loop client, verbatim).
        for uid in range(users):
            testbed.sim.process(
                closed_loop_viz_user(
                    rt, workload, rt.app_model, uid, _BASELINE_SPEC, seed,
                    baseline_stats, stream_prefix="crowd.baseline",
                ),
                name=f"crowd-{uid}",
            )
    else:
        crowd_classes, service_classes = _crowd_classes(scenario, users)
        if scenario == "flash":
            guard = OverloadGuard(
                OverloadPolicy(
                    queue_capacity=200_000, shed_depth=15_000, keep_priority=1
                ),
                sim=testbed.sim,
            )
        source = CrowdSource(
            testbed.sim,
            testbed.hosts["client"],
            SERVER_HOST,
            CROWD_PORT,
            crowd_classes,
            seed=seed,
            tick=0.25,
            horizon=until - 15.0,
            drain=10.0,
            label=scenario,
        )
        agent = CrowdAgent(
            testbed.sim,
            testbed.hosts[SERVER_HOST],
            CROWD_PORT,
            service_classes,
            config_fn=lambda: dict(rt.controls.current),
            guard=guard,
            source=source,
            tick=0.25,
        )
        # Monitor estimates sourced from crowd tallies: the controller's
        # agent samples per-class QoS satisfaction and realized rate from
        # the columnar state alongside its resource estimates.
        monitor = controller.monitor
        monitor.crowd = source
        monitor.retarget(
            watch=list(monitor.watch)
            + [f"crowd.{c.name}.qos" for c in crowd_classes]
            + [f"crowd.{c.name}.rate" for c in crowd_classes]
        )
        if guard is not None:
            brownout_ctl = BrownoutController(
                rt, controller, guard, Configuration(dict(CHEAP_CONFIG)),
                period=1.0, enter_shed_rate=0.3, exit_shed_rate=0.05,
                enter_after=2, exit_after=3,
            ).start()

    ins.attach(testbed, config)

    def _finalize():
        testbed.shutdown()
        return _summarize_crowd(
            scenario=scenario, seed=seed, users=users, until=until,
            n_images=n_images, controller=controller, rt=rt,
            workload=workload, testbed=testbed, source=source, guard=guard,
            brownout_ctl=brownout_ctl, baseline_stats=baseline_stats,
            client_ex=client_ex, server_ex=server_ex,
        )

    return Scene(
        name="crowd", seed=seed, until=until, testbed=testbed,
        finalize=_finalize, instruments=ins, rt=rt, controller=controller,
        workload=workload, guard=guard, brownout=brownout_ctl, crowd=source,
        client_exchange=client_ex, server_exchange=server_ex,
    )


def _summarize_crowd(
    scenario, seed, users, until, n_images, controller, rt, workload,
    testbed, source, guard, brownout_ctl, baseline_stats, client_ex,
    server_ex,
) -> Tuple[FigureResult, Dict]:
    payload: Dict = {
        "experiment": "crowd",
        "scenario": scenario,
        "seed": seed,
        "users": users,
        "until": until,
        "n_images": n_images,
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
        "network": {
            "delivered": testbed.network.messages_delivered,
            "lost": testbed.network.messages_lost,
            "parked": testbed.network.messages_parked_total,
        },
        "exchange": {
            "client_updates_received": client_ex.updates_received,
            "server_updates_received": server_ex.updates_received,
        },
        "finished": bool(rt.finished.triggered),
    }
    if source is not None:
        payload["classes"] = source.stats()
        payload["totals"] = source.totals()
        payload["crowd_closed"] = source.closed
    if scenario == "baseline":
        payload["classes"] = {
            "baseline": {
                "users": users,
                "served": sum(s["served"] for s in baseline_stats.values()),
                "shed": sum(s["shed"] for s in baseline_stats.values()),
            }
        }
    if guard is not None:
        payload["overload"] = {
            **guard.totals(),
            "brownout_windows": (
                [[t0, t1] for t0, t1 in brownout_ctl.windows]
                if brownout_ctl is not None
                else []
            ),
        }

    result = FigureResult(
        figure="Crowd",
        title=f"Aggregate-population adaptation ({scenario}, {users:,} users)",
        xlabel="time (s)",
        ylabel="image transmission time (s)",
    )
    series = result.new_series(f"interactive under {scenario} crowd")
    for t, duration in workload.image_times:
        series.add(t, duration)
    for switch in payload["switches"]:
        result.note(
            f"t={switch['t']:.1f}s: switched {switch['from']} -> {switch['to']}"
        )
    for name, row in sorted(payload.get("classes", {}).items()):
        if "issued" in row:
            total = row["satisfied"] + row["violated"]
            frac = row["satisfied"] / total if total else 1.0
            result.note(
                f"class {name}: {row['issued']} issued, "
                f"{row['served']} served, {row['shed']} shed, "
                f"{row['lost']} lost, QoS satisfaction {frac:.3f}"
            )
        else:
            result.note(
                f"class {name}: {row['served']} served, {row['shed']} shed"
            )
    if "overload" in payload:
        for t0, t1 in payload["overload"]["brownout_windows"]:
            t1s = f"{t1:.1f}" if t1 is not None else "end"
            result.note(f"brownout window: {t0:.1f}s .. {t1s}s")
    result.note(f"final config: {payload['final_config']}")
    return result, payload


def run_crowd(
    seed: int = 0,
    scenario: str = "diurnal",
    users: Optional[int] = None,
    until: float = 120.0,
    n_images: Optional[int] = None,
    instruments: Optional[Instruments] = None,
) -> Tuple[FigureResult, Dict]:
    """Run one crowd scenario; returns (figure, JSON-friendly payload).

    ``instruments`` is strictly passive, as in ``run_chaos`` — the payload
    is byte-identical with or without it.  Construction, run, and summary
    are :func:`build_crowd` + ``Scene.run``.
    """
    return build_crowd(
        seed=seed, scenario=scenario, users=users, until=until,
        n_images=n_images, instruments=instruments,
    ).run()


def crowd_cell(payload: Mapping, seed: int) -> Dict:
    """Module-level sweep job: one uninstrumented crowd scenario.

    ``payload`` selects the scenario (and optionally users/until), so the
    CLI's ``--jobs``/cache flags parallelize and memoize crowd runs like
    any other experiment cell.
    """
    n_images = payload.get("n_images")
    _fig, data = run_crowd(
        seed=seed,
        scenario=str(payload.get("scenario", "diurnal")),
        users=payload.get("users"),
        until=float(payload.get("until", 120.0)),
        n_images=None if n_images is None else int(n_images),
    )
    return data


def run_crowd_figure(seed: int = 0, engine=None) -> FigureResult:
    """The ``repro crowd`` target: all three scenarios side by side.

    Scenario cells run through :func:`sweep_cells` (cached JobSpecs), so
    repeat invocations replay from the content-addressed cache.
    """
    payloads = [
        {"scenario": "diurnal"},
        {"scenario": "flash"},
        {"scenario": "baseline"},
    ]
    results = sweep_cells(
        "repro.experiments.crowd:crowd_cell", payloads, seed=seed, engine=engine
    )
    result = FigureResult(
        figure="Crowd",
        title="Aggregate client populations: diurnal, flash, and baseline",
        xlabel="scenario",
        ylabel="QoS satisfaction fraction",
    )
    series = result.new_series("per-class QoS satisfaction")
    for i, data in enumerate(results):
        for name, row in sorted(data.get("classes", {}).items()):
            if "issued" not in row:
                continue
            total = row["satisfied"] + row["violated"]
            frac = row["satisfied"] / total if total else 1.0
            series.add(float(i), frac)
            result.note(
                f"{data['scenario']}/{name}: satisfaction {frac:.3f} "
                f"({row['issued']} issued, {row['shed']} shed, "
                f"{row['lost']} lost)"
            )
        result.note(
            f"{data['scenario']}: {len(data['switches'])} switches, "
            f"final config {data['final_config']}"
        )
        if "overload" in data:
            result.note(
                f"{data['scenario']}: brownout windows "
                f"{data['overload']['brownout_windows']}"
            )
    return result
