"""Shared experiment harness: series containers, rendering, sweep plumbing.

Every figure module returns a :class:`FigureResult` holding named
:class:`Series`; benchmarks assert on the series' qualitative shape and the
harness prints them as aligned tables plus an ASCII sketch, so the paper's
plots can be eyeballed straight from the terminal.

Grid loops inside the figure modules run their cells through
:func:`sweep_cells` (re-exported from :mod:`repro.exec`): each cell is a
pure module-level job function, so the CLI's ``--jobs``/``--no-cache``
flags parallelize and memoize every experiment without the figure code
knowing — and with ``jobs=1`` the cells execute inline, preserving the
serial path byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..exec import sweep_cells

__all__ = [
    "Series",
    "FigureResult",
    "render_table",
    "ascii_plot",
    "sweep_cells",
    "viz_preference",
    "viz_initial_point",
    "VIZ_TUNING",
    "build_controller",
    "build_adaptive_session",
    "start_estimate_exchanges",
    "vary",
    "closed_loop_viz_user",
]


@dataclass
class Series:
    """One plotted curve: (x, y) points plus a label."""

    label: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((float(x), float(y)))

    @property
    def xs(self) -> List[float]:
        return [x for x, _ in self.points]

    @property
    def ys(self) -> List[float]:
        return [y for _, y in self.points]

    def y_at(self, x: float, tol: float = 1e-9) -> float:
        for px, py in self.points:
            if abs(px - x) <= tol:
                return py
        raise KeyError(f"series {self.label!r} has no point at x={x!r}")

    def monotone(self) -> str:
        """"increasing" / "decreasing" / "mixed" over x order."""
        ys = [y for _, y in sorted(self.points)]
        inc = all(a <= b + 1e-12 for a, b in zip(ys, ys[1:]))
        dec = all(a >= b - 1e-12 for a, b in zip(ys, ys[1:]))
        if inc and not dec:
            return "increasing"
        if dec and not inc:
            return "decreasing"
        if inc and dec:
            return "constant"
        return "mixed"


@dataclass
class FigureResult:
    """All series of one reproduced figure, plus free-form notes."""

    figure: str
    title: str
    xlabel: str
    ylabel: str
    series: Dict[str, Series] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def new_series(self, label: str) -> Series:
        s = Series(label)
        self.series[label] = s
        return s

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self, plot: bool = True, width: int = 72, height: int = 16) -> str:
        out = [f"== {self.figure}: {self.title} =="]
        out.append(render_table(self))
        if plot and any(s.points for s in self.series.values()):
            out.append(ascii_plot(self, width=width, height=height))
        for note in self.notes:
            out.append(f"  note: {note}")
        return "\n".join(out)


def render_table(result: FigureResult) -> str:
    """Aligned x/series table of every curve in the figure."""
    xs: List[float] = sorted({x for s in result.series.values() for x, _ in s.points})
    labels = list(result.series)
    header = [result.xlabel] + labels
    rows = [header]
    for x in xs:
        row = [f"{x:g}"]
        for label in labels:
            try:
                row.append(f"{result.series[label].y_at(x):.3f}")
            except KeyError:
                row.append("-")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


_MARKS = "*o+x#@%&"


def ascii_plot(result: FigureResult, width: int = 72, height: int = 16) -> str:
    """Minimal terminal scatter of every series (one mark per series)."""
    pts = [(x, y) for s in result.series.values() for x, y in s.points]
    if not pts:
        return "(no data)"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    grid = [[" "] * width for _ in range(height)]
    for i, (label, series) in enumerate(result.series.items()):
        mark = _MARKS[i % len(_MARKS)]
        for x, y in series.points:
            col = int((x - x0) / (x1 - x0) * (width - 1))
            row = height - 1 - int((y - y0) / (y1 - y0) * (height - 1))
            grid[row][col] = mark
    lines = [f"{y1:10.3g} +" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{y0:10.3g} +" + "".join(grid[-1]))
    lines.append(
        " " * 12 + f"{x0:<12g}{result.xlabel:^{max(0, width - 24)}}{x1:>12g}"
    )
    legend = "   ".join(
        f"{_MARKS[i % len(_MARKS)]}={label}" for i, label in enumerate(result.series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared scenario factories (used by chaos, recovery, and crowd experiments).
#
# These used to be copy-pasted per experiment; they are centralized here so
# coroutine and crowd scenarios build the *same* adaptation runtime.  Keep
# construction order and RNG stream names stable: the chaos/recovery
# benchmark payloads are byte-identity-gated.
# ---------------------------------------------------------------------------


def viz_preference():
    """The experiments' common user preference: minimize transmit time."""
    from ..runtime import Objective, UserPreference

    return UserPreference.single(Objective("transmit_time", "minimize"))


def viz_initial_point():
    """The initial resource availability every scenario starts from."""
    from ..profiling import ResourcePoint

    return ResourcePoint({"client.cpu": 1.0, "client.network": 500e3})


#: The monitor window/cooldown and steering retry policy the fault, crowd
#: and fig5-session experiments have used since the chaos run was first
#: benchmarked — change them and replay byte-identity breaks.
VIZ_TUNING: Dict[str, Any] = {
    "monitor_kwargs": {"window": 2.0, "cooldown": 5.0, "period": 0.01},
    "steering_kwargs": {"ack_timeout": 2.0, "max_retries": 2, "backoff": 2.0},
    "watchdog_period": 0.5,
}


def build_controller(app, db, preference, instruments, tuning=VIZ_TUNING,
                     optimality_slack=0.1):
    """Adaptation controller (and its scheduler) for ``app`` over ``db``.

    ``tuning`` holds :class:`~repro.runtime.AdaptationController` keyword
    arguments; ``optimality_slack`` is the scheduler's.
    """
    from ..runtime import AdaptationController, ResourceScheduler
    from ..tunable import Preprocessor

    return AdaptationController(
        ResourceScheduler(db, preference, optimality_slack=optimality_slack),
        monitoring_plan=Preprocessor(app).monitoring_plan(),
        recorder=instruments.recorder,
        **tuning,
    )


def start_estimate_exchanges(rt, controller):
    """Bidirectional estimate exchange + controller watchdog.

    Returns both exchange endpoints ``(client_ex, server_ex)``, started.
    """
    from ..runtime import MonitorExchange, MonitoringAgent

    server_agent = MonitoringAgent(rt, watch=["server.cpu"], period=0.05).start()
    client_ex = MonitorExchange(
        rt, controller.monitor, "client", ["server"],
        stale_after=2.0, heartbeat_every=0.5,
    ).start()
    server_ex = MonitorExchange(
        rt, server_agent, "server", ["client"],
        stale_after=2.0, heartbeat_every=0.5,
    ).start()
    controller.start_watchdog(client_ex)
    return client_ex, server_ex


def vary(testbed, sandbox, steps):
    """Process body: set ``sandbox``'s limits at each ``(at, limits)`` step."""
    for at, limits in steps:
        yield testbed.sim.timeout(at - testbed.sim.now)
        sandbox.set_limits(limits)


def build_adaptive_session(
    name: str, app, db, preference, initial_point,
    limits: Mapping[str, Any], variations: Tuple = (), *,
    workload, summarize: Callable, forced_config=None, tuning=VIZ_TUNING,
    optimality_slack: float = 0.1, exchanges: bool = False,
    sandbox_kwargs: Optional[Mapping[str, Any]] = None, seed: int = 0,
    until: float = 10_000.0, instruments=None,
):
    """One application session under run-time adaptation, as a Scene.

    ``app`` runs ``workload`` over ``db`` in a testbed whose one limited
    sandbox starts at ``limits`` (``{host: ResourceLimits}``) and is
    retargeted by the ``(at, ResourceLimits)`` steps of ``variations``.
    Without ``forced_config`` the controller (see :func:`build_controller`)
    picks the start configuration for ``initial_point`` and adapts, with
    the estimate exchange if ``exchanges``; with one, the run is static.
    ``finalize`` checks the run finished and returns ``summarize(scene)``,
    the ``(figure, payload)`` each caller shapes.

    The construction order (controller, selection, testbed, instantiate,
    attach, exchanges, ``instruments.attach``, ``vary``) is pinned by the
    payload and trace digests of every caller.
    """
    from ..sandbox import Testbed
    from .scene import Instruments, Scene

    ins = instruments or Instruments()
    controller = build_controller(app, db, preference, ins, tuning, optimality_slack)
    adaptive = forced_config is None
    config = forced_config
    if adaptive:
        config = controller.select_initial(initial_point).config
    testbed = Testbed(
        host_specs=app.env.host_specs(), link_specs=app.env.link_specs(),
        seed=seed, tiebreak=ins.tiebreak,
    )
    rt = app.instantiate(
        testbed, config, limits=limits, workload=workload,
        sandbox_kwargs=sandbox_kwargs,
    )
    client_ex = server_ex = None
    if adaptive:
        controller.attach(rt)
        if exchanges:
            client_ex, server_ex = start_estimate_exchanges(rt, controller)
    ins.attach(testbed, config)
    if variations:
        (host,) = limits
        testbed.sim.process(vary(testbed, rt.sandboxes[host], variations))

    def _finalize():
        testbed.shutdown()
        if not rt.finished.triggered:
            raise RuntimeError(f"{name} run did not finish by t={until}")
        return summarize(scene)

    scene = Scene(
        name=name, seed=seed, until=until, testbed=testbed,
        finalize=_finalize, instruments=ins, rt=rt,
        controller=controller if adaptive else None, workload=workload,
        client_exchange=client_ex, server_exchange=server_ex,
    )
    return scene


def closed_loop_viz_user(rt, workload, model, uid, spec, seed, stats,
                         stream_prefix="recovery.crowd",
                         port_prefix="viz.crowd"):
    """One closed-loop background user: small foveal requests, QoS class 0.

    The coroutine counterpart of one crowd-class user — the recovery
    experiment's flash crowd runs N of these, and the crowd benchmark's
    baseline scenario reuses them verbatim.  Think times draw from the
    per-user ``<stream_prefix>.<uid>`` stream, never the global RNG.
    """
    from ..apps.visualization.protocol import (
        REQ_PORT,
        REQUEST_WIRE_BYTES,
        FovealRequest,
    )
    from ..apps.visualization.server import SERVER_HOST
    from ..sim import stream

    sandbox = rt.sandboxes["client"]
    sim = rt.sim
    rng = stream(seed, f"{stream_prefix}.{uid}")
    port = f"{port_prefix}.{uid}"
    level = int(spec["level"])
    side = model.level_side(level)
    end = float(spec["start"]) + float(spec["duration"])
    stats[uid] = {"served": 0, "shed": 0}
    # Deterministic ramp: users arrive staggered, not as one thundering tick.
    yield sandbox.sleep(float(spec["start"]) + 0.05 * uid)
    seq = 0
    while sim.now < end:
        req = FovealRequest(
            image_id=uid % workload.n_images,
            x=side // 2,
            y=side // 2,
            r0=0,
            r1=int(spec["r1"]),
            level=level,
            seq=seq,
            priority=0,
            reply_port=port,
        )
        yield sandbox.send(SERVER_HOST, REQ_PORT, req, size=REQUEST_WIRE_BYTES)
        msg = yield sandbox.recv(port)
        if getattr(msg.payload, "shed", False):
            stats[uid]["shed"] += 1
        else:
            stats[uid]["served"] += 1
        seq += 1
        yield sandbox.sleep(float(spec["think"]) * (0.5 + rng.random()))
