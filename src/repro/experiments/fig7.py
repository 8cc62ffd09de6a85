"""Figure 7: run-time adaptation experiments (Section 7).

Each experiment runs the adaptive application against a mid-run resource
variation and also runs the two relevant static configurations, plotting
per-image metrics versus time:

- Experiment 1 (Fig. 7a): network bandwidth 500 KB/s -> 50 KB/s at t=25 s;
  objective: minimize transmission time; adaptation switches compression
  A -> B mid-image.
- Experiment 2 (Fig. 7b): CPU share 90 % -> 40 % at t=30 s; constraint:
  transmission time <= 10 s, maximize resolution; adaptation degrades the
  resolution level 4 -> 3.
- Experiment 3 (Fig. 7c/d): CPU share 90 % -> 40 % at t=40 s; constraint:
  average response time <= 1 s, minimize transmission time; adaptation
  shrinks the fovea 320 -> 80.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..apps.visualization import VizCosts, VizWorkload, make_viz_app
from ..profiling import PerformanceDatabase, ResourcePoint
from ..runtime import AdaptationEvent, Objective, UserPreference
from ..sandbox import ResourceLimits
from ..tunable import Configuration, MetricRange
from .common import FigureResult, build_adaptive_session, sweep_cells
from .fig5 import EXP3_BW, EXP3_COSTS, fig5_database
from .fig6 import EXP1_COSTS, EXP2_BW, EXP2_COSTS, fig6a_database, fig6b_database
from .scene import Instruments, Scene

__all__ = [
    "AdaptiveRun",
    "EXPERIMENTS",
    "build_fig7_run",
    "run_experiment1",
    "run_experiment2",
    "run_experiment3",
    "summarize_run",
]


@dataclass
class AdaptiveRun:
    """Everything observed in one (adaptive or static) run.

    Holds plain data (not live workload objects) so a run can cross a
    process boundary: Fig-7 scenarios execute as sweep-engine jobs that
    return :meth:`to_dict`, and the parent rebuilds the run with
    :meth:`from_dict` — byte-identically.
    """

    label: str
    qos: Dict[str, float]
    image_times: List[Tuple[float, float]] = field(default_factory=list)
    round_times: List[Tuple[float, float]] = field(default_factory=list)
    switches: List[Tuple[float, Configuration, Configuration]] = field(
        default_factory=list
    )
    events: List[AdaptationEvent] = field(default_factory=list)
    total_time: float = 0.0

    @property
    def image_series(self) -> List[Tuple[float, float]]:
        return list(self.image_times)

    @property
    def response_series(self) -> List[Tuple[float, float]]:
        return list(self.round_times)

    def to_dict(self) -> dict:
        """JSON-able form (ships runs across process boundaries)."""
        return {
            "label": self.label,
            "qos": dict(self.qos),
            "image_times": [[t, d] for t, d in self.image_times],
            "round_times": [[t, d] for t, d in self.round_times],
            "switches": [
                [t, dict(old), dict(new)] for t, old, new in self.switches
            ],
            "events": [
                {
                    "time": e.time,
                    "kind": e.kind,
                    "config": dict(e.config) if e.config is not None else None,
                    "estimates": dict(e.estimates),
                }
                for e in self.events
            ],
            "total_time": self.total_time,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptiveRun":
        """Inverse of :meth:`to_dict`."""
        return cls(
            label=data["label"],
            qos={k: float(v) for k, v in data["qos"].items()},
            image_times=[(float(t), float(d)) for t, d in data["image_times"]],
            round_times=[(float(t), float(d)) for t, d in data["round_times"]],
            switches=[
                (float(t), Configuration(old), Configuration(new))
                for t, old, new in data["switches"]
            ],
            events=[
                AdaptationEvent(
                    time=float(e["time"]),
                    kind=e["kind"],
                    config=(
                        Configuration(e["config"])
                        if e["config"] is not None
                        else None
                    ),
                    estimates={k: float(v) for k, v in e["estimates"].items()},
                )
                for e in data["events"]
            ],
            total_time=float(data["total_time"]),
        )


def summarize_run(label: str, scene: Scene) -> Tuple[FigureResult, Dict]:
    """One finished visualization session as (figure, :class:`AdaptiveRun` dict)."""
    rt, workload = scene.rt, scene.workload
    run = AdaptiveRun(
        label=label,
        qos=rt.qos.snapshot(),
        image_times=list(workload.image_times),
        round_times=list(workload.round_times),
        switches=list(rt.controls.history),
        events=list(scene.controller.events) if scene.controller else [],
        total_time=workload.image_times[-1][0] if workload.image_times else 0.0,
    )
    figure = FigureResult(
        figure=scene.name, title=f"{label} run", xlabel="time (s)",
        ylabel="image transmission time (s)",
    )
    _plot(figure, {label: run}, "image_times")
    return figure, run.to_dict()


@dataclass(frozen=True)
class Experiment:
    """One Section 7 experiment: its scenario and its comparison runs.

    The client sandbox starts at ``limits`` (resources ``point``) and is
    retargeted to ``varied`` at ``switch_at``.  The preference optimizes
    ``objective``, subject to ``bounded <= bound`` when ``bounded`` names
    a metric.  ``statics`` maps each static comparison run to its label
    and forced configuration; ``database`` profiles the experiment's
    performance database.
    """

    database: Callable
    costs: VizCosts
    objective: Objective
    bounded: Optional[str]
    point: Dict[str, float]
    limits: ResourceLimits
    varied: ResourceLimits
    statics: Dict[str, Tuple[str, Configuration]]
    n_images: int
    switch_at: float
    bound: Optional[float] = None


def _config(dR: int = 320, c: str = "lzw", l: int = 4) -> Configuration:
    return Configuration({"dR": dR, "c": c, "l": l})


#: The Section 7 experiments, keyed by their figure.
EXPERIMENTS: Dict[str, Experiment] = {
    "fig7a": Experiment(
        fig6a_database, EXP1_COSTS, Objective("transmit_time", "minimize"),
        None, {"client.cpu": 1.0, "client.network": 500e3},
        ResourceLimits(net_bw=500e3), ResourceLimits(net_bw=50e3),
        {"lzw": ("static lzw", _config()),
         "bzip2": ("static bzip2", _config(c="bzip2"))},
        n_images=10, switch_at=25.0,
    ),
    "fig7b": Experiment(
        fig6b_database, EXP2_COSTS, Objective("resolution", "maximize"),
        "transmit_time", {"client.cpu": 0.9, "client.network": EXP2_BW},
        ResourceLimits(cpu_share=0.9, net_bw=EXP2_BW),
        ResourceLimits(cpu_share=0.4, net_bw=EXP2_BW),
        {"l4": ("static level 4", _config()),
         "l3": ("static level 3", _config(l=3))},
        n_images=10, switch_at=30.0, bound=10.0,
    ),
    "fig7cd": Experiment(
        fig5_database, EXP3_COSTS, Objective("transmit_time", "minimize"),
        "response_time", {"client.cpu": 0.9, "client.network": EXP3_BW},
        ResourceLimits(cpu_share=0.9, net_bw=EXP3_BW),
        ResourceLimits(cpu_share=0.4, net_bw=EXP3_BW),
        {"dR320": ("static fovea 320", _config()),
         "dR80": ("static fovea 80", _config(dR=80))},
        n_images=16, switch_at=40.0, bound=1.0,
    ),
}

#: Section 7's controller tuning: the controller defaults, with the
#: experiments' 2 s monitor window and 5 s cooldown.
FIG7_TUNING = {"monitor_kwargs": {"window": 2.0, "cooldown": 5.0, "period": 0.01}}


def build_fig7_run(
    experiment: str, run: str = "adaptive", seed: int = 0,
    n_images: Optional[int] = None, switch_at: Optional[float] = None,
    bound: Optional[float] = None, db: Optional[PerformanceDatabase] = None,
    instruments: Optional[Instruments] = None,
) -> Scene:
    """One run of a Section 7 experiment (:data:`EXPERIMENTS`) as a Scene.

    ``run`` is ``"adaptive"`` or one of the experiment's static keys.
    Unset parameters take the experiment's defaults; ``db`` defaults to
    its profiling database at ``seed``.  The payload is the run's
    :meth:`AdaptiveRun.to_dict`.
    """
    spec = EXPERIMENTS[experiment]
    n_images = spec.n_images if n_images is None else n_images
    switch_at = spec.switch_at if switch_at is None else switch_at
    bound = spec.bound if bound is None else bound
    if db is None:
        db, _dims, _configs = spec.database(seed=seed)
    ranges = [MetricRange(spec.bounded, hi=bound)] if spec.bounded else []
    label, forced = ("adaptive", None) if run == "adaptive" else spec.statics[run]
    return build_adaptive_session(
        experiment, make_viz_app(), db,
        UserPreference.single(spec.objective, ranges),
        ResourcePoint(spec.point), {"client": spec.limits},
        ((switch_at, spec.varied),),
        workload=VizWorkload(n_images=n_images, costs=spec.costs, seed=seed),
        summarize=partial(summarize_run, label),
        forced_config=forced, tuning=FIG7_TUNING,
        seed=seed, instruments=instruments,
    )


#: The registered Scene builders (``scene.SCENARIOS``): each experiment's
#: adaptive run.
build_fig7a = partial(build_fig7_run, "fig7a")
build_fig7b = partial(build_fig7_run, "fig7b")
build_fig7cd = partial(build_fig7_run, "fig7cd")


def _cell(payload: dict, seed: int) -> dict:
    """Sweep job: one Section 7 run, as :meth:`AdaptiveRun.to_dict`."""
    db = PerformanceDatabase.from_dict(payload["db"])
    return build_fig7_run(seed=seed, **dict(payload, db=db)).run()[1]


def _runs(
    experiment: str, seed: int, db, engine, **params: Any
) -> Dict[str, AdaptiveRun]:
    """The adaptive and the static runs of one experiment, as sweep cells."""
    spec = EXPERIMENTS[experiment]
    if db is None:
        db, _dims, _configs = spec.database(seed=seed, engine=engine)
    keys = ("adaptive", *spec.statics)
    db_dict = db.to_dict()
    values = sweep_cells(
        "repro.experiments.fig7:_cell",
        [dict(params, experiment=experiment, run=key, db=db_dict) for key in keys],
        seed=seed,
        engine=engine,
    )
    return {key: AdaptiveRun.from_dict(value) for key, value in zip(keys, values)}


def _plot(figure: FigureResult, runs: Dict[str, AdaptiveRun], attr: str,
          labels: Optional[Dict[str, str]] = None) -> None:
    """One series of ``attr`` per run, named by ``labels`` or the run label."""
    for key, run in runs.items():
        series = figure.new_series((labels or {}).get(key, run.label))
        for t, duration in getattr(run, attr):
            series.add(t, duration)


def run_experiment1(
    seed: int = 0,
    n_images: int = 10,
    switch_at: float = 25.0,
    db: Optional[PerformanceDatabase] = None,
    engine=None,
) -> Tuple[FigureResult, Dict[str, AdaptiveRun]]:
    """Adapting the compression method to network conditions (Fig. 7a)."""
    runs = _runs("fig7a", seed, db, engine, n_images=n_images,
                 switch_at=switch_at)

    result = FigureResult(
        figure="Fig 7a",
        title="Adapting compression method when bandwidth drops "
        f"500 KB/s -> 50 KB/s at t={switch_at:g}s",
        xlabel="time (s)",
        ylabel="image transmission time (s)",
    )
    _plot(result, runs, "image_times",
          {"lzw": "static A (LZW)", "bzip2": "static B (bzip2)"})
    if runs["adaptive"].switches:
        t_switch, old, new = runs["adaptive"].switches[0]
        result.note(
            f"adaptive switched {old.c} -> {new.c} at t={t_switch:.1f}s"
        )
    result.note(
        f"total: adaptive={runs['adaptive'].total_time:.0f}s, "
        f"static A={runs['lzw'].total_time:.0f}s, "
        f"static B={runs['bzip2'].total_time:.0f}s"
    )
    return result, runs


def run_experiment2(
    seed: int = 0,
    n_images: int = 10,
    switch_at: float = 30.0,
    deadline: float = 10.0,
    db: Optional[PerformanceDatabase] = None,
    engine=None,
) -> Tuple[FigureResult, Dict[str, AdaptiveRun]]:
    """Adapting image resolution to CPU conditions (Fig. 7b)."""
    runs = _runs("fig7b", seed, db, engine, n_images=n_images,
                 switch_at=switch_at, bound=deadline)

    result = FigureResult(
        figure="Fig 7b",
        title="Degrading image resolution when CPU share drops 90% -> 40% "
        f"at t={switch_at:g}s (deadline {deadline:g}s)",
        xlabel="time (s)",
        ylabel="image transmission time (s)",
    )
    _plot(result, runs, "image_times")
    if runs["adaptive"].switches:
        t_switch, old, new = runs["adaptive"].switches[0]
        result.note(f"adaptive switched level {old.l} -> {new.l} at t={t_switch:.1f}s")
    return result, runs


def run_experiment3(
    seed: int = 0,
    n_images: int = 16,
    switch_at: float = 40.0,
    response_bound: float = 1.0,
    db: Optional[PerformanceDatabase] = None,
    engine=None,
) -> Tuple[FigureResult, FigureResult, Dict[str, AdaptiveRun]]:
    """Adapting fovea size to CPU conditions (Figs. 7c and 7d)."""
    runs = _runs("fig7cd", seed, db, engine, n_images=n_images,
                 switch_at=switch_at, bound=response_bound)

    fig_c = FigureResult(
        figure="Fig 7c",
        title="Response time while adapting fovea size (CPU 90% -> 40% "
        f"at t={switch_at:g}s, bound {response_bound:g}s)",
        xlabel="time (s)",
        ylabel="round response time (s)",
    )
    fig_d = FigureResult(
        figure="Fig 7d",
        title="Transmission time while adapting fovea size",
        xlabel="time (s)",
        ylabel="image transmission time (s)",
    )
    _plot(fig_c, runs, "round_times")
    _plot(fig_d, runs, "image_times")
    if runs["adaptive"].switches:
        t_switch, old, new = runs["adaptive"].switches[0]
        fig_c.note(f"adaptive switched fovea {old.dR} -> {new.dR} at t={t_switch:.1f}s")
    return fig_c, fig_d, runs
