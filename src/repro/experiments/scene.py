"""Build/finalize split, the instrument bundle, and the scenario registry.

The experiment modules historically constructed, ran, and summarized a
scenario in one monolithic function.  The interactive context
(:mod:`repro.obs.interactive`) needs to *pause* between those stages —
construct everything, hand the simulator to the user for ``step()`` /
``run_until()`` driving, then produce the exact same payload at the end.

A :class:`Scene` is the contract between the two: ``build_<name>()``
performs every construction statement of the original ``run_<name>()``
in the original order (this is byte-identity-gated by the chaos/recovery
/crowd benchmarks), and stores a ``finalize`` closure holding everything
that used to follow ``testbed.run(...)``.  ``run_<name>()`` is then just
``build_<name>(...).run()``, so the monolithic entry points stay
bit-for-bit compatible while the interactive context can drive the
middle leg one event at a time.

Every builder takes one ``instruments=`` bundle (:class:`Instruments`)
instead of separate observer keyword arguments, and every consumer that
runs a scenario by name — ``repro trace|metrics|usage|perf|diff|report|
dash``, :class:`~repro.obs.InteractiveContext` and ``repro check
explore`` — looks it up in :data:`SCENARIOS`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["Instruments", "Registered", "SCENARIOS", "Scene"]


@dataclass
class Instruments:
    """The passive observers and exploration hooks of one run.

    ``recorder`` (a :class:`repro.obs.TraceRecorder`) emits the span/metric
    trace; ``usage`` (a :class:`repro.obs.UsageAccountant`) accounts served
    work per resource, process and configuration; ``profiler`` (a
    :class:`repro.obs.KernelProfiler`) attributes host wall-clock cost per
    kernel event bucket.  All three are strictly passive: the payload is
    byte-identical with or without them, and their results are read from
    the objects by the caller.

    ``tiebreak`` (a policy from :mod:`repro.analysis.schedule`) is handed
    to the scenario's simulator and controls the order of same-instant
    event ties (``None`` is the default FIFO).  ``detect_races`` attaches a
    :class:`repro.analysis.RaceDetector`; the scenario's payload then gains
    a ``"races"`` list (empty == the trajectory does not hinge on
    scheduling accidents).
    """

    recorder: Any = None
    usage: Any = None
    profiler: Any = None
    tiebreak: Any = None
    detect_races: bool = False

    def __post_init__(self) -> None:
        #: The race detector of the current attach (``detect_races``).
        self.detector: Any = None
        self._attached = False

    def attach(self, testbed, config=None) -> "Instruments":
        """Attach every observer to ``testbed``.

        The race detector watches every host mailbox; the detector,
        accountant and recorder each join ``sim.observers`` and the
        profiler hangs off ``sim.perf``.  ``config`` is the initial
        configuration the accountant attributes work to.
        """
        sim = testbed.sim
        self._attached = True
        if self.detect_races:
            from ..analysis.races import RaceDetector, watch

            self.detector = RaceDetector(sim).attach()
            for host_name in sorted(testbed.hosts):
                watch(self.detector, testbed.hosts[host_name])
        if self.usage is not None:
            self.usage.attach(sim)
            self.usage.track_testbed(testbed)
            if config is not None:
                self.usage.set_config(config.label(), t=sim.now)
        if self.recorder is not None:
            self.recorder.bind(sim)
        if self.profiler is not None:
            self.profiler.attach(sim)
        return self

    def add_races(self, payload: Dict) -> None:
        """Add this attach's race reports to ``payload`` (``detect_races``)."""
        if self.detector is not None:
            payload["races"] = [r.to_dict() for r in self.detector.finish()]

    def detach(self) -> None:
        """Finish and detach whatever :meth:`attach` installed (idempotent)."""
        if not self._attached:
            return
        self._attached = False
        if self.recorder is not None:
            self.recorder.finish()
            self.recorder.unbind()
        if self.usage is not None:
            self.usage.finish()
            self.usage.detach()
        if self.profiler is not None:
            self.profiler.detach()
        if self.detector is not None:
            self.detector.detach()


class Scene:
    """A constructed-but-not-yet-run experiment scenario.

    Attributes are discovery points for inspectors; any of them may be
    ``None`` when the scenario does not use that subsystem.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        until: float,
        testbed,
        finalize: Callable[[], Tuple[Any, Dict]],
        instruments: Instruments,
        rt=None,
        controller=None,
        workload=None,
        injector=None,
        supervisor=None,
        guard=None,
        brownout=None,
        client_exchange=None,
        server_exchange=None,
        crowd=None,
    ):
        self.name = name
        self.seed = seed
        #: Default run horizon; ``finalize`` assumes the sim has reached a
        #: state equivalent to ``testbed.run(until=self.until)``.
        self.until = until
        self.testbed = testbed
        self.instruments = instruments
        self.rt = rt
        self.controller = controller
        self.workload = workload
        self.injector = injector
        self.supervisor = supervisor
        self.guard = guard
        self.brownout = brownout
        self.client_exchange = client_exchange
        self.server_exchange = server_exchange
        self.crowd = crowd
        self._finalize = finalize
        self.result: Optional[Tuple[Any, Dict]] = None

    @property
    def sim(self):
        return self.testbed.sim

    @property
    def finalized(self) -> bool:
        return self.result is not None

    def run(self) -> Tuple[Any, Dict]:
        """Run to the horizon and finalize: the monolithic ``run_<name>()``."""
        try:
            self.testbed.run(until=self.until)
        except BaseException:
            self.instruments.detach()
            raise
        return self.finalize()

    def finalize(self) -> Tuple[Any, Dict]:
        """Tear down and summarize; idempotent (the payload is cached).

        The instruments are detached even when finalization raises, so a
        run that fails its completion check leaves them reusable.
        """
        if self.result is None:
            try:
                self.result = self._finalize()
            finally:
                self.instruments.detach()
        return self.result


def _resolve(ref: str) -> Callable:
    module_name, _, attr = ref.partition(":")
    return getattr(importlib.import_module(module_name), attr)


@dataclass(frozen=True)
class Registered:
    """One named scenario: how to run it instrumented, and how to step it.

    ``build`` is a ``module:callable`` Scene builder (steppable runs);
    ``run`` a ``module:callable`` for runs that are not a single Scene,
    such as the profiling-database sweeps.  An entry without ``run`` runs
    through its Scene, so its result is the Scene's ``(figure, payload)``.
    Both are called as ``f(seed=..., instruments=...)``; a builder also
    takes its own keyword arguments when driven interactively.
    """

    description: str
    build: Optional[str] = None
    run: Optional[str] = None

    def builder(self) -> Callable:
        return _resolve(self.build)

    def execute(self, seed: int, instruments: Optional[Instruments] = None) -> Any:
        """Run the scenario to completion and return its result."""
        if self.run is not None:
            return _resolve(self.run)(seed=seed, instruments=instruments)
        return self.builder()(seed=seed, instruments=instruments).run()


#: Scenario name -> :class:`Registered`.  ``fig5`` runs the Fig. 5
#: profiling sweep; its steppable form is the adaptive session that
#: ``fig5sess`` runs.  It, Section 7's adaptive runs (``fig7a``/``fig7b``/
#: ``fig7cd``) and ``ext-memory`` come from one builder,
#: :func:`repro.experiments.common.build_adaptive_session`.  The fig3/fig4
#: sweeps are not here: drive those through ``repro dash``/``repro sweep``.
SCENARIOS: Dict[str, Registered] = {
    "fig5": Registered(
        "Fig. 5 profiling sweep (fovea size x CPU share)",
        build="repro.experiments.fig5:build_fig5_session",
        run="repro.experiments.fig5:fig5_database",
    ),
    "fig5sess": Registered(
        "adaptive Experiment-3 session as the client CPU share steps",
        build="repro.experiments.fig5:build_fig5_session",
    ),
    "fig6a": Registered(
        "Fig. 6a profiling sweep (codec x bandwidth)",
        run="repro.experiments.fig6:fig6a_database",
    ),
    "fig6b": Registered(
        "Fig. 6b profiling sweep (resolution x CPU share)",
        run="repro.experiments.fig6:fig6b_database",
    ),
    "chaos": Registered(
        "adaptation trajectory through crash/partition/loss faults",
        build="repro.experiments.chaos:build_chaos",
    ),
    "recovery": Registered(
        "supervision, checkpoint restart, failover, and overload shedding",
        build="repro.experiments.recovery:build_recovery",
    ),
    "crowd": Registered(
        "aggregate crowd population under the overload guard",
        build="repro.experiments.crowd:build_crowd",
    ),
    "fig7a": Registered(
        "Experiment 1 adaptive run: bandwidth drop, compression switch",
        build="repro.experiments.fig7:build_fig7a",
    ),
    "fig7b": Registered(
        "Experiment 2 adaptive run: CPU drop, resolution degrade",
        build="repro.experiments.fig7:build_fig7b",
    ),
    "fig7cd": Registered(
        "Experiment 3 adaptive run: CPU drop, fovea shrink",
        build="repro.experiments.fig7:build_fig7cd",
    ),
    "ext-memory": Registered(
        "memory extension adaptive run: resident-limit drop, re-tiling",
        build="repro.experiments.extension_memory:build_memory_session",
    ),
}
