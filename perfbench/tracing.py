"""Passive layer tracing for the benchmark's traced run.

:class:`Tracer` patches the public (and a few private) functions at each
layer boundary of ``repro`` with wrappers that record a span — layer
name, start, end, parent span, run id — and bump counters, then call
through unchanged.  Kernel-resumed coroutines are attributed by the
module of their generator (a wrapper on ``Process._resume``), and
callbacks scheduled with ``Simulator.schedule_callback`` by the module of
the scheduled function, so the monitor tick and the per-message sandbox
coroutines land in their own layers instead of the kernel's.  A layer's
self time is its spans' durations minus the part their child spans
cover.  Exact event and heap-push counts come from a burst-sampling
``KernelProfiler`` attached for the duration of each ``Simulator.run``.

The wrappers never touch simulation state, so traced payloads are
byte-identical to untraced ones; the benchmark asserts that on every
traced run.  ``uninstall()`` restores every patched attribute.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: Module prefix -> layer (the longest matching prefix wins).
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.fluid", "sim.fluid"),
    ("repro.sim.aggregate", "sim.aggregate"),
    ("repro.sim", "sim"),
    ("repro.sandbox", "sandbox"),
    ("repro.cluster.network", "cluster.net"),
    ("repro.cluster.link", "cluster.link"),
    ("repro.cluster", "cluster"),
    ("repro.runtime.monitor", "runtime.monitor"),
    ("repro.runtime.history", "runtime.history"),
    ("repro.runtime.scheduler", "runtime.scheduler"),
    ("repro.runtime.system_scheduler", "runtime.scheduler"),
    ("repro.runtime.exchange", "runtime.exchange"),
    ("repro.runtime.steering", "runtime.steering"),
    ("repro.runtime", "runtime"),
    ("repro.profiling.interpolate", "profiling.interpolate"),
    ("repro.profiling", "profiling"),
    ("repro.exec", "exec"),
    ("repro.codecs", "codecs"),
    ("repro.crowd", "crowd"),
    ("repro.recovery", "recovery"),
    ("repro.faults", "faults"),
    ("repro.apps", "app"),
    ("repro.tunable", "app"),
    ("repro.experiments", "experiments"),
    ("repro.obs", "obs"),
)

#: Span name of the benchmark's own per-scenario root span; its self time
#: is traced wall time no layer span covers.
ROOT = "scenario"


def layer_of_module(module: Optional[str]) -> str:
    best, best_len = "other", -1
    for prefix, layer in MODULE_LAYERS:
        if module and (module == prefix or module.startswith(prefix + ".")):
            if len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


def _count(key: str, amount: Any = 1):
    """``before`` hook adding ``amount`` (a number, or fn(args, kwargs))."""
    if callable(amount):
        return lambda counts, args, kwargs: _add(counts, key, amount(args, kwargs))
    return lambda counts, args, kwargs: _add(counts, key, amount)


def _add(counts: Dict[str, float], key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def _arg(index: int, name: str, default: Any = None):
    """Positional-or-keyword argument getter (index counts ``self``)."""
    return lambda args, kwargs: (
        args[index] if len(args) > index else kwargs.get(name, default)
    )


def _all(*hooks):
    return lambda counts, args, kwargs: [h(counts, args, kwargs) for h in hooks]


def _fluid_call(counts, args, kwargs):
    _add(counts, "sim.fluid.calls", 1)
    _add(counts, "sim.fluid.jobs", args[0].active_jobs)


def _engine_hits(counts, args, result):
    _add(counts, "exec.cache_hits", sum(1 for r in result.outcomes if r.cached))


def _admit_outcome(counts, args, result):
    if not result:
        _add(counts, "recovery.shed", 1)
        # A crowd batch is shed whole: all of its ``n`` requests.
        _add(counts, "crowd.shed", getattr(args[1], "n", 0))


def _restarts_before(counts, args, kwargs):
    counts["recovery._before"] = args[0].restarts


def _restarts_after(counts, args, result):
    # ``_restart`` returns early for stale or shut-down services.
    _add(counts, "recovery.restarts", args[0].restarts - counts.pop("recovery._before"))


_FLUID_MUTATORS = ("submit", "add_work", "set_weight", "set_cap", "set_speed",
                   "cancel", "sync")
_AGGREGATE_CALLS = ("add", "set_rate", "set_weight", "drained", "pending", "cancel")

#: (module, "Class.method", span layer or None for count-only, before, after).
#: ``before(counts, args, kwargs)`` runs ahead of the call, ``after(counts,
#: args, result)`` after a successful return.  Calls that stay inside the
#: caller's layer are count-only: a span there would add tracing cost but
#: no attribution.
HOOKS: List[Tuple[str, str, Optional[str], Any, Any]] = (
    [("repro.sim.core", "Process.__init__", None, _count("sim.processes"), None)]
    + [("repro.sim.fluid", f"FluidShare.{m}", "sim.fluid", _fluid_call, None)
       for m in _FLUID_MUTATORS]
    + [("repro.sim.aggregate", f"AggregateFlow.{m}", "sim.aggregate",
        _count("sim.aggregate.calls"), None) for m in _AGGREGATE_CALLS]
    + [
        ("repro.sandbox.sandbox", "Sandbox.send", "sandbox", _count("sandbox.sends"), None),
        ("repro.sandbox.sandbox", "Sandbox.recv", "sandbox", _count("sandbox.recvs"), None),
        ("repro.sandbox.sandbox", "Sandbox.compute", "sandbox",
         _count("sandbox.computes"), None),
        ("repro.sandbox.sandbox", "Sandbox.disk_read", "sandbox", None, None),
        ("repro.sandbox.sandbox", "Sandbox.disk_write", "sandbox", None, None),
        ("repro.sandbox.sandbox", "Sandbox.touch_pages", "sandbox", None, None),
        ("repro.sandbox.sandbox", "Sandbox.set_limits", "sandbox", None, None),
        ("repro.cluster.network", "Network.send", "cluster.net",
         _all(_count("cluster.net.sends"),
              _count("cluster.net.bytes", _arg(5, "size", 0.0))), None),
        ("repro.cluster.network", "Network._arrive", "cluster.net", None, None),
        ("repro.cluster.network", "Network._deliver", None,
         _count("cluster.net.delivered"), None),
        ("repro.cluster.link", "Link.transfer", "cluster.link",
         _count("cluster.link.transfers"), None),
        ("repro.runtime.monitor", "MonitoringAgent._sample", None,
         _count("runtime.monitor.ticks"), None),
        ("repro.runtime.monitor", "MonitoringAgent.estimates", "runtime.monitor",
         _count("runtime.monitor.estimates_calls"), None),
        ("repro.runtime.history", "HistoryWindow.record", "runtime.history",
         _count("runtime.history.records"), None),
        ("repro.runtime.history", "HistoryWindow.mean", "runtime.history",
         _count("runtime.history.mean_calls"), None),
        ("repro.runtime.scheduler", "ResourceScheduler.select", "runtime.scheduler",
         _count("runtime.scheduler.selects"), None),
        ("repro.runtime.exchange", "EstimateUpdate.__init__", None,
         _count("runtime.exchange.publishes"), None),
        ("repro.runtime.steering", "SteeringAgent.deliver", "runtime.steering",
         _count("runtime.steering.requests"), None),
        ("repro.runtime.steering", "SteeringAgent._post", None,
         _count("runtime.steering.posts"), None),
        ("repro.runtime.steering", "SteeringAgent._request", "runtime.steering",
         _count("runtime.steering.attempts"), None),
        ("repro.profiling.driver", "ProfilingDriver.measure", "profiling",
         _count("profiling.cells"), None),
        ("repro.profiling.database", "PerformanceDatabase.predict", "profiling",
         None, None),
        ("repro.profiling.interpolate", "Interpolator.__call__",
         "profiling.interpolate", _count("profiling.interpolate_calls"), None),
        ("repro.profiling.interpolate", "Interpolator._build",
         "profiling.interpolate", None, None),
        ("repro.exec.engine", "SweepEngine.run", "exec",
         _count("exec.jobs", lambda args, kwargs: len(_arg(1, "specs")(args, kwargs))),
         _engine_hits),
        ("repro.codecs.model", "Codec.ratio", "codecs", None, None),
        ("repro.crowd.source", "CrowdSource._issue", "crowd",
         _all(_count("crowd.batches"), _count("crowd.issued", _arg(3, "n", 0))), None),
        ("repro.recovery.overload", "OverloadGuard.admit", "recovery",
         _count("recovery.admits"), _admit_outcome),
        ("repro.recovery.supervisor", "Supervisor._restart", "recovery",
         _restarts_before, _restarts_after),
        ("repro.faults.injector", "FaultInjector._apply", "faults",
         _count("faults.injected"), None),
        ("repro.faults.injector", "FaultInjector.gate", "faults", None, None),
    ]
)


class Tracer:
    """Installs the layer wrappers and accumulates spans and counters."""

    def __init__(self) -> None:
        #: Spans of the current pass as parallel columns (flat arrays, so
        #: hundreds of thousands of spans add no garbage-collector work):
        #: layer name, start, end, parent span index (-1 for none), run id.
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.runs: List[Optional[str]] = []
        #: layer -> [calls, self seconds] for the current pass.
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        #: Hook targets absent from this version of ``repro`` (skipped).
        self.missing: Set[str] = set()
        self._open: List[int] = []
        self._covered: List[float] = []
        self._run: List[Optional[str]] = [None]
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._profiler: List[Any] = [None]
        self._call = self._make_call()

    # -- span core ---------------------------------------------------------
    def _make_call(self) -> Callable:
        names, starts, ends, parents, runs = (
            self.names, self.starts, self.ends, self.parents, self.runs)
        open_, covered, stats, run = self._open, self._covered, self.stats, self._run
        clock = perf_counter

        def call(layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
            stat = stats.get(layer)
            if stat is None:
                stat = stats[layer] = [0, 0.0]
            idx = len(starts)
            names.append(layer)
            parents.append(open_[-1] if open_ else -1)
            runs.append(run[0])
            ends.append(0.0)
            open_.append(idx)
            covered.append(0.0)
            start = clock()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                open_.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur - covered.pop()
                if covered:
                    covered[-1] += dur

        return call

    def run_scenario(self, run_id: str, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` under a root span tagged with ``run_id``."""
        self._run[0] = run_id
        try:
            return self._call(ROOT, fn, args, {})
        finally:
            self._run[0] = None

    # -- patching ----------------------------------------------------------
    def install(self) -> "Tracer":
        from repro.obs import KernelProfiler
        from repro.sim.core import Process, Simulator

        call, profiler = self._call, self._profiler
        for module, attr, layer, before, after in HOOKS:
            owner, name = self._resolve(module, attr)
            if owner is None:
                continue
            self._patch(owner, name, self._wrap(getattr(owner, name), layer, before, after))

        layers: Dict[Any, str] = {}
        orig_resume = Process._resume

        def _resume(proc, event):
            gen = proc.generator
            code = getattr(gen, "gi_code", None)
            layer = layers.get(code)
            if layer is None:
                frame = getattr(gen, "gi_frame", None)
                module = frame.f_globals.get("__name__") if frame is not None else None
                layer = layers[code] = layer_of_module(module)
            return call(layer, orig_resume, (proc, event), {})

        self._patch(Process, "_resume", _resume)

        orig_schedule = Simulator.schedule_callback

        def schedule_callback(sim, delay, fn, *args, **kwargs):
            layer = layer_of_module(getattr(fn, "__module__", None))

            def fired():
                return call(layer, fn, (), {})

            fired.__wrapped__ = fn
            return orig_schedule(sim, delay, fired, *args, **kwargs)

        self._patch(Simulator, "schedule_callback", schedule_callback)

        orig_run = Simulator.run

        def run(sim, *args, **kwargs):
            prof = profiler[0]
            attach = prof is not None and prof.sim is None and sim.perf is None
            if attach:
                prof.attach(sim)
            try:
                return call("sim", orig_run, (sim,) + args, kwargs)
            finally:
                if attach:
                    prof.detach()

        self._patch(Simulator, "run", run)

        from repro.codecs import CODECS

        for codec in CODECS.values():
            self._patch(codec, "compress", self._wrap(
                codec.compress, "codecs",
                _count("codecs.bytes_in", lambda args, kwargs: len(args[0])), None,
            ), instance=True)
            self._patch(codec, "decompress", self._wrap(
                codec.decompress, "codecs", None, None), instance=True)
        self._profiler[0] = KernelProfiler()
        return self

    def uninstall(self) -> None:
        for owner, name, original, instance in reversed(self._patches):
            if instance:
                object.__setattr__(owner, name, original)
            elif original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches.clear()
        self._profiler[0] = None

    def _resolve(self, module: str, attr: str):
        """(owner, name) for ``module:Class.method``, or (None, None)."""
        cls_name, _, name = attr.partition(".")
        try:
            owner = getattr(importlib.import_module(module), cls_name)
            getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.add(f"{module}:{attr}")
            return None, None
        return owner, name

    def _patch(self, owner: Any, name: str, value: Any, instance: bool = False) -> None:
        # A class attribute inherited from a base is shadowed, not replaced:
        # ``None`` marks it for deletion on uninstall.
        original = getattr(owner, name) if instance else owner.__dict__.get(name)
        self._patches.append((owner, name, original, instance))
        if instance:
            object.__setattr__(owner, name, value)
        else:
            setattr(owner, name, value)

    def _wrap(self, fn: Callable, layer: Optional[str], before, after) -> Callable:
        call, counts = self._call, self.counts

        if layer is None:
            def wrapper(*args, **kwargs):
                before(counts, args, kwargs)
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(counts, args, kwargs)
                result = call(layer, fn, args, kwargs)
                if after is not None:
                    after(counts, args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", "wrapper")
        return wrapper

    # -- per-pass results ----------------------------------------------------
    def start_pass(self) -> None:
        """Forget the previous pass's spans, stats and counters."""
        from repro.obs import KernelProfiler

        for column in (self.names, self.starts, self.ends, self.parents, self.runs):
            del column[:]
        self.stats.clear()
        self.counts.clear()
        if self._profiler[0] is not None:
            self._profiler[0] = KernelProfiler()

    def snapshot(self) -> Dict[str, Any]:
        """This pass's per-layer ``[calls, self_s]``, counters and kernel counts."""
        prof = self._profiler[0]
        return {
            "layers": {k: list(v) for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "events": prof.steps if prof is not None else 0,
            "pushes": prof.pushes if prof is not None else 0,
            "spans": len(self.starts),
        }

    def write_spans(self, path, meta: Dict[str, Any]) -> None:
        """Write this pass's spans as gzipped JSON lines (times relative)."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = zip(self.names, self.starts, self.ends, self.parents, self.runs)
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"meta": meta}) + "\n")
            for i, (name, start, end, parent, run) in enumerate(rows):
                out.write(json.dumps({
                    "id": i, "name": name, "start": round(start - t0, 9),
                    "end": round(end - t0, 9), "parent": parent, "run": run,
                }) + "\n")
