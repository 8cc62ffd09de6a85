"""The monitoring agent (Section 6.1).

Runs as a periodic process beside the application (default every 10 ms, as
in the paper), estimating the fraction of each relevant resource actually
available to the application:

- **cpu**: allotted CPU work vs. wall-clock time, *factoring in periods
  where the application is waiting* (the sandbox's runnable-time
  accounting);
- **network**: observed effective rate of recent transfers (bytes over
  transfer duration, which includes any shaping the environment applies);
- **memory**: resident-limit fraction of the sandbox's allocated pages.

The agent is configuration-specific: it watches only the resources the
active configuration's execution path uses (the preprocessor's
:class:`~repro.tunable.MonitoringPlan`), and it notifies the scheduler only
when an estimate leaves the current decision's validity region.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sandbox import Sandbox
from ..sim import Process, Simulator
from ..tunable import AppRuntime
from .history import HistoryWindow

__all__ = ["SystemMonitor", "MonitoringAgent"]


class SystemMonitor:
    """System-wide resource capacity registry.

    "...relying on a system-wide monitor to provide information about
    maximum capacities of system resources (CPU speed, physical memory
    pages, network bandwidth, etc.)."
    """

    def __init__(self) -> None:
        self._capacities: Dict[str, float] = {}

    def register(self, resource: str, capacity: float) -> None:
        self._capacities[resource] = float(capacity)

    def capacity(self, resource: str) -> float:
        try:
            return self._capacities[resource]
        except KeyError:
            raise KeyError(f"no registered capacity for {resource!r}") from None

    @staticmethod
    def from_runtime(rt: AppRuntime) -> "SystemMonitor":
        """Capacities of every host the application runs on."""
        monitor = SystemMonitor()
        for host_name, sandbox in rt.sandboxes.items():
            host = sandbox.host
            monitor.register(f"{host_name}.cpu", host.cpu.speed)
            monitor.register(f"{host_name}.memory", float(host.memory.total_pages))
            monitor.register(f"{host_name}.disk", host.disk.bandwidth)
            # Network capacity: the fastest outbound link of the host.
            best_bw = 0.0
            if host.network is not None:
                for (a, _b), link in host.network._links.items():
                    if a == host_name:
                        best_bw = max(best_bw, link.bandwidth)
            monitor.register(f"{host_name}.network", best_bw)
        return monitor


class MonitoringAgent:
    """Application-specific periodic resource-availability estimation."""

    def __init__(
        self,
        rt: AppRuntime,
        watch: List[str],
        period: float = 0.010,
        window: float = 0.5,
        hysteresis: float = 0.05,
        cooldown: float = 0.5,
        on_violation: Optional[Callable[[Dict[str, float]], None]] = None,
        crowd=None,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        if hysteresis < 0:
            raise ValueError(f"hysteresis must be non-negative, got {hysteresis!r}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be non-negative, got {cooldown!r}")
        self.rt = rt
        self.sim: Simulator = rt.sim
        self.watch = list(watch)
        self.period = float(period)
        self.window = float(window)
        #: Relative margin the estimate must cross beyond the validity bound
        #: before a violation fires (suppresses noise-induced thrash).
        self.hysteresis = float(hysteresis)
        #: Minimum time between violation notifications.
        self.cooldown = float(cooldown)
        self.on_violation = on_violation
        #: Messages smaller than this do not contribute bandwidth samples.
        self.min_sample_bytes = 4096.0
        #: Optional :class:`repro.crowd.CrowdSource` whose columnar tallies
        #: back ``crowd.<class>.{qos,rate,inflight}`` watch entries.
        self.crowd = crowd
        self.system = SystemMonitor.from_runtime(rt)

        #: resource -> (lo, hi) validity bounds from the current decision.
        self.conditions: Dict[str, Tuple[float, float]] = {}
        self._histories: Dict[str, HistoryWindow] = {
            r: HistoryWindow(window) for r in self.watch
        }
        self._cpu_anchor: Dict[str, Tuple[float, float]] = {}
        self._crowd_anchor: Dict[str, Tuple[float, float, float]] = {}
        self._net_seen: Dict[str, int] = {}
        #: Memo of ``str.partition(".")`` for watch entries and crowd
        #: sub-resources; pure, so it survives any change to ``watch``.
        self._split: Dict[str, Tuple[str, str, str]] = {}
        #: network/disk resource -> its ``_net_seen`` keys, one per log.
        self._log_keys: Dict[str, Tuple[str, ...]] = {}
        self._last_trigger = -float("inf")
        self._stopped = False
        self.violations = 0
        self.process: Optional[Process] = None
        #: Cached (recorder, samples-counter) pair for the hot _run loop.
        self._obs_seen: Any = None
        self._samples_counter: Any = None

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "MonitoringAgent":
        self.process = self.sim.process(self._run(), name="monitoring-agent")
        if self.rt.finished is not None and self.rt.finished.callbacks is not None:
            self.rt.finished.callbacks.append(lambda _e: self.stop())
        return self

    def stop(self) -> None:
        self._stopped = True

    def retarget(
        self,
        watch: Optional[List[str]] = None,
        conditions: Optional[Dict[str, Tuple[float, float]]] = None,
    ) -> None:
        """Customize the agent to a new active configuration/decision."""
        if watch is not None:
            self.watch = list(watch)
            for r in self.watch:
                self._histories.setdefault(r, HistoryWindow(self.window))
        if conditions is not None:
            self.conditions = dict(conditions)

    # -- checkpoint/restore ----------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-data state for a warm restart (see repro.recovery).

        The histories are the valuable part: a cold agent needs several
        sample periods (and, for bandwidth, a completed large transfer)
        before ``estimates()`` says anything, while a restored agent can
        answer immediately — that gap is exactly the warm-vs-cold MTTR
        difference the recovery benchmark measures.
        """
        return {
            "watch": list(self.watch),
            "conditions": {r: list(b) for r, b in self.conditions.items()},
            "histories": {
                r: [[t, v] for t, v in h.samples()]
                for r, h in sorted(self._histories.items())
            },
            "cpu_anchor": {r: list(a) for r, a in self._cpu_anchor.items()},
            "crowd_anchor": {r: list(a) for r, a in self._crowd_anchor.items()},
            "net_seen": dict(self._net_seen),
            "last_trigger": self._last_trigger,
            "violations": self.violations,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        self.watch = list(state.get("watch", self.watch))
        self.conditions = {
            r: (b[0], b[1]) for r, b in dict(state.get("conditions", {})).items()
        }
        self._histories = {}
        for r, samples in dict(state.get("histories", {})).items():
            hist = HistoryWindow(self.window)
            for t, v in samples:
                hist.record(t, v)
            self._histories[r] = hist
        for r in self.watch:
            self._histories.setdefault(r, HistoryWindow(self.window))
        self._cpu_anchor = {
            r: (a[0], a[1]) for r, a in dict(state.get("cpu_anchor", {})).items()
        }
        self._crowd_anchor = {
            r: (a[0], a[1], a[2])
            for r, a in dict(state.get("crowd_anchor", {})).items()
        }
        self._net_seen = dict(state.get("net_seen", {}))
        self._last_trigger = state.get("last_trigger", -float("inf"))
        self.violations = int(state.get("violations", 0))

    # -- estimation ------------------------------------------------------------
    def estimates(self) -> Dict[str, float]:
        """Latest windowed availability estimate per watched resource."""
        out: Dict[str, float] = {}
        for resource in self.watch:
            hist = self._histories.get(resource)
            mean = hist.mean() if hist is not None else None
            if mean is not None:
                out[resource] = mean
        return out

    def _sample(self) -> None:
        now = self.sim.now
        crowd_stats = None
        split = self._split
        for resource in self.watch:
            parts = split.get(resource)
            if parts is None:
                parts = split[resource] = resource.partition(".")
            host, _, kind = parts
            if host == "crowd":
                if self.crowd is None:
                    continue
                if crowd_stats is None:  # one columnar snapshot per period
                    crowd_stats = self.crowd.stats()
                self._sample_crowd(resource, kind, crowd_stats, now)
                continue
            sandbox = self.rt.sandboxes.get(host)
            if sandbox is None:
                continue
            if kind == "cpu":
                self._sample_cpu(resource, sandbox, now)
            elif kind == "network":
                self._sample_network(resource, sandbox)
            elif kind == "memory":
                self._sample_memory(resource, sandbox, now)
            elif kind == "disk":
                self._sample_disk(resource, sandbox)

    def _sample_crowd(self, resource: str, sub: str, stats: Dict, now: float) -> None:
        """Estimates from a CrowdSource's cumulative per-class tallies.

        ``crowd.<class>.qos`` is the satisfaction fraction of outcomes
        resolved since the previous sample, ``crowd.<class>.rate`` the
        realized issue rate (req/s), and ``crowd.<class>.inflight`` the
        instantaneous outstanding-request count.  All three are pure
        reads of columnar state — sampling never perturbs the crowd.
        ``sub`` is ``resource`` without its ``crowd.`` prefix.
        """
        parts = self._split.get(sub)
        if parts is None:
            parts = self._split[sub] = sub.partition(".")
        cls, _, kind = parts
        row = stats.get(cls)
        if row is None:
            return
        if kind == "inflight":
            self._histories[resource].record(now, float(row["inflight"]))
            return
        anchor = self._crowd_anchor.get(resource)
        cur = (float(row["satisfied"]), float(row["violated"]), float(row["issued"]))
        self._crowd_anchor[resource] = cur
        if anchor is None:
            return
        if kind == "qos":
            resolved = (cur[0] - anchor[0]) + (cur[1] - anchor[1])
            if resolved <= 0:
                return  # nothing resolved this period: no signal
            self._histories[resource].record(now, (cur[0] - anchor[0]) / resolved)
        elif kind == "rate":
            self._histories[resource].record(now, (cur[2] - anchor[2]) / self.period)

    def _sample_cpu(self, resource: str, sandbox: Sandbox, now: float) -> None:
        consumed = sandbox.cpu_consumed()
        runnable = sandbox.runnable_time()
        anchor = self._cpu_anchor.get(resource)
        self._cpu_anchor[resource] = (consumed, runnable)
        if anchor is None:
            return
        d_consumed = consumed - anchor[0]
        d_runnable = runnable - anchor[1]
        if d_runnable <= 1e-9:
            return  # app was blocked the whole interval: no signal
        speed = self.system.capacity(resource)
        if speed <= 0:
            return
        share = min(1.0, d_consumed / (speed * d_runnable))
        self._histories[resource].record(now, share)

    def _sample_network(self, resource: str, sandbox: Sandbox) -> None:
        """Effective bandwidth from transfers finished since the last tick."""
        keys = self._log_keys.get(resource)
        if keys is None:
            keys = self._log_keys[resource] = (resource + ":recv", resource + ":send")
        self._scan_log(resource, keys[0], sandbox.recv_log, sandbox.recv_log_dropped)
        self._scan_log(resource, keys[1], sandbox.send_log, sandbox.send_log_dropped)

    def _sample_disk(self, resource: str, sandbox: Sandbox) -> None:
        """Effective disk bandwidth from completed operations."""
        keys = self._log_keys.get(resource)
        if keys is None:
            keys = self._log_keys[resource] = (resource + ":ops",)
        self._scan_log(resource, keys[0], sandbox.disk_log, sandbox.disk_log_dropped)

    def _scan_log(self, resource: str, key: str, log: list, dropped: int) -> None:
        """Bandwidth samples from the ``(start, end, size)`` entries of a
        sandbox log that ``key`` has not seen yet.

        Packet-train estimator: for back-to-back deliveries the meaningful
        interval is the time since the *previous* delivery (the pipe drains
        continuously), not this message's own queueing delay — otherwise
        backlog debt is double-counted and the estimate biases low.
        """
        total = dropped + len(log)
        seen = self._net_seen.get(key)
        if seen == total:
            return  # idle since the last tick
        # The sandbox trims its bounded log from the front; ``seen`` is an
        # absolute index, so re-anchor it past whatever was dropped.  A key
        # is written the first time it is scanned, even for an empty log:
        # ``_net_seen`` is part of the warm-restart snapshot.
        start_idx = max(0, (seen or 0) - dropped)
        prev_end = log[start_idx - 1][1] if start_idx > 0 else float("-inf")
        for start, end, size in log[start_idx:]:
            duration = end - max(start, prev_end)
            # Skip control-sized messages: their timing is dominated by
            # per-message latency, not bandwidth.
            if duration > 1e-9 and size >= self.min_sample_bytes:
                self._histories[resource].record(end, size / duration)
            prev_end = end
        self._net_seen[key] = total

    def _sample_memory(self, resource: str, sandbox: Sandbox, now: float) -> None:
        space = sandbox.mem_space
        if space is None or space.allocated_pages == 0:
            return
        self._histories[resource].record(
            now, float(space.resident_limit)
        )

    # -- violation detection ----------------------------------------------------
    def _check_conditions(self) -> Optional[Dict[str, float]]:
        """The full ``estimates()`` if any conditioned estimate left its
        validity region (beyond the hysteresis margin), else ``None``.

        Only the conditioned, watched histories are read on the quiet path;
        each ``mean()`` is cached until its next ``record()``.
        """
        histories = self._histories
        for resource, (lo, hi) in self.conditions.items():
            if resource not in self.watch:
                continue
            hist = histories.get(resource)
            est = hist.mean() if hist is not None else None
            if est is None:
                continue
            # True hysteresis: the estimate must cross the bound by the
            # margin before we bother the scheduler.
            lo_margin = self.hysteresis * max(abs(lo), 1e-12)
            hi_margin = self.hysteresis * max(abs(hi), 1e-12)
            if (math.isfinite(lo) and est < lo - lo_margin) or (
                math.isfinite(hi) and est > hi + hi_margin
            ):
                return self.estimates()
        return None

    def _run(self):
        while not self._stopped:
            yield self.sim.timeout(self.period)
            if self._stopped:
                return
            self._sample()
            obs = self.sim.obs
            if obs is not None:
                # Cache the counter per bound recorder: this loop runs once
                # per monitor period, so the registry lookup is hot.
                if obs is not self._obs_seen:
                    self._obs_seen = obs
                    self._samples_counter = obs.metrics.counter("monitor.samples")
                self._samples_counter.inc()
            if self.on_violation is None or not self.conditions:
                continue
            if self.sim.now - self._last_trigger < self.cooldown:
                continue
            violation = self._check_conditions()
            if violation is not None:
                self.violations += 1
                self._last_trigger = self.sim.now
                if obs is not None:
                    obs.metrics.counter("monitor.violations").inc()
                self.on_violation(violation)
