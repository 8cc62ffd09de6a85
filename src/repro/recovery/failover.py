"""Controller failover: deterministic-rank takeover over heartbeats.

Each participating host runs a :class:`FailoverMember`: a heartbeat
publisher, a receiver, and an URGENT watchdog tick.  Members are ranked
deterministically (position of the host name in the sorted member list);
the invariant each watchdog enforces from its *local* view is

    "I am active iff no lower-ranked member is live."

So rank 0 (the primary) is active while it lives; when its heartbeats go
silent for ``takeover_after``, the next rank activates — resuming the
controller from the latest checkpoint the primary replicated inside its
heartbeats — and yields again the moment the primary's heartbeats
resume.  Dual-activity is bounded by one heartbeat period plus delivery
latency and is resolved in favour of the lower rank; both controllers
steer through the same ControlBox, whose latest-wins pending slot makes
the overlap harmless.

The watchdog ticks at URGENT priority for the same reason the
adaptation watchdog does: the liveness view at a tick must not depend on
the event queue's FIFO tiebreak against same-instant deliveries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..sandbox.sandbox import MessageOp
from ..sim import URGENT, Interrupt, Process, StoreGet
from ..tunable import AppRuntime

__all__ = ["FailoverMember", "FailoverHeartbeat", "FAILOVER_PORT"]

FAILOVER_PORT = "recovery.failover"


@dataclass(frozen=True)
class FailoverHeartbeat:
    """One liveness beacon, optionally carrying replicated state."""

    origin: str
    rank: int
    seq: int
    active: bool
    #: Latest controller checkpoint (only the active member replicates).
    state: Optional[Dict[str, Any]] = None


class FailoverMember:
    """One host's participation in the failover group."""

    def __init__(
        self,
        rt: AppRuntime,
        host_name: str,
        members: List[str],
        *,
        activate: Callable[[Optional[Dict[str, Any]]], None],
        deactivate: Optional[Callable[[], None]] = None,
        snapshot: Optional[Callable[[], Dict[str, Any]]] = None,
        period: float = 0.5,
        takeover_after: float = 1.5,
        message_bytes: float = 128.0,
        state_bytes: float = 512.0,
        initially_active: bool = False,
    ):
        if period <= 0 or takeover_after <= 0:
            raise ValueError("period and takeover_after must be positive")
        self.rt = rt
        self.sim = rt.sim
        self.host_name = host_name
        self.members = sorted(members)
        if host_name not in self.members:
            raise ValueError(f"host {host_name!r} not in members {self.members}")
        self.rank = self.members.index(host_name)
        self.peers = [m for m in self.members if m != host_name]
        #: Called with the latest replicated checkpoint state (or None)
        #: when this member decides it must run the controller.
        self.activate = activate
        #: Called when a lower-ranked member resumes and we stand down.
        self.deactivate = deactivate
        #: Provides the state to replicate while we are the active member.
        self.snapshot = snapshot
        self.period = float(period)
        self.takeover_after = float(takeover_after)
        self.message_bytes = float(message_bytes)
        self.state_bytes = float(state_bytes)
        self.active = bool(initially_active)
        #: origin -> local time its last heartbeat arrived.
        self.last_seen: Dict[str, float] = {}
        #: Latest state replicated by whichever member was active.
        self.last_state: Optional[Dict[str, Any]] = None
        self.seq = 0
        self.takeovers = 0
        self.handbacks = 0
        #: Silence-to-activation latency of each takeover (obs + bench).
        self.failover_latencies: List[float] = []
        self._stopped = False
        self._procs: List[Process] = []
        self._started_at = 0.0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "FailoverMember":
        """(Re)spawn the member's processes; re-invocable after a kill."""
        self._stopped = False
        self._started_at = self.sim.now
        self._procs = [
            self.sim.process(
                self._publisher(), name=f"failover-pub@{self.host_name}"
            ),
            self.sim.process(
                self._receiver(), name=f"failover-recv@{self.host_name}"
            ),
            self.sim.process(
                self._watchdog(), name=f"failover-watch@{self.host_name}"
            ),
        ]
        return self

    def processes(self) -> List[Process]:
        return list(self._procs)

    def stop(self) -> None:
        """Terminate processes and withdraw the receiver's mailbox waiter."""
        if self._stopped:
            return
        self._stopped = True
        sandbox = self.rt.sandboxes.get(self.host_name)
        for proc in self._procs:
            if proc is None or not proc.is_alive or proc is self.sim.active_process:
                continue
            target = proc.target
            proc.interrupt("failover-stop")
            if isinstance(target, MessageOp):
                target.cancel()
            elif isinstance(target, StoreGet) and sandbox is not None:
                target.store.cancel(target)

    # -- internals ----------------------------------------------------------
    def _publisher(self):
        sandbox = self.rt.sandboxes.get(self.host_name)
        if sandbox is None:
            return
        try:
            while not self._stopped:
                yield self.sim.timeout(self.period)
                if self._stopped:
                    return
                state = None
                if self.active and self.snapshot is not None:
                    state = self.snapshot()
                self.seq += 1
                beat = FailoverHeartbeat(
                    origin=self.host_name,
                    rank=self.rank,
                    seq=self.seq,
                    active=self.active,
                    state=state,
                )
                size = self.message_bytes + (
                    self.state_bytes if state is not None else 0.0
                )
                for peer in self.peers:
                    yield sandbox.send(peer, FAILOVER_PORT, beat, size=size)
        except Interrupt:
            return

    def _receiver(self):
        sandbox = self.rt.sandboxes.get(self.host_name)
        if sandbox is None:
            return
        mailbox = sandbox.host.mailbox(FAILOVER_PORT)
        try:
            while not self._stopped:
                msg = yield mailbox.get()
                if self._stopped:
                    return
                beat = msg.payload
                self.last_seen[beat.origin] = self.sim.now
                if beat.active and beat.state is not None:
                    self.last_state = beat.state
        except Interrupt:
            return

    def _alive(self, member: str, now: float) -> bool:
        last = self.last_seen.get(member, self._started_at)
        return (now - last) <= self.takeover_after

    def _watchdog(self):
        try:
            while not self._stopped:
                yield self.sim.timeout(self.period, priority=URGENT)
                if self._stopped:
                    return
                now = self.sim.now
                lower_live = [
                    m
                    for m in self.members[: self.rank]
                    if self._alive(m, now)
                ]
                if self.active and lower_live:
                    # A lower-ranked member is back: stand down.
                    self.active = False
                    self.handbacks += 1
                    obs = self.sim.obs
                    if obs is not None:
                        obs.instant(
                            "recovery.failover-yield", cat="recovery",
                            host=self.host_name, to=lower_live[0],
                        )
                    if self.deactivate is not None:
                        self.deactivate()
                elif not self.active and not lower_live:
                    # No live lower rank: the invariant says we must run
                    # the controller (rank 0 asserts this unconditionally).
                    self._take_over(now)
        except Interrupt:
            return

    def _take_over(self, now: float) -> None:
        self.active = True
        self.takeovers += 1
        if self.rank > 0:
            newest = max(
                (
                    self.last_seen.get(m, self._started_at)
                    for m in self.members[: self.rank]
                ),
                default=self._started_at,
            )
            latency = now - newest
        else:
            latency = 0.0
        self.failover_latencies.append(latency)
        obs = self.sim.obs
        if obs is not None:
            obs.instant(
                "recovery.failover", cat="recovery",
                host=self.host_name, rank=self.rank, latency=latency,
            )
            obs.metrics.counter("recovery.takeovers").inc()
            if self.rank > 0:
                obs.metrics.histogram(
                    "recovery.failover_latency",
                    edges=(0.5, 1.0, 2.0, 4.0, 8.0),
                ).observe(latency)
        self.activate(self.last_state)
