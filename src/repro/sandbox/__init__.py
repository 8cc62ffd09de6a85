"""Virtual execution environment: resource-constrained sandboxes and testbeds."""

from .limits import LimiterMode, ResourceLimits
from .net_limiter import TokenBucket
from .progress import ProgressEstimator
from .sandbox import DEFAULT_FAULT_COST, DEFAULT_QUANTUM, MessageOp, Sandbox
from .testbed import DaemonSpec, HostSpec, LinkSpec, Testbed

__all__ = [
    "ResourceLimits",
    "LimiterMode",
    "Sandbox",
    "MessageOp",
    "TokenBucket",
    "ProgressEstimator",
    "Testbed",
    "HostSpec",
    "LinkSpec",
    "DaemonSpec",
    "DEFAULT_QUANTUM",
    "DEFAULT_FAULT_COST",
]
