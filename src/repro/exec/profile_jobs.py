"""Profiling measurements as engine jobs.

:func:`measure_cell` is the job function behind parallel profiling: it
rebuilds the application *inside the worker process* from an
:class:`AppSpec` (a pure, JSON-able description naming a module-level
factory), runs one controlled execution, and returns the measurement
record as a dict.  Because the cell derives its run seed exactly the way
:meth:`repro.profiling.ProfilingDriver.measure` does, the records — and
therefore the performance database — are byte-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from .job import JobSpecError, resolve_job

__all__ = ["AppSpec", "measure_cell"]


@dataclass(frozen=True)
class AppSpec:
    """Pure description of how to (re)build a tunable app in a worker.

    ``factory`` / ``workload`` are dotted paths (``"pkg.module:fn"``) to
    module-level callables: the factory returns the
    :class:`~repro.tunable.TunableApp`; the optional workload factory is
    called as ``fn(config, point, run_seed, **workload_kwargs)`` for
    every measurement.  Keyword arguments must be JSON-able — they are
    part of the cache key.
    """

    factory: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    workload: Optional[str] = None
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kwargs", dict(self.kwargs))
        object.__setattr__(self, "workload_kwargs", dict(self.workload_kwargs))

    def build(self):
        return resolve_job(self.factory)(**self.kwargs)

    def build_workload_factory(self) -> Optional[Callable]:
        if self.workload is None:
            return None
        fn = resolve_job(self.workload)
        if not self.workload_kwargs:
            return fn
        extra = dict(self.workload_kwargs)

        def factory(config, point, run_seed):
            return fn(config, point, run_seed, **extra)

        return factory

    def to_dict(self) -> dict:
        return {
            "factory": self.factory,
            "kwargs": self.kwargs,
            "workload": self.workload,
            "workload_kwargs": self.workload_kwargs,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AppSpec":
        return cls(
            factory=data["factory"],
            kwargs=dict(data.get("kwargs") or {}),
            workload=data.get("workload"),
            workload_kwargs=dict(data.get("workload_kwargs") or {}),
        )


def measure_cell(payload: Mapping, seed: int) -> dict:
    """One profiling measurement, reconstructed from pure data.

    Payload: ``app`` (an :class:`AppSpec` dict), ``config``, ``point``,
    ``mode``, ``max_run_time``, and optional ``with_usage``.  ``seed`` is
    the *driver root seed*; the per-run seed is derived inside
    :meth:`ProfilingDriver.measure` from the (config, point) labels,
    exactly as in the serial path.

    With ``with_usage`` the measurement runs under a
    :class:`repro.obs.UsageAccountant` and its summary is shipped back
    through :func:`repro.exec.runner.publish_usage` — landing on
    :attr:`JobResult.usage` and, when a result store is configured, in
    the cached entry.  Accounting is passive, so the returned record is
    byte-identical either way.
    """
    # Imported here so that spawned workers running non-profiling jobs
    # never pay the numpy/scipy import behind the profiling package.
    from ..profiling import ProfilingDriver, ResourcePoint
    from ..tunable import Configuration

    app_spec = AppSpec.from_dict(payload["app"])
    app = app_spec.build()
    instruments = None
    if payload.get("with_usage"):
        from ..experiments.scene import Instruments
        from ..obs import UsageAccountant

        instruments = Instruments(usage=UsageAccountant())
    driver = ProfilingDriver(
        app,
        dims=[],
        workload_factory=app_spec.build_workload_factory(),
        mode=payload.get("mode", "ideal"),
        seed=seed,
        max_run_time=float(payload.get("max_run_time", 3600.0)),
        instruments=instruments,
    )
    record = driver.measure(
        Configuration(payload["config"]), ResourcePoint(payload["point"])
    )
    if instruments is not None:
        from .runner import publish_usage

        publish_usage(instruments.usage.summary())
    return record.to_dict()


def app_spec_payload(
    app_spec: AppSpec,
    config: Mapping,
    point: Mapping,
    mode: str,
    max_run_time: float,
) -> dict:
    """The :func:`measure_cell` payload for one (config, point) cell."""
    if not isinstance(app_spec, AppSpec):
        raise JobSpecError(
            f"parallel profiling needs an AppSpec, got {type(app_spec).__name__}"
        )
    return {
        "app": app_spec.to_dict(),
        "config": dict(config),
        "point": dict(point),
        "mode": mode,
        "max_run_time": max_run_time,
    }


__all__.append("app_spec_payload")
