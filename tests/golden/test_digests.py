"""Cross-commit pins of every paper output: payload and trace digests.

``digests.json`` holds, at seed 0:

- ``payloads``: the sha256 digest tree of the canonical JSON payload of
  every ``repro.cli.FIGURES`` target, of the ``fig5sess`` adaptive
  session and of ``run_memory_adaptation``;
- ``traces``: for every ``scene.SCENARIOS`` name, the sha256 of its
  trace JSONL (``repro trace NAME --json``) and of its metrics payload
  (``repro metrics NAME --json``).

Payload digests must never change in a performance or simplification
change.  Trace digests change only when the event structure changes on
purpose (fewer processes, renamed spans); such a change names each
digest it moves.  On a mismatch the test prints the first divergent
JSON path of the payload, not just two hashes.

The digest helpers are the benchmark's own (``perfbench/workloads.py``),
so there is one canonical form.  Regenerate after an intentional change,
from the repository root::

    PYTHONPATH=src python -m tests.golden.test_digests --update
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Mapping

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "digests.json"
SEED = 0


def _load_workloads():
    path = HERE.parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_wl = _load_workloads()
canonical, digest_tree = _wl.canonical, _wl.digest_tree
first_divergence, tree_divergence = _wl.first_divergence, _wl.tree_divergence


def jsonable(value: Any) -> Any:
    """The JSON payload of a runner result (figures, tables, databases)."""
    from repro.experiments.common import FigureResult

    if isinstance(value, FigureResult):
        return {
            "figure": value.figure,
            "title": value.title,
            "xlabel": value.xlabel,
            "ylabel": value.ylabel,
            "series": {k: jsonable(s.points) for k, s in value.series.items()},
            "notes": list(value.notes),
        }
    if hasattr(value, "to_dict"):
        return jsonable(value.to_dict())
    if dataclasses.is_dataclass(value):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    raise TypeError(f"no JSON payload for {type(value).__name__}")


def _payload_runners() -> Dict[str, Callable[[], Any]]:
    from repro.cli import FIGURES
    from repro.experiments.extension_memory import run_memory_adaptation
    from repro.experiments.scene import SCENARIOS

    runners: Dict[str, Callable[[], Any]] = {
        names[0]: (lambda runner=runner: runner(seed=SEED))
        for names, runner in FIGURES
    }
    runners["fig5sess"] = lambda: SCENARIOS["fig5sess"].execute(SEED)
    runners["ext-memory"] = lambda: run_memory_adaptation(seed=SEED)
    return runners


def payload(name: str) -> Any:
    """Canonical JSON payload of one pinned output at seed 0."""
    from repro.exec import SweepEngine, set_default_engine

    previous = set_default_engine(SweepEngine(jobs=1, store=None))
    try:
        return json.loads(canonical(jsonable(_payload_runners()[name]())))
    finally:
        set_default_engine(previous)


def trace_digests(name: str) -> Dict[str, str]:
    """sha256 of a scenario's trace JSONL and of its metrics payload."""
    from repro.obs import cli as obs
    from repro.obs.export import summary, to_jsonl
    from repro.obs.record import TraceRecorder

    recorder = TraceRecorder()
    obs.run(name, SEED, recorder=recorder)
    metrics = {
        "experiment": name,
        "seed": SEED,
        "metrics": recorder.metrics.snapshot(),
        "summary": summary(recorder.records),
    }
    return {
        "trace": hashlib.sha256(to_jsonl(recorder.records).encode()).hexdigest(),
        "metrics": hashlib.sha256(canonical(metrics).encode()).hexdigest(),
    }


def _golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


def _names(section: str):
    return sorted(_golden()[section])


@pytest.mark.parametrize("name", _names("payloads"))
def test_payload_digest(name):
    ref = _golden()["payloads"][name]
    data = payload(name)
    tree = digest_tree(data)
    assert tree["$"] == ref["$"], (
        f"{name} payload changed; first divergent path: "
        f"{tree_divergence(data, ref)}"
    )


@pytest.mark.parametrize("name", _names("traces"))
def test_trace_digests(name):
    assert trace_digests(name) == _golden()["traces"][name], (
        f"{name} trace/metrics digest changed; if the event structure "
        "changed on purpose, regenerate (see the module docstring) and "
        "name the digest in CHANGES.md"
    )


def test_every_paper_output_is_pinned():
    from repro.experiments.scene import SCENARIOS

    assert set(_names("payloads")) == set(_payload_runners())
    assert set(_names("traces")) == set(SCENARIOS)


def test_first_divergence_names_the_path():
    ref = {"series": {"a": [[0, 1.0], [1, 2.0]]}, "notes": []}
    bad = {"series": {"a": [[0, 1.0], [1, 2.5]]}, "notes": []}
    assert first_divergence(bad, ref) == "$.series.a[1][1]"
    assert tree_divergence(bad, digest_tree(ref)) == "$.series.a"


def update() -> None:
    from repro.experiments.scene import SCENARIOS

    out = {
        "seed": SEED,
        "payloads": {
            name: digest_tree(payload(name)) for name in sorted(_payload_runners())
        },
        "traces": {name: trace_digests(name) for name in sorted(SCENARIOS)},
    }
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.golden.test_digests --update")
    update()
