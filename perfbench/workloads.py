"""Workload definitions and output checks shared by the benchmark scripts.

A workload is a list of scenarios; one *pass* runs every scenario at
every seed of a fixed range that starts at the benchmark's ``--seed``.
Each scenario calls one public experiment entry point of ``repro`` and
returns its raw result; :func:`payload_of` turns that into the JSON
payload whose sha256 digest is checked against ``reference.json``.

Nothing here imports ``repro`` at module level: the worker times that
import as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

#: workload -> (scenarios, seeds per pass).  Every scenario's simulated
#: work is near-constant across seeds (event counts vary < 2 %), so a
#: short seed range suffices; the range still proves the seed reaches the
#: program (different seeds must give different digests).
WORKLOADS: Dict[str, Tuple[Tuple[str, ...], int]] = {
    "configure": (("fig5", "fig6a", "fig6b"), 4),
    "adapt": (("chaos", "recovery"), 2),
    "crowd": (("crowd.diurnal", "crowd.flash"), 2),
}

#: Smaller crowds for the smoke test's tiny size (no reference digests:
#: those runs are checked by same-seed replay instead).
TINY_USERS = {"crowd.diurnal": 50_000, "crowd.flash": 20_000}


def plan(workload: str, seed: int, tiny: bool = False) -> List[Tuple[str, int]]:
    """The (scenario, seed) runs of one pass, in execution order."""
    scenarios, n_seeds = WORKLOADS[workload]
    if tiny:
        n_seeds = 2
    return [(name, seed + i) for i in range(n_seeds) for name in scenarios]


def make_runner(tiny: bool = False):
    """Return ``run(name, seed) -> raw result`` bound to a pinned engine.

    The profiling-database builds get an explicit serial ``SweepEngine``
    with no result store, so neither an installed default engine nor a
    ``.repro_cache`` directory can turn a timed pass into cache hits.
    """
    from repro.exec import SweepEngine
    from repro.experiments import (
        fig5_database,
        fig6a_database,
        fig6b_database,
        run_chaos,
        run_crowd,
        run_recovery,
    )

    engine = SweepEngine(jobs=1, store=None)

    def crowd(scenario: str):
        def go(seed: int):
            users = TINY_USERS[f"crowd.{scenario}"] if tiny else None
            return run_crowd(seed=seed, scenario=scenario, users=users)[1]

        return go

    table = {
        "fig5": lambda seed: fig5_database(seed=seed, engine=engine)[0],
        "fig6a": lambda seed: fig6a_database(seed=seed, engine=engine)[0],
        "fig6b": lambda seed: fig6b_database(seed=seed, engine=engine)[0],
        "chaos": lambda seed: run_chaos(seed=seed)[1],
        "recovery": lambda seed: run_recovery(seed=seed)[1],
        "crowd.diurnal": crowd("diurnal"),
        "crowd.flash": crowd("flash"),
    }

    def run(name: str, seed: int) -> Any:
        return table[name](seed)

    return run


def payload_of(raw: Any) -> Any:
    """JSON-normal payload: a database's ``to_dict()``, else the run payload."""
    data = raw.to_dict() if hasattr(raw, "to_dict") else raw
    return json.loads(canonical(data))


def canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(data: Any) -> str:
    return hashlib.sha256(canonical(data).encode()).hexdigest()


def _children(node: Any, path: str):
    if isinstance(node, dict):
        for key in sorted(node):
            yield f"{path}.{key}", node[key]
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield f"{path}[{i}]", item


def digest_tree(payload: Any, depth: int = 2) -> Dict[str, str]:
    """Digest of the payload (key ``$``) and of every subtree to ``depth``.

    The subtree digests let a mismatch against a reference name the
    first divergent JSON path without committing the payload itself.
    """
    tree = {"$": digest(payload)}
    frontier = [("$", payload)]
    for _ in range(depth):
        nxt = []
        for path, node in frontier:
            for child_path, child in _children(node, path):
                tree[child_path] = digest(child)[:12]
                nxt.append((child_path, child))
        frontier = nxt
    return tree


def first_divergence(actual: Any, expected: Any, path: str = "$") -> Optional[str]:
    """First JSON path (depth-first, sorted keys) where two payloads differ."""
    if type(actual) is not type(expected):
        return path
    if isinstance(actual, dict):
        for key in sorted(set(actual) | set(expected)):
            if key not in actual or key not in expected:
                return f"{path}.{key}"
            found = first_divergence(actual[key], expected[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(actual, list):
        for i, (a, b) in enumerate(zip(actual, expected)):
            found = first_divergence(a, b, f"{path}[{i}]")
            if found is not None:
                return found
        if len(actual) != len(expected):
            return f"{path}[{min(len(actual), len(expected))}]"
        return None
    return None if actual == expected else path


def tree_divergence(payload: Any, ref_tree: Dict[str, str]) -> str:
    """First path (deepest committed level) whose digest differs from
    the reference tree."""
    mine = digest_tree(payload)
    diff = [
        p for p in sorted(set(mine) | set(ref_tree))
        if p != "$" and mine.get(p) != ref_tree.get(p)
    ]
    if not diff:
        return "$"
    first = diff[0]
    under = [p for p in diff[1:] if p.startswith((first + ".", first + "["))]
    return under[0] if under else first


def load_reference() -> Dict[str, Dict[str, Dict[str, str]]]:
    """scenario -> seed (string) -> digest tree; empty if absent."""
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text())["scenarios"]


class Checker:
    """Checks every scenario run: reference digest, else same-seed replay."""

    def __init__(self, reference: Dict[str, Dict[str, Dict[str, str]]]):
        self.reference = reference
        self._first: Dict[Tuple[str, int], Any] = {}
        #: (scenario, seed) -> digest of the first checked run.
        self.digests: Dict[Tuple[str, int], str] = {}
        #: tag -> (scenario, seed) -> digest, to compare run kinds (the
        #: traced run tags its runs ``traced`` and ``untraced``).
        self.tagged: Dict[str, Dict[Tuple[str, int], str]] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(
        self, name: str, seed: int, raw: Any, error: Optional[str], tag: str = ""
    ) -> bool:
        self.attempted += 1
        if error is not None:
            return self._fail(f"{name} seed {seed} raised: {error}")
        payload = payload_of(raw)
        dig = digest(payload)
        key = (name, seed)
        self.digests.setdefault(key, dig)
        self.tagged.setdefault(tag, {}).setdefault(key, dig)
        ref = self.reference.get(name, {}).get(str(seed))
        if ref is not None:
            if dig != ref["$"]:
                return self._fail(
                    f"{name} seed {seed} differs from the reference at "
                    f"{tree_divergence(payload, ref)}"
                )
            return True
        first = self._first.setdefault(key, payload)
        if dig != self.digests[key]:
            return self._fail(
                f"{name} seed {seed} differs from its first run at "
                f"{first_divergence(payload, first)}"
            )
        return True

    def distinct_seeds(self) -> List[str]:
        """Problems where two seeds of one scenario gave the same digest."""
        problems = []
        by_name: Dict[str, Dict[str, int]] = {}
        for (name, seed), dig in sorted(self.digests.items()):
            other = by_name.setdefault(name, {}).setdefault(dig, seed)
            if other != seed:
                problems.append(
                    f"{name}: seeds {other} and {seed} gave the same digest"
                )
        return problems

    def _fail(self, message: str) -> bool:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)
        return False
