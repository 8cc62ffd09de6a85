"""``repro bench check`` — compare fresh benchmark numbers to baselines.

Benchmarks record their headline numbers as ``BENCH_*.json`` files in
``benchmarks/out/`` (e.g. ``BENCH_exec.json`` from the sweep-engine
benchmark, ``BENCH_obs.json`` from the observability benchmark).  The
committed copies are the *baselines*; a CI run regenerates them and this
command reports what moved.

Comparison rules, per field:

* **exact** — booleans, integers, and strings must match bit-for-bit.
  These encode deterministic guarantees (``bytes_identical``, cell
  counts), so any drift is a regression.
* **band** — floats are wall-clock-derived (timings, speedups, overhead
  ratios) and compared within a relative tolerance band.  Direction
  matters: a timing (key ending ``_s`` or containing ``overhead``) only
  regresses when it *grows* past the band; a throughput-like value
  (``speedup``, ``cache_hit_rate``) only regresses when it *shrinks*.
  Movement past the band in the good direction is an ``improved`` note,
  not a failure.
* **info** — machine-dependent fields (``cpu_count``,
  ``speedup_asserted``) are reported but never fail the check.

Exit codes: 0 no blocking regressions, 1 blocking regressions (or
missing benchmarks), 2 usage error.  ``--block-on`` picks what blocks:
``all`` (the default) fails on any regression, while ``exact`` fails
only on exact-field and structural regressions (missing files/fields,
unreadable records) and downgrades band drift to a warning — that is
what CI runs, so the deterministic guarantees gate merges while
wall-clock noise stays advisory.  ``--out`` writes the full comparison
as JSON so CI can upload it as an artifact.

``--update <name>`` (repeatable) accepts the fresh numbers of the named
benchmark as the new baseline: the comparison still reports what moved
(as ``updated`` rows), but that benchmark's drift never blocks, and the
fresh record is copied over the baseline copy after the report.  Names
are short (``sim`` means ``BENCH_sim.json``); re-run the benchmark
first — updating from a stale fresh directory is refused only when the
file is missing outright.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

__all__ = ["apply_updates", "compare_dirs", "compare_records", "render_report"]

#: Default relative tolerance for wall-clock-derived floats.  Generous on
#: purpose: CI machines are noisy and the exact fields carry the
#: deterministic guarantees.
DEFAULT_TOLERANCE = 0.5

#: Fields reported but never compared: they describe the machine, not the
#: code under test.
_INFO_FIELDS = frozenset({"cpu_count", "speedup_asserted"})


def _bench_filename(name: str) -> str:
    """Normalise a benchmark name (``sim`` / ``BENCH_sim`` /
    ``BENCH_sim.json``) to its file name."""
    if name.endswith(".json"):
        name = name[: -len(".json")]
    if not name.startswith("BENCH_"):
        name = f"BENCH_{name}"
    return f"{name}.json"


def _is_timing(key: str) -> bool:
    """True when lower is better for this float field."""
    return key.endswith("_s") or "overhead" in key


def _field_kind(key: str, value) -> str:
    if key in _INFO_FIELDS:
        return "info"
    if isinstance(value, bool) or isinstance(value, int):
        return "exact"
    if isinstance(value, float):
        return "band"
    return "exact"


def compare_records(
    name: str, fresh: Dict, baseline: Dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[Dict]:
    """Field-by-field comparison of one benchmark record pair."""
    rows: List[Dict] = []
    for key in sorted(set(fresh) | set(baseline)):
        if key not in baseline:
            rows.append(
                {"benchmark": name, "field": key, "kind": "new",
                 "fresh": fresh[key], "baseline": None, "status": "new"}
            )
            continue
        if key not in fresh:
            rows.append(
                {"benchmark": name, "field": key, "kind": "missing",
                 "fresh": None, "baseline": baseline[key],
                 "status": "regression"}
            )
            continue
        f, b = fresh[key], baseline[key]
        kind = _field_kind(key, b)
        row = {
            "benchmark": name, "field": key, "kind": kind,
            "fresh": f, "baseline": b,
        }
        if kind == "info":
            row["status"] = "info"
        elif kind == "exact":
            row["status"] = "ok" if f == b else "regression"
        else:  # band
            base = abs(float(b))
            delta = float(f) - float(b)
            rel = delta / base if base > 1e-12 else (0.0 if delta == 0 else float("inf"))
            row["delta_rel"] = round(rel, 4) if rel != float("inf") else "inf"
            worse = rel > tolerance if _is_timing(key) else rel < -tolerance
            better = rel < -tolerance if _is_timing(key) else rel > tolerance
            row["status"] = (
                "regression" if worse else "improved" if better else "ok"
            )
        rows.append(row)
    return rows


def compare_dirs(
    fresh_dir: Path, baseline_dir: Path, tolerance: float = DEFAULT_TOLERANCE
) -> Dict:
    """Compare every ``BENCH_*.json`` pair across two directories."""
    fresh_files = {p.name: p for p in sorted(fresh_dir.glob("BENCH_*.json"))}
    base_files = {p.name: p for p in sorted(baseline_dir.glob("BENCH_*.json"))}
    rows: List[Dict] = []
    for name in sorted(set(fresh_files) | set(base_files)):
        if name not in base_files:
            rows.append(
                {"benchmark": name, "field": "*", "kind": "new",
                 "fresh": "present", "baseline": None, "status": "new"}
            )
            continue
        if name not in fresh_files:
            rows.append(
                {"benchmark": name, "field": "*", "kind": "missing",
                 "fresh": None, "baseline": "present", "status": "regression"}
            )
            continue
        try:
            fresh = json.loads(fresh_files[name].read_text())
            baseline = json.loads(base_files[name].read_text())
        except (OSError, json.JSONDecodeError) as exc:
            rows.append(
                {"benchmark": name, "field": "*", "kind": "unreadable",
                 "fresh": str(exc), "baseline": None, "status": "regression"}
            )
            continue
        rows.extend(compare_records(name, fresh, baseline, tolerance))
    regressions = [r for r in rows if r["status"] == "regression"]
    blocking = [r for r in regressions if r["kind"] != "band"]
    return {
        "tolerance": tolerance,
        "benchmarks": sorted(set(fresh_files) | set(base_files)),
        "rows": rows,
        "regressions": len(regressions),
        # Band (wall-clock) regressions are separable so callers can gate
        # on the deterministic fields only (``--block-on exact``).
        "exact_regressions": len(blocking),
        "ok": not regressions,
    }


def apply_updates(
    report: Dict, names: List[str], fresh_dir: Path, baseline_dir: Path
) -> List[str]:
    """Accept fresh numbers as the new baseline for the named benchmarks.

    Re-marks the named benchmarks' drift rows as ``updated`` (so they no
    longer block), recomputes the report's regression counts, and copies
    each fresh record over its baseline copy.  Returns a list of error
    strings (unknown names, missing fresh files); on any error nothing
    is copied.
    """
    filenames = [_bench_filename(n) for n in names]
    errors = []
    for filename in filenames:
        if not (fresh_dir / filename).is_file():
            errors.append(
                f"--update {filename}: no fresh record at {fresh_dir / filename}"
            )
    if errors:
        return errors
    updated = set(filenames)
    for row in report["rows"]:
        if row["benchmark"] in updated and row["status"] in (
            "regression", "improved", "new"
        ):
            row["status"] = "updated"
    regressions = [r for r in report["rows"] if r["status"] == "regression"]
    report["regressions"] = len(regressions)
    report["exact_regressions"] = len(
        [r for r in regressions if r["kind"] != "band"]
    )
    report["ok"] = not regressions
    report["updated"] = sorted(updated)
    for filename in filenames:
        src, dst = fresh_dir / filename, baseline_dir / filename
        if src.resolve() != dst.resolve():
            dst.write_text(src.read_text())
    return []


def render_report(report: Dict) -> str:
    """The human rendering of a :func:`compare_dirs` report."""
    lines = []
    current = None
    for row in report["rows"]:
        if row["benchmark"] != current:
            current = row["benchmark"]
            lines.append(f"== {current} ==")
        mark = {
            "ok": " ", "info": "i", "new": "+", "improved": "^",
            "regression": "!", "updated": "~",
        }[row["status"]]
        detail = f"{row['fresh']!r} vs baseline {row['baseline']!r}"
        if "delta_rel" in row:
            detail += f" ({row['delta_rel']:+.1%})" if isinstance(
                row["delta_rel"], float
            ) else f" (delta {row['delta_rel']})"
        lines.append(f" {mark} {row['field']}: {detail} [{row['status']}]")
    verdict = (
        "no regressions"
        if report["ok"]
        else f"{report['regressions']} regression(s)"
    )
    lines.append(
        f"repro bench check: {verdict} across "
        f"{len(report['benchmarks'])} benchmark file(s) "
        f"(tolerance {report['tolerance']:.0%} on wall-clock fields)"
    )
    if report.get("updated"):
        lines.append(
            "baselines updated: " + ", ".join(report["updated"])
        )
    if report.get("block_on") == "exact" and not report["ok"]:
        band_only = report["regressions"] - report["exact_regressions"]
        if report["exact_regressions"]:
            lines.append(
                f"blocking: {report['exact_regressions']} exact-field "
                "regression(s) [--block-on exact]"
            )
        elif band_only:
            lines.append(
                f"advisory only: {band_only} wall-clock regression(s) "
                "within --block-on exact policy"
            )
    return "\n".join(lines)
