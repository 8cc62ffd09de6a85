"""Regenerate ``reference.json``: digest trees of every benchmark scenario.

Run from the repository root (about two minutes on a 2-core machine)::

    PYTHONPATH=src python3 perfbench/make_reference.py

Only regenerate when a change is *meant* to alter simulated behaviour;
the benchmark counts every run whose payload differs from these digests
as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import REFERENCE_FILE, WORKLOADS, digest_tree, make_runner, payload_of  # noqa: E402

#: Seeds with committed digests; other seeds are checked by replay.
SEEDS = range(32)


def main() -> int:
    run = make_runner()
    scenarios = {}
    for names, _ in WORKLOADS.values():
        for name in names:
            scenarios[name] = {
                str(seed): digest_tree(payload_of(run(name, seed)))
                for seed in SEEDS
            }
            print(f"{name}: {len(SEEDS)} seeds", file=sys.stderr)
    REFERENCE_FILE.write_text(json.dumps(
        {"format": 1, "digest": "sha256 of canonical JSON; subtrees to depth 2, "
                                "first 12 hex digits", "scenarios": scenarios},
        sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
