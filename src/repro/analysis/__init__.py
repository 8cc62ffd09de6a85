"""Static and dynamic analysis guarding the repo's determinism claims.

Three coordinated passes:

- :mod:`repro.analysis.rules` — AST determinism linter (``DET*`` rules):
  no wall clocks, no OS entropy, all randomness via
  ``repro.sim.rng.stream``, no unordered iteration feeding event or
  message order;
- :mod:`repro.analysis.protocol` — sim-protocol checker (``SIM*`` rules)
  for the kernel's coroutine discipline;
- :mod:`repro.analysis.races` — opt-in run-time tie-order race detector
  for same-timestamp conflicting accesses to shared simulation state;
- :mod:`repro.analysis.dataflow` — interprocedural nondeterminism taint
  analysis (``DET5xx``): source → sink chains that cross function
  boundaries, which the local rules cannot see;
- :mod:`repro.analysis.explore` + :mod:`repro.analysis.schedule` —
  bounded DPOR-style schedule exploration: replay a workload under
  permuted same-instant event orders (pruned by the race detector's
  conflict sets) and certify that no tie order changes the payload.

``repro lint`` runs the static passes with inline-suppression and
baseline workflows; ``repro check`` runs the explorer and the dataflow
linter (both declared in :mod:`repro.cli`); ``docs/determinism.md``
documents every rule and its rationale.
"""

from .findings import Finding, Severity, sort_findings
from .lint import (
    ALL_RULES,
    BASELINE_NAME,
    LintResult,
    lint_paths,
    lint_source,
    load_baseline,
    write_baseline,
)
from .dataflow import DATAFLOW_RULES, flow_paths, flow_source
from .explore import (
    ExplorationResult,
    Flip,
    Scenario,
    ScheduleDivergence,
    ScheduleExplorer,
    builtin_scenarios,
)
from .protocol import PROTOCOL_RULES, ProtocolVisitor
from .races import Access, RaceDetector, RaceReport, watch
from .rules import DETERMINISM_RULES, DeterminismVisitor
from .schedule import DemoteTiebreak, FifoTiebreak

__all__ = [
    "ALL_RULES",
    "Access",
    "BASELINE_NAME",
    "DATAFLOW_RULES",
    "DETERMINISM_RULES",
    "DemoteTiebreak",
    "DeterminismVisitor",
    "ExplorationResult",
    "FifoTiebreak",
    "Finding",
    "Flip",
    "LintResult",
    "PROTOCOL_RULES",
    "ProtocolVisitor",
    "RaceDetector",
    "RaceReport",
    "Scenario",
    "ScheduleDivergence",
    "ScheduleExplorer",
    "Severity",
    "builtin_scenarios",
    "flow_paths",
    "flow_source",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "sort_findings",
    "watch",
    "write_baseline",
]
