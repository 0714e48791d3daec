"""Static analysis for the repo's determinism and layering contracts.

The simulator's correctness rests on source-level invariants that runtime
tests can only spot-check:

* **Determinism** — every stochastic draw goes through a named
  :class:`repro.sim.rng.RngManager` stream; nothing reads the wall clock
  or the process-global ``random`` state inside the simulation.
* **Layering** — the physical, link, and network layers couple only
  through the four-bit contract in :mod:`repro.core.interfaces`.
* **Units** — dBm (log domain) and mW (linear domain) never mix in one
  arithmetic expression.

A second, whole-program tier (:mod:`repro.lint.project`) checks contracts
no single file shows: RNG-stream provenance (R001), fast/exact backend
parity (P001), and worker-state safety (W001).

``python -m repro.lint [PATHS]`` checks these (plus Python hygiene) over
the AST with every rule, and fails on any finding not suppressed by an
inline ``# lint: disable=...`` comment on its line.
"""

from repro.lint.core import Finding, LintContext, ModuleInfo, Rule, lint_paths
from repro.lint.project import (
    FileFacts,
    ProjectIndex,
    ProjectRule,
    build_index,
    extract_facts,
)
from repro.lint.rules import RULES, rules_by_name

__all__ = [
    "FileFacts",
    "Finding",
    "LintContext",
    "ModuleInfo",
    "ProjectIndex",
    "ProjectRule",
    "RULES",
    "Rule",
    "build_index",
    "extract_facts",
    "lint_paths",
    "rules_by_name",
]
