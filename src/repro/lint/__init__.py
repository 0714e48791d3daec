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
* **Stats/obs bridge** — every layer stats dataclass bridges all of its
  counters into the :mod:`repro.obs` metrics registry.

A second, whole-program tier (:mod:`repro.lint.project`) checks contracts
no single file shows: RNG-stream provenance (R001), fast/exact backend
parity (P001), and worker-state safety (W001).

``python -m repro.lint`` checks these (plus Python hygiene) over the AST,
with per-rule enable/disable, inline ``# lint: disable=...`` suppressions,
and a committed baseline so legacy findings never block CI.
"""

from repro.lint.baseline import Baseline, load_baseline, write_baseline
from repro.lint.core import Finding, LintContext, ModuleInfo, Rule, lint_paths
from repro.lint.fix import fix_unused_imports
from repro.lint.project import (
    FileFacts,
    IndexCache,
    ProjectIndex,
    ProjectRule,
    build_index,
    extract_facts,
)
from repro.lint.rules import RULES, default_rules, rules_by_name

__all__ = [
    "Baseline",
    "FileFacts",
    "Finding",
    "IndexCache",
    "LintContext",
    "ModuleInfo",
    "ProjectIndex",
    "ProjectRule",
    "RULES",
    "Rule",
    "build_index",
    "default_rules",
    "extract_facts",
    "fix_unused_imports",
    "lint_paths",
    "load_baseline",
    "rules_by_name",
    "write_baseline",
]
