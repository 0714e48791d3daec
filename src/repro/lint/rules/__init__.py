"""Rule registry: one instance of every lint rule, in report order.

Two tiers share one registry: per-file AST rules (D/L/U/S/H) and
whole-program project rules (R/P/W — see :mod:`repro.lint.project`).
Inline suppressions treat them uniformly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.lint.core import Rule
from repro.lint.rules.backend_parity import BackendParityRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.hygiene import FloatEqualityRule, MutableDefaultRule, UnusedImportRule
from repro.lint.rules.layering import LayeringRule
from repro.lint.rules.rng_provenance import RngProvenanceRule
from repro.lint.rules.units import UnitsRule
from repro.lint.rules.worker_state import WorkerStateRule

#: All rules, file tier then project tier.  Every rule is on by default.
RULES: List[Rule] = [
    DeterminismRule(),
    LayeringRule(),
    UnitsRule(),
    MutableDefaultRule(),
    FloatEqualityRule(),
    UnusedImportRule(),
    RngProvenanceRule(),
    BackendParityRule(),
    WorkerStateRule(),
]


def rules_by_name(rules: Optional[Sequence[Rule]] = None) -> Dict[str, Rule]:
    """Lookup accepting either the id (``D001``) or the name.

    Raises ``ValueError`` on a duplicate id or name: with two registration
    sites (file rules and project rules) a silent last-wins table would
    make half a collision unreachable by name and from inline
    suppressions.
    """
    table: Dict[str, Rule] = {}
    for rule in rules if rules is not None else RULES:
        for key in (rule.id, rule.name):
            if not key:
                raise ValueError(f"rule {rule!r} has an empty id or name")
            existing = table.get(key)
            if existing is not None and existing is not rule:
                raise ValueError(
                    f"duplicate rule registration for {key!r}: "
                    f"{type(existing).__name__} and {type(rule).__name__}"
                )
            table[key] = rule
    return table

