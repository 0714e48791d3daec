"""P001: the fast medium stays behaviorally paired with the exact one.

The ≥49× city-scale speedup (DESIGN.md §9) is only trustworthy while
:class:`~repro.sim.medium_fast.FastRadioMedium` keeps consuming the same
contract surface as :class:`~repro.sim.medium.RadioMedium`.  Two kinds of
silent divergence have nearly identical symptoms (distribution tests keep
passing while one scenario class quietly differs), so both are checked
statically:

* **Method parity** — every *public* method on the exact backend must be
  overridden by the fast backend, unless listed in
  :data:`PARITY_INHERITED` with a reason.  A new public method added to
  the exact backend (say, a duty-cycle hook) that the fast backend forgets
  to mirror would otherwise fall back to O(N·k) semantics — correct but
  invalidating every published speedup ratio — or, worse, operate on the
  exact backend's structures that the fast backend does not maintain.
* **Surface parity** — every collaborator attribute the exact backend
  reads (``self.channel.*``, ``*.radio.*``, ``self.white_bit_policy.*``,
  any ``config``/``cfg`` field) must also be
  referenced by the fast backend, through either its own overrides or the
  base methods it inherits.  A new channel parameter consumed only by the
  exact path means fast runs silently ignore a knob the config digest
  claims they honor.  Intentional reimplementation goes in
  :data:`PARITY_DIVERGENT_SURFACE` with a reason.

The allowlists are part of the contract: adding an entry is a reviewed
statement that the divergence is intentional.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set

from repro.lint.core import Finding
from repro.lint.project import ProjectIndex, ProjectRule

BASE_CLASS = "repro.sim.medium.RadioMedium"
FAST_CLASS = "repro.sim.medium_fast.FastRadioMedium"

#: Public base methods the fast backend intentionally inherits: these
#: operate purely on state the base class owns on both backends.
PARITY_INHERITED: Dict[str, str] = {
    "add_interferer": "interferer registration is shared bookkeeping on both backends",
    "advance_interferers": "lazy burst schedules fill the shared _active/_recent lists",
    "attach": "an attach after finalize re-opens the medium on both backends, so the next use re-finalizes from scratch",
    "enable_faults": "fault overlay state (MediumFaultState) is backend-independent",
    "interferer_started": "interferer registration is shared bookkeeping on both backends",
    "is_transmitting": "half-duplex check reads the shared _active list",
    "start_transmission": "admission/airtime accounting is shared; only reception evaluation diverges",
    "transmissions": "the counter includes lazily started bursts identically on both backends",
}

#: Collaborator reads the fast backend intentionally replaces.
PARITY_DIVERGENT_SURFACE: Dict[str, str] = {
    "channel.gain_db": "instantaneous gain is reimplemented by the repro.phy.vector kernels",
    "channel.mean_gain_db": "set-up reads every in-reach pair's mean gain as one array from channel.mean_gains, the scalar formula term for term",
}


def _class_surface(class_facts: Dict[str, object]) -> Dict[str, List[str]]:
    return dict(class_facts.get("surfaces", {}))  # type: ignore[arg-type]


def _methods(class_facts: Dict[str, object]) -> Dict[str, int]:
    return dict(class_facts.get("methods", {}))  # type: ignore[arg-type]


class BackendParityRule(ProjectRule):
    id = "P001"
    name = "backend-parity"
    description = (
        "FastRadioMedium overrides every public RadioMedium method and "
        "references every collaborator attribute the exact backend reads "
        "(explicit allowlists for intentional divergence)"
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        base = index.find_class(BASE_CLASS)
        fast = index.find_class(FAST_CLASS)
        if base is None or fast is None:
            return  # partial tree under lint; nothing to pair
        base_facts, base_cls = base
        fast_facts, fast_cls = fast
        base_methods = _methods(base_cls)
        fast_methods = _methods(fast_cls)
        fast_line = int(fast_cls["line"])  # type: ignore[arg-type]

        # -- method parity ------------------------------------------------
        for method in sorted(base_methods):
            if method.startswith("_"):
                continue
            if method in fast_methods:
                continue
            if method in PARITY_INHERITED:
                continue
            yield self.project_finding(
                fast_facts.path,
                fast_line,
                f"public method `{method}()` on RadioMedium is not "
                "overridden by FastRadioMedium — the fast backend would run "
                "the exact backend's structural semantics; override it or "
                "allowlist it in PARITY_INHERITED with a reason",
            )

        # Stale allowlist entries are findings too: an allowlisted method
        # that *is* now overridden (or gone) means the contract note lies.
        for method in sorted(PARITY_INHERITED):
            if method in fast_methods:
                yield self.project_finding(
                    fast_facts.path,
                    int(fast_methods[method]),
                    f"`{method}()` is allowlisted as intentionally inherited "
                    "but FastRadioMedium overrides it — drop the stale "
                    "PARITY_INHERITED entry",
                )
            elif method not in base_methods:
                yield self.project_finding(
                    base_facts.path,
                    int(base_cls["line"]),  # type: ignore[arg-type]
                    f"PARITY_INHERITED lists `{method}()` but RadioMedium "
                    "has no such method — drop the stale entry",
                )

        # -- surface parity -----------------------------------------------
        base_surfaces = _class_surface(base_cls)
        fast_surfaces = _class_surface(fast_cls)
        base_total: Set[str] = set()
        for chains in base_surfaces.values():
            base_total.update(chains)
        fast_total: Set[str] = set()
        for chains in fast_surfaces.values():
            fast_total.update(chains)
        # Methods the fast backend inherits execute base code: their reads
        # are part of the fast backend's consumed surface.
        for method, chains in base_surfaces.items():
            if method not in fast_methods:
                fast_total.update(chains)

        for chain in sorted(base_total - fast_total):
            if chain in PARITY_DIVERGENT_SURFACE:
                continue
            # A longer fast-side chain through the same attribute still
            # counts as referencing it (channel.cfg vs channel.cfg.x).
            if any(f == chain or f.startswith(chain + ".") for f in fast_total):
                continue
            yield self.project_finding(
                fast_facts.path,
                fast_line,
                f"exact backend reads `{chain}` but the fast backend never "
                "references it — a config knob the fast path silently "
                "ignores; consume it or allowlist it in "
                "PARITY_DIVERGENT_SURFACE with a reason",
            )

        for chain in sorted(PARITY_DIVERGENT_SURFACE):
            if chain not in base_total:
                yield self.project_finding(
                    base_facts.path,
                    int(base_cls["line"]),  # type: ignore[arg-type]
                    f"PARITY_DIVERGENT_SURFACE lists `{chain}` but the exact "
                    "backend no longer reads it — drop the stale entry",
                )
