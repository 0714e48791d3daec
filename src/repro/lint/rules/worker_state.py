"""W001: no runtime-mutated module globals on runner worker code paths.

``repro.runner`` executes tasks two ways: in pool workers (fresh
processes — module state is reborn per worker) and, with ``workers <= 1``,
*serially in the parent process*.  The two must be equivalent (a pinned
test asserts it), so any module-level container that code mutates at
runtime is a hazard: in serial mode it carries state from run N into run
N+1, and the leak only shows up as a serial-vs-parallel digest mismatch
long after the offending line landed.

The rule combines three whole-program facts no single file shows:

* the inventory of module-level mutable containers (lists/dicts/sets and
  their constructor spellings) in every ``repro.*`` module,
* the transitive import closure of the runner worker entry points
  (:data:`WORKER_ENTRY_PREFIXES`) — only state *reachable from worker
  code* is in scope, and
* every mutation site in the project (``x.append(...)``, ``x[k] = v``,
  ``mod.GLOBAL.update(...)``, ...), including cross-module mutations
  through import bindings, classified by whether it executes at import
  time (module level — one-time initialization, fine) or inside a
  function body (runtime — flagged).

Intentional exceptions (bounded memo caches whose entries are pure
functions of their key, import-time decorator registries) are suppressed
inline at the assignment with a justifying comment — the suppression is
the reviewed statement that the state cannot change results across runs.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.core import Finding
from repro.lint.project import ProjectIndex, ProjectRule

#: Modules whose import closure constitutes "worker code": the runner
#: itself, the experiment entry functions it submits, and the network
#: builder every task calls.
WORKER_ENTRY_PREFIXES = (
    "repro.runner",
    "repro.experiments",
    "repro.sim.network",
    # Campaign points execute via simulate() inside pool workers.
    "repro.campaign",
)

#: Module-level names that are conventionally not state.
IGNORED_NAMES = {"__all__"}


class WorkerStateRule(ProjectRule):
    id = "W001"
    name = "worker-state"
    description = (
        "module-level mutable containers reachable from runner worker code "
        "must not be mutated at runtime (serial in-process runs leak them "
        "across runs)"
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        entries = [
            module
            for module in index.files
            if any(
                module == p or module.startswith(p + ".")
                for p in WORKER_ENTRY_PREFIXES
            )
        ]
        reachable = index.reachable_from(sorted(entries))
        for module in sorted(reachable):
            if not module.startswith("repro."):
                continue
            facts = index.files[module]
            for glob in facts.mutable_globals:
                name = str(glob["name"])
                if name in IGNORED_NAMES:
                    continue
                sites = index.runtime_mutations.get((module, name), [])
                if not sites:
                    continue
                mutators = sorted({str(s["in_module"]) for s in sites})
                ops = sorted({str(s["op"]) for s in sites})
                yield self.project_finding(
                    facts.path,
                    int(glob["line"]),  # type: ignore[arg-type]
                    f"module-level {glob['kind']} `{name}` is mutated at "
                    f"runtime ({'/'.join(ops)} from {', '.join(mutators)}) "
                    "and is reachable from runner worker code — state leaks "
                    "across runs in serial in-process mode; scope it to the "
                    "run (or suppress inline with the reason it cannot "
                    "change results)",
                )
