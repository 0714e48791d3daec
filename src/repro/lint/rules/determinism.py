"""D001: the simulation must be a pure function of the master seed.

Inside the deterministic packages (the simulated stack plus everything
that feeds event ordering) the rule flags:

* calls through the process-global ``random`` module (``random.random()``,
  ``random.shuffle()``, ...) — every draw must come from a named
  ``random.Random`` stream handed down from
  :class:`repro.sim.rng.RngManager`.  Constructing ``random.Random(seed)``
  is the sanctioned exception; ``random.SystemRandom`` is not.
* ``from random import <global function>`` — same hazard, different
  spelling.
* calls through numpy's process-global RNG (``np.random.seed()``,
  ``np.random.normal()``, ...) and unseeded ``default_rng()`` — vectorized
  draws must come from an explicitly seeded ``Generator(PCG64(...))``
  keyed off ``derive_seed`` (what the fast medium backend does).
* wall-clock and entropy reads: ``time.time()`` and friends,
  ``datetime.now()`` / ``today()`` / ``utcnow()``, ``os.urandom``,
  ``uuid.uuid1``/``uuid4``, anything from ``secrets``.
* iterating a ``set`` / ``frozenset`` directly in a ``for`` loop or
  comprehension — hash-order iteration feeding event ordering is exactly
  the nondeterminism PYTHONHASHSEED exists to expose.  Wrap in
  ``sorted(...)`` instead.

:mod:`repro.sim.rng` itself is exempt (it is the sanctioned wrapper), and
harness packages that legitimately measure wall-clock time (``repro.obs``,
``repro.runner``, ``repro.experiments``, ``repro.analysis``, ``repro.lint``)
are out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleInfo, Rule, qualified_name

#: Modules whose behavior must be seed-deterministic.
DETERMINISTIC_PACKAGES = (
    "repro.core",
    "repro.sim",
    "repro.phy",
    "repro.link",
    "repro.net",
    "repro.workloads",
    "repro.estimators",
    "repro.topology",
    "repro.metrics",
    "repro.faults",
    # The campaign's deterministic core: specs, enumeration and the
    # search loop must be pure functions of (spec, seed) for resume to
    # replay identically.  Orchestration (queue/cli) lives in wall time
    # and stays out of scope.
    "repro.campaign.spec",
    "repro.campaign.sweep",
)

#: Wall-clock-measuring harness code, exempt by design.
EXEMPT_MODULES = ("repro.sim.rng",)

#: ``random.Random`` (a freshly seeded instance) is the one sanctioned
#: attribute; everything else on the module touches global state.
ALLOWED_RANDOM_ATTRS = {"Random"}

#: Explicitly-seeded numpy RNG machinery is sanctioned (the fast medium
#: backend seeds ``Generator(PCG64(derive_seed(...)))`` from the master
#: seed); the legacy ``np.random.*`` convenience functions all mutate the
#: process-global ``RandomState`` and are not.
ALLOWED_NUMPY_RANDOM_ATTRS = {
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
    "default_rng",
}

#: Spellings of the ``numpy.random`` namespace seen in qualified calls.
_NUMPY_RANDOM_PREFIXES = ("numpy.random.", "np.random.")

#: Qualified call targets that read the wall clock or OS entropy.
FORBIDDEN_CALLS = {
    "time.time": "reads the wall clock",
    "time.time_ns": "reads the wall clock",
    "time.monotonic": "reads the wall clock",
    "time.monotonic_ns": "reads the wall clock",
    "time.perf_counter": "reads the wall clock",
    "time.perf_counter_ns": "reads the wall clock",
    "datetime.datetime.now": "reads the wall clock",
    "datetime.datetime.utcnow": "reads the wall clock",
    "datetime.datetime.today": "reads the wall clock",
    "datetime.date.today": "reads the wall clock",
    "datetime.now": "reads the wall clock",
    "datetime.utcnow": "reads the wall clock",
    "datetime.today": "reads the wall clock",
    "date.today": "reads the wall clock",
    "os.urandom": "draws OS entropy",
    "uuid.uuid1": "draws OS entropy",
    "uuid.uuid4": "draws OS entropy",
}


def _set_valued(node: ast.expr) -> bool:
    """Is ``node`` literally a set (display, or set()/frozenset() call)?"""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class DeterminismRule(Rule):
    id = "D001"
    name = "determinism"
    description = (
        "no global random.* calls, wall-clock reads, OS entropy, or "
        "set-order iteration inside the deterministic simulation packages"
    )

    def _in_scope(self, module: ModuleInfo) -> bool:
        if module.module in EXEMPT_MODULES:
            return False
        if module.module.startswith("repro."):
            return module.in_packages(DETERMINISTIC_PACKAGES)
        # Standalone files (fixtures, scripts) get the full policy.
        return True

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not self._in_scope(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(module, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(module, node.iter)
            elif isinstance(node, ast.comprehension):
                yield from self._check_iteration(module, node.iter)

    def _check_call(self, module: ModuleInfo, node: ast.Call) -> Iterator[Finding]:
        qual = qualified_name(node.func)
        if qual is None:
            return
        if qual.startswith("random.") and qual.count(".") == 1:
            attr = qual.split(".", 1)[1]
            if attr not in ALLOWED_RANDOM_ATTRS:
                yield self.finding(
                    module,
                    node,
                    f"call to global `random.{attr}()` — draw from a named "
                    "RngManager stream (sim/rng.py) instead",
                )
            return
        for prefix in _NUMPY_RANDOM_PREFIXES:
            if qual.startswith(prefix):
                attr = qual[len(prefix):]
                if attr == "default_rng" and not node.args:
                    yield self.finding(
                        module,
                        node,
                        "`default_rng()` without a seed draws OS entropy — "
                        "seed it from a derive_seed(master, ...) stream name",
                    )
                elif attr not in ALLOWED_NUMPY_RANDOM_ATTRS:
                    yield self.finding(
                        module,
                        node,
                        f"call to global numpy RNG `{prefix}{attr}()` — use a "
                        "seeded Generator(PCG64(derive_seed(...))) instead",
                    )
                return
        reason = FORBIDDEN_CALLS.get(qual)
        if reason is not None:
            yield self.finding(
                module,
                node,
                f"`{qual}()` {reason} — simulation state must be a pure "
                "function of the master seed",
            )

    def _check_import_from(self, module: ModuleInfo, node: ast.ImportFrom) -> Iterator[Finding]:
        if node.level:
            return
        if node.module == "random":
            for alias in node.names:
                if alias.name not in ALLOWED_RANDOM_ATTRS:
                    yield self.finding(
                        module,
                        node,
                        f"`from random import {alias.name}` binds a global-state "
                        "RNG function — import Random and seed a stream instead",
                    )
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in ALLOWED_NUMPY_RANDOM_ATTRS:
                    yield self.finding(
                        module,
                        node,
                        f"`from numpy.random import {alias.name}` binds the "
                        "global RandomState — import Generator/PCG64 and seed "
                        "from derive_seed instead",
                    )

    def _check_iteration(self, module: ModuleInfo, iter_node: ast.expr) -> Iterator[Finding]:
        if _set_valued(iter_node):
            yield self.finding(
                module,
                iter_node,
                "iteration over a set literal/constructor — hash order is "
                "not deterministic across runs; wrap in sorted(...)",
            )
