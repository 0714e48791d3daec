"""Per-run resource accounting: wall time, CPU time, peak RSS.

A run's *simulated* behavior is deterministic, but where the wall clock
and memory went is not — and that is exactly what capacity planning for
the sweep backbone needs.  A :class:`ResourceProbe` brackets one unit of
work (inside a runner worker process, or around a whole network run) and
returns the deltas from ``resource.getrusage``:

* ``wall_s`` — elapsed real time (``perf_counter`` delta);
* ``cpu_user_s`` / ``cpu_sys_s`` / ``cpu_s`` — process CPU time deltas;
* ``max_rss_kb`` — peak resident set size in kB.  ``ru_maxrss`` is a
  process-lifetime high-water mark (Linux reports kB, macOS bytes — both
  normalized here), so for the *first* run in a worker it is the run's
  own peak; for later runs it can only grow, never shrink.  A pool worker
  frees the previous run before the next one starts
  (:mod:`repro.runner.runner`), so a later run's value is the largest
  peak any run in that worker reached, not a sum of dead runs still held.

Everything degrades gracefully: on platforms without the ``resource``
module only ``wall_s`` (and ``process_time``-based CPU) is reported.
This module is deliberately wall-clock-dependent — it lives in
``repro.obs``, outside the deterministic simulation packages, and its
output never feeds back into simulated behavior.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, Optional, Tuple

try:  # pragma: no cover - import guard exercised only off-POSIX
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None  # type: ignore[assignment]

def _rusage() -> Optional[Tuple[float, float, float]]:
    """(user CPU s, system CPU s, max RSS kB) for this process, or None."""
    if _resource is None:
        return None
    ru = _resource.getrusage(_resource.RUSAGE_SELF)
    max_rss_kb = float(ru.ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        max_rss_kb /= 1024.0
    return ru.ru_utime, ru.ru_stime, max_rss_kb


class ResourceProbe:
    """Start/stop resource capture around one unit of work."""

    def __init__(self) -> None:
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._ru0 = _rusage()
        #: Filled by :meth:`stop` (and by ``__exit__``).
        self.result: Dict[str, float] = {}

    def stop(self) -> Dict[str, float]:
        wall_s = time.perf_counter() - self._wall0
        ru1 = _rusage()
        if self._ru0 is not None and ru1 is not None:
            user = max(0.0, ru1[0] - self._ru0[0])
            system = max(0.0, ru1[1] - self._ru0[1])
            max_rss_kb = ru1[2]
        else:  # pragma: no cover - no `resource` module
            user = max(0.0, time.process_time() - self._cpu0)
            system = 0.0
            max_rss_kb = 0.0
        self.result = {
            "wall_s": wall_s,
            "cpu_user_s": user,
            "cpu_sys_s": system,
            "cpu_s": user + system,
            "max_rss_kb": max_rss_kb,
        }
        return self.result

    def __enter__(self) -> "ResourceProbe":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def attach_resources(result: Any, resources: Dict[str, float]) -> bool:
    """Duck-typed attach: set ``result.resources`` when the slot exists.

    Returns True when attached.  Results that predate the field (or
    foreign result types) are left untouched rather than grown surprise
    attributes — the runner calls this on whatever the task returned.
    """
    if hasattr(result, "resources"):
        try:
            result.resources = dict(resources)
        except AttributeError:  # pragma: no cover - frozen/slotted results
            return False
        return True
    return False


def merge_resources(
    total: Dict[str, float], one: Optional[Dict[str, Any]]
) -> Dict[str, float]:
    """Fold one run's resources into a sweep aggregate (in place).

    CPU and wall seconds add; ``max_rss_kb`` takes the max — worker
    processes run concurrently, so their peaks do not sum meaningfully.
    """
    if not one:
        return total
    for key in ("wall_s", "cpu_user_s", "cpu_sys_s", "cpu_s"):
        value = one.get(key)
        if isinstance(value, (int, float)):
            total[key] = total.get(key, 0.0) + float(value)
    rss = one.get("max_rss_kb")
    if isinstance(rss, (int, float)):
        total["max_rss_kb"] = max(total.get("max_rss_kb", 0.0), float(rss))
    return total


def format_resources(resources: Optional[Dict[str, float]]) -> str:
    """Terminal-friendly one-liner (``cpu=1.2s rss=83MB``)."""
    if not resources:
        return "(no resource data)"
    parts = []
    cpu = resources.get("cpu_s")
    if cpu is not None:
        parts.append(f"cpu={cpu:.2f}s")
    wall = resources.get("wall_s")
    if wall is not None:
        parts.append(f"wall={wall:.2f}s")
    rss = resources.get("max_rss_kb")
    if rss:
        parts.append(f"rss={rss / 1024.0:.0f}MB")
    return " ".join(parts) if parts else "(no resource data)"


__all__ = [
    "ResourceProbe",
    "attach_resources",
    "format_resources",
    "merge_resources",
]
