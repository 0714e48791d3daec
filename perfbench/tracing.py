"""Out-of-tree layer tracer for the benchmark's traced runs.

Nothing here edits the program: the tracer wraps the public entry points of
each layer at class level (and the estimator's MAC callbacks per instance)
for the lifetime of one traced pass, then restores the originals.

* A **span** is one call into a wrapped entry point.  Spans nest on a stack;
  a span's self time is its duration minus the time of the spans it caused.
* **Timer events** are timed by a subclass of the public
  :class:`~repro.obs.profile.EngineProfiler`.  An event is attributed to the
  layer of the module defining its callback; its self time is its wall time
  minus the top-level spans it caused.
* **Engine self time** is the event loop's wall time minus all top-level
  callback time (the heap work, dispatch, and the profiler's bookkeeping).

So every second of the traced loop lands in exactly one layer, and the sum
of the layers' self times must match the loop wall (checked by the caller).
Spans are aggregated in memory per (layer, entry point) and written out when
the pass ends; pool workers dump their aggregate after every run so a parent
can merge them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign.sweep import SweepSpec
from repro.core.estimator import HybridLinkEstimator
from repro.link.mac import Mac
from repro.net.ctp.protocol import CtpProtocol
from repro.net.multihoplqi import MultiHopLqi
from repro.obs.profile import EngineProfiler
from repro.sim.engine import Engine
from repro.sim.medium import RadioMedium
from repro.sim.medium_fast import FastRadioMedium
from repro.sim.network import CollectionNetwork
from repro.topology.testbeds import TestbedProfile

#: Layers in report order.  ``harness`` holds the network builder's own
#: timers (boot, tree sampling), which belong to no protocol layer.
LAYERS = ("engine", "medium", "link", "core", "net", "workloads", "harness")

#: Module prefix -> layer, first match wins (the package names).
_MODULE_LAYERS = (
    ("repro.sim.medium", "medium"),
    ("repro.sim.spatial", "medium"),
    ("repro.phy.", "medium"),
    ("repro.link.", "link"),
    ("repro.core.", "core"),
    ("repro.estimators.", "core"),
    ("repro.net.", "net"),
    ("repro.workloads.", "workloads"),
    ("repro.sim.engine", "engine"),
)

#: Class-level span points: (owner, attribute, layer).  A method is wrapped
#: on every class that defines it, so an override is traced too.
_SPAN_POINTS: Tuple[Tuple[type, str, str], ...] = (
    (RadioMedium, "start_transmission", "medium"),
    (RadioMedium, "channel_clear", "medium"),
    (FastRadioMedium, "channel_clear", "medium"),
    (Mac, "send", "link"),
    (Mac, "on_frame_received", "link"),
    (HybridLinkEstimator, "send", "core"),
    (HybridLinkEstimator, "link_quality", "core"),
    (HybridLinkEstimator, "neighbor_qualities", "core"),
    (HybridLinkEstimator, "pin", "core"),
    (HybridLinkEstimator, "unpin", "core"),
    (CtpProtocol, "on_receive", "net"),
    (CtpProtocol, "on_send_done", "net"),
    (CtpProtocol, "send_from_app", "net"),
    (MultiHopLqi, "send_from_app", "net"),
)

#: Spans whose call counts are the layers' ``rx_calls``.  MultiHopLQI has no
#: estimator: its own handler sits on the MAC callback.
RX_SPANS = {
    "link": ("Mac.on_frame_received",),
    "core": ("HybridLinkEstimator@mac.on_receive",),
    "net": ("CtpProtocol.on_receive", "MultiHopLqi@mac.on_receive"),
}


def layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "harness"


def stack_counters(net: CollectionNetwork) -> Dict[str, int]:
    """Deterministic per-layer work counters of a finished network.

    Read from the layers' public stats objects; identical for every repeat
    of the same code, configuration and seed.
    """
    c: Counter = Counter()
    medium = net.medium
    c["engine.events"] = net.engine.events_run
    c["engine.compactions"] = net.engine.compactions
    c["medium.transmissions"] = medium.transmissions
    c["medium.deliveries"] = medium.deliveries
    c["medium.collisions"] = medium.collisions
    for node in net.nodes.values():
        ms = node.mac.stats
        c["link.frames_delivered_up"] += ms.frames_delivered_up
        c["link.tx_unicast"] += ms.tx_unicast
        c["link.acks_received"] += ms.acks_received
        c["link.backoff_rounds"] += ms.backoff_rounds
        c["link.channel_access_failures"] += ms.channel_access_failures
        if node.estimator is not None:
            es = node.estimator.stats
            c["core.inserts"] += es.inserts_free + es.inserts_compare + es.inserts_evict_worst
            c["core.rejections"] += (
                es.rejected_no_white + es.rejected_no_compare + es.rejected_all_pinned
            )
            c["core.compare_queries"] += es.compare_queries
            c["core.unicast_samples"] += es.unicast_samples
        if isinstance(node.protocol, CtpProtocol):
            rs = node.protocol.routing.stats
            fs = node.protocol.forwarding.stats
            c["net.beacons_sent"] += rs.beacons_sent
            c["net.parent_switches"] += rs.parent_switches
            c["net.tx_attempts"] += fs.tx_attempts
            c["net.drops"] += fs.drops_queue_full + fs.drops_thl + fs.drops_retries
            c["net.duplicates_suppressed"] += fs.duplicates_suppressed
        if node.source is not None:
            c["workloads.generated"] += node.source.attempted
    return dict(c)


class SpanProfiler(EngineProfiler):
    """Engine profiler that also charges each event to its layer."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "LayerTracer") -> None:
        super().__init__()
        self._tracer = tracer

    def record(self, kind: str, wall_s: float, sim_time: float, queue_depth: int) -> None:
        tracer = self._tracer
        stats = tracer.events.get(kind)
        if stats is None:
            stats = tracer.events[kind] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += wall_s
        stats[2] += wall_s - tracer.top_s
        tracer.top_s = 0.0
        if queue_depth > tracer.queue_depth_max:
            tracer.queue_depth_max = queue_depth
        super().record(kind, wall_s, sim_time, queue_depth)


class _Patcher:
    """Class-attribute replacement that can be undone."""

    def __init__(self) -> None:
        self._patches: List[Tuple[type, str, Any]] = []

    def _patch(self, owner: type, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Stopwatches(_Patcher):
    """Accumulated seconds in set-up entry points (outside the event loop)."""

    def __init__(self, points: Tuple[Tuple[type, str, str], ...]) -> None:
        super().__init__()
        self.points = points
        self.seconds = {bucket: 0.0 for _owner, _attr, bucket in points}

    def install(self) -> None:
        for owner, attr, bucket in self.points:
            self._patch(owner, attr, self._timed(owner.__dict__[attr], bucket))

    def _timed(self, fn: Callable[..., Any], bucket: str) -> Callable[..., Any]:
        seconds = self.seconds

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[bucket] += perf_counter() - t0

        return timed


#: Set-up steps a traced pass times.  Network construction includes finalize.
SETUP_POINTS = (
    (TestbedProfile, "topology", "topology_s"),
    (CollectionNetwork, "__init__", "build_s"),
    (RadioMedium, "finalize", "finalize_s"),
    (FastRadioMedium, "finalize", "finalize_s"),
)

#: The campaign's enumeration step, timed in every sweep pass.
ENUMERATE_POINTS = ((SweepSpec, "grid_points", "enumerate_s"),)


class LayerTracer(_Patcher):
    """Span aggregation plus the install/uninstall of the wrappers."""

    def __init__(self, dump_dir: Optional[Path] = None) -> None:
        super().__init__()
        #: (layer, entry point) -> [calls, total s, self s]
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        #: event kind -> [count, total s, self s]
        self.events: Dict[str, List[float]] = {}
        #: Top-level span time inside the event now running.
        self.top_s = 0.0
        self.loop_wall_s = 0.0
        self.setup = Stopwatches(SETUP_POINTS)
        self.queue_depth_max = 0
        self.runs = 0
        self.counters: Counter = Counter()
        #: Where pool workers write their aggregate after each run.
        self.dump_dir = dump_dir
        self._stack: List[float] = []
        self._kind_module: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _span(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        stats = self.spans.setdefault((layer, name), [0, 0.0, 0.0])
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    tracer.top_s += dt

        return span

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer in _SPAN_POINTS:
            fn = owner.__dict__[attr]
            self._patch(owner, attr, self._span(fn, layer, f"{owner.__name__}.{attr}"))
        self._patch(Engine, "run_until", self._traced_loop(Engine.__dict__["run_until"]))
        self._patch(CollectionNetwork, "run", self._traced_run(CollectionNetwork.__dict__["run"]))
        self.setup.install()

    def uninstall(self) -> None:
        self.setup.uninstall()
        super().uninstall()

    def _traced_loop(self, run_until: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(run_until)
        def traced_run_until(engine: Engine, t_end: float) -> None:
            if not isinstance(engine.profiler, SpanProfiler):
                engine.enable_profiling(SpanProfiler(tracer))
            tracer.top_s = 0.0
            t0 = perf_counter()
            try:
                run_until(engine, t_end)
            finally:
                tracer.loop_wall_s += perf_counter() - t0

        return traced_run_until

    def _traced_run(self, run: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(run)
        def traced_run(net: CollectionNetwork) -> Any:
            # The layer above the MAC (the estimator, or MultiHopLQI, which
            # has none) registers bound handlers at construction; wrap what
            # is registered, per instance.
            for node in net.nodes.values():
                above = node.estimator if node.estimator is not None else node.protocol
                layer = "core" if node.estimator is not None else "net"
                name = type(above).__name__
                mac = node.mac
                mac.on_receive = tracer._span(mac.on_receive, layer, f"{name}@mac.on_receive")
                mac.on_send_done = tracer._span(
                    mac.on_send_done, layer, f"{name}@mac.on_send_done"
                )
            result = run(net)
            tracer.runs += 1
            tracer.counters.update(stack_counters(net))
            if tracer.dump_dir is not None:
                tracer.dump(tracer.dump_dir / f"spans-{os.getpid()}.json")
            return result

        return traced_run

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def _module_of_kind(self, kind: str) -> str:
        """Module defining an event callback, from its qualified name."""
        module = self._kind_module.get(kind)
        if module is None:
            owners: Dict[str, str] = {}
            for modname, mod in list(sys.modules.items()):
                if not modname.startswith("repro.") or mod is None:
                    continue
                for obj in vars(mod).values():
                    if getattr(obj, "__module__", None) == modname and hasattr(obj, "__qualname__"):
                        owners.setdefault(obj.__qualname__, modname)
            parts = kind.split(".")
            module = ""
            for i in range(len(parts), 0, -1):
                module = owners.get(".".join(parts[:i]), "")
                if module:
                    break
            self._kind_module[kind] = module
        return module

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer, engine included (sums to the loop wall)."""
        out = {layer: 0.0 for layer in LAYERS}
        event_wall = 0.0
        for kind, (_n, wall, self_s) in self.events.items():
            out[layer_of_module(self._module_of_kind(kind))] += self_s
            event_wall += wall
        for (layer, _name), (_n, _total, self_s) in self.spans.items():
            out[layer] += self_s
        out["engine"] += self.loop_wall_s - event_wall
        return out

    # ------------------------------------------------------------------
    # Persistence (pool workers -> parent)
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "runs": self.runs,
            "loop_wall_s": self.loop_wall_s,
            "setup": self.setup.seconds,
            "queue_depth_max": self.queue_depth_max,
            "counters": dict(self.counters),
            "spans": [[layer, name, *stats] for (layer, name), stats in self.spans.items()],
            "events": [
                [kind, self._module_of_kind(kind), *stats] for kind, stats in self.events.items()
            ],
        }

    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.to_json(), sort_keys=True))
        os.replace(tmp, path)

    def absorb(self, doc: Dict[str, Any]) -> None:
        """Fold another tracer's :meth:`to_json` into this one."""
        self.runs += int(doc["runs"])
        self.loop_wall_s += float(doc["loop_wall_s"])
        for bucket, seconds in doc["setup"].items():
            self.setup.seconds[bucket] += float(seconds)
        self.queue_depth_max = max(self.queue_depth_max, int(doc["queue_depth_max"]))
        self.counters.update(doc["counters"])
        for layer, name, n, total, self_s in doc["spans"]:
            stats = self.spans.setdefault((layer, name), [0, 0.0, 0.0])
            stats[0] += n
            stats[1] += total
            stats[2] += self_s
        for kind, module, n, total, self_s in doc["events"]:
            self._kind_module.setdefault(kind, module)
            stats = self.events.setdefault(kind, [0, 0.0, 0.0])
            stats[0] += n
            stats[1] += total
            stats[2] += self_s

    def span_calls(self, names: Tuple[str, ...]) -> int:
        return int(sum(s[0] for (_layer, n), s in self.spans.items() if n in names))
