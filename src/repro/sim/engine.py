"""A minimal, fast discrete-event simulation engine.

Events are ``(time, sequence)``-ordered callbacks on a binary heap.  The
sequence number makes ordering of same-time events deterministic (FIFO in
scheduling order), which keeps whole simulations bit-reproducible.

The heap holds ``(time, seq, handle)`` tuples rather than the handles
themselves: tuple comparison runs entirely in C, while comparing handles
would call :meth:`EventHandle.__lt__` (a Python frame) O(log n) times per
push/pop.  ``(time, seq)`` is unique, so the handle field never takes part
in a comparison.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profile import EngineProfiler


class EventHandle:
    """Handle returned by :meth:`Engine.schedule`; supports cancellation."""

    __slots__ = ("time", "seq", "fn", "args", "canceled", "engine")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        engine: "Optional[Engine]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.canceled = False
        #: Back-reference while the handle sits in the engine's queue; the
        #: engine clears it on pop so cancellation of a fired handle is a
        #: no-op for the queue accounting.
        self.engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.canceled:
            return
        self.canceled = True
        self.fn = None  # release references early
        self.args = ()
        if self.engine is not None:
            self.engine._note_canceled()

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "canceled" if self.canceled else "pending"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


class Engine:
    """Discrete-event scheduler with a monotonic simulated clock (seconds)."""

    #: Never compact queues smaller than this — the scan costs more than the
    #: handful of dead entries it would reclaim.
    COMPACT_MIN_QUEUE = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_run = 0
        #: Canceled handles still sitting in the heap.  Long runs cancel many
        #: timers (MAC retries, Trickle resets); without compaction those dead
        #: entries accumulate until their scheduled time arrives.
        self._canceled_in_queue = 0
        #: Mid-run tombstone compactions performed (mirrored on
        #: :class:`~repro.obs.profile.EngineProfiler` when profiling is on).
        self.compactions = 0
        #: Optional run profiler (see :meth:`enable_profiling`).  The hot
        #: path pays one ``is not None`` branch per event when disabled.
        self.profiler: "Optional[EngineProfiler]" = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        The body is :meth:`schedule_at` inlined (one frame per event).  The
        negated comparisons reject NaN, which compares false both ways and
        would otherwise break the heap order and the clock.
        """
        if not delay >= 0.0:
            raise ValueError(f"negative or NaN delay: {delay}")
        time = self.now + delay
        seq = next(self._seq)
        handle = EventHandle(time, seq, fn, args, engine=self)
        heapq.heappush(self._queue, (time, seq, handle))
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute simulated ``time``."""
        if not time >= self.now:
            raise ValueError(f"cannot schedule in the past (or at NaN): {time} < {self.now}")
        seq = next(self._seq)
        handle = EventHandle(time, seq, fn, args, engine=self)
        heapq.heappush(self._queue, (time, seq, handle))
        return handle

    def _note_canceled(self) -> None:
        """A queued handle was canceled; compact when mostly dead."""
        self._canceled_in_queue += 1
        if (
            len(self._queue) >= self.COMPACT_MIN_QUEUE
            and self._canceled_in_queue * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop canceled entries and restore the heap invariant.

        ``(time, seq)`` totally orders entries, so re-heapifying the
        surviving entries cannot change the order events fire in.
        Mutates the queue in place: the run loops hold a direct reference
        to the list across events, and compaction can run from inside an
        event callback.
        """
        queue = self._queue
        queue[:] = [e for e in queue if not e[2].canceled]
        heapq.heapify(queue)
        self._canceled_in_queue = 0
        self.compactions += 1
        if self.profiler is not None:
            self.profiler.compactions = self.compactions

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-canceled) queued events."""
        return len(self._queue) - self._canceled_in_queue

    @property
    def events_run(self) -> int:
        """Number of events executed so far."""
        return self._events_run

    def enable_profiling(self, profiler: "Optional[EngineProfiler]" = None) -> "EngineProfiler":
        """Attach a run profiler (created on demand); returns it."""
        if profiler is None:
            from repro.obs.profile import EngineProfiler

            profiler = EngineProfiler()
        self.profiler = profiler
        return profiler

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        while self._queue:
            handle = heapq.heappop(self._queue)[2]
            handle.engine = None
            if handle.canceled:
                self._canceled_in_queue -= 1
                continue
            self.now = handle.time
            fn, args = handle.fn, handle.args
            handle.fn, handle.args = None, ()  # break cycles
            self._events_run += 1
            assert fn is not None
            if self.profiler is None:
                fn(*args)
            else:
                t0 = perf_counter()
                fn(*args)
                try:  # NOT getattr(..., repr(fn)): the default is built eagerly
                    name = fn.__qualname__
                except AttributeError:
                    name = repr(fn)
                self.profiler.record(
                    name,
                    perf_counter() - t0,
                    self.now,
                    len(self._queue) - self._canceled_in_queue,
                )
            return True
        return False

    def run_until(self, t_end: float) -> None:
        """Run all events with time ≤ ``t_end``; advance clock to ``t_end``.

        The body is :meth:`step` inlined with the queue and ``heappop``
        bound once: the peek/pop pair and per-event method dispatch are
        measurable at millions of events.  Never-canceled events (the
        overwhelming majority) take the straight-line path with no
        cancellation bookkeeping.  A NaN ``t_end`` is rejected: it compares
        false with every event time and would run the whole queue.
        """
        if t_end != t_end:
            raise ValueError("NaN end time")
        queue = self._queue
        pop = heapq.heappop
        while queue:
            time_, _seq, handle = queue[0]
            if handle.canceled:
                pop(queue)
                handle.engine = None
                self._canceled_in_queue -= 1
                continue
            if time_ > t_end:
                break
            pop(queue)
            handle.engine = None
            self.now = time_
            fn, args = handle.fn, handle.args
            handle.fn, handle.args = None, ()  # break cycles
            self._events_run += 1
            if self.profiler is None:
                fn(*args)
            else:
                t0 = perf_counter()
                fn(*args)
                try:  # NOT getattr(..., repr(fn)): the default is built eagerly
                    name = fn.__qualname__
                except AttributeError:
                    name = repr(fn)
                self.profiler.record(
                    name,
                    perf_counter() - t0,
                    self.now,
                    len(queue) - self._canceled_in_queue,
                )
        self.now = max(self.now, t_end)

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events``); return events run."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count
