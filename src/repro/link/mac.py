"""CSMA MAC with synchronous layer-2 acknowledgments.

The MAC owns a single transmit buffer (TinyOS style — queueing is the
network layer's job) and reports the outcome of every transmission through
``on_send_done`` as a :class:`~repro.sim.packets.TxResult`.  For unicast
frames the result carries the **ack bit**: whether a synchronous L2 ack
came back before the timeout.  The ack itself is a real transmission
through the medium, so ack loss tracks the reverse direction of the link —
which is exactly why the ack bit measures *bidirectional* link quality
(Section 2.2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING, Callable, Optional

from repro.link.csma import CsmaBackoff
from repro.link.frame import AckFrame, BROADCAST, Frame
from repro.phy.radio import Radio
from repro.sim.engine import Engine, EventHandle
from repro.sim.packets import RxInfo, TxResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.probe import Monitor


@dataclass
class MacStats:
    """Counters for one node's MAC."""

    tx_unicast: int = 0
    tx_broadcast: int = 0
    acks_received: int = 0
    acks_sent: int = 0
    channel_access_failures: int = 0
    frames_delivered_up: int = 0
    #: CCA rounds consumed across all transmissions (≥1 per frame).
    backoff_rounds: int = 0
    #: Unit backoff periods actually waited (CSMA congestion signal).
    backoff_slots: int = 0

    METRICS_PREFIX = "link.mac"


class Mac:
    """One node's link layer."""

    def __init__(self, engine: Engine, medium, radio: Radio, rng) -> None:
        self.engine = engine
        self.medium = medium
        self.radio = radio
        self.node_id = radio.node_id
        self._rng = rng
        self.stats = MacStats()
        #: Failure injection: a disabled MAC neither sends nor receives
        #: (models node death / power failure mid-run).
        self.enabled = True
        # Upper-layer callbacks, wired by the node builder.
        self.on_receive: Optional[Callable[[Frame, RxInfo], None]] = None
        self.on_send_done: Optional[Callable[[Frame, TxResult], None]] = None
        #: Observation hook (:mod:`repro.sim.probe`), set by the network.
        self.probe: Optional["Monitor"] = None
        # In-flight state.
        self._current: Optional[Frame] = None
        self._backoff: Optional[CsmaBackoff] = None
        self._ack_timer: Optional[EventHandle] = None
        self._pending_event: Optional[EventHandle] = None

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a frame occupies the transmit buffer."""
        return self._current is not None

    def send(self, frame: Frame) -> bool:
        """Accept ``frame`` for transmission.  Returns False if busy."""
        if not self.enabled or self._current is not None:
            return False
        frame.src = self.node_id
        self._current = frame
        self._backoff = CsmaBackoff(self.radio.params, self._rng)
        self._schedule_cca()
        return True

    def _schedule_cca(self) -> None:
        assert self._backoff is not None
        delay = self._backoff.next_delay()
        if delay is None:
            self.stats.channel_access_failures += 1
            self._finish(sent=False, ack_bit=False)
            return
        self._pending_event = self.engine.schedule(delay, self._cca)

    def _cca(self) -> None:
        self._pending_event = None
        if self.medium.channel_clear(self.node_id):
            self._transmit()
        else:
            self._schedule_cca()

    def _transmit(self) -> None:
        assert self._current is not None
        duration = self.medium.start_transmission(self.node_id, self._current)
        self._pending_event = self.engine.schedule(duration, self._tx_done)

    def _tx_done(self) -> None:
        self._pending_event = None
        frame = self._current
        assert frame is not None
        if frame.is_broadcast:
            self.stats.tx_broadcast += 1
            self._finish(sent=True, ack_bit=False)
        else:
            self.stats.tx_unicast += 1
            self._ack_timer = self.engine.schedule(
                self.radio.params.ack_timeout_s, self._ack_timeout
            )

    def _ack_timeout(self) -> None:
        self._ack_timer = None
        self._finish(sent=True, ack_bit=False)

    def _finish(self, sent: bool, ack_bit: bool) -> None:
        frame = self._current
        backoffs = self._backoff.attempts if self._backoff is not None else 0
        if self._backoff is not None:
            self.stats.backoff_rounds += self._backoff.attempts
            self.stats.backoff_slots += self._backoff.slots_waited
        self._current = None
        self._backoff = None
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        result = TxResult(
            timestamp=self.engine.now,
            dest=frame.dst,
            sent=sent,
            ack_bit=ack_bit,
            backoffs=backoffs,
        )
        probe = self.probe
        if probe is not None and not frame.is_broadcast:
            probe.tx(self.node_id, frame, result)
        if self.on_send_done is not None:
            self.on_send_done(frame, result)

    # ------------------------------------------------------------------
    # Receive path (called by the medium)
    # ------------------------------------------------------------------
    def on_frame_received(self, frame: Frame, info: RxInfo) -> None:
        # The radio mediums hand up only frames addressed to this node or
        # broadcast, and emit the ``rx`` record of an overheard frame
        # themselves; ``TraceMedium`` still delivers every decode, so a frame
        # for another node is dropped here.  An ack for another node falls
        # into the same early return — ``_handle_ack`` would discard it
        # without side effects anyway.  A crashed MAC hears nothing, so it
        # writes no ``rx`` record either.
        if not self.enabled:
            return
        probe = self.probe
        if probe is not None and not frame.is_ack:
            probe.rx(self.node_id, frame, info)
        dst = frame.dst
        if dst == self.node_id:
            if isinstance(frame, AckFrame):
                self._handle_ack(frame)
                return
            self._send_ack(frame)
        elif dst != BROADCAST:
            return  # not for us (promiscuous mode unsupported)
        elif isinstance(frame, AckFrame):
            # Broadcast acks do not occur, but preserve the old behavior
            # (handled as an ack, never delivered up).
            self._handle_ack(frame)
            return
        self.stats.frames_delivered_up += 1
        if self.on_receive is not None:
            self.on_receive(frame, info)

    def _handle_ack(self, ack: AckFrame) -> None:
        if ack.dst != self.node_id:
            return
        current = self._current
        if current is None or self._ack_timer is None:
            return  # late or stray ack
        if ack.acked_frame_id != current.frame_id:
            return
        self.stats.acks_received += 1
        self._finish(sent=True, ack_bit=True)

    def _send_ack(self, frame: Frame) -> None:
        # Hardware-generated ack: no CSMA, fires after the turnaround time.
        # A node mid-transmission cannot ack (half duplex) — the ack is lost.
        if self.medium.is_transmitting(self.node_id):
            return
        ack = AckFrame(
            src=self.node_id,
            dst=frame.src,
            length_bytes=self.radio.params.ack_mpdu_bytes,
            acked_frame_id=frame.frame_id,
        )
        self.stats.acks_sent += 1
        self.engine.schedule(self.radio.params.turnaround_s, self._transmit_ack, ack)

    def _transmit_ack(self, ack: AckFrame) -> None:
        # The turnaround delay opens a window for a crash between scheduling
        # and transmission; a dead radio must not put the ack on the air.
        if self.enabled:
            self.medium.start_transmission(self.node_id, ack)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Node crash: drop in-flight state, stop sending and receiving.

        No ``on_send_done`` callback fires for the abandoned frame — a
        crashed node cannot report anything.  Safe to call twice.
        """
        self.enabled = False
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self._current = None
        self._backoff = None

    def restart(self) -> None:
        """Node reboot: the radio comes back with an empty transmit buffer."""
        self.enabled = True
