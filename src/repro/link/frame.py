"""Frame formats for the simulated stack.

The layering mirrors the paper's Figure 4: the link estimator is a
"layer 2.5" that wraps network-layer frames with its own header (sequence
number) and footer (link-quality entries), sitting between the MAC frame
and the network payload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: Link-layer broadcast address (802.15.4 style).
BROADCAST = 0xFFFF

_frame_ids = itertools.count(1)


@dataclass
class Frame:
    """Base MAC-level frame.

    ``length_bytes`` is the full MAC payload length used for airtime and
    packet-error-rate computations (PHY preamble overhead is added by the
    radio model).
    """

    src: int
    dst: int
    length_bytes: int
    frame_id: int = field(default_factory=lambda: next(_frame_ids))

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    @property
    def is_ack(self) -> bool:
        """True for synchronous L2 acks (excluded from phy ``rx`` traces)."""
        return False

    def describe(self) -> str:
        """Short human-readable tag used in traces."""
        return type(self).__name__


@dataclass
class AckFrame(Frame):
    """Synchronous layer-2 acknowledgment (802.15.4: 11 bytes on air)."""

    acked_frame_id: int = 0

    @property
    def is_ack(self) -> bool:
        return True

    def describe(self) -> str:
        return f"Ack({self.acked_frame_id})"


@dataclass
class NetworkFrame(Frame):
    """Base class for layer-3 frames (CTP, MultiHopLQI, application)."""

    #: True for frames that carry route-quality information the network
    #: layer can evaluate a *compare bit* against (e.g. routing beacons).
    carries_route_info: bool = False


# Type alias for a link-estimator footer entry: (neighbor id, inbound quality)
FooterEntry = Tuple[int, float]


@dataclass
class LinkEstimatorFrame(Frame):
    """Layer-2.5 frame: LE header + footer around a network payload.

    The header carries an 8-bit sequence number per the Woo et al. scheme;
    receivers use gaps in it to count missed broadcasts.  The footer may
    carry up to ``MAX_FOOTER_ENTRIES`` (neighbor, quality) pairs.
    """

    MAX_FOOTER_ENTRIES = 6
    HEADER_BYTES = 2
    FOOTER_ENTRY_BYTES = 3

    le_seq: int = 0
    payload: Optional[NetworkFrame] = None
    footer: List[FooterEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.footer) > self.MAX_FOOTER_ENTRIES:
            raise ValueError("footer overflow")
        if not 0 <= self.le_seq <= 255:
            raise ValueError(f"le_seq out of 8-bit range: {self.le_seq}")

    def describe(self) -> str:
        inner = self.payload.describe() if self.payload is not None else "none"
        return f"LE(seq={self.le_seq}, {inner})"


def le_wrap(payload: NetworkFrame, le_seq: int, footer: Optional[List[FooterEntry]] = None) -> LinkEstimatorFrame:
    """Wrap a network frame in a link-estimator header/footer."""
    footer = footer or []
    length = (
        payload.length_bytes
        + LinkEstimatorFrame.HEADER_BYTES
        + LinkEstimatorFrame.FOOTER_ENTRY_BYTES * len(footer)
    )
    return LinkEstimatorFrame(
        src=payload.src,
        dst=payload.dst,
        length_bytes=length,
        le_seq=le_seq,
        payload=payload,
        footer=list(footer),
    )
