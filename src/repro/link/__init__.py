"""Link layer: frames, CSMA/CA backoff, MAC with synchronous L2 acks."""

from repro.link.csma import CsmaBackoff
from repro.link.frame import (
    BROADCAST,
    AckFrame,
    Frame,
    LinkEstimatorFrame,
    NetworkFrame,
    le_wrap,
)
from repro.link.mac import Mac, MacStats

__all__ = [
    "BROADCAST",
    "AckFrame",
    "CsmaBackoff",
    "Frame",
    "LinkEstimatorFrame",
    "Mac",
    "MacStats",
    "NetworkFrame",
    "le_wrap",
]
