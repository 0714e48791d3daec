"""Windowed PRR: the ground-truth series behind Figure 3.

The link's two event logs — transmission times at the sender, reception
times at the receiver — come from the experiment's monitor
(:class:`repro.experiments.fig3_lqi_blind.LinkMonitor`).
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple


def windowed_prr(
    tx_times: List[float], rx_times: List[float], window_s: float, t_end: float
) -> List[Tuple[float, Optional[float]]]:
    """PRR per window: received / transmitted, ``None`` for empty windows."""
    out: List[Tuple[float, Optional[float]]] = []
    t = 0.0
    while t < t_end:
        sent = bisect.bisect_right(tx_times, t + window_s) - bisect.bisect_right(tx_times, t)
        got = bisect.bisect_right(rx_times, t + window_s) - bisect.bisect_right(rx_times, t)
        out.append((t + window_s / 2, (got / sent) if sent else None))
        t += window_s
    return out
