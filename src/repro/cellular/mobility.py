"""Link-layer mobility: handovers and their charging loss (§3.1 class 2).

A moving device periodically switches base stations.  During the handover
interruption the target cell cannot yet deliver and the source cell's
buffered downlink packets are discarded unless X2 forwarding is enabled —
data the gateway has already charged.  The paper's taxonomy cites this as
the second loss class (reference [10]'s roaming study).

:class:`HandoverProcess` drives periodic handovers for one UE on the
simulated cell: each handover forces a short radio interruption labelled
``link-mobility`` (distinct from ``phy-intermittent`` outages, so the loss
taxonomy stays attributable) and, without X2, drops the packets buffered
at the source cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..netsim.events import EventLoop
from ..netsim.packet import FlowStats
from ..netsim.rng import StreamRegistry
from .enodeb import UeContext


@dataclass
class HandoverConfig:
    """Mobility pattern of one UE."""

    interval_s: float = 30.0  # time between handovers
    interruption_s: float = 0.05  # control-plane break (typ. 30–60 ms)
    x2_forwarding: bool = False  # forward source-cell buffer to target
    interval_jitter: float = 0.3  # relative spread of the interval

    def __post_init__(self) -> None:
        if not (0 < self.interval_s < math.inf and 0 < self.interruption_s < math.inf):
            raise ValueError(
                "handover interval and interruption must be positive and finite"
            )


class HandoverProcess:
    """Periodic handovers for one UE."""

    def __init__(
        self,
        loop: EventLoop,
        rng: StreamRegistry,
        ue: UeContext,
        config: HandoverConfig | None = None,
    ) -> None:
        self.loop = loop
        self.ue = ue
        self.config = config if config is not None else HandoverConfig()
        self._rng = rng.stream(f"handover:{ue.imsi}")
        self.handovers = 0
        self.dropped = FlowStats()
        self.forwarded = FlowStats()
        self._started = False
        self._saved_drop_layer: str | None = None
        self._saved_capacity: int | None = None

    def start(self) -> None:
        """Begin the mobility pattern."""
        if self._started:
            raise RuntimeError("handover process already started")
        self._started = True
        self._schedule_next()

    def _schedule_next(self) -> None:
        config = self.config
        jitter = self._rng.uniform(1 - config.interval_jitter, 1 + config.interval_jitter)
        self.loop.schedule(config.interval_s * jitter, self._begin_handover)

    def _begin_handover(self) -> None:
        ue = self.ue
        if not ue.attached or not ue.radio.connected:
            # Skip handovers while detached or in outage; try again later.
            self._schedule_next()
            return
        self.handovers += 1
        # Source-cell buffered downlink: forwarded over X2 or discarded.
        buffered = ue.dl_buffer.drain()
        if self.config.x2_forwarding:
            # During the break, X2 forwards arriving traffic to the target
            # cell's buffer as well — effectively source + target + the
            # forwarding pipe worth of buffering.  Raise the cap *before*
            # re-queueing so the preserved packets can never tail-drop.
            self._saved_capacity = ue.dl_buffer.capacity_bytes
            ue.dl_buffer.capacity_bytes *= 4
            for packet in buffered:
                self.forwarded.count(packet)
                ue.dl_buffer.push(packet)  # target cell inherits the buffer
        else:
            for packet in buffered:
                packet.mark_dropped("link-mobility")
                self.dropped.count(packet)
        # The interruption: packets buffering during it drop as mobility
        # loss rather than as an RSS outage.  The break itself is recorded
        # through the radio's own outage bookkeeping.
        self._saved_drop_layer = ue.dl_buffer.drop_layer
        ue.dl_buffer.drop_layer = "link-mobility"
        ue.radio.force_outage_start()
        self.loop.schedule(self.config.interruption_s, self._complete_handover)

    def _complete_handover(self) -> None:
        ue = self.ue
        ue.radio.force_outage_end()
        if self._saved_drop_layer is not None:
            ue.dl_buffer.drop_layer = self._saved_drop_layer
            self._saved_drop_layer = None
        if self._saved_capacity is not None:
            ue.dl_buffer.capacity_bytes = self._saved_capacity
            self._saved_capacity = None
        self._schedule_next()
