"""The SPGW data gateway: forwarding plus volume-based charging.

This is where the legacy 4G/5G charging record is born, and its *position*
in the path is the root of the loss-induced charging gap:

* **uplink** traffic is counted when it *arrives* at the gateway — losses
  on the air happen before counting, so the gateway under-counts relative
  to what the device sent;
* **downlink** traffic is counted when the gateway *forwards* it towards
  the eNodeB — congestion and air losses happen after counting, so the
  gateway charges bytes the device never received.

The gateway also enforces PCRF throttling (the "128 Kbps after quota"
policy of unlimited plans) with a token-bucket policer, and drops traffic
for detached UEs *before* counting — which is how a radio-link-failure
detach stops the gap from growing (§3.2 of the paper).
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..netsim.events import EventLoop
from ..netsim.packet import Direction, FlowStats, Packet
from .bearer import Bearer, BearerTable
from .identifiers import GatewayAddress

UplinkSink = Callable[[Packet], None]
DownlinkForward = Callable[[str, Packet], None]


class PolicyFunction(Protocol):
    """The slice of the PCRF the gateway consults per packet."""

    def allowed_rate_bps(self, flow_id: str, used_bytes: int) -> float | None: ...


class TokenBucket:
    """Simple policer: ``rate_bps`` sustained with a one-second burst."""

    def __init__(self, loop: EventLoop, rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError(f"policer rate must be positive, got {rate_bps}")
        self.loop = loop
        self.rate_bps = rate_bps
        self.burst_bytes = rate_bps / 8.0
        self._tokens = self.burst_bytes
        self._last = loop.now()

    def admit(self, nbytes: int) -> bool:
        """Consume tokens for ``nbytes``; False means the packet is policed."""
        now = self.loop.now()
        self._tokens = min(
            self.burst_bytes, self._tokens + (now - self._last) * self.rate_bps / 8.0
        )
        self._last = now
        if self._tokens >= nbytes:
            self._tokens -= nbytes
            return True
        return False


class Spgw:
    """Serving/PDN gateway: the operator's charging vantage point."""

    def __init__(
        self,
        loop: EventLoop,
        bearers: BearerTable,
        address: GatewayAddress | None = None,
        policy: PolicyFunction | None = None,
        metrics=None,
    ) -> None:
        self.loop = loop
        self.bearers = bearers
        self.address = address if address is not None else GatewayAddress("192.168.2.11")
        self.policy = policy
        self._uplink_sinks: dict[str, UplinkSink] = {}
        self._downlink_forward: DownlinkForward | None = None
        self._policers: dict[str, TokenBucket] = {}
        self.no_bearer_drops = FlowStats()
        self.detached_drops = FlowStats()
        self.policed_drops = FlowStats()
        self.metrics = metrics

    def _count_drop(self, packet: Packet, reason: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "cellular.gateway.drop_bytes", reason=reason
            ).inc(packet.size)

    def _count_charged(self, packet: Packet) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "cellular.gateway.charged_bytes",
                direction=packet.direction.value,
            ).inc(packet.size)

    # ------------------------------------------------------------ plumbing

    def connect_enodeb(self, forward: DownlinkForward) -> None:
        """Attach the backhaul towards the base station."""
        self._downlink_forward = forward

    def register_uplink_sink(self, flow_id: str, sink: UplinkSink) -> None:
        """Route uplink packets of ``flow_id`` to an edge-server sink."""
        self._uplink_sinks[flow_id] = sink

    def close(self) -> None:
        """Drop the uplink sinks, bound methods of servers that hold the
        network this gateway belongs to."""
        self._uplink_sinks.clear()

    # ------------------------------------------------------------- helpers

    def _bearer_for(self, packet: Packet) -> Bearer | None:
        return self.bearers.by_flow(packet.flow_id)

    def _policed(self, bearer: Bearer, packet: Packet) -> bool:
        if self.policy is None:
            return False
        used = bearer.uplink.total + bearer.downlink.total
        rate = self.policy.allowed_rate_bps(bearer.flow_id, used)
        if rate is None:
            self._policers.pop(bearer.flow_id, None)
            return False
        policer = self._policers.get(bearer.flow_id)
        if policer is None or policer.rate_bps != rate:
            policer = TokenBucket(self.loop, rate)
            self._policers[bearer.flow_id] = policer
        return not policer.admit(packet.size)

    # -------------------------------------------------------------- uplink

    def receive_uplink(self, packet: Packet) -> None:
        """Count and forward one uplink packet arriving from the eNodeB."""
        if packet.direction is not Direction.UPLINK:
            raise ValueError(f"uplink path got a {packet.direction} packet")
        bearer = self._bearer_for(packet)
        if bearer is None:
            packet.mark_dropped("no-bearer")
            self.no_bearer_drops.count(packet)
            self._count_drop(packet, "no-bearer")
            return
        if not bearer.active:
            packet.mark_dropped("detached")
            self.detached_drops.count(packet)
            self._count_drop(packet, "detached")
            return
        if self._policed(bearer, packet):
            packet.mark_dropped("policed")
            self.policed_drops.count(packet)
            self._count_drop(packet, "policed")
            return
        packet.qci = bearer.qci  # traffic rides the bearer's QoS class
        bearer.count_uplink(self.loop.now(), packet.size)
        self._count_charged(packet)
        sink = self._uplink_sinks.get(packet.flow_id)
        if sink is not None:
            packet.delivered_at = self.loop.now()
            sink(packet)

    # ------------------------------------------------------------ downlink

    def send_downlink(self, packet: Packet) -> None:
        """Charge and forward one downlink packet towards the eNodeB."""
        if packet.direction is not Direction.DOWNLINK:
            raise ValueError(f"downlink path got a {packet.direction} packet")
        bearer = self._bearer_for(packet)
        if bearer is None:
            packet.mark_dropped("no-bearer")
            self.no_bearer_drops.count(packet)
            self._count_drop(packet, "no-bearer")
            return
        if not bearer.active:
            # Detached UE: dropped *before* charging — no gap accumulates.
            packet.mark_dropped("detached")
            self.detached_drops.count(packet)
            self._count_drop(packet, "detached")
            return
        if self._policed(bearer, packet):
            packet.mark_dropped("policed")
            self.policed_drops.count(packet)
            self._count_drop(packet, "policed")
            return
        packet.qci = bearer.qci  # traffic rides the bearer's QoS class
        bearer.count_downlink(self.loop.now(), packet.size)
        self._count_charged(packet)
        if self._downlink_forward is None:
            raise RuntimeError("SPGW has no eNodeB attached")
        self._downlink_forward(str(bearer.imsi), packet)
