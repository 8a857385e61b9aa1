"""The eNodeB (base station): air scheduling, outage buffering, RLF.

Responsibilities reproduced from the paper's testbed behaviour:

* carries uplink and downlink traffic over the shared :class:`AirInterface`
  (where congestion losses happen — *after* the gateway has charged
  downlink traffic, which is the paper's IP-layer-congestion gap);
* buffers downlink packets in a small per-UE buffer while the UE's radio
  is in outage, draining on reconnect (Figure 4, t≈240 s: the gap dips as
  the buffer recovers some loss) and tail-dropping the rest;
* declares a **radio link failure** when an outage exceeds 5 s (the
  paper's measured detach latency), detaching the UE via the MME so the
  gateway stops charging — which is why only the sub-5 s intermittent
  outages accumulate charging gap;
* drives the per-UE RRC connection manager (COUNTER CHECK + release).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from ..netsim.events import Event, EventLoop
from ..netsim.packet import FlowStats, Packet
from ..netsim.queueing import DropTailQueue
from ..netsim.rng import StreamRegistry
from .air import AirInterface
from .radio import RadioChannel
from .rrc import HardwareModem, RrcConnectionManager

DeliverToDevice = Callable[[Packet], None]
ForwardToCore = Callable[[Packet], None]


class MobilityManager(Protocol):
    """The slice of the MME the eNodeB needs."""

    def detach(self, imsi: str, cause: str) -> None: ...

    def attach(self, imsi: str) -> None: ...


@dataclass
class ENodeBConfig:
    """Knobs of the base station."""

    dl_capacity_bps: float = 130e6
    ul_capacity_bps: float = 130e6
    usable_fraction: float = 0.92
    outage_buffer_bytes: int = 64 * 1024
    rlf_timeout_s: float = 5.0
    attach_delay_s: float = 0.5
    rrc_inactivity_timeout_s: float = 10.0
    counter_check_interval_s: float | None = 5.0


class UeContext:
    """Per-UE state held by the (currently serving) base station."""

    def __init__(
        self,
        imsi: str,
        radio: RadioChannel,
        modem: HardwareModem,
        rrc: RrcConnectionManager,
        deliver: DeliverToDevice,
        buffer_bytes: int,
    ) -> None:
        self.imsi = imsi
        self.radio = radio
        self.modem = modem
        self.rrc = rrc
        self.deliver = deliver
        self.attached = True
        self.dl_buffer = DropTailQueue(buffer_bytes, drop_layer="phy-intermittent")
        self.rlf_timer: Event | None = None
        self.rlf_count = 0
        self.buffered_recovered = FlowStats()
        self.dropped_detached = FlowStats()
        # Radio callbacks installed by the serving cell; kept so a
        # handover can unhook them when the UE moves (see ENodeB.evict).
        self.outage_callbacks: tuple | None = None

    def close(self) -> None:
        """Drop the callbacks and timer events that refer back to the UE,
        its cell or its device (see :meth:`CellularNetwork.close`)."""
        self.radio.close()
        self.deliver = None
        self.rlf_timer = None
        self.outage_callbacks = None


class ENodeB:
    """A single cell serving one or more UEs."""

    def __init__(
        self,
        loop: EventLoop,
        rng: StreamRegistry,
        config: ENodeBConfig | None = None,
        mme: MobilityManager | None = None,
        name: str = "enb",
    ) -> None:
        self.loop = loop
        self.config = config if config is not None else ENodeBConfig()
        self.mme = mme
        self.name = name
        self.downlink_air = AirInterface(
            loop, rng, f"{name}:dl",
            capacity_bps=self.config.dl_capacity_bps,
            usable_fraction=self.config.usable_fraction,
        )
        self.uplink_air = AirInterface(
            loop, rng, f"{name}:ul",
            capacity_bps=self.config.ul_capacity_bps,
            usable_fraction=self.config.usable_fraction,
        )
        self._ues: dict[str, UeContext] = {}
        self._forward_to_core: ForwardToCore | None = None

    # ------------------------------------------------------------ plumbing

    def connect_core(self, forward: ForwardToCore) -> None:
        """Attach the backhaul towards the SPGW (uplink direction)."""
        self._forward_to_core = forward

    def register_ue(
        self,
        imsi: str,
        radio: RadioChannel,
        modem: HardwareModem,
        deliver: DeliverToDevice,
        counter_report_sink=None,
    ) -> UeContext:
        """Admit a UE to the cell and wire its radio callbacks."""
        if imsi in self._ues:
            raise ValueError(f"UE {imsi} already registered at {self.name}")
        rrc = RrcConnectionManager(
            self.loop,
            modem,
            inactivity_timeout_s=self.config.rrc_inactivity_timeout_s,
            counter_check_interval_s=self.config.counter_check_interval_s,
            report_sink=counter_report_sink,
        )
        ue = UeContext(imsi, radio, modem, rrc, deliver, self.config.outage_buffer_bytes)
        self.admit(ue)
        return ue

    def admit(self, ue: UeContext) -> None:
        """Take over serving a UE (initial registration or handover-in)."""
        if ue.imsi in self._ues:
            raise ValueError(f"UE {ue.imsi} already served by {self.name}")
        self._ues[ue.imsi] = ue
        on_start = lambda: self._on_outage_start(ue)  # noqa: E731
        on_end = lambda: self._on_outage_end(ue)  # noqa: E731
        ue.radio.on_outage_start.append(on_start)
        ue.radio.on_outage_end.append(on_end)
        ue.outage_callbacks = (on_start, on_end)

    def evict(self, imsi: str) -> UeContext:
        """Stop serving a UE (handover-out); returns its movable context.

        The caller owns what happens to the downlink buffer (X2 forward
        or discard) — it is handed over untouched.
        """
        ue = self.ue(imsi)
        del self._ues[imsi]
        if ue.rlf_timer is not None:
            ue.rlf_timer.cancel()
            ue.rlf_timer = None
        if ue.outage_callbacks is not None:
            on_start, on_end = ue.outage_callbacks
            ue.radio.on_outage_start.remove(on_start)
            ue.radio.on_outage_end.remove(on_end)
            ue.outage_callbacks = None
        return ue

    def close(self) -> None:
        """Unwire the served UEs once the run is over."""
        for ue in self._ues.values():
            ue.close()

    def ue(self, imsi: str) -> UeContext:
        """Look up a registered UE."""
        try:
            return self._ues[imsi]
        except KeyError:
            raise KeyError(f"UE {imsi} not registered at {self.name}") from None

    def set_background(self, direction_dl: bool, qci: int, rate_bps: float) -> None:
        """Install fluid background load on one air direction."""
        air = self.downlink_air if direction_dl else self.uplink_air
        air.set_background(qci, rate_bps)

    # ------------------------------------------------------------ downlink

    def receive_downlink(self, imsi: str, packet: Packet) -> None:
        """Accept a downlink packet from the core for ``imsi``."""
        ue = self.ue(imsi)
        if not ue.attached:
            # Should not happen: the gateway drops traffic for detached UEs
            # before charging.  Kept as a safety net.
            packet.mark_dropped("detached")
            ue.dropped_detached.count(packet)
            return
        ue.rrc.on_data_activity()
        self.downlink_air.submit(packet, lambda p: self._air_deliver_dl(ue, p))

    def _air_deliver_dl(self, ue: UeContext, packet: Packet) -> None:
        if not ue.attached:
            packet.mark_dropped("detached")
            ue.dropped_detached.count(packet)
            return
        if not ue.radio.connected:
            ue.dl_buffer.push(packet)  # overflow => phy-intermittent loss
            return
        if not ue.radio.survives_air():
            packet.mark_dropped("phy-rss")
            return
        packet.delivered_at = self.loop.now()
        ue.modem.count_downlink(packet)
        ue.deliver(packet)

    # -------------------------------------------------------------- uplink

    def receive_uplink(self, ue: UeContext, packet: Packet) -> None:
        """Accept an uplink packet from a UE's modem (radio is up)."""
        if not ue.attached:
            packet.mark_dropped("detached")
            ue.dropped_detached.count(packet)
            return
        ue.rrc.on_data_activity()
        self.uplink_air.submit(packet, lambda p: self._air_deliver_ul(ue, p))

    def _air_deliver_ul(self, ue: UeContext, packet: Packet) -> None:
        if not ue.radio.survives_air():
            packet.mark_dropped("phy-rss")
            return
        if self._forward_to_core is None:
            raise RuntimeError(f"{self.name} has no backhaul to the core")
        self._forward_to_core(packet)

    # ------------------------------------------------------------- outages

    def _on_outage_start(self, ue: UeContext) -> None:
        ue.rlf_timer = self.loop.schedule(
            self.config.rlf_timeout_s, self._check_rlf, ue
        )

    def _check_rlf(self, ue: UeContext) -> None:
        if ue.radio.connected or not ue.attached:
            return
        # Radio link failure: abort RRC (no counter check possible), detach.
        ue.rlf_count += 1
        ue.rrc.abort()
        ue.attached = False
        for packet in ue.dl_buffer.drain():
            packet.mark_dropped("phy-intermittent")
        if self.mme is not None:
            self.mme.detach(ue.imsi, cause="radio-link-failure")

    def _on_outage_end(self, ue: UeContext) -> None:
        if ue.rlf_timer is not None:
            ue.rlf_timer.cancel()
            ue.rlf_timer = None
        if not ue.attached:
            self.loop.schedule(self.config.attach_delay_s, self._reattach, ue)
            return
        self._drain_buffer(ue)

    def _reattach(self, ue: UeContext) -> None:
        if ue.attached or not ue.radio.connected:
            return
        ue.attached = True
        if self.mme is not None:
            self.mme.attach(ue.imsi)
        self._drain_buffer(ue)

    def _drain_buffer(self, ue: UeContext) -> None:
        recovered = ue.dl_buffer.drain()
        for packet in recovered:
            ue.buffered_recovered.count(packet)
            self.downlink_air.submit(packet, lambda p: self._air_deliver_dl(ue, p))
