"""End-to-end assembly of the cellular network.

Wires the full data path of the paper's testbed (Figure 11):

    device app → modem → [air UL] → eNodeB → backhaul → SPGW → LAN → server
    server    → LAN → SPGW (charge) → backhaul → eNodeB → [air DL] → modem → device app

and exposes the two operator-side counting points TLC builds on: the SPGW
bearer counters (uplink record, reused as-is) and the RRC COUNTER CHECK
reports from the modem (downlink record).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..netsim.events import EventLoop
from ..netsim.link import Link
from ..netsim.packet import Direction, FlowStats, Packet
from ..netsim.queueing import DropTailQueue
from ..netsim.rng import StreamRegistry
from .bearer import Bearer, BearerTable
from .enodeb import ENodeB, ENodeBConfig, UeContext
from .gateway import Spgw
from .hss import Hss, SubscriberProfile
from .identifiers import ChargingIdAllocator, GatewayAddress, Imsi
from .middlebox import SlaMiddlebox
from .mme import Mme
from .ofcs import Ofcs
from .pcrf import Pcrf
from .radio import RadioChannel, RadioProfile
from .rrc import CounterCheckResponse, HardwareModem

DeliverToDevice = Callable[[Packet], None]
CounterReportSink = Callable[[CounterCheckResponse], None]


@dataclass
class NetworkConfig:
    """Top-level knobs of the simulated network."""

    enodeb: ENodeBConfig = field(default_factory=ENodeBConfig)
    n_cells: int = 1
    gateway_address: str = "192.168.2.11"
    backhaul_latency_s: float = 0.002
    lan_latency_s: float = 0.0005
    modem_ul_buffer_bytes: int = 32 * 1024


class UeAccess:
    """A device's handle onto the network: its modem-side uplink path.

    Uplink packets offered while the radio is in outage sit in a small
    modem buffer (drained on reconnect); overflow is physical-layer loss.
    The device's *application* monitor counts sent bytes regardless — the
    divergence between those two counts is uplink charging gap.
    """

    def __init__(self, network: "CellularNetwork", ue: UeContext) -> None:
        self.network = network
        self.ue = ue
        self.modem = ue.modem
        self.radio = ue.radio
        self._ul_buffer = DropTailQueue(
            network.config.modem_ul_buffer_bytes, drop_layer="phy-intermittent"
        )
        ue.radio.on_outage_end.append(self._drain_ul_buffer)

    @property
    def imsi(self) -> str:
        """Subscriber identity of this UE."""
        return self.ue.imsi

    @property
    def attached(self) -> bool:
        """Whether the network currently considers the UE attached."""
        return self.ue.attached

    def send_uplink(self, packet: Packet) -> None:
        """Transmit one uplink packet from the device.

        The modem counter ticks for every packet the modem accepts — in
        RLC unacknowledged mode (UDP traffic) the modem transmits into
        dead air during an outage and still counts the bytes as sent, so
        the operator's COUNTER-CHECK-based estimate of the sent volume
        tracks the app's even under intermittent connectivity.  A small
        modem buffer recovers the tail of an outage on reconnect.
        """
        if packet.direction is not Direction.UPLINK:
            raise ValueError("send_uplink requires an uplink packet")
        if not self.ue.attached:
            packet.mark_dropped("detached")
            return
        self.modem.count_uplink(packet)
        if not self.radio.connected:
            if not self._ul_buffer.push(packet):
                packet.mark_dropped("phy-intermittent")
            return
        self.network.serving_enodeb(self.imsi).receive_uplink(self.ue, packet)

    def _drain_ul_buffer(self) -> None:
        if not self.ue.attached:
            return
        for packet in self._ul_buffer.drain():
            self.network.serving_enodeb(self.imsi).receive_uplink(self.ue, packet)


class CellularNetwork:
    """The operator's network: RAN + EPC, one cell."""

    def __init__(
        self,
        loop: EventLoop,
        rng: StreamRegistry,
        config: NetworkConfig | None = None,
        metrics=None,
    ) -> None:
        self.loop = loop
        self.rng = rng
        self.config = config if config is not None else NetworkConfig()
        self.metrics = metrics
        self.hss = Hss()
        self.bearers = BearerTable()
        self.mme = Mme(self.hss, self.bearers)
        self.pcrf = Pcrf()
        address = GatewayAddress(self.config.gateway_address)
        self.spgw = Spgw(loop, self.bearers, address, policy=self.pcrf, metrics=metrics)
        self.ids = ChargingIdAllocator()
        self.ofcs = Ofcs(loop, self.bearers, address, self.ids, metrics=metrics)
        if self.config.n_cells < 1:
            raise ValueError(f"need at least one cell, got {self.config.n_cells}")
        self.enodebs = [
            ENodeB(loop, rng, self.config.enodeb, mme=self.mme, name=f"enb{i}")
            for i in range(self.config.n_cells)
        ]
        self.enodeb = self.enodebs[0]  # the default (single-cell) view
        self._serving: dict[str, int] = {}
        self._accesses: dict[str, UeAccess] = {}
        self.handovers = 0
        # In-flight handover interruptions, keyed by IMSI: epoch counter,
        # the *pre-handover* buffer capacity and drop layer to restore,
        # and whether the break forced the radio down.  A second handover
        # during an interruption supersedes the first (by epoch), so the
        # restore never compounds an already-inflated X2 capacity.
        self._handover_restore: dict[str, tuple[int, int, str, bool]] = {}
        # Backhaul (eNodeB <-> SPGW) and LAN (SPGW <-> edge server) links.
        self._backhaul_ul = Link(
            loop, self.spgw.receive_uplink,
            latency=self.config.backhaul_latency_s, name="backhaul-ul",
            metrics=metrics,
        )
        for enodeb in self.enodebs:
            enodeb.connect_core(self._backhaul_ul.send)
        self.middlebox = SlaMiddlebox(loop, self._forward_backhaul_dl)
        self.spgw.connect_enodeb(self.middlebox.process)
        self._lan_dl = Link(
            loop, self.spgw.send_downlink,
            latency=self.config.lan_latency_s, name="lan-dl",
            metrics=metrics,
        )

    def close(self) -> None:
        """Unwire the network once its run is over.

        Components keep references to their neighbours and stored
        callbacks to their owners, so a finished simulation's graph is
        full of cycles.  Dropping those links here lets reference
        counting free the graph as soon as its last user lets go.  Close
        the loop too (:meth:`EventLoop.close`): its queued events hold
        callbacks into this graph.  The network is unusable afterwards.
        """
        self._accesses.clear()
        for enodeb in self.enodebs:
            enodeb.close()
        self.spgw.close()
        self.middlebox.forward = None

    # --------------------------------------------------------- subscribers

    def attach_device(
        self,
        imsi: Imsi,
        radio_profile: RadioProfile | None = None,
        deliver: DeliverToDevice | None = None,
        counter_report_sink: CounterReportSink | None = None,
        device_name: str = "device",
        record_rss: bool = False,
        cell: int = 0,
    ) -> UeAccess:
        """Provision, attach and radio-register one device; returns its access."""
        key = str(imsi)
        # Validate before touching HSS/MME state: a failed attach must not
        # leave a half-provisioned subscriber behind.
        if not 0 <= cell < len(self.enodebs):
            raise ValueError(
                f"no such cell: {cell} (network has {len(self.enodebs)})"
            )
        if key in self._serving:
            raise ValueError(f"IMSI {imsi} is already attached")
        self.hss.provision(SubscriberProfile(imsi, device_name=device_name))
        self.mme.initial_attach(imsi)
        profile = radio_profile if radio_profile is not None else RadioProfile()
        radio = RadioChannel(
            self.loop, self.rng, profile, name=str(imsi), record_rss=record_rss
        )
        modem = HardwareModem(self.loop, name=f"modem:{imsi}")
        ue = self.enodebs[cell].register_ue(
            str(imsi),
            radio,
            modem,
            deliver if deliver is not None else _discard,
            counter_report_sink=counter_report_sink,
        )
        self._serving[str(imsi)] = cell
        radio.start()
        access = UeAccess(self, ue)
        self._accesses[str(imsi)] = access
        return access

    def serving_enodeb(self, imsi: Imsi | str) -> ENodeB:
        """The cell currently serving a subscriber."""
        try:
            return self.enodebs[self._serving[str(imsi)]]
        except KeyError:
            raise KeyError(f"IMSI {imsi} is not served by any cell") from None

    def handover(
        self,
        imsi: Imsi | str,
        target_cell: int,
        interruption_s: float = 0.05,
        x2_forwarding: bool = False,
    ) -> None:
        """Move a UE to ``target_cell`` (X2-style inter-cell handover).

        The source cell runs a final RRC COUNTER CHECK (the operator's
        record stays fresh across the move — the modem's counters travel
        with the UE), then hands the context over.  Without X2 the
        source's buffered downlink is discarded as ``link-mobility``
        loss; with X2 it is forwarded into the target's buffer.  The UE
        is unreachable for ``interruption_s`` (control-plane break),
        during which arriving traffic buffers at the *target*.
        """
        key = str(imsi)
        source_index = self._serving[key]
        if target_cell == source_index:
            raise ValueError(f"UE {key} is already served by cell {target_cell}")
        if not 0 <= target_cell < len(self.enodebs):
            raise ValueError(f"no such cell: {target_cell}")
        source = self.enodebs[source_index]
        target = self.enodebs[target_cell]
        ue = source.ue(key)
        ue.rrc.perform_counter_check()
        source.evict(key)
        # A handover arriving during an earlier interruption reuses the
        # *original* saved state instead of re-saving the inflated one,
        # so back-to-back handovers cannot compound the X2 capacity.
        pending = self._handover_restore.get(key)
        if pending is None:
            epoch = 1
            base_capacity = ue.dl_buffer.capacity_bytes
            base_layer = ue.dl_buffer.drop_layer
        else:
            epoch = pending[0] + 1
            base_capacity = pending[1]
            base_layer = pending[2]
        buffered = ue.dl_buffer.drain()
        if x2_forwarding:
            # While the break lasts, X2 queues arriving traffic in the
            # forwarding pipe in addition to the target's own buffer —
            # raise the cap *before* re-queueing so the packets X2 is
            # meant to preserve can never tail-drop out of it.
            ue.dl_buffer.capacity_bytes = base_capacity * 4
            ue.dl_buffer.drop_layer = base_layer
            for packet in buffered:
                ue.dl_buffer.push(packet)
        else:
            for packet in buffered:
                packet.mark_dropped("link-mobility")
            ue.dl_buffer.capacity_bytes = base_capacity
            ue.dl_buffer.drop_layer = "link-mobility"
        target.admit(ue)
        self._serving[key] = target_cell
        self.handovers += 1
        # Control-plane interruption: the radio is down until the target
        # cell completes the access procedure.  Recorded through the
        # radio's own bookkeeping so outage_count / total_outage_time /
        # outage_elapsed() (the RLF-timer input) see the break.
        forced = ue.radio.force_outage_start() or (
            pending is not None and pending[3]
        )
        self._handover_restore[key] = (epoch, base_capacity, base_layer, forced)
        self.loop.schedule(interruption_s, self._complete_handover, ue, key, epoch)

    def _complete_handover(self, ue, key: str, epoch: int) -> None:
        pending = self._handover_restore.get(key)
        if pending is None or pending[0] != epoch:
            return  # superseded by a later handover; its completion restores
        del self._handover_restore[key]
        _, base_capacity, base_layer, forced = pending
        ue.dl_buffer.capacity_bytes = base_capacity
        ue.dl_buffer.drop_layer = base_layer
        if forced:
            ue.radio.force_outage_end()

    def access(self, imsi: Imsi | str) -> UeAccess:
        """Look up a registered device's access handle."""
        try:
            return self._accesses[str(imsi)]
        except KeyError:
            raise KeyError(f"IMSI {imsi} has no registered access") from None

    def create_bearer(self, imsi: Imsi, flow_id: str, qci: int | None = None) -> Bearer:
        """Create a bearer for one flow; QCI from PCRF rules unless forced."""
        resolved_qci = qci if qci is not None else self.pcrf.qci_for(flow_id)
        bearer = Bearer(
            imsi=imsi,
            flow_id=flow_id,
            qci=resolved_qci,
            charging_id=self.ids.next_charging_id(),
        )
        self.bearers.add(bearer)
        return bearer

    # ----------------------------------------------------------- data path

    def send_downlink(self, packet: Packet) -> None:
        """Inject a downlink packet from the edge server (over the LAN)."""
        self._lan_dl.send(packet)

    def register_uplink_sink(self, flow_id: str, sink: Callable[[Packet], None]) -> None:
        """Deliver uplink packets of ``flow_id`` to the edge server."""
        self.spgw.register_uplink_sink(flow_id, sink)

    def set_background_load(
        self, dl_bps: float, ul_bps: float, qci: int = 9, cell: int | None = None
    ) -> None:
        """Install iperf-style fluid background traffic on both directions.

        With ``cell`` given, only that cell is loaded (cells have
        independent air capacity); default loads every cell.
        """
        cells = self.enodebs if cell is None else [self.enodebs[cell]]
        for enodeb in cells:
            enodeb.set_background(True, qci, dl_bps)
            enodeb.set_background(False, qci, ul_bps)

    def set_sla_budget(self, flow_id: str, budget_s: float | None) -> None:
        """Enforce an age budget on one flow's downlink (None clears it).

        Expired packets drop at the operator's middlebox *after* charging
        — the application-layer loss class of §3.1.
        """
        self.middlebox.set_budget(flow_id, budget_s)

    def _forward_backhaul_dl(self, imsi: str, packet: Packet) -> None:
        # Route on the *current* serving cell at delivery time, so packets
        # in flight during a handover land at the target cell.
        def deliver() -> None:
            self.serving_enodeb(imsi).receive_downlink(imsi, packet)

        self.loop.schedule(self.config.backhaul_latency_s, deliver)

    # ------------------------------------------------------------ counters

    def gateway_usage(self, flow_id: str, t1: float, t2: float, direction: Direction) -> int:
        """Gateway-counted bytes (the legacy charging record source)."""
        return self.ofcs.usage_bytes(flow_id, t1, t2, direction)

    def drop_summary(self) -> dict[str, FlowStats]:
        """Aggregate loss taxonomy across the network (for diagnostics).

        Air-congestion losses are summed over *every* cell — fleet shards
        give each UE its own cell, so reading only cell 0 would silently
        under-report the taxonomy for any multi-cell topology.
        """
        air_dl = FlowStats()
        air_ul = FlowStats()
        for enodeb in self.enodebs:
            air_dl = air_dl.merge(enodeb.downlink_air.dropped)
            air_ul = air_ul.merge(enodeb.uplink_air.dropped)
        return {
            "air-dl-congestion": air_dl,
            "air-ul-congestion": air_ul,
            "gateway-detached": self.spgw.detached_drops,
            "gateway-policed": self.spgw.policed_drops,
        }


def _discard(_packet: Packet) -> None:
    """Default device sink: drop delivered packets on the floor."""
