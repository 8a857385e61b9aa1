"""The Offline Charging System (OFCS): CDR generation and usage queries.

Produces charging data records in exactly the shape of the paper's Trace 1
(an OpenEPC CDR: servedIMSI in TBCD hex, gateway address, charging ID,
sequence number, first/last usage timestamps, time usage, and up/downlink
volumes), and answers the operator-side usage queries that TLC's
negotiation layer builds its claims from.

In TLC, the loss-selfishness cancellation runs as "a post-processing logic
of charging records in OFCS" (§6) — that logic lives in
:mod:`repro.core`; this module supplies it with records.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from xml.etree import ElementTree

from ..netsim.events import EventLoop
from ..netsim.packet import Direction
from .bearer import Bearer, BearerTable
from .identifiers import ChargingIdAllocator, GatewayAddress

#: Wall-clock anchor for rendering virtual seconds as CDR timestamps; the
#: value mirrors the timestamps of the paper's Trace 1.
EPOCH = _dt.datetime(2019, 1, 7, 7, 13, 46)


def _render_time(virtual_seconds: float) -> str:
    stamp = EPOCH + _dt.timedelta(seconds=virtual_seconds)
    return stamp.strftime("%Y-%m-%d %H:%M:%S")


@dataclass(frozen=True)
class CdrRecord:
    """One charging data record, as emitted by the gateway into the OFCS."""

    served_imsi_tbcd: str
    gateway_address: str
    charging_id: int
    sequence_number: int
    time_of_first_usage: str
    time_of_last_usage: str
    time_usage_s: int
    datavolume_uplink: int
    datavolume_downlink: int
    flow_id: str

    def to_xml(self) -> str:
        """Render the record in the paper's Trace-1 XML format."""
        root = ElementTree.Element("chargingRecord")
        fields = [
            ("servedIMSI", self.served_imsi_tbcd),
            ("gatewayAddress", self.gateway_address),
            ("chargingID", str(self.charging_id)),
            ("SequenceNumber", str(self.sequence_number)),
            ("timeOfFirstUsage", self.time_of_first_usage),
            ("timeOfLastUsage", self.time_of_last_usage),
            ("timeUsage", str(self.time_usage_s)),
            ("datavolumeUplink", str(self.datavolume_uplink)),
            ("datavolumeDownlink", str(self.datavolume_downlink)),
        ]
        for tag, text in fields:
            child = ElementTree.SubElement(root, tag)
            child.text = text
        return ElementTree.tostring(root, encoding="unicode")

    @classmethod
    def from_xml(cls, text: str, flow_id: str = "") -> "CdrRecord":
        """Parse a Trace-1 style XML charging record."""
        root = ElementTree.fromstring(text)
        if root.tag != "chargingRecord":
            raise ValueError(f"not a chargingRecord: <{root.tag}>")

        def field(tag: str) -> str:
            node = root.find(tag)
            if node is None or node.text is None:
                raise ValueError(f"chargingRecord missing <{tag}>")
            return node.text

        return cls(
            served_imsi_tbcd=field("servedIMSI"),
            gateway_address=field("gatewayAddress"),
            charging_id=int(field("chargingID")),
            sequence_number=int(field("SequenceNumber")),
            time_of_first_usage=field("timeOfFirstUsage"),
            time_of_last_usage=field("timeOfLastUsage"),
            time_usage_s=int(field("timeUsage")),
            datavolume_uplink=int(field("datavolumeUplink")),
            datavolume_downlink=int(field("datavolumeDownlink")),
            flow_id=flow_id,
        )


class Ofcs:
    """Offline charging system: turns bearer counters into CDRs."""

    def __init__(
        self,
        loop: EventLoop,
        bearers: BearerTable,
        gateway_address: GatewayAddress,
        ids: ChargingIdAllocator | None = None,
        metrics=None,
    ) -> None:
        self.loop = loop
        self.bearers = bearers
        self.gateway_address = gateway_address
        self.ids = ids if ids is not None else ChargingIdAllocator()
        self.records: list[CdrRecord] = []
        self._cycle_start: dict[str, float] = {}
        self.metrics = metrics

    # --------------------------------------------------------------- usage

    def usage_bytes(self, flow_id: str, t1: float, t2: float, direction: Direction) -> int:
        """Operator-side volume of ``flow_id`` in ``(t1, t2]`` from the gateway."""
        bearer = self.bearers.by_flow(flow_id)
        if bearer is None:
            raise KeyError(f"no bearer for flow {flow_id!r}")
        counter = bearer.uplink if direction is Direction.UPLINK else bearer.downlink
        return counter.bytes_between(t1, t2)

    # ---------------------------------------------------------------- CDRs

    def close_cycle(self, flow_id: str, t_end: float | None = None) -> CdrRecord:
        """Emit a CDR covering the flow's usage since its last cycle close."""
        bearer = self.bearers.by_flow(flow_id)
        if bearer is None:
            raise KeyError(f"no bearer for flow {flow_id!r}")
        t2 = self.loop.now() if t_end is None else t_end
        t1 = self._cycle_start.get(flow_id, 0.0)
        if t2 < t1:
            raise ValueError(f"cycle end {t2} precedes cycle start {t1}")
        record = self._build_record(bearer, t1, t2)
        self._cycle_start[flow_id] = t2
        self.records.append(record)
        if self.metrics is not None:
            self.metrics.counter("cellular.ofcs.cdrs").inc()
            self.metrics.counter("cellular.ofcs.uplink_bytes").inc(
                record.datavolume_uplink
            )
            self.metrics.counter("cellular.ofcs.downlink_bytes").inc(
                record.datavolume_downlink
            )
        return record

    def _build_record(self, bearer: Bearer, t1: float, t2: float) -> CdrRecord:
        first = bearer.first_usage if bearer.first_usage is not None else t1
        last = bearer.last_usage if bearer.last_usage is not None else t1
        first = max(first, t1)
        last = min(max(last, first), t2)
        return CdrRecord(
            served_imsi_tbcd=bearer.imsi.tbcd_hex(),
            gateway_address=str(self.gateway_address),
            charging_id=bearer.charging_id,
            sequence_number=self.ids.next_sequence(),
            time_of_first_usage=_render_time(first),
            time_of_last_usage=_render_time(last),
            time_usage_s=int(round(last - first)),
            datavolume_uplink=bearer.uplink.bytes_between(t1, t2),
            datavolume_downlink=bearer.downlink.bytes_between(t1, t2),
            flow_id=bearer.flow_id,
        )
