"""Handover mobility loss and SLA middlebox drops (loss classes 2 & 5)."""

import math

import pytest

from repro.cellular import (
    CellularNetwork,
    HandoverConfig,
    HandoverProcess,
    RadioProfile,
    make_test_imsi,
)
from repro.cellular.middlebox import SlaMiddlebox
from repro.netsim import Direction, EventLoop, Packet, StreamRegistry


def build_network(seed=1):
    loop = EventLoop()
    net = CellularNetwork(loop, StreamRegistry(seed))
    imsi = make_test_imsi(1)
    delivered = []
    access = net.attach_device(imsi, RadioProfile(), deliver=delivered.append)
    net.create_bearer(imsi, "app")
    return loop, net, access, delivered


def dl(size=1000, created_at=0.0):
    return Packet(size=size, flow_id="app", direction=Direction.DOWNLINK,
                  created_at=created_at)


class TestHandover:
    @pytest.mark.parametrize("field", ["interval_s", "interruption_s"])
    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
    def test_rejects_non_positive_or_non_finite_times(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            HandoverConfig(**{field: value})

    def _with_handovers(self, x2=False, interval=5.0, seed=2):
        loop, net, access, delivered = build_network(seed)
        ue = net.enodeb.ue(str(access.imsi))
        process = HandoverProcess(
            loop, net.rng, ue,
            HandoverConfig(interval_s=interval, interruption_s=0.08,
                           x2_forwarding=x2, interval_jitter=0.0),
        )
        process.start()
        return loop, net, access, delivered, process

    def test_handovers_occur_periodically(self):
        loop, net, access, delivered, process = self._with_handovers()
        loop.run_until(26.0)
        assert process.handovers == 5

    def test_traffic_lost_during_interruption_labelled_mobility(self):
        loop, net, access, delivered, process = self._with_handovers(interval=2.0)
        packets = []
        # Dense downlink (16 Mbps) so each 80 ms interruption accumulates
        # ~160 KB against the 64 KB outage buffer and overflows it.
        for i in range(20000):
            p = dl(1000)
            packets.append(p)
            loop.schedule_at(0.01 + i * 0.0005, net.send_downlink, p)
        loop.run_until(11.0)
        mobility_losses = [p for p in packets if p.dropped_at == "link-mobility"]
        assert mobility_losses, "expected buffer overflow inside handovers"

    def test_charged_but_lost(self):
        """Mobility loss happens after the gateway: a charging gap."""
        loop, net, access, delivered, process = self._with_handovers(interval=2.0)
        for i in range(2000):
            loop.schedule_at(0.01 + i * 0.005, net.send_downlink, dl(1000))
        loop.run_until(11.0)
        gateway = net.gateway_usage("app", 0, 11.0, Direction.DOWNLINK)
        received = access.modem.dl_received.total
        assert gateway > received

    def test_x2_forwarding_recovers_buffered_packets(self):
        loss_without = self._x2_variant(False)
        loss_with = self._x2_variant(True)
        assert loss_with <= loss_without

    def _x2_variant(self, x2):
        loop, net, access, delivered, process = self._with_handovers(x2=x2, interval=2.0, seed=3)
        for i in range(2000):
            loop.schedule_at(0.01 + i * 0.005, net.send_downlink, dl(1000))
        loop.run_until(11.0)
        gateway = net.gateway_usage("app", 0, 11.0, Direction.DOWNLINK)
        return gateway - access.modem.dl_received.total

    def test_drop_label_restored_after_handover(self):
        loop, net, access, delivered, process = self._with_handovers(interval=3.0)
        loop.run_until(10.0)
        ue = net.enodeb.ue(str(access.imsi))
        assert ue.dl_buffer.drop_layer == "phy-intermittent"

    def test_cannot_start_twice(self):
        loop, net, access, delivered, process = self._with_handovers()
        with pytest.raises(RuntimeError):
            process.start()


class TestSlaMiddlebox:
    def test_fresh_packets_pass(self):
        loop = EventLoop()
        forwarded = []
        box = SlaMiddlebox(loop, lambda imsi, p: forwarded.append(p))
        box.set_budget("app", 0.1)
        box.process("001", dl(created_at=0.0))
        assert len(forwarded) == 1

    def test_expired_packets_drop_with_label(self):
        loop = EventLoop()
        forwarded = []
        box = SlaMiddlebox(loop, lambda imsi, p: forwarded.append(p))
        box.set_budget("app", 0.1)
        loop.schedule_at(1.0, lambda: None)
        loop.run()
        stale = dl(created_at=0.0)
        box.process("001", stale)
        assert forwarded == []
        assert stale.dropped_at == "app-sla"
        assert box.dropped.packets == 1

    def test_no_budget_means_passthrough(self):
        loop = EventLoop()
        forwarded = []
        box = SlaMiddlebox(loop, lambda imsi, p: forwarded.append(p))
        loop.schedule_at(100.0, lambda: None)
        loop.run()
        box.process("001", dl(created_at=0.0))
        assert len(forwarded) == 1

    def test_budget_clearable(self):
        loop = EventLoop()
        box = SlaMiddlebox(loop, lambda imsi, p: None)
        box.set_budget("app", 0.1)
        box.set_budget("app", None)
        loop.schedule_at(10.0, lambda: None)
        loop.run()
        packet = dl(created_at=0.0)
        box.process("001", packet)
        assert packet.dropped_at is None

    def test_rejects_bad_budget(self):
        box = SlaMiddlebox(EventLoop(), lambda imsi, p: None)
        with pytest.raises(ValueError):
            box.set_budget("app", 0.0)

    def test_sla_drop_is_charged_loss_in_network(self):
        """End-to-end: the gateway charges, the middlebox drops."""
        loop, net, access, delivered = build_network(seed=4)
        net.set_sla_budget("app", 0.0001)  # tighter than even the LAN hop
        for i in range(50):
            loop.schedule_at(i * 0.01, lambda: net.send_downlink(
                dl(1000, created_at=loop.now())
            ))
        loop.run()
        gateway = net.gateway_usage("app", 0, loop.now(), Direction.DOWNLINK)
        assert gateway == 50_000  # every packet charged...
        assert access.modem.dl_received.total == 0  # ...none delivered
        assert net.middlebox.dropped.packets == 50
