"""The deterministic fault-injection subsystem."""

import random

import pytest

from repro.netsim.events import EventLoop
from repro.netsim.faults import (
    FAULT_KINDS,
    FAULT_PROFILES,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    FaultTrace,
    load_fault_trace,
)
from repro.netsim.link import Link
from repro.netsim.packet import Direction, Packet
from repro.netsim.rng import StreamRegistry
from repro.netsim.transport import TcpLikeReceiver, TcpLikeSender


def packet(size=1000, direction=Direction.DOWNLINK):
    return Packet(size=size, flow_id="f", direction=direction)


def injector(loop, specs, seed=7):
    return FaultInjector(
        loop, StreamRegistry(seed), FaultSchedule(specs=tuple(specs)), FaultTrace()
    )


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec("gremlins")

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError):
            FaultSpec("blackout", start=-1.0)
        with pytest.raises(ValueError):
            FaultSpec("blackout", duration=-0.5)

    def test_probability_kinds_validate_magnitude(self):
        with pytest.raises(ValueError):
            FaultSpec("burst-loss", magnitude=1.5)

    def test_window_membership(self):
        spec = FaultSpec("blackout", start=5.0, duration=2.0)
        assert not spec.active(4.999)
        assert spec.active(5.0)
        assert spec.active(6.999)
        assert not spec.active(7.0)

    def test_open_ended_window(self):
        spec = FaultSpec("burst-loss", start=3.0, duration=None, magnitude=0.5)
        assert spec.active(1e9)

    def test_target_glob(self):
        spec = FaultSpec("crash", target="poc-*")
        assert spec.matches("poc-edge")
        assert not spec.matches("uplink")

    def test_dict_roundtrip(self):
        spec = FaultSpec("reorder", start=1.0, duration=4.0, target="downlink",
                         magnitude=0.25, jitter_s=0.01)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("kind, field, value", [
        ("blackout", "start", float("nan")),
        ("blackout", "start", float("inf")),
        ("blackout", "duration", float("nan")),
        ("blackout", "duration", float("inf")),
        ("clock-drift", "magnitude", float("inf")),
        ("clock-skew", "magnitude", float("nan")),
        ("reorder", "jitter_s", float("nan")),
        ("duplicate", "jitter_s", float("inf")),
    ])
    @pytest.mark.parametrize("build", ["init", "from_dict"])
    def test_rejects_non_finite_fields(self, kind, field, value, build):
        data = {"kind": kind, "start": 0.0, "duration": 1.0, field: value}
        if build == "from_dict":
            # The scenario codec decodes schedules from JSON-ish dicts,
            # where the value arrives as a string float() still parses.
            data[field] = str(value)
        with pytest.raises(ValueError, match=f"fault {field} must be finite"):
            if build == "init":
                FaultSpec(**data)
            else:
                FaultSpec.from_dict(data)

    def test_open_ended_duration_stays_legal(self):
        spec = FaultSpec.from_dict({"kind": "blackout", "start": 1.0, "duration": None})
        assert spec.duration is None
        assert spec.active(1e9)


class TestFaultSchedule:
    def test_compose_concatenates(self):
        a = FaultSchedule("a", (FaultSpec("blackout"),))
        b = FaultSchedule("b", (FaultSpec("crash"),))
        both = a.compose(b)
        assert both.name == "a+b"
        assert [s.kind for s in both.specs] == ["blackout", "crash"]

    def test_shifted_moves_windows(self):
        sched = FaultSchedule(specs=(FaultSpec("blackout", start=2.0, duration=1.0),))
        moved = sched.shifted(10.0)
        assert moved.specs[0].start == 12.0

    def test_skew_at_combines_offset_and_drift(self):
        sched = FaultSchedule(specs=(
            FaultSpec("clock-skew", start=0.0, target="edge-clock", magnitude=0.5),
            FaultSpec("clock-drift", start=10.0, target="edge-clock", magnitude=100.0),
        ))
        # At t=20: offset 0.5 + 10 s of 100 ppm drift = 0.5 + 0.001.
        assert sched.skew_at("edge-clock", 20.0) == pytest.approx(0.501)
        assert sched.skew_at("operator-clock", 20.0) == 0.0

    def test_drift_caps_at_window_end(self):
        sched = FaultSchedule(specs=(
            FaultSpec("clock-drift", start=0.0, duration=5.0, target="*",
                      magnitude=1000.0),
        ))
        assert sched.skew_at("x", 100.0) == pytest.approx(0.005)

    def test_dict_roundtrip(self):
        sched = FAULT_PROFILES["chaos"]
        assert FaultSchedule.from_dict(sched.to_dict()) == sched

    def test_all_profiles_use_known_kinds(self):
        for profile in FAULT_PROFILES.values():
            for spec in profile.specs:
                assert spec.kind in FAULT_KINDS


class TestFaultTrace:
    def test_roundtrip_with_fault_entries(self, tmp_path):
        trace = FaultTrace()
        trace.record(0.5, "burst-loss", "downlink", "dropped")
        trace.record(1.5, "counter-reset", "modem", "counters zeroed")
        path = tmp_path / "faults.jsonl"
        trace.save(path)
        assert load_fault_trace(path) == trace

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        FaultTrace().save(path)
        loaded = load_fault_trace(path)
        assert len(loaded) == 0
        assert loaded == FaultTrace()

    def test_out_of_order_timestamps_preserved(self, tmp_path):
        # Injected-fault entries are logged in firing order; a trace
        # assembled from multiple points may interleave timestamps.  The
        # round-trip must preserve order, not silently sort.
        events = [
            FaultEvent(2.0, "blackout", "uplink"),
            FaultEvent(1.0, "burst-loss", "downlink"),
        ]
        trace = FaultTrace(events)
        path = tmp_path / "ooo.jsonl"
        trace.save(path)
        assert load_fault_trace(path).events == events

    def test_counts_by_kind(self):
        trace = FaultTrace()
        for _ in range(3):
            trace.record(0.0, "burst-loss", "x")
        trace.record(0.0, "crash", "y")
        assert trace.counts() == {"burst-loss": 3, "crash": 1}


class TestPacketPipe:
    def test_blackout_drops_and_labels(self):
        loop = EventLoop()
        seen = []
        inj = injector(loop, [FaultSpec("blackout", start=0.0, duration=1.0)])
        pipe = inj.pipe("downlink", seen.append)
        p = packet()
        pipe(p)
        assert seen == []
        assert p.dropped_at == "fault-blackout"
        assert inj.trace.counts() == {"blackout": 1}

    def test_outside_window_passes_clean(self):
        loop = EventLoop()
        seen = []
        inj = injector(loop, [FaultSpec("blackout", start=5.0, duration=1.0)])
        pipe = inj.pipe("downlink", seen.append)
        pipe(packet())
        assert len(seen) == 1
        assert len(inj.trace) == 0

    def test_burst_loss_is_seed_deterministic(self):
        def run(seed):
            loop = EventLoop()
            seen = []
            inj = injector(loop, [FaultSpec("burst-loss", magnitude=0.5)], seed=seed)
            pipe = inj.pipe("downlink", seen.append)
            for _ in range(100):
                pipe(packet())
            return len(seen), [e.t for e in inj.trace.events]

        assert run(1) == run(1)
        assert run(1)[0] != 100  # some loss actually happened

    def test_duplicate_delivers_twice(self):
        loop = EventLoop()
        seen = []
        inj = injector(loop, [FaultSpec("duplicate", magnitude=1.0, jitter_s=0.01)])
        pipe = inj.pipe("uplink", lambda p: seen.append(loop.now()))
        pipe(packet())
        loop.run()
        assert len(seen) == 2
        assert seen[0] == 0.0 and 0.0 <= seen[1] <= 0.01

    def test_reorder_lets_later_packet_overtake(self):
        loop = EventLoop()
        seen = []
        inj = injector(
            loop,
            [FaultSpec("reorder", start=0.0, duration=0.0005,
                       magnitude=1.0, jitter_s=0.05)],
        )
        pipe = inj.pipe("downlink", lambda p: seen.append(p.seq))
        first = packet()
        first.seq = 1
        pipe(first)  # held up to 50 ms
        second = packet()
        second.seq = 2
        loop.schedule_at(0.001, pipe, second)  # after the fault window
        loop.run()
        assert seen == [2, 1]

    def test_corrupt_counts_as_loss(self):
        loop = EventLoop()
        seen = []
        inj = injector(loop, [FaultSpec("corrupt", magnitude=1.0)])
        pipe = inj.pipe("downlink", seen.append)
        p = packet()
        pipe(p)
        assert seen == [] and p.dropped_at == "fault-corrupt"

    def test_target_filtering(self):
        loop = EventLoop()
        seen = []
        inj = injector(loop, [FaultSpec("blackout", target="uplink")])
        pipe = inj.pipe("downlink", seen.append)
        pipe(packet())
        assert len(seen) == 1


class TestComponentAdapters:
    def test_attach_link_wraps_delivery(self):
        loop = EventLoop()
        seen = []
        link = Link(loop, seen.append, latency=0.001, name="backhaul-dl")
        inj = injector(loop, [FaultSpec("blackout", target="backhaul-*")])
        inj.attach_link(link)
        link.send(packet())
        loop.run()
        assert seen == []
        # The link still counted the delivery attempt; the fault layer
        # dropped it post-hop with its own taxonomy label.
        assert link.delivered.packets == 1

    def test_transport_recovers_from_faulted_segment_path(self):
        # TcpLikeSender -> fault pipe -> receiver; ARQ must close the gap.
        loop = EventLoop()
        inj = injector(
            loop, [FaultSpec("burst-loss", start=0.0, duration=0.3, magnitude=0.9)]
        )
        receiver_holder = {}

        def wire(size, seq):
            sent_at = sender.first_sent_at(seq)
            loop.schedule(0.01, receiver_holder["rx"].on_segment, size, seq, sent_at)

        sender = TcpLikeSender(loop, inj.pipe_call("segments", wire), rto_s=0.05)
        receiver = TcpLikeReceiver(loop, lambda seq: loop.schedule(0.01, sender.on_ack, seq))
        receiver_holder["rx"] = receiver
        sender.offer(10 * 1400)
        loop.run()
        assert receiver.delivered_bytes == 10 * 1400
        assert sender.retransmitted_bytes > 0

    def test_counter_reset_rebaselines_operator_record(self):
        from repro.cellular.rrc import HardwareModem
        from repro.edge.monitors import CounterCheckMonitor

        loop = EventLoop()
        modem = HardwareModem(loop)
        monitor = CounterCheckMonitor(loop)
        inj = injector(loop, [FaultSpec("counter-reset", start=5.0, target="modem")])
        inj.attach_modem(modem)

        def traffic_and_check(nbytes):
            modem.count_downlink(packet(nbytes))
            monitor.on_report(modem.counter_check())

        loop.schedule_at(1.0, traffic_and_check, 1000)
        loop.schedule_at(9.0, traffic_and_check, 500)
        loop.run()
        # The reset zeroed the modem between checks; the monitor took the
        # post-reset absolute value as the delta instead of rejecting it.
        assert monitor.resets_observed == 1
        assert monitor.total == 1500
        assert inj.trace.counts() == {"counter-reset": 1}

    def test_counter_reset_in_the_past_is_not_armed(self):
        from repro.cellular.rrc import HardwareModem

        loop = EventLoop()
        loop.clock.advance_to(10.0)
        modem = HardwareModem(loop)
        inj = injector(loop, [FaultSpec("counter-reset", start=5.0, target="modem")])
        inj.attach_modem(modem)
        assert loop.pending() == 0


class TestNetdriverCrash:
    def test_negotiation_survives_operator_crash(self):
        """A crash-restart of the operator endpoint only delays the PoC."""
        from repro.cellular import CellularNetwork, RadioProfile, make_test_imsi
        from repro.core import DataPlan, OptimalStrategy, PartyKnowledge, PartyRole
        from repro.crypto import generate_keypair
        from repro.edge import EdgeDevice
        from repro.poc.netdriver import NetworkNegotiation

        edge_key = generate_keypair(512, random.Random(11))
        operator_key = generate_keypair(512, random.Random(12))
        loop = EventLoop()
        net = CellularNetwork(loop, StreamRegistry(3))
        imsi = make_test_imsi(1)
        device = EdgeDevice(loop, imsi, "app")
        access = net.attach_device(imsi, RadioProfile(), deliver=device.deliver)
        device.bind(access)
        negotiation = NetworkNegotiation(
            net, str(imsi), DataPlan(c=0.5, cycle_duration_s=60.0), 0.0,
            OptimalStrategy(PartyKnowledge(PartyRole.EDGE, 1000, 900)),
            OptimalStrategy(PartyKnowledge(PartyRole.OPERATOR, 900, 1000)),
            edge_key, operator_key, random.Random(5),
            retransmit_timeout_s=0.3,
        )
        inj = injector(
            loop, [FaultSpec("crash", start=0.01, duration=1.5, target="poc-operator")]
        )
        inj.attach_negotiation(negotiation)
        negotiation.start()
        loop.run_until(30.0)
        assert negotiation.complete
        result = negotiation.result()
        assert result.elapsed_s > 1.0  # the crash window stalled progress
        assert result.retransmissions > 0
        assert len(inj.trace) > 0


class TestWindowBoundaries:
    """End-exclusive window semantics, pinned at the exact edges.

    Every consumer of a fault window — ``FaultSpec.active``,
    ``FaultSchedule.active_specs``/``skew_at``, ``decide_at``, and the
    injector's cached ``decider`` closures that pipes and kernel lanes
    share — must agree that ``[start, start + duration)`` is half-open.  A
    single off-by-one here is a parity landmine between the reference
    engine and the lane replay.
    """

    WINDOW = dict(start=5.0, duration=2.0)

    @pytest.mark.parametrize(
        "t, active",
        [
            (4.999999, False),  # just before
            (5.0, True),        # start is inclusive
            (6.999999, True),   # just inside
            (7.0, False),       # start + duration is exclusive
            (7.000001, False),  # just after
        ],
    )
    def test_spec_active_edges(self, t, active):
        spec = FaultSpec("blackout", **self.WINDOW)
        assert spec.active(t) is active

    def test_zero_duration_window_never_activates(self):
        spec = FaultSpec("blackout", start=5.0, duration=0.0)
        assert spec.active(5.0) is False

    def test_active_specs_agrees_with_spec_active(self):
        schedule = FaultSchedule(specs=(FaultSpec("blackout", **self.WINDOW),))
        kinds = ("blackout",)
        assert schedule.active_specs(kinds, "uplink", 5.0) != []
        assert schedule.active_specs(kinds, "uplink", 7.0) == []

    def test_skew_window_end_exclusive(self):
        schedule = FaultSchedule(
            specs=(FaultSpec("clock-skew", magnitude=0.25, **self.WINDOW),)
        )
        assert schedule.skew_at("*", 5.0) == 0.25
        assert schedule.skew_at("*", 7.0) == 0.0  # offset vanishes at the edge

    def test_drift_skew_persists_capped_after_window_close(self):
        # 1000 ppm over a 2 s window accumulates 2 ms of error; unlike a
        # constant offset, that accumulation is *physical* — the clock
        # ticked wrong for 2 s — so it must persist after the window
        # closes, capped at the window-end value.
        schedule = FaultSchedule(
            specs=(FaultSpec("clock-drift", magnitude=1000.0, **self.WINDOW),)
        )
        assert schedule.skew_at("*", 5.0) == 0.0
        assert schedule.skew_at("*", 6.0) == pytest.approx(1000e-6 * 1.0)
        cap = 1000e-6 * 2.0
        assert schedule.skew_at("*", 7.0) == pytest.approx(cap)
        assert schedule.skew_at("*", 100.0) == pytest.approx(cap)

    def test_injector_decision_edges_draw_no_rng_outside_window(self):
        loop = EventLoop()
        inj = injector(loop, [FaultSpec("blackout", target="uplink", **self.WINDOW)])
        before = inj._rng.getstate()
        assert inj.decide_at("uplink", 5.0) == ("drop:blackout", 0.0)
        assert inj.decide_at("uplink", 7.0) == (None, 0.0)
        # Window membership is deterministic: neither edge drew RNG, and
        # only the in-window decision hit the trace.
        assert inj._rng.getstate() == before
        assert [e.t for e in inj.trace.events] == [5.0]

    def test_lane_view_decider_matches_injector_at_edges(self):
        loop = EventLoop()
        inj = injector(loop, [FaultSpec("blackout", target="uplink", **self.WINDOW)])
        decide = inj.decider("uplink")
        before = inj._rng.getstate()
        assert decide(5.0) == ("drop:blackout", 0.0)
        assert decide(7.0) == (None, 0.0)
        assert inj._rng.getstate() == before
        # A point no spec matches has no decider, and its pipe is the
        # downstream callable itself.
        assert inj.decider("downlink") is None
        downstream = [].append
        assert inj.pipe("downlink", downstream) is downstream


class TestTracelessInjector:
    def test_decides_and_counts_like_a_traced_one(self):
        """A fleet session's injector keeps no trace; that must change no
        fate, no RNG draw and no ``netsim.faults.fired`` counter."""
        from repro.cellular.rrc import HardwareModem
        from repro.obs import MetricsRegistry

        def run(trace):
            loop = EventLoop()
            metrics = MetricsRegistry()
            inj = FaultInjector(
                loop, StreamRegistry(7), FAULT_PROFILES["chaos"], trace, metrics
            )
            fates = []
            for i in range(4000):
                t = i * 0.05
                for point in ("uplink", "downlink"):
                    fates.append(inj.decider(point)(t))
                fates.append(inj.extra_skew("edge-clock", t))
            inj.apply_reset(HardwareModem(loop), 95.0)
            counters = list(metrics.snapshot().counters.items())
            return fates, inj._rng.getstate(), counters, inj.trace

        traced = run(FaultTrace())
        traceless = run(None)
        assert traceless[:3] == traced[:3]
        # Every kind fired, and each counter counts its kind's events.
        assert dict(traced[2]) == {
            f"netsim.faults.fired{{kind={kind}}}": n
            for kind, n in traced[3].counts().items()
        }
        assert len(traced[2]) == 6
        assert traceless[3] is None
