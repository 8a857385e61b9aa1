"""Multi-UE shard simulation: many subscribers, one network, one loop.

A fleet shard is a batch of UEs simulated together on a single
:class:`~repro.netsim.events.EventLoop` and one
:class:`~repro.cellular.CellularNetwork` — one SPGW/OFCS/bearer table
serving every bearer, which is exactly the many-bearers-per-gateway shape
a production deployment has.  Each UE gets its *own cell* (the paper's
per-subscriber charging physics is per-radio-link; cross-UE air
contention is a different experiment, available via the fleet config's
``background_mbps``), its own device/server endpoints, monitors, and
workload: a :class:`UeSession`, the per-UE stack that the single-UE
:class:`~repro.experiments.runner.ScenarioRunner` is built on too.

Determinism contract:

* everything *per-UE* (workload frames, cycle clock skews, negotiation
  claims, fault schedule draws) is drawn from a registry seeded by the
  UE's fleet-wide seed, so a UE's traffic does not depend on which shard
  it landed in or which UEs share the shard;
* everything *shared* (radio processes keyed by IMSI, per-cell air
  noise) comes from the shard registry, so a shard's result is a pure
  function of its :class:`~repro.experiments.fleet.FleetShard` spec.

Shard results are compact per-UE summaries plus one mergeable
:class:`~repro.obs.MetricsSnapshot` — O(shard), never O(usages) — which
is what lets the fleet engine stream-aggregate arbitrarily large
populations.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..cellular import (
    CellularNetwork,
    ENodeBConfig,
    HandoverConfig,
    HandoverProcess,
    Imsi,
    NetworkConfig,
    QuotaPolicy,
    RadioProfile,
    make_test_imsi,
)
from ..core import (
    CycleUsage,
    DataPlan,
    HonestStrategy,
    NegotiationEngine,
    OptimalStrategy,
    PartyKnowledge,
    PartyRole,
    RandomSelfishStrategy,
    SchemeOutcome,
)
from ..edge import CounterCheckMonitor, EdgeDevice, EdgeServer
from ..kernel import SETTLE_S, LaneSpec, build_session_lane, resolve_kernel, run_lane
from ..netsim import Direction, EventLoop, FaultInjector, StreamRegistry
from ..obs import MetricsRegistry, MetricsSnapshot
from ..workloads import FrameWorkload
from .scenarios import ScenarioConfig

SCHEMES = ("legacy", "tlc-optimal", "tlc-random", "tlc-honest")

#: Fixed bucket edges for the per-scheme negotiation-round histogram
#: (Figure 16b's x-axis range); fixed so snapshots merge and compare.
ROUND_EDGES = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0)

#: Fixed bucket edges for the fleet's per-UE mean-gap histogram (MB/hr).
#: Fixed so shard snapshots merge bit-deterministically regardless of the
#: population's gap spread.
GAP_EDGES_MB_HR = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)

#: TLC schemes negotiate; legacy does not, so convergence is undefined for it.
NEGOTIATED_SCHEMES = tuple(s for s in SCHEMES if s != "legacy")


@dataclass
class UeSummary:
    """One UE's charging outcome, reduced to O(1) aggregation inputs."""

    ue_index: int
    archetype: str
    flow_id: str
    cycles: int
    offered_bitrate_bps: float
    mean_gap_mb_hr: dict[str, float] = field(default_factory=dict)
    mean_epsilon: dict[str, float] = field(default_factory=dict)
    mean_rounds: dict[str, float] = field(default_factory=dict)
    converged_cycles: dict[str, int] = field(default_factory=dict)


@dataclass
class FleetShardResult:
    """Everything a shard ships back to the aggregator."""

    shard_index: int
    ues: list[UeSummary]
    metrics: MetricsSnapshot


def evaluate_schemes(
    plan: DataPlan,
    usages: list[CycleUsage],
    neg_rng,
    accept_tolerance: float,
    max_rounds: int,
    metrics: MetricsRegistry | None = None,
) -> dict[str, list[SchemeOutcome]]:
    """Run every charging scheme on every cycle of one flow.

    ``neg_rng`` is the session's dedicated negotiation stream, so per-flow
    results depend only on that stream's state, never on how many flows
    share the simulation.
    """
    outcomes: dict[str, list[SchemeOutcome]] = {name: [] for name in SCHEMES}
    for usage in usages:
        expected = plan.expected_charge(usage.true_sent, usage.true_received)
        outcomes["legacy"].append(
            SchemeOutcome("legacy", usage.gateway_count, expected)
        )
        for scheme in ("tlc-optimal", "tlc-random", "tlc-honest"):
            edge_know = PartyKnowledge(
                PartyRole.EDGE, usage.edge_sent_record, usage.edge_received_estimate
            )
            op_know = PartyKnowledge(
                PartyRole.OPERATOR,
                usage.operator_received_record,
                usage.operator_sent_estimate,
            )
            if scheme == "tlc-optimal":
                edge = OptimalStrategy(edge_know, accept_tolerance=accept_tolerance)
                operator = OptimalStrategy(op_know, accept_tolerance=accept_tolerance)
            elif scheme == "tlc-honest":
                edge = HonestStrategy(edge_know, accept_tolerance=accept_tolerance)
                operator = HonestStrategy(op_know, accept_tolerance=accept_tolerance)
            else:
                edge = RandomSelfishStrategy(edge_know, neg_rng)
                operator = RandomSelfishStrategy(op_know, neg_rng)
            engine = NegotiationEngine(plan, edge, operator, max_rounds=max_rounds)
            result = engine.run()
            outcomes[scheme].append(
                SchemeOutcome(scheme, result.volume, expected, result.rounds)
            )
    if metrics is not None:
        for scheme, rows in outcomes.items():
            rounds = metrics.histogram(
                "core.negotiation.rounds", ROUND_EDGES, scheme=scheme
            )
            residual = metrics.counter("core.gap.residual_bytes", scheme=scheme)
            charged = metrics.counter("core.gap.charged_bytes", scheme=scheme)
            for outcome in rows:
                rounds.observe(outcome.rounds)
                residual.inc(outcome.delta)
                charged.inc(outcome.charged)
    return outcomes


def build_network(seed: int, cycle_duration_s: float, **config) -> CellularNetwork:
    """A fresh loop, metrics registry and EPC + RAN, seeded by ``seed``.

    ``config`` holds further :class:`~repro.cellular.NetworkConfig` fields.
    """
    loop = EventLoop()
    # Keep the RRC counter-check staleness proportional to the cycle:
    # the paper's 5 s checks on 1 h cycles quantize ~0.14 % of volume.
    check_interval = max(0.05, cycle_duration_s / 600.0)
    return CellularNetwork(
        loop,
        StreamRegistry(seed),
        NetworkConfig(enodeb=ENodeBConfig(counter_check_interval_s=check_interval), **config),
        metrics=MetricsRegistry(clock=loop.now),
    )


class UeSession:
    """One subscriber's full stack on a network: the four counting points.

    The device and server monitors, the gateway counter and the modem's
    RRC COUNTER CHECK record (:class:`~repro.edge.CounterCheckMonitor`)
    become the per-cycle records Algorithm 1 negotiates.  The session
    runs on the network's loop and metrics registry; the caller picks
    its randomness, identity and cell.  ``rng`` drives the UE's own draws
    (workload frames, cycle skews, negotiation claims, fault schedule);
    link-layer processes keyed by IMSI (radio, handover) ride the
    network's registry.
    """

    #: Span registry the kernel lane replays ``radio.outage`` spans into;
    #: set by a runner that records outage spans from the radio callbacks.
    span_recorder = None

    def __init__(
        self,
        network: CellularNetwork,
        config: ScenarioConfig,
        rng: StreamRegistry,
        imsi: Imsi,
        flow_id: str,
        cell: int = 0,
    ) -> None:
        self.config = config
        self.loop = loop = network.loop
        self.network = network
        self.metrics = metrics = network.metrics
        self.rng = rng
        self.plan = DataPlan(c=config.c, cycle_duration_s=config.cycle_duration_s)
        self.imsi = imsi
        self.flow_id = flow_id
        # Kernel selection outcome, set by start().
        self.kernel_used: str | None = None
        self.kernel_fallback_reason: str | None = None
        self.counter_monitor = CounterCheckMonitor(loop)
        self.device = EdgeDevice(loop, imsi, flow_id)
        access = network.attach_device(
            imsi,
            radio_profile=self._radio_profile(),
            deliver=self.device.deliver,
            counter_report_sink=self.counter_monitor.on_report,
            record_rss=config.outage_eta is not None,
            cell=cell,
        )
        self.device.bind(access)
        self.access = access
        network.create_bearer(imsi, flow_id, qci=config.workload.qci)
        if config.quota_bytes is not None:
            network.pcrf.set_quota(
                flow_id,
                QuotaPolicy(config.quota_bytes, throttle_bps=config.quota_throttle_bps),
            )
        self.server = EdgeServer(loop, network, flow_id)
        if config.background_mbps > 0:
            rate = config.background_mbps * 1e6
            network.set_background_load(rate, rate, cell=cell)
        ue = network.serving_enodeb(str(imsi)).ue(str(imsi))
        self.handover: HandoverProcess | None = None
        if config.handover_interval_s is not None:
            self.handover = HandoverProcess(
                loop,
                network.rng,
                ue,
                HandoverConfig(
                    interval_s=config.handover_interval_s,
                    interruption_s=config.handover_interruption_s,
                    x2_forwarding=config.handover_x2,
                ),
            )
            self.handover.start()
        if config.sla_budget_s is not None:
            network.set_sla_budget(flow_id, config.sla_budget_s)
        sender = self.device if config.direction is Direction.UPLINK else self.server
        self.workload = FrameWorkload(loop, rng, config.workload, sender)
        # Chaos layer: wrap the device's uplink send path and downlink
        # delivery path through the injector's uniform hook, and arm any
        # modem counter resets.  Clock faults apply at record extraction.
        self.fault_injector: FaultInjector | None = None
        if config.faults is not None and not config.faults.is_empty:
            injector = FaultInjector(loop, rng, config.faults, metrics=metrics)
            access.send_uplink = injector.pipe("uplink", access.send_uplink)
            ue.deliver = injector.pipe("downlink", ue.deliver)
            injector.attach_modem(access.modem, point="modem")
            self.fault_injector = injector

    def close(self) -> None:
        """Undo the session's own wiring once the run is over: the uplink
        pipe wraps a bound method of the access it sits on, and the
        injector's deciders and armed resets refer back to it."""
        if self.fault_injector is not None:
            del self.access.send_uplink
            self.fault_injector.close()

    def _radio_profile(self) -> RadioProfile:
        config = self.config
        if config.outage_eta is not None:
            return RadioProfile.for_disconnectivity(
                config.outage_eta,
                mean_outage_s=config.mean_outage_s,
                base_loss=config.base_loss,
            )
        return RadioProfile(base_loss=config.base_loss)

    # -------------------------------------------------------------- running

    def _build_lane(self) -> tuple[LaneSpec | None, str | None]:
        return build_session_lane(self)

    def start(self, kernel: str, horizon: float) -> LaneSpec | None:
        """Hand the UE to a kernel lane, or start its workload on the loop.

        Returns the lane to run, or None when the UE runs on the reference
        engine.  An ``auto`` fallback records its reason in
        ``kernel_fallback_reason`` and the ``kernel.fallback`` counter;
        ``kernel="batched"`` raises instead.
        """
        lane = None
        if kernel != "reference":
            lane, reason = self._build_lane()
            if lane is None:
                if kernel == "batched":
                    raise RuntimeError(
                        f"batched kernel unavailable for {self.flow_id}: {reason}"
                    )
                self.kernel_fallback_reason = reason
                self.metrics.counter("kernel.fallback", reason=reason).inc()
        if lane is None:
            self.workload.start(until=horizon)
        self.kernel_used = "reference" if lane is None else "batched"
        return lane

    # ----------------------------------------------------------- extraction

    def _cycle_usage(self, t1: float, t2: float, edge_skew: float, op_skew: float) -> CycleUsage:
        config = self.config
        direction = config.direction
        for monitor in (
            self.device.ul_monitor,
            self.device.dl_monitor,
            self.server.ul_monitor,
            self.server.dl_monitor,
        ):
            monitor.set_skew(edge_skew)
        self.counter_monitor.set_skew(op_skew)

        gateway = self.network.gateway_usage(self.flow_id, t1, t2, direction)
        if direction is Direction.UPLINK:
            true_sent = self.device.ul_monitor.true_usage(t1, t2)
            true_received = min(gateway, true_sent)
            edge_sent = self.device.ul_monitor.reported_usage(t1, t2)
            edge_received_est = self.server.ul_monitor.reported_usage(t1, t2)
            operator_received = gateway  # the gateway *is* the receiver record
            operator_sent_est = self.counter_monitor.reported_uplink_usage(t1, t2)
        else:
            true_sent = self.server.dl_monitor.true_usage(t1, t2)
            true_received = min(self.device.dl_monitor.true_usage(t1, t2), true_sent)
            edge_sent = self.server.dl_monitor.reported_usage(t1, t2)
            edge_received_est = self.device.dl_monitor.reported_usage(t1, t2)
            operator_received = self.counter_monitor.reported_usage(t1, t2)
            operator_sent_est = gateway

        cycles = self.plan.cycles(config.n_cycles)
        index = int(round(t1 / config.cycle_duration_s))
        return CycleUsage(
            cycle=cycles[index],
            direction=direction,
            flow_id=self.flow_id,
            true_sent=true_sent,
            true_received=true_received,
            gateway_count=gateway,
            edge_sent_record=edge_sent,
            edge_received_estimate=edge_received_est,
            operator_received_record=operator_received,
            operator_sent_estimate=operator_sent_est,
        )

    def collect(self) -> list[CycleUsage]:
        """Extract per-cycle usage records with per-cycle clock skews."""
        config = self.config
        skew_rng = self.rng.stream("cycle-skews")
        usages = []
        for k in range(config.n_cycles):
            t1 = k * config.cycle_duration_s
            t2 = (k + 1) * config.cycle_duration_s
            edge_skew = skew_rng.gauss(0.0, config.edge_skew_rel_std * config.cycle_duration_s)
            op_skew = skew_rng.gauss(0.0, config.operator_skew_rel_std * config.cycle_duration_s)
            if self.fault_injector is not None:
                # Injected clock faults stack on top of the baseline NTP
                # error: offsets while active, drift accumulated to the
                # (true-time) cycle boundary.
                edge_skew += self.fault_injector.extra_skew("edge-clock", t2)
                op_skew += self.fault_injector.extra_skew("operator-clock", t2)
            usages.append(self._cycle_usage(t1, t2, edge_skew, op_skew))
        return usages

    def evaluate(self, usages: list[CycleUsage]) -> dict[str, list[SchemeOutcome]]:
        """Run every charging scheme on every cycle (session negotiation stream)."""
        return evaluate_schemes(
            self.plan,
            usages,
            self.rng.stream("negotiation"),
            self.config.accept_tolerance,
            self.config.max_rounds,
            self.metrics,
        )


def simulate_sessions(sessions: list[UeSession], kernel: str, horizon: float) -> None:
    """Run UE sessions that share one network through the charging horizon."""
    network = sessions[0].network
    with network.metrics.span("simulate"):
        lanes = [s.start(kernel, horizon) for s in sessions]
        # Lanes never touch the shared loop; any order works.  The
        # reference sessions' events then settle on the real loop.
        for lane in lanes:
            if lane is not None:
                run_lane(lane, horizon, settle=SETTLE_S)
        network.loop.run_until(horizon + SETTLE_S)  # settle in-flight traffic
        # Final counter check so the last cycle's RRC record is fresh.
        for session in sessions:
            imsi = str(session.imsi)
            network.serving_enodeb(imsi).ue(imsi).rrc.perform_counter_check()


def harvest_metrics(network: CellularNetwork, sessions: list[UeSession]) -> None:
    """Harvest end-of-run totals from components into gauges.

    Live counters (links, gateway, faults, PoC) accumulate during the
    simulation; this pass adds the remaining passive counters — air
    interface, radio, modem, application monitors — so one snapshot
    accounts for the whole data path layer by layer.  Sums across cells
    and UEs keep metric cardinality constant (no per-UE labels), so a
    merged fleet snapshot stays O(metric names), not O(population).
    """
    m = network.metrics
    for enodeb in network.enodebs:
        for direction, air in (("dl", enodeb.downlink_air), ("ul", enodeb.uplink_air)):
            m.gauge("cellular.air.offered_bytes", direction=direction).add(
                air.offered.bytes
            )
            m.gauge("cellular.air.dropped_bytes", direction=direction).add(
                air.dropped.bytes
            )
            m.gauge("cellular.air.transmitted_bytes", direction=direction).add(
                air.transmitted.bytes
            )
    for session in sessions:
        radio = session.access.radio
        m.gauge("cellular.radio.outages").add(radio.outage_count)
        m.gauge("cellular.radio.outage_time_s").add(radio.total_outage_time)
        modem = session.access.modem
        m.gauge("edge.modem.uplink_bytes").add(modem.ul_sent.total)
        m.gauge("edge.modem.downlink_bytes").add(modem.dl_received.total)
        m.gauge("edge.modem.counter_checks").add(modem.counter_checks_served)
        monitors = (
            ("device-ul", session.device.ul_monitor),
            ("device-dl", session.device.dl_monitor),
            ("server-ul", session.server.ul_monitor),
            ("server-dl", session.server.dl_monitor),
        )
        for point, monitor in monitors:
            m.gauge("edge.monitor.observed_bytes", point=point).add(monitor.total)


def close_sessions(sessions: list[UeSession]) -> None:
    """Tear down a finished simulation of UE sessions that share one network.

    Closes the sessions' own wiring, the network's
    (:meth:`~repro.cellular.CellularNetwork.close`) and the loop's queued
    events.  That breaks every reference cycle the graph holds (the
    metrics spans hold none), so reference counting frees it as soon as
    its last user lets go.  Results already built stay valid; the
    sessions and the network cannot run again.
    """
    network = sessions[0].network
    for session in sessions:
        session.close()
    network.close()
    network.loop.close()


class FleetShardRunner:
    """Owns one shard's simulation: N UEs, one network, one metrics registry."""

    def __init__(self, shard, kernel: str | None = None) -> None:
        from .fleet import FleetShard  # local import: fleet imports us

        assert isinstance(shard, FleetShard)
        if not shard.ues:
            raise ValueError(f"shard {shard.index} has no UEs")
        self.shard = shard
        # Simulation kernel (see repro.kernel): resolved once per shard;
        # "auto" batches every eligible session and runs the rest on the
        # reference engine within the same shard.
        self.kernel = resolve_kernel(kernel)
        self.kernel_used: dict[int, str] = {}
        self.kernel_fallback_reasons: dict[int, str] = {}
        durations = {ue.config.cycle_duration_s for ue in shard.ues}
        cycles = {ue.config.n_cycles for ue in shard.ues}
        if len(durations) != 1 or len(cycles) != 1:
            raise ValueError("all UEs of a shard must share the charging cycle grid")
        self.cycle_duration_s = durations.pop()
        self.n_cycles = cycles.pop()
        # Shard-level randomness (radio processes keyed by IMSI, per-cell
        # air noise) comes from the shard seed.
        self.network = build_network(
            shard.seed, self.cycle_duration_s, n_cells=len(shard.ues)
        )
        self.metrics = self.network.metrics
        # Per-UE randomness: a registry seeded only by the UE's fleet-wide
        # seed, so the session's draws are shard-composition independent.
        self.sessions = [
            UeSession(
                self.network,
                ue.config,
                StreamRegistry(ue.seed),
                make_test_imsi(ue.index + 1),
                f"{ue.config.workload.name}:ue{ue.index}",
                cell=cell,
            )
            for cell, ue in enumerate(shard.ues)
        ]

    # -------------------------------------------------------------- running

    def simulate(self) -> None:
        """Run every UE's workload through the shared charging horizon."""
        simulate_sessions(self.sessions, self.kernel, self.n_cycles * self.cycle_duration_s)
        for ue, session in zip(self.shard.ues, self.sessions):
            self.kernel_used[ue.index] = session.kernel_used
            if session.kernel_fallback_reason is not None:
                self.kernel_fallback_reasons[ue.index] = session.kernel_fallback_reason

    def collect_metrics(self) -> None:
        """Shard-level totals: passive counters summed across cells and UEs."""
        harvest_metrics(self.network, self.sessions)
        self.metrics.gauge("cellular.ofcs.bearers").set(len(self.network.bearers))
        self.metrics.gauge("fleet.shard.ues").set(len(self.sessions))

    def close(self) -> None:
        """Tear the shard's simulation down once its result is built
        (:func:`close_sessions`).  The runner's state stays readable; it
        cannot run again."""
        close_sessions(self.sessions)

    def run(self) -> FleetShardResult:
        """Simulate, extract, evaluate and summarize every UE of the shard."""
        self.simulate()
        summaries = []
        for ue, session in zip(self.shard.ues, self.sessions):
            usages = session.collect()
            outcomes = session.evaluate(usages)
            summary = self._summarize(ue, session, usages, outcomes)
            self._record_fleet_metrics(summary)
            summaries.append(summary)
        self.collect_metrics()
        return FleetShardResult(
            shard_index=self.shard.index,
            ues=summaries,
            metrics=self.metrics.snapshot(),
        )

    def _summarize(
        self,
        ue,
        session: UeSession,
        usages: list[CycleUsage],
        outcomes: dict[str, list[SchemeOutcome]],
    ) -> UeSummary:
        """Reduce one UE's run to the aggregation-ready summary row."""
        horizon = self.n_cycles * self.cycle_duration_s
        summary = UeSummary(
            ue_index=ue.index,
            archetype=ue.archetype,
            flow_id=session.flow_id,
            cycles=len(usages),
            offered_bitrate_bps=session.workload.achieved_bitrate_bps(horizon),
        )
        for scheme, rows in outcomes.items():
            gaps = [
                usage.scaled_to_hour(outcome.delta)
                for usage, outcome in zip(usages, rows)
            ]
            summary.mean_gap_mb_hr[scheme] = statistics.mean(gaps) if gaps else 0.0
            eps = [o.epsilon for o in rows if o.expected > 0]
            summary.mean_epsilon[scheme] = statistics.mean(eps) if eps else 0.0
            summary.mean_rounds[scheme] = (
                statistics.mean(o.rounds for o in rows) if rows else 0.0
            )
            if scheme in NEGOTIATED_SCHEMES:
                summary.converged_cycles[scheme] = sum(
                    1 for o in rows if o.rounds < ue.config.max_rounds
                )
        return summary

    def _record_fleet_metrics(self, summary: UeSummary) -> None:
        m = self.metrics
        m.counter("fleet.ue.count", archetype=summary.archetype).inc()
        for scheme, gap in summary.mean_gap_mb_hr.items():
            m.histogram(
                "fleet.gap.mean_mb_per_hr", GAP_EDGES_MB_HR, scheme=scheme
            ).observe(gap)
        for scheme in NEGOTIATED_SCHEMES:
            m.counter("fleet.negotiation.cycles", scheme=scheme).inc(summary.cycles)
            m.counter("fleet.negotiation.converged_cycles", scheme=scheme).inc(
                summary.converged_cycles.get(scheme, 0)
            )


def simulate_shard(shard) -> FleetShardResult:
    """Build, run and return one shard, then tear its simulation down."""
    runner = FleetShardRunner(shard)
    try:
        return runner.run()
    finally:
        runner.close()
