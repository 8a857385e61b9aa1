"""End-to-end experiment runner.

Runs one scenario as a single
:class:`~repro.experiments.fleet_runner.UeSession` — device, server,
radio, workload — on its own EPC, simulates the configured charging
cycles, extracts per-cycle :class:`~repro.core.records.CycleUsage`
(ground truth + every party's measured records), and evaluates the
charging schemes the paper compares:

* ``legacy``      — the gateway count, unnegotiated (honest legacy 4G/5G);
* ``tlc-optimal`` — Algorithm 1 with both parties playing minimax/maximin;
* ``tlc-random``  — Algorithm 1 with selfish-but-unaware random claims;
* ``tlc-honest``  — Algorithm 1 with truthful claims (ablation).

Per-cycle clock skews are drawn for the edge vendor and the operator
(relative to cycle length), reproducing the charging-record errors whose
magnitude Figure 18 reports and which bound TLC-optimal's residual gap.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..cellular import make_test_imsi
from ..core import CycleUsage, SchemeOutcome
from ..kernel import build_scenario_lane, resolve_kernel
from ..netsim import FaultTrace
from ..obs import MetricsSnapshot
from .fleet_runner import (
    ROUND_EDGES,
    SCHEMES,
    UeSession,
    build_network,
    evaluate_schemes,
    harvest_metrics,
    simulate_sessions,
)
from .scenarios import ScenarioConfig

__all__ = [
    "ROUND_EDGES",
    "SCHEMES",
    "ScenarioResult",
    "ScenarioRunner",
    "evaluate_schemes",
    "run_scenario",
]


@dataclass
class ScenarioResult:
    """All cycles of one scenario, with per-scheme outcomes."""

    config: ScenarioConfig
    usages: list[CycleUsage]
    outcomes: dict[str, list[SchemeOutcome]]
    measured_bitrate_bps: float
    rss_history: list = field(default_factory=list)
    fault_trace: FaultTrace = field(default_factory=FaultTrace)
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)

    def mean_delta_mb_per_hr(self, scheme: str) -> float:
        """Average absolute gap, normalized to MB/hr (Table 2's Δ)."""
        rows = [
            usage.scaled_to_hour(outcome.delta)
            for usage, outcome in zip(self.usages, self.outcomes[scheme])
        ]
        return statistics.mean(rows) if rows else 0.0

    def mean_epsilon(self, scheme: str) -> float:
        """Average per-cycle relative gap ratio (Table 2's ε)."""
        rows = [o.epsilon for o in self.outcomes[scheme] if o.expected > 0]
        return statistics.mean(rows) if rows else 0.0

    def mean_rounds(self, scheme: str) -> float:
        """Average negotiation rounds (Figure 16b)."""
        rows = [o.rounds for o in self.outcomes[scheme]]
        return statistics.mean(rows) if rows else 0.0

    def gaps_mb_per_hr(self, scheme: str) -> list[float]:
        """Per-cycle gaps in MB/hr (Figure 12's CDF input)."""
        return [
            usage.scaled_to_hour(outcome.delta)
            for usage, outcome in zip(self.usages, self.outcomes[scheme])
        ]


class ScenarioRunner(UeSession):
    """Owns one scenario's simulation: a single UE on its own network."""

    def __init__(self, config: ScenarioConfig, kernel: str | None = None) -> None:
        # Simulation kernel: "auto" picks the batched per-UE kernel when
        # the scenario is eligible (bit-identical results), "reference"
        # forces the per-packet engine, "batched" raises if ineligible.
        self.kernel = resolve_kernel(kernel)
        network = build_network(config.seed, config.cycle_duration_s)
        # One registry drives the network and the UE alike.
        super().__init__(
            network, config, network.rng, make_test_imsi(1), f"{config.workload.name}:ue1"
        )
        # Radio outages become spans on the simulated clock (event-driven
        # open/close; a snapshot taken mid-outage closes them virtually).
        # Registered after the network's own outage callbacks, the order
        # the kernel lane replays them in.
        self._outage_span = None
        self.span_recorder = self.metrics._spans
        self.access.radio.on_outage_start.append(self._outage_started)
        self.access.radio.on_outage_end.append(self._outage_ended)

    def _outage_started(self) -> None:
        if self._outage_span is None:
            self._outage_span = self.metrics.span_open("radio.outage")

    def _outage_ended(self) -> None:
        if self._outage_span is not None:
            self._outage_span.close()
            self._outage_span = None

    def _build_lane(self):
        return build_scenario_lane(self)

    # -------------------------------------------------------------- running

    def simulate(self) -> None:
        """Run the workload through every configured charging cycle."""
        horizon = self.config.n_cycles * self.config.cycle_duration_s
        simulate_sessions([self], self.kernel, horizon)

    def collect_metrics(self) -> None:
        """Harvest end-of-run totals from components into gauges."""
        harvest_metrics(self.network, [self])

    def run(self) -> ScenarioResult:
        """Simulate, extract and evaluate; the one-call entry point."""
        self.simulate()
        usages = self.collect()
        outcomes = self.evaluate(usages)
        self.collect_metrics()
        horizon = self.config.n_cycles * self.config.cycle_duration_s
        return ScenarioResult(
            config=self.config,
            usages=usages,
            outcomes=outcomes,
            measured_bitrate_bps=self.workload.achieved_bitrate_bps(horizon),
            rss_history=self.access.radio.rss_history,
            fault_trace=(
                self.fault_injector.trace
                if self.fault_injector is not None
                else FaultTrace()
            ),
            metrics=self.metrics.snapshot(),
        )


def run_scenario(config: ScenarioConfig, kernel: str | None = None) -> ScenarioResult:
    """Convenience wrapper: build, run and return one scenario."""
    return ScenarioRunner(config, kernel=kernel).run()
