"""The benchmark's four workloads, each a short declarative spec.

A spec composes the fleet, the service and the client on a :class:`Bench`, in
the style of an osmo-gsm-tester suite script.  Composing does the set-up work
at once (configs, cache warm-up, keys, PoC negotiation); the measured work is
queued as phases of steps that :meth:`Bench.measure` interleaves after set-up
has ended.

Population.  A fleet workload runs several 10-UE fleets (units) of the
default Zipf archetype mix in the ``repro fleet`` default shape (8-UE shards,
2 x 30 s cycles), as many as fit the repeat's budget at a rate measured on a
2-core Xeon VM with Python 3.11.  Per-UE CPU differs up to sevenfold between
archetypes, so a free Zipf draw of the few UEs that fit one run swings the
throughput by 20-40 % from seed to seed.  Each unit's fleet seed is therefore
the first seed derived from the workload seed whose draw gives every
archetype its Zipf share of the unit, to within 1 % of the UEs; the workload
seed still drives every UE's traffic, radio and fault draws.

Fleets then settle their shards online, through the service over the batch
run's cache (the ``repro fleet --via-service`` path), so every end-to-end
metric has a value on every workload; ``ue_cycles_per_cpu_s`` of a fleet
counts the timed ``run_fleet`` calls alone.

Every timed unit (one ``run_fleet`` call, one settlement pass) yields one
sample per metric; ``run.py`` reports the median over a run's samples, which
keeps the sub-second bursts of a shared host out of the result.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.experiments.fleet import (
    FleetConfig,
    assign_ues,
    build_shards,
    fleet_shard_key,
    run_fleet,
    shard_result_to_dict,
    zipf_weights,
)
from repro.experiments.fleet_runner import FleetShardRunner
from repro.experiments.parallel import ResultCache, derive_seed
from repro.obs import MetricsSnapshot
from repro.service import LATENCY_EDGES, ServiceConfig

from client import CheckFailed, Keys, arrival_times, build_stream, settle_pass

#: Vendors the client spreads claims over, and the edge keys they sign with.
VENDORS = 12
EDGE_KEYS = 2
#: UEs per fleet unit: the smallest population whose Zipf shares give
#: every default archetype at least one UE (5/2/1/1/1).
UNIT_UES = 10
#: Settlement passes per measured phase, at least.
MIN_PASSES = 2
#: FleetConfig overrides of fleet-chaos.
CHAOS = dict(
    outage_eta=0.1, fault_profile="chaos", handover_interval_s=20.0, handover_x2=True
)


@dataclass
class Pass:
    """What one run of the measured phases did and observed."""

    dir: Path
    #: Batch aggregate of each fleet (FleetResult.to_dict()), in unit order.
    expected: dict = field(default_factory=dict)
    cache: ResultCache | None = None
    #: One value per timed unit.
    batch_rates: list[float] = field(default_factory=list)
    claim_rates: list[float] = field(default_factory=list)
    settled_ue_cycle_rates: list[float] = field(default_factory=list)
    recovery_cpu_s: list[float] = field(default_factory=list)
    latency_counts: list[int] = field(default_factory=lambda: [0] * (len(LATENCY_EDGES) + 1))
    attempted: int = 0
    failed: int = 0
    resubmitted: int = 0
    hit_memory: int = 0
    hit_disk: int = 0
    miss: int = 0
    simulated: int = 0

    def add(self, stats) -> None:
        """Fold in one settlement pass."""
        self.claim_rates.append(stats.settled / stats.ingest_cpu_s)
        self.settled_ue_cycle_rates.append(stats.settled_ue_cycles / stats.ingest_cpu_s)
        self.recovery_cpu_s.append(stats.recovery_cpu_s)
        self.latency_counts = [a + b for a, b in zip(self.latency_counts, stats.latency_counts)]
        for name in ("attempted", "failed", "resubmitted", "hit_memory", "hit_disk",
                     "miss", "simulated"):
            setattr(self, name, getattr(self, name) + getattr(stats, name))

    def digest(self) -> str:
        """sha256 of the fleet aggregates, in unit order."""
        blob = json.dumps(list(self.expected.values()), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def latency_quantile(self, q: float) -> float:
        """Ingest-to-settle quantile over every settled claim (virtual s)."""
        histogram = {
            "edges": list(LATENCY_EDGES),
            "counts": self.latency_counts,
            "sum": 0.0,
            "count": sum(self.latency_counts),
        }
        return MetricsSnapshot(histograms={"settle": histogram}).quantile("settle", q)

    def samples(self) -> dict[str, list[float]]:
        """Samples of the end-to-end metrics (set-up and RSS aside)."""
        return {
            "ue_cycles_per_cpu_s": self.batch_rates or self.settled_ue_cycle_rates,
            "claims_per_cpu_s": self.claim_rates,
            "recovery_cpu_s": self.recovery_cpu_s,
            "settle_p50_vs": [self.latency_quantile(0.5)],
            "settle_p99_vs": [self.latency_quantile(0.99)],
            "success_share": [1.0 - self.failed / self.attempted],
        }


def _apportion(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` by ``weights`` (largest remainder, ties to rank)."""
    shares = [total * w for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


class Bench:
    """Composes one workload: set-up happens now, measured phases later."""

    def __init__(self, seed: int, budget_s: float, workdir: Path) -> None:
        self.seed = seed
        self.budget_s = budget_s
        self.workdir = workdir
        self.service_config = ServiceConfig()
        #: A tracer.Recorder while a traced pass runs, else None.
        self.recorder = None
        self._expected: dict[FleetConfig, dict] = {}
        self._warm: ResultCache | None = None
        #: Measured phases, each a list of (position, step taking the Pass).
        self._phases: list[list] = []
        self._checks: list = []

    # ---------------------------------------------------------- composing

    def population(self, ues_per_cpu_s: float, unit_ues: int, **overrides) -> list[FleetConfig]:
        """Fleets of ``unit_ues`` UEs, as many as fit the budget, each at the
        first derived seed whose draw matches the Zipf shares."""
        units = max(1, round(ues_per_cpu_s * self.budget_s / unit_ues))
        template = FleetConfig(ues=unit_ues, **overrides)
        target = _apportion(unit_ues, zipf_weights(len(template.mix), template.zipf_s))
        tolerance = round(0.01 * unit_ues)
        fleets = []
        for attempt in itertools.count():
            fleet = replace(template, seed=derive_seed(self.seed, f"population:{attempt}"))
            drawn = Counter(ue.archetype for ue in assign_ues(fleet))
            if all(abs(drawn[name] - n) <= tolerance for name, n in zip(fleet.mix, target)):
                fleets.append(fleet)
                if len(fleets) == units:
                    return fleets

    def fleet(self, ues: int, **overrides) -> FleetConfig:
        """A plain fleet: the default Zipf mix drawn UE by UE."""
        return FleetConfig(ues=ues, seed=self.seed, **overrides)

    def warm_cache(self, fleet: FleetConfig) -> None:
        """Set-up: a batch run fills the disk cache the service reads."""
        self._warm = ResultCache(self.workdir / "warm-cache")
        self._expected[fleet] = run_fleet(fleet, workers=1, cache=self._warm).to_dict()

    def run_batch(self, fleets: list[FleetConfig], kernel: str | None = None) -> None:
        """Measured: ``run_fleet`` of each fleet into a cold cache, with one
        process (``kernel`` is passed the way ``--kernel`` is: REPRO_SIM_KERNEL)."""

        def step(p: Pass, unit: int) -> None:
            fleet = fleets[unit]
            if p.cache is None:
                p.cache = ResultCache(p.dir / "batch-cache")
            saved = os.environ.get("REPRO_SIM_KERNEL")
            if kernel is not None:
                os.environ["REPRO_SIM_KERNEL"] = kernel
            self._scope(f"batch:{unit}")
            try:
                start = time.process_time()
                result = run_fleet(fleet, workers=1, cache=p.cache)
                cpu_s = time.process_time() - start
            finally:
                if saved is None:
                    os.environ.pop("REPRO_SIM_KERNEL", None)
                else:
                    os.environ["REPRO_SIM_KERNEL"] = saved
            p.batch_rates.append(result.population * fleet.n_cycles / cpu_s)
            p.attempted += result.n_shards
            p.expected[fleet] = result.to_dict()

        units = len(fleets)
        self._phases.append(
            [(k / units, functools.partial(step, unit=k)) for k in range(units)]
        )

    def settle_online(self, fleets: list[FleetConfig], claims_per_cpu_s: float) -> None:
        """Measured: the fleets' claims through fresh services.

        Set-up negotiates one PoC receipt per shard.  Settlement passes then
        take the fleets in turn, each pass with its own seeded arrival times,
        until about ``claims_per_cpu_s`` claims per CPU second of the budget
        were sent.
        """
        keys = Keys.generate(self.seed, EDGE_KEYS)
        streams = [build_stream(fleet, self.service_config, keys, VENDORS) for fleet in fleets]
        mean_claims = sum(len(stream.claims) for stream in streams) / len(streams)
        passes = max(MIN_PASSES, math.ceil(claims_per_cpu_s * self.budget_s / mean_claims))

        def step(p: Pass, n: int) -> None:
            replay, unit = divmod(n, len(streams))
            stream = streams[unit]
            self._scope(f"settle:{n}")
            p.add(settle_pass(
                stream,
                arrival_times(stream, self.service_config, replay),
                p.cache if p.cache is not None else self._warm,
                p.dir / f"settle-{n}",
                self.service_config,
                p.expected[stream.fleet],
            ))

        # A pass runs no earlier than the batch run of its fleet (at unit / units).
        units = len(streams)
        self._phases.append([
            (max(n / passes, n % units / units), functools.partial(step, n=n))
            for n in range(passes)
        ])

    def cross_check(self, fleets: list[FleetConfig], kernel: str) -> None:
        """Check: one timed shard, re-simulated on the other executor,
        must give identical per-UE rows and metrics."""

        def check(p: Pass) -> None:
            fleet = fleets[self.seed % len(fleets)]
            shards = build_shards(fleet)
            shard = shards[self.seed % len(shards)]
            timed = p.cache.get_data(fleet_shard_key(shard))
            again = shard_result_to_dict(FleetShardRunner(shard, kernel=kernel).run())
            if timed != again:
                raise CheckFailed(f"shard {shard.index} differs on the {kernel} executor")

        self._checks.append(check)

    # ------------------------------------------------------------ running

    def _scope(self, label: str) -> None:
        if self.recorder is not None:
            self.recorder.scope = label

    def measure(self, passdir: Path) -> Pass:
        """Run the measured phases once, in fresh directories.

        The phases' steps run interleaved by their position in [0, 1),
        earlier phases first on ties, so every metric samples the whole
        measured phase rather than one stretch of it.
        """
        p = Pass(dir=passdir, expected=dict(self._expected))
        steps = [
            (position, order, step)
            for order, phase in enumerate(self._phases)
            for position, step in phase
        ]
        for _, _, step in sorted(steps, key=lambda entry: entry[:2]):
            step(p)
        return p

    def check(self, p: Pass) -> None:
        """The cross-executor checks, outside the measured phases."""
        for check in self._checks:
            check(p)


# ---------------------------------------------------------------- workloads


def fleet_steady(bench: Bench) -> None:
    """Every UE takes the batched fold loops."""
    fleets = bench.population(ues_per_cpu_s=40.0, unit_ues=UNIT_UES)
    bench.run_batch(fleets)
    bench.settle_online(fleets, claims_per_cpu_s=24.0)
    bench.cross_check(fleets, kernel="reference")


def fleet_chaos(bench: Bench) -> None:
    """Every UE rides the general wheel executor with live faults."""
    fleets = bench.population(ues_per_cpu_s=10.0, unit_ues=UNIT_UES, **CHAOS)
    bench.run_batch(fleets)
    bench.settle_online(fleets, claims_per_cpu_s=24.0)
    bench.cross_check(fleets, kernel="reference")


def fleet_reference(bench: Bench) -> None:
    """The fleet-steady population on the reference engine."""
    fleets = bench.population(ues_per_cpu_s=5.0, unit_ues=UNIT_UES)
    bench.run_batch(fleets, kernel="reference")
    bench.settle_online(fleets, claims_per_cpu_s=24.0)
    bench.cross_check(fleets, kernel="batched")


def serve_warm(bench: Bench) -> None:
    """Shard claims and PoC receipts through the service over a warm cache."""
    fleet = bench.fleet(ues=128, shard_size=4, cycle_duration_s=2.0)
    bench.warm_cache(fleet)
    bench.settle_online([fleet], claims_per_cpu_s=500.0)


WORKLOADS = {
    "fleet-steady": fleet_steady,
    "fleet-chaos": fleet_chaos,
    "fleet-reference": fleet_reference,
    "serve-warm": serve_warm,
}
