"""Fleet sweeps: population-scale charging experiments, streamed.

The paper evaluates charging gaps one subscriber at a time; an operator
cares about the *fleet* — does TLC's residual gap stay inside the
single-UE bands when thousands of heterogeneous subscribers share the
EPC?  This module scales the experiment engine to that question without
scaling its memory:

* a population of N UEs is described compactly (:class:`FleetConfig`),
  assigned workload archetypes by a Zipf popularity draw, and given
  per-UE seeds derived from the fleet seed — both independent of how the
  population is later sharded, so UE #417 runs the same traffic whether
  it lands in a shard of 4 or 64;
* the population is cut into :class:`FleetShard` batches, each simulated
  as one multi-UE scenario by
  :class:`~repro.experiments.fleet_runner.FleetShardRunner` and shipped
  back as an O(shard) summary dict (per-UE reductions + one mergeable
  metrics snapshot);
* shards fan out through the same cached fan-out as single-UE sweeps
  (:func:`~repro.experiments.parallel.cached_results`; shard cache keys
  hash the full shard spec), and :class:`FleetAccumulator` folds them
  *in shard-index order* as they stream in — float accumulation order
  is fixed, so the aggregate is bit-identical across worker counts, cache states and arrival
  orders, and peak memory stays O(shard), never O(population).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

from ..cellular import HandoverConfig, QuotaPolicy, RadioProfile
from ..core import DataPlan
from ..netsim.faults import FaultSchedule
from ..obs import MetricsSnapshot
from ..workloads import iperf_profile
from .parallel import (
    CODEC_VERSION,
    ResultCache,
    RunReport,
    cached_results,
    config_from_dict,
    config_to_dict,
    derive_seed,
    resolve_fault_profile,
)
from .runner import SCHEMES
from .scenarios import (
    GAMING_DL,
    VRIDGE_DL,
    WEBCAM_RTSP_UL,
    WEBCAM_UDP_UL,
    ScenarioConfig,
)

#: Bump when the shard spec or shard-result codec changes; shard cache
#: keys embed it (together with the scenario :data:`CODEC_VERSION`, which
#: governs the embedded per-UE configs and metrics encoding).
#: v2: FleetConfig chaos overrides (outage_eta / handover / quota).
#: v3: FleetConfig.fault_profile (canned FaultSchedule per UE).
FLEET_CODEC_VERSION = 3

#: A light always-on flow for subscribers that are mostly idle: 2 Mbps of
#: iperf-style UDP downlink (QCI 9).  Fleet populations are dominated by
#: such background users, not by the heavy interactive apps.
BACKGROUND_IPERF_DL = ScenarioConfig(
    name="background-iperf-dl",
    workload=iperf_profile(2e6, name="background-iperf"),
    direction=VRIDGE_DL.direction,
    base_loss=0.012,
)

#: Workload archetypes a fleet UE can be assigned, in *popularity order*
#: (most popular first) — the Zipf draw ranks them by position.
ARCHETYPES: dict[str, ScenarioConfig] = {
    "gaming-qci7-dl": GAMING_DL,
    "background-iperf-dl": BACKGROUND_IPERF_DL,
    "webcam-rtsp-ul": WEBCAM_RTSP_UL,
    "webcam-udp-ul": WEBCAM_UDP_UL,
    "vridge-gvsp-dl": VRIDGE_DL,
}

DEFAULT_MIX = tuple(ARCHETYPES)


@dataclass(frozen=True)
class FleetConfig:
    """A population-scale sweep, described in O(1) space: every UE's
    config, and so every shard key, follows from these fields alone."""

    ues: int
    shard_size: int = 8
    seed: int = 1
    n_cycles: int = 2
    cycle_duration_s: float = 30.0
    #: Zipf popularity exponent over ``mix`` (rank-ordered archetypes).
    zipf_s: float = 1.1
    mix: tuple[str, ...] = DEFAULT_MIX
    # Chaos-profile overrides applied to every UE's archetype config
    # (None = keep the archetype's own setting).
    outage_eta: float | None = None
    handover_interval_s: float | None = None
    handover_x2: bool = False
    quota_bytes: int | None = None
    #: Canned fault profile (a :data:`~repro.netsim.faults.FAULT_PROFILES`
    #: name) stamped onto every UE's config; the fleet's only fault source
    #: (None, or the empty ``none``, keeps each archetype's own schedule).
    fault_profile: str | None = None

    def __post_init__(self) -> None:
        if self.ues < 1:
            raise ValueError(f"fleet needs at least one UE, got {self.ues}")
        if self.shard_size < 1:
            raise ValueError(f"shard size must be >= 1, got {self.shard_size}")
        if self.n_cycles < 1:
            raise ValueError(f"fleet needs at least one cycle, got {self.n_cycles}")
        if not math.isfinite(self.zipf_s):
            raise ValueError(f"zipf exponent must be finite, got {self.zipf_s}")
        # The overrides land in every UE's config; building the objects
        # they configure applies those objects' own bounds up front,
        # instead of failing partway through the simulation.
        DataPlan(cycle_duration_s=self.cycle_duration_s)
        if self.outage_eta is not None:
            RadioProfile.for_disconnectivity(self.outage_eta)
        if self.handover_interval_s is not None:
            HandoverConfig(interval_s=self.handover_interval_s)
        if self.quota_bytes is not None:
            QuotaPolicy(self.quota_bytes)
        unknown = [name for name in self.mix if name not in ARCHETYPES]
        if unknown or not self.mix:
            raise ValueError(
                f"unknown archetypes {unknown} (know {', '.join(ARCHETYPES)})"
            )
        resolve_fault_profile(self.fault_profile)

    def to_dict(self) -> dict:
        """JSON-safe encoding (manifest / provenance) of every field, so an
        aggregate's ``config`` block states all that its fleet ran under."""
        return {**asdict(self), "mix": list(self.mix)}


@dataclass(frozen=True)
class UeSpec:
    """One subscriber of the fleet, fully resolved."""

    index: int
    archetype: str
    seed: int
    config: ScenarioConfig


@dataclass(frozen=True)
class FleetShard:
    """A batch of UEs simulated together on one EventLoop/EPC."""

    index: int
    seed: int
    ues: tuple[UeSpec, ...]


# -------------------------------------------------------------- assignment


def zipf_weights(n: int, s: float) -> list[float]:
    """Normalized Zipf popularity weights over ``n`` ranks."""
    raw = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(raw)
    return [w / total for w in raw]


def assign_ues(fleet: FleetConfig) -> list[UeSpec]:
    """Assign every UE an archetype and a seed, shard-independently.

    Each UE's draw comes from its *own* registry, forked from the fleet
    seed by UE index — so the assignment (and the UE's entire simulated
    behaviour) is a pure function of ``(fleet.seed, index)``, invariant
    under re-sharding and population growth: UE #i of a 100-UE fleet is
    bit-identical to UE #i of a 10 000-UE fleet.
    """
    from ..netsim.rng import StreamRegistry

    weights = zipf_weights(len(fleet.mix), fleet.zipf_s)
    cumulative = []
    running = 0.0
    for w in weights:
        running += w
        cumulative.append(running)
    cumulative[-1] = 1.0  # guard the float tail
    # The empty ``none`` profile stamps nothing, so such a fleet shares
    # its shard keys with the same fleet run without a profile.
    faults = resolve_fault_profile(fleet.fault_profile)
    ues = []
    for index in range(fleet.ues):
        registry = StreamRegistry(fleet.seed).fork(f"ue:{index}")
        draw = registry.stream("archetype").random()
        rank = next(i for i, edge in enumerate(cumulative) if draw <= edge)
        archetype = fleet.mix[rank]
        overrides: dict = dict(
            seed=registry.seed,
            n_cycles=fleet.n_cycles,
            cycle_duration_s=fleet.cycle_duration_s,
        )
        if fleet.outage_eta is not None:
            overrides["outage_eta"] = fleet.outage_eta
        if fleet.handover_interval_s is not None:
            overrides["handover_interval_s"] = fleet.handover_interval_s
            overrides["handover_x2"] = fleet.handover_x2
        if fleet.quota_bytes is not None:
            overrides["quota_bytes"] = fleet.quota_bytes
        if faults is not None:
            overrides["faults"] = faults
        ues.append(
            UeSpec(
                index=index,
                archetype=archetype,
                seed=registry.seed,
                config=ARCHETYPES[archetype].with_(**overrides),
            )
        )
    return ues


def build_shards(fleet: FleetConfig, ues: list[UeSpec] | None = None) -> list[FleetShard]:
    """Cut the population into shards of ``fleet.shard_size`` UEs."""
    if ues is None:
        ues = assign_ues(fleet)
    shards = []
    for start in range(0, len(ues), fleet.shard_size):
        index = start // fleet.shard_size
        shards.append(
            FleetShard(
                index=index,
                seed=derive_seed(fleet.seed, f"shard:{index}"),
                ues=tuple(ues[start : start + fleet.shard_size]),
            )
        )
    return shards


# ------------------------------------------------------------------- codec


def ue_spec_to_dict(ue: UeSpec) -> dict:
    return {
        "index": ue.index,
        "archetype": ue.archetype,
        "seed": ue.seed,
        "config": config_to_dict(ue.config),
    }


def ue_spec_from_dict(
    data: dict,
    decode_faults: Callable[[dict], FaultSchedule] = FaultSchedule.from_dict,
) -> UeSpec:
    return UeSpec(
        index=int(data["index"]),
        archetype=data["archetype"],
        seed=int(data["seed"]),
        config=config_from_dict(data["config"], decode_faults),
    )


def shard_to_dict(shard: FleetShard) -> dict:
    return {
        "index": shard.index,
        "seed": shard.seed,
        "ues": [ue_spec_to_dict(ue) for ue in shard.ues],
    }


def shard_from_dict(data: dict) -> FleetShard:
    """Inverse of :func:`shard_to_dict`.

    Each distinct fault schedule is decoded once: UEs whose schedules
    encode alike share one frozen :class:`FaultSchedule`, as the UEs of a
    shard built by :func:`build_shards` share their profile's.
    """
    decoded: list[tuple[dict, FaultSchedule]] = []

    def decode_faults(encoded: dict) -> FaultSchedule:
        # Compared with the decoded schedule's own encoding, not with the
        # first UE's input: its names are strings and its numbers floats,
        # so equality means this input decodes to exactly that schedule.
        for canonical, schedule in decoded:
            if encoded == canonical:
                return schedule
        schedule = FaultSchedule.from_dict(encoded)
        decoded.append((schedule.to_dict(), schedule))
        return schedule

    return FleetShard(
        index=int(data["index"]),
        seed=int(data["seed"]),
        ues=tuple(ue_spec_from_dict(ue, decode_faults) for ue in data["ues"]),
    )


def fleet_shard_key(shard: FleetShard) -> str:
    """Content-addressed cache key: stable hash of the full shard spec.

    Embeds both codec versions, so a codec bump (either layer) retires
    every stale entry by key mismatch — same invalidation discipline as
    :func:`~repro.experiments.parallel.scenario_key`.
    """
    canonical = json.dumps(
        {
            "fleet_codec": FLEET_CODEC_VERSION,
            "codec": CODEC_VERSION,
            "shard": shard_to_dict(shard),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def shard_result_to_dict(result) -> dict:
    """Serialize a :class:`~repro.experiments.fleet_runner.FleetShardResult`."""
    return {
        "version": FLEET_CODEC_VERSION,
        "codec": CODEC_VERSION,
        "shard_index": result.shard_index,
        "ues": [
            {
                "index": ue.ue_index,
                "archetype": ue.archetype,
                "flow_id": ue.flow_id,
                "cycles": ue.cycles,
                "bitrate_bps": ue.offered_bitrate_bps,
                "mean_gap_mb_hr": {k: ue.mean_gap_mb_hr[k] for k in sorted(ue.mean_gap_mb_hr)},
                "mean_epsilon": {k: ue.mean_epsilon[k] for k in sorted(ue.mean_epsilon)},
                "mean_rounds": {k: ue.mean_rounds[k] for k in sorted(ue.mean_rounds)},
                "converged_cycles": {
                    k: ue.converged_cycles[k] for k in sorted(ue.converged_cycles)
                },
            }
            for ue in result.ues
        ],
        "metrics": result.metrics.to_dict(),
    }


def _simulate_shard_to_dict(shard_data: dict) -> dict:
    """Pool worker: decode the shard spec, simulate, encode the result."""
    from .fleet_runner import simulate_shard

    return shard_result_to_dict(simulate_shard(shard_from_dict(shard_data)))


# ------------------------------------------------------------- aggregation


class RunningStats:
    """Streaming moments over one quantity; fold order fixed by the caller."""

    __slots__ = ("n", "total", "sumsq", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.sumsq = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.n += 1
        self.total += value
        self.sumsq += value * value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    @property
    def std(self) -> float:
        if self.n < 2:
            return 0.0
        variance = max(0.0, self.sumsq / self.n - self.mean**2)
        return math.sqrt(variance)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "min": self.min if self.n else 0.0,
            "max": self.max if self.n else 0.0,
        }


@dataclass
class FleetResult:
    """The streamed aggregate of one fleet sweep."""

    config: FleetConfig
    population: int
    n_shards: int
    #: Per-scheme stats over every UE's mean gap (MB/hr).
    gap_stats: dict[str, RunningStats]
    #: Per-archetype UE counts and per-scheme mean-gap sums.
    archetype_counts: dict[str, int]
    archetype_gap_totals: dict[str, dict[str, float]]
    #: Per-scheme negotiated-cycle convergence counts (TLC schemes only).
    converged_cycles: dict[str, int]
    negotiated_cycles: dict[str, int]
    metrics: MetricsSnapshot
    report: RunReport = field(default_factory=RunReport)

    def mean_gap(self, scheme: str) -> float:
        """Fleet-wide mean of per-UE mean gaps (MB/hr)."""
        return self.gap_stats[scheme].mean

    def archetype_mean_gap(self, archetype: str, scheme: str) -> float:
        """Mean per-UE gap among one archetype's UEs (MB/hr)."""
        count = self.archetype_counts.get(archetype, 0)
        if count == 0:
            return 0.0
        return self.archetype_gap_totals[archetype][scheme] / count

    def convergence_ratio(self, scheme: str) -> float:
        """Share of negotiated cycles that settled before the round cap."""
        cycles = self.negotiated_cycles.get(scheme, 0)
        if cycles == 0:
            return 0.0
        return self.converged_cycles[scheme] / cycles

    def to_dict(self) -> dict:
        """Canonical encoding of the *aggregate* (engine provenance —
        worker count, cache hits — is deliberately excluded, so two runs
        of the same fleet compare bytes-equal however they executed)."""
        return {
            "config": self.config.to_dict(),
            "population": self.population,
            "shards": self.n_shards,
            "gap_stats": {k: self.gap_stats[k].to_dict() for k in sorted(self.gap_stats)},
            "archetypes": {
                name: {
                    "ues": self.archetype_counts[name],
                    "mean_gap_mb_hr": {
                        scheme: self.archetype_mean_gap(name, scheme)
                        for scheme in sorted(self.archetype_gap_totals[name])
                    },
                }
                for name in sorted(self.archetype_counts)
            },
            "convergence": {
                scheme: {
                    "cycles": self.negotiated_cycles[scheme],
                    "converged": self.converged_cycles[scheme],
                }
                for scheme in sorted(self.negotiated_cycles)
            },
            "metrics": self.metrics.to_dict(),
        }

    def render(self) -> str:
        """Human-readable fleet summary table."""
        lines = [
            f"fleet: {self.population} UEs in {self.n_shards} shards "
            f"(shard size {self.config.shard_size}, seed {self.config.seed}, "
            f"zipf s={self.config.zipf_s})",
            f"engine: {self.report.simulated} shards simulated, "
            f"{self.report.cached} cached",
            "",
            f"{'scheme':<14} {'mean Δ MB/hr':>13} {'std':>10} {'min':>10} "
            f"{'max':>10} {'converged':>10}",
        ]
        for scheme in SCHEMES:
            stats = self.gap_stats.get(scheme)
            if stats is None:
                continue
            conv = (
                f"{100.0 * self.convergence_ratio(scheme):9.1f}%"
                if scheme in self.negotiated_cycles
                else f"{'-':>10}"
            )
            lines.append(
                f"{scheme:<14} {stats.mean:>13.3f} {stats.std:>10.3f} "
                f"{stats.min:>10.3f} {stats.max:>10.3f} {conv}"
            )
        lines.append("")
        lines.append(f"{'archetype':<22} {'ues':>6} {'share':>7} "
                     f"{'legacy Δ':>10} {'optimal Δ':>10}")
        for name in self.config.mix:
            count = self.archetype_counts.get(name, 0)
            share = 100.0 * count / self.population if self.population else 0.0
            lines.append(
                f"{name:<22} {count:>6} {share:>6.1f}% "
                f"{self.archetype_mean_gap(name, 'legacy'):>10.3f} "
                f"{self.archetype_mean_gap(name, 'tlc-optimal'):>10.3f}"
            )
        return "\n".join(lines)


class FleetAccumulator:
    """Folds shard results into a fleet aggregate, in shard-index order.

    Shards may be *added* in any order (a parallel engine or a test may
    deliver them permuted); the accumulator buffers out-of-order arrivals
    and folds strictly by index, so float accumulation order — and hence
    the aggregate, bitwise — is independent of arrival order.  Memory is
    O(pending shards), which an in-order producer keeps at one.
    """

    def __init__(
        self,
        ue_sink: Callable[[dict], None] | None = None,
        shard_sink: Callable[[dict], None] | None = None,
    ) -> None:
        self._next = 0
        self._pending: dict[int, dict] = {}
        self._ue_sink = ue_sink
        self._shard_sink = shard_sink
        self.population = 0
        self.metrics = MetricsSnapshot()
        self.gap_stats: dict[str, RunningStats] = {}
        self.archetype_counts: dict[str, int] = {}
        self.archetype_gap_totals: dict[str, dict[str, float]] = {}
        self.converged_cycles: dict[str, int] = {}
        self.negotiated_cycles: dict[str, int] = {}

    def add(self, data: dict) -> None:
        """Accept one shard-result dict (any order; folds in index order)."""
        index = int(data["shard_index"])
        if index < self._next or index in self._pending:
            raise ValueError(f"shard {index} folded twice")
        self._pending[index] = data
        while self._next in self._pending:
            self._fold(self._pending.pop(self._next))
            self._next += 1

    def _fold(self, data: dict) -> None:
        if self._shard_sink is not None:
            # Called strictly in shard-index order, like the fold itself —
            # the streaming hook for per-shard settlement output.
            self._shard_sink(data)
        self.metrics.merge_in_place(
            MetricsSnapshot.from_dict(data["metrics"]), include_spans=False
        )
        for row in data["ues"]:
            self.population += 1
            archetype = row["archetype"]
            self.archetype_counts[archetype] = self.archetype_counts.get(archetype, 0) + 1
            totals = self.archetype_gap_totals.setdefault(archetype, {})
            for scheme in sorted(row["mean_gap_mb_hr"]):
                gap = row["mean_gap_mb_hr"][scheme]
                stats = self.gap_stats.get(scheme)
                if stats is None:
                    stats = self.gap_stats[scheme] = RunningStats()
                stats.observe(gap)
                totals[scheme] = totals.get(scheme, 0.0) + gap
            for scheme in sorted(row["converged_cycles"]):
                self.converged_cycles[scheme] = (
                    self.converged_cycles.get(scheme, 0) + row["converged_cycles"][scheme]
                )
                self.negotiated_cycles[scheme] = (
                    self.negotiated_cycles.get(scheme, 0) + row["cycles"]
                )
            if self._ue_sink is not None:
                self._ue_sink(row)

    def finalize(self, config: FleetConfig, report: RunReport) -> FleetResult:
        """Seal the aggregate; raises if any shard never arrived."""
        if self._pending:
            missing = self._next
            raise ValueError(
                f"fleet aggregation incomplete: shard {missing} missing, "
                f"{len(self._pending)} buffered out of order"
            )
        return FleetResult(
            config=config,
            population=self.population,
            n_shards=self._next,
            gap_stats=self.gap_stats,
            archetype_counts=self.archetype_counts,
            archetype_gap_totals=self.archetype_gap_totals,
            converged_cycles=self.converged_cycles,
            negotiated_cycles=self.negotiated_cycles,
            metrics=self.metrics,
            report=report,
        )


# ------------------------------------------------------------------ engine


def run_fleet(
    fleet: FleetConfig,
    workers: int | None = None,
    cache: ResultCache | None | bool = True,
    report: RunReport | None = None,
    ue_sink: Callable[[dict], None] | None = None,
) -> FleetResult:
    """Run a fleet sweep, streaming shard results into one aggregate.

    :func:`~repro.experiments.parallel.cached_results` serves the shards
    (by shard key) from the cache or simulates them, and yields them in
    shard-index order, so the aggregate is bit-identical across worker
    counts and cache states and peak memory stays O(shard size), not
    O(population).  ``workers``, ``cache`` and ``report`` are passed
    through.  ``ue_sink``, if given, receives every per-UE summary row
    in UE-index order — the streaming hook for per-UE CSV export.
    """
    shards = build_shards(fleet)
    keys = [fleet_shard_key(shard) for shard in shards]
    report = report if report is not None else RunReport()
    accumulator = FleetAccumulator(ue_sink=ue_sink)
    for data in cached_results(
        _simulate_shard_to_dict, shard_to_dict, shards, keys, workers, cache, report
    ):
        accumulator.add(data)
    return accumulator.finalize(fleet, report)
