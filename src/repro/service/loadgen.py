"""The fleet engine as a load generator for the reconciliation service.

:func:`replay_fleet` takes the same :class:`~repro.experiments.fleet.FleetConfig`
the batch engine runs in one shot and replays it as sustained claim
traffic: every shard becomes one logical *shard claim*, submitted by a
simulated vendor client that spreads arrivals over ``duration_s``,
retries synchronous rejections (rate limiting, backpressure) with a
deterministic backoff, and — after the loop drains — resubmits any claim
the workers rejected (*recovery waves*) until the fleet is fully
settled or the wave budget runs out.

:func:`resume_fleet_replay` is the crash-recovery twin: it rebuilds the
service from a killed run's on-disk ledger journal
(:meth:`~repro.service.service.ReconciliationService.resume`), drains
whatever the journal re-enqueued, then drives the same recovery waves
until the fleet settles.  The resulting settlement view and aggregate
are byte-identical to an uninterrupted run's.

An optional :class:`~repro.netsim.faults.FaultSchedule` degrades the
ingestion path itself: specs targeting the ``uplink`` injection point
drop (``burst-loss``/``blackout``), mangle (``corrupt``) or duplicate
(``duplicate``) submissions, with every probabilistic decision drawn
from one named stream of ``StreamRegistry(fleet.seed)`` — so a chaotic
replay reproduces exactly from the fleet seed.

The differential contract: when every claim settles, the returned
:class:`~repro.experiments.fleet.FleetResult` is bit-identical to
``run_fleet(fleet)``'s, whatever the worker count, pool size, fault
schedule, cache temperature — or how often the service was killed and
resumed along the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..experiments.fleet import (
    FleetConfig,
    FleetResult,
    build_shards,
    shard_to_dict,
)
from ..experiments.parallel import ResultCache
from ..netsim.events import EventLoop
from ..netsim.faults import (
    BLACKOUT,
    BURST_LOSS,
    CORRUPT,
    DUPLICATE,
    FaultSchedule,
)
from ..netsim.rng import StreamRegistry
from ..obs.metrics import MetricsRegistry
from .service import ReconciliationService, ServiceConfig, SettlementLedger

#: Where the ingestion path lives in fault-target space.  Named so the
#: canned profiles (``chaos`` duplicates "uplink" frames and loses
#: "*link*" traffic) hit the service's front door unmodified.
INGEST_POINT = "uplink"

_INGEST_KINDS = (BURST_LOSS, BLACKOUT, CORRUPT, DUPLICATE)

#: Admission rejections worth retrying from the client side; everything
#: else is a terminal verdict on this submission.
_RETRYABLE = frozenset({"rate-limited", "backpressure"})


@dataclass(frozen=True)
class ReplayConfig:
    """Client-side knobs for one fleet replay."""

    duration_s: float = 60.0
    vendors: int = 4
    retry_backoff_s: float = 0.25
    max_attempts: int = 12
    max_waves: int = 8
    ingest_faults: FaultSchedule | None = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"replay duration must be positive, got {self.duration_s}")
        if self.vendors < 1:
            raise ValueError(f"need at least one vendor, got {self.vendors}")
        for name in ("retry_backoff_s", "max_attempts", "max_waves"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass
class ReplayStats:
    """What the load generator observed (client-side view)."""

    submitted: int = 0       # physical submissions that reached the wire
    accepted: int = 0        # admissions the service said yes to
    retries: int = 0         # client-side resubmissions after sync rejection
    lost: int = 0            # submissions the ingest faults swallowed
    corrupted: int = 0       # submissions mangled in flight
    duplicated: int = 0      # extra copies the ingest faults minted
    waves: int = 0           # recovery waves that were needed
    dropped: int = 0         # logical claims never settled (should be 0)
    rejected: dict[str, int] = field(default_factory=dict)

    def note_rejected(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1


class _ReplayDriver:
    """The vendor-client machinery shared by fresh and resumed replays."""

    def __init__(
        self,
        service: ReconciliationService,
        fleet: FleetConfig,
        replay: ReplayConfig,
        stats: ReplayStats,
        id_salt: str = "",
    ) -> None:
        self.service = service
        self.loop = service.loop
        self.replay = replay
        self.stats = stats
        # A resumed client must not reuse physical ids the dead run may
        # already have burned; the salt keeps id streams disjoint.
        self.id_salt = id_salt
        registry = StreamRegistry(fleet.seed).fork("service-replay")
        self.fault_rng = registry.stream("ingest-faults")
        faults = replay.ingest_faults
        self.faults = None if (faults is None or faults.is_empty) else faults
        # ref -> pristine claim payload (retries always restart from
        # this, so a corruption fault never sticks past one submission).
        self.payloads: dict[str, dict] = {}
        self.refs: list[str] = []
        for shard in build_shards(fleet):
            ref = f"shard-{shard.index}"
            self.refs.append(ref)
            self.payloads[ref] = {
                "ref": ref,
                "vendor": f"vendor-{shard.index % replay.vendors}",
                "kind": "shard",
                "shard": shard_to_dict(shard),
            }

    def fresh_id(self, ref: str) -> str:
        # Globally unique physical id per submission; the logical
        # identity rides in "ref".
        return f"{ref}#{self.id_salt}{self.stats.submitted}"

    def mangle(self, claim: dict) -> dict:
        bad = dict(claim)
        # An in-flight bit flip, CRC-style: the payload still parses as
        # JSON but the shard spec no longer decodes.
        bad["shard"] = {"index": claim["shard"]["index"], "seed": "corrupt"}
        return bad

    def deliver(self, ref: str, attempt: int) -> None:
        """One physical submission attempt for the logical claim ``ref``."""
        service, stats, replay, loop = self.service, self.stats, self.replay, self.loop
        if service.is_settled(ref):
            return
        if attempt > replay.max_attempts:
            return  # give up this wave; a recovery wave may pick it up
        claim = dict(self.payloads[ref])
        claim["id"] = self.fresh_id(ref)
        stats.submitted += 1
        if self.faults is not None:
            now = loop.now()
            for spec in self.faults.active_specs(_INGEST_KINDS, INGEST_POINT, now):
                if spec.kind in (BURST_LOSS, BLACKOUT):
                    p = spec.magnitude if spec.kind == BURST_LOSS else 1.0
                    if self.fault_rng.random() < p:
                        stats.lost += 1
                        # Same guard as the _RETRYABLE admission path: a
                        # retry past max_attempts would be dropped by the
                        # top-of-deliver check, so scheduling it (and
                        # counting it) would overstate stats.retries.
                        if attempt < replay.max_attempts:
                            stats.retries += 1
                            loop.schedule(
                                replay.retry_backoff_s * (attempt + 1),
                                self.deliver, ref, attempt + 1,
                            )
                        return
                elif spec.kind == CORRUPT:
                    if self.fault_rng.random() < spec.magnitude:
                        stats.corrupted += 1
                        claim = self.mangle(claim)
                elif spec.kind == DUPLICATE:
                    if self.fault_rng.random() < spec.magnitude:
                        stats.duplicated += 1
                        copy = dict(claim)
                        copy["id"] = claim["id"] + "+dup"
                        loop.schedule(
                            max(spec.jitter_s, 0.0), self.submit_copy, copy
                        )
        admission = service.submit(claim)
        if admission.accepted:
            stats.accepted += 1
            return
        stats.note_rejected(admission.reason)
        if admission.reason in _RETRYABLE and attempt < replay.max_attempts:
            stats.retries += 1
            loop.schedule(
                replay.retry_backoff_s * (attempt + 1), self.deliver, ref, attempt + 1
            )

    def submit_copy(self, claim: dict) -> None:
        # Fault-minted duplicates are fire-and-forget: the original's
        # retry machinery owns recovery for this ref.
        self.stats.submitted += 1
        admission = self.service.submit(claim)
        if admission.accepted:
            self.stats.accepted += 1
        else:
            self.stats.note_rejected(admission.reason)

    def spread_initial(self) -> None:
        spacing = self.replay.duration_s / len(self.refs) if self.refs else 0.0
        for i, ref in enumerate(self.refs):
            self.loop.schedule(i * spacing, self.deliver, ref, 0)

    def run_recovery_waves(self) -> None:
        # Anything a worker rejected (corrupted payload, duplicate
        # race, ...) gets resubmitted from the pristine payload.
        for _ in range(self.replay.max_waves):
            unsettled = [
                ref for ref in self.refs if not self.service.is_settled(ref)
            ]
            if not unsettled:
                break
            self.stats.waves += 1
            for j, ref in enumerate(unsettled):
                self.loop.schedule(
                    j * self.replay.retry_backoff_s, self.deliver, ref, 0
                )
            self.service.drain()

    def finish(self, fleet: FleetConfig) -> FleetResult | None:
        unsettled = [ref for ref in self.refs if not self.service.is_settled(ref)]
        self.stats.dropped = len(unsettled)
        self.service.close()
        result: FleetResult | None = None
        if not unsettled:
            result = self.service.fleet_result(fleet)
            self.service.ledger.write(
                {"type": "aggregate", "fleet": result.to_dict()}
            )
        self.service.ledger.close()
        return result


def replay_fleet(
    fleet: FleetConfig,
    replay: ReplayConfig | None = None,
    service_config: ServiceConfig | None = None,
    disk_cache: ResultCache | None = None,
    ledger: SettlementLedger | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[FleetResult | None, ReplayStats, ReconciliationService]:
    """Replay ``fleet`` as claim traffic; returns (result, stats, service).

    ``result`` is None only if some claim never settled within the wave
    budget — ``stats.dropped`` then says how many.
    """
    replay = replay if replay is not None else ReplayConfig()
    service = ReconciliationService(
        loop=EventLoop(),
        config=service_config,
        disk_cache=disk_cache,
        ledger=ledger,
        metrics=metrics,
    )
    service.start()
    driver = _ReplayDriver(service, fleet, replay, ReplayStats())
    driver.spread_initial()
    service.drain()
    driver.run_recovery_waves()
    result = driver.finish(fleet)
    return result, driver.stats, service


def resume_fleet_replay(
    fleet: FleetConfig,
    ledger_path: str | Path,
    replay: ReplayConfig | None = None,
    service_config: ServiceConfig | None = None,
    disk_cache: ResultCache | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[FleetResult | None, ReplayStats, ReconciliationService]:
    """Resume a killed replay of ``fleet`` from its on-disk ledger.

    The journal rebuild settles whatever was accepted but unfinished;
    recovery waves then resubmit any logical claim still open.  When
    everything settles, the final ledger file, settlement view and
    aggregate are byte-identical to an uninterrupted ``replay_fleet``
    run against the same configuration.
    """
    replay = replay if replay is not None else ReplayConfig()
    service = ReconciliationService.resume(
        ledger_path,
        loop=EventLoop(),
        config=service_config,
        disk_cache=disk_cache,
        metrics=metrics,
    )
    service.start()
    stats = ReplayStats()
    # len(_accepted_ids) grows monotonically across incarnations, so
    # each resume salts its id stream differently — including a resume
    # of a resume — and never collides with ids the journal recorded.
    salt = f"r{len(service._accepted_ids)}."
    driver = _ReplayDriver(service, fleet, replay, stats, id_salt=salt)
    service.drain()  # settle whatever the journal re-enqueued
    driver.run_recovery_waves()
    result = driver.finish(fleet)
    return result, stats, service
