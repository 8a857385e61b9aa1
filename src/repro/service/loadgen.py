"""The fleet engine as a load generator for the reconciliation service.

:func:`replay_fleet` takes the same :class:`~repro.experiments.fleet.FleetConfig`
the batch engine runs in one shot and replays it as sustained claim
traffic: every shard becomes one logical *shard claim*, submitted by a
simulated vendor client in passes.  Pass 0 spreads the claims over
``duration_s``.  Within a pass, a submission the client sees fail at
once — lost in ingestion, or rejected at the door (rate limiting,
backpressure) — is resubmitted after a gap that grows by
:data:`RESUBMIT_GAP_S` per attempt, at most :data:`MAX_ATTEMPTS` times,
which waits out a blackout or an overload without holding a claim back
until the pass ends.  After each pass the service drains, and every
claim still unsettled — rejected by a worker, or out of attempts — is
resubmitted in the next pass, :data:`RESUBMIT_GAP_S` apart, for at most
:data:`MAX_WAVES` passes.

:func:`resume_fleet_replay` is the crash-recovery twin: it rebuilds the
service from a killed run's on-disk ledger journal
(:meth:`~repro.service.service.ReconciliationService.resume`), drains
whatever the journal re-enqueued, then runs the same resubmission
passes until the fleet settles.  The resulting settlement view and
aggregate are byte-identical to an uninterrupted run's.

An optional :class:`~repro.netsim.faults.FaultSchedule` degrades the
ingestion path itself: a :class:`~repro.netsim.faults.FaultInjector`'s
decider for the ``uplink`` injection point gives each submission its
fate.  A ``corrupt`` drop submits a mangled payload, any other drop
loses the submission, ``dup`` submits a copy after the drawn delay and
``delay`` submits late.  The injector draws from a stream forked off
``StreamRegistry(fleet.seed)``, so a chaotic replay reproduces exactly
from the fleet seed.

The differential contract: when every claim settles, the returned
:class:`~repro.experiments.fleet.FleetResult` is bit-identical to
``run_fleet(fleet)``'s, whatever the worker count, pool size, fault
schedule, cache temperature — or how often the service was killed and
resumed along the way.
"""

from __future__ import annotations

import math
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
from ..netsim.faults import FaultInjector, FaultSchedule
from ..netsim.rng import StreamRegistry
from ..obs.metrics import MetricsRegistry
from .service import ReconciliationService, ServiceConfig, SettlementLedger

#: Where the ingestion path lives in fault-target space.  Named so the
#: canned profiles (``chaos`` duplicates "uplink" frames and loses
#: "*link*" traffic) hit the service's front door unmodified.
INGEST_POINT = "uplink"

#: Virtual seconds between two submissions of a later pass, and the
#: step by which the gap before an in-pass resubmission grows.
RESUBMIT_GAP_S = 0.25

#: In-pass resubmissions of one claim (spanning 19.5 virtual s) before
#: it waits for the next pass.
MAX_ATTEMPTS = 12

#: Resubmission passes after pass 0 before the client gives up.
MAX_WAVES = 8


@dataclass(frozen=True)
class ReplayConfig:
    """Client-side settings for one fleet replay."""

    duration_s: float = 60.0
    vendors: int = 4
    ingest_faults: FaultSchedule | None = None

    def __post_init__(self) -> None:
        if not 0 < self.duration_s < math.inf:
            raise ValueError(
                f"replay duration must be positive and finite, got {self.duration_s}"
            )
        if self.vendors < 1:
            raise ValueError(f"need at least one vendor, got {self.vendors}")


@dataclass
class ReplayStats:
    """What the load generator observed (client-side view)."""

    submitted: int = 0       # physical submissions, fault-minted copies included
    accepted: int = 0        # admissions the service said yes to
    retries: int = 0         # submissions of a claim after its first
    lost: int = 0            # submissions the ingest faults swallowed
    corrupted: int = 0       # submissions mangled in flight
    duplicated: int = 0      # extra copies the ingest faults minted
    waves: int = 0           # resubmission passes that were needed
    dropped: int = 0         # logical claims never settled (should be 0)
    rejected: dict[str, int] = field(default_factory=dict)

    def note_rejected(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1


class _ReplayDriver:
    """The vendor client shared by fresh and resumed replays."""

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
        self.stats = stats
        # A resumed client must not reuse physical ids the dead run may
        # already have burned; the salt keeps id streams disjoint.
        self.id_salt = id_salt
        self.vendors = replay.vendors
        self.injector = self.decide = None
        if replay.ingest_faults is not None:
            self.injector = FaultInjector(
                self.loop,
                StreamRegistry(fleet.seed).fork("service-replay"),
                replay.ingest_faults,
            )
            self.decide = self.injector.decider(INGEST_POINT)
        # ref -> shard; its claim payload is built at each submission, so
        # a corruption fault never sticks past one and only claims in
        # flight hold a payload.
        self.shards = {f"shard-{shard.index}": shard for shard in build_shards(fleet)}
        self.refs = list(self.shards)

    def fresh_id(self, ref: str) -> str:
        # Globally unique physical id per submission; the logical
        # identity rides in "ref".
        return f"{ref}#{self.id_salt}{self.stats.submitted}"

    def payload(self, ref: str) -> dict:
        """A fresh claim for the logical claim ``ref``, without its id."""
        shard = self.shards[ref]
        return {
            "ref": ref,
            "vendor": f"vendor-{shard.index % self.vendors}",
            "kind": "shard",
            "shard": shard_to_dict(shard),
        }

    def mangle(self, claim: dict) -> dict:
        bad = dict(claim)
        # An in-flight bit flip, CRC-style: the payload still parses as
        # JSON but the shard spec no longer decodes.
        bad["shard"] = {"index": claim["shard"]["index"], "seed": "corrupt"}
        return bad

    def submit(self, ref: str, attempt: int = 0) -> None:
        """Submission ``attempt`` of the logical claim ``ref`` in this pass."""
        stats, loop = self.stats, self.loop
        if self.service.is_settled(ref):
            return
        if attempt:
            stats.retries += 1
        claim = self.payload(ref)
        claim["id"] = self.fresh_id(ref)
        stats.submitted += 1
        action, delay = (None, 0.0) if self.decide is None else self.decide(loop.now())
        if action == "drop:corrupt":
            stats.corrupted += 1
            claim = self.mangle(claim)
        elif action == "dup":
            # A fault-minted copy is fire-and-forget: the original's
            # resubmissions own recovery for this ref.
            stats.duplicated += 1
            stats.submitted += 1
            loop.schedule(delay, self.send, dict(claim, id=claim["id"] + "+dup"))
        elif action == "delay":
            loop.schedule(delay, self.send, claim, ref, attempt)
            return
        elif action is not None:
            stats.lost += 1
            self.resubmit(ref, attempt)
            return
        self.send(claim, ref, attempt)

    def send(self, claim: dict, ref: str | None = None, attempt: int = 0) -> None:
        admission = self.service.submit(claim)
        if admission.accepted:
            self.stats.accepted += 1
            return
        self.stats.note_rejected(admission.reason)
        if ref is not None:
            self.resubmit(ref, attempt)

    def resubmit(self, ref: str, attempt: int) -> None:
        """Try ``ref`` again later in this pass, while attempts remain."""
        if attempt < MAX_ATTEMPTS:
            self.loop.schedule(
                RESUBMIT_GAP_S * (attempt + 1), self.submit, ref, attempt + 1
            )

    def run(self, refs: list[str], gap_s: float) -> None:
        """Pass 0 submits ``refs`` ``gap_s`` apart; each later pass, after
        the service drains, resubmits every claim still unsettled."""
        for wave in range(MAX_WAVES + 1):
            if wave:
                refs = [ref for ref in self.refs if not self.service.is_settled(ref)]
                if not refs:
                    break
                self.stats.waves += 1
                self.stats.retries += len(refs)
                gap_s = RESUBMIT_GAP_S
            for i, ref in enumerate(refs):
                self.loop.schedule(i * gap_s, self.submit, ref)
            self.service.drain()

    def finish(self, fleet: FleetConfig) -> FleetResult | None:
        if self.injector is not None:
            # Its cached decider refers back to it.
            self.injector.close()
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

    ``result`` is None only if some claim never settled within
    :data:`MAX_WAVES` resubmission passes — ``stats.dropped`` then says
    how many.
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
    driver.run(driver.refs, replay.duration_s / len(driver.refs))
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
    resubmission passes then resubmit any logical claim still open.  When
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
    driver.run([], 0.0)  # pass 0 settles whatever the journal re-enqueued
    result = driver.finish(fleet)
    return result, stats, service
