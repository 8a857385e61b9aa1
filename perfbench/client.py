"""The benchmark's own open-loop claim client for the reconciliation service.

The client submits a fixed claim stream at fixed virtual arrival times.  Every
arrival is an event on the service's own loop, so the generator is never late:
a slow service shows as queueing latency, never as a late client.  Arrivals
come in stream order, ``SLOT_CLAIMS`` to a slot, at seeded uniform offsets
within their slot.  The slot length puts the workers at ``UTILIZATION``
and every vendor under its token-bucket refill, so claims queue behind each
other (the latency percentiles move with scheduling) while at most two slots'
worth can ever be waiting: a healthy service refuses nothing.

One settlement pass (:func:`settle_pass`) runs the stream through a fresh
service to a sealed ledger, cuts a copy of that ledger at 90 % of its bytes (a
crash), resumes a second fresh service from the copy and resubmits, under their
original ids, the claims that neither the resume settled nor re-queued.  The
pass measures both halves and checks their outputs.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.plan import DataPlan
from repro.core.strategies import OptimalStrategy, PartyKnowledge, PartyRole
from repro.crypto import generate_keypair
from repro.experiments.fleet import FleetConfig, build_shards, shard_to_dict
from repro.experiments.parallel import ResultCache, derive_seed
from repro.netsim.events import EventLoop
from repro.poc.messages import PlanParams
from repro.poc.protocol import NegotiationDriver
from repro.service import (
    LATENCY_EDGES,
    ReconciliationService,
    ServiceConfig,
    SettlementLedger,
    make_poc_claim,
)

#: Share of the sealed ledger's bytes that survives the simulated crash.
CUT_SHARE = 0.9
#: Claims per arrival slot; two slots' worth stays under the queue depth.
SLOT_CLAIMS = 4
#: Worker utilization the arrival slots aim at.
UTILIZATION = 0.75
#: Headroom between a vendor's arrival rate and its token-bucket refill.
HEADROOM = 1.25


class CheckFailed(AssertionError):
    """An output check failed; the benchmark run must not report numbers."""


@dataclass
class ClaimStream:
    """One fleet's claims in arrival order."""

    fleet: FleetConfig
    claims: list[dict]
    vendors: int
    vendor_keys: dict
    #: UE-cycles each claim settles (0 for a PoC receipt).
    ue_cycles: list[int]


@dataclass
class PassStats:
    """What one settlement pass measured and counted."""

    ingest_cpu_s: float
    recovery_cpu_s: float
    settled: int
    settled_ue_cycles: int
    latency_counts: list[int]
    attempted: int
    failed: int
    resubmitted: int
    hit_memory: int
    hit_disk: int
    miss: int
    simulated: int


def arrival_times(stream: ClaimStream, config: ServiceConfig, replay: int) -> list[float]:
    """Virtual arrival time of each claim in one replay of ``stream``."""
    work = {"shard": config.shard_service_time_s, "poc": config.poc_service_time_s}
    mean_work = sum(work[claim["kind"]] for claim in stream.claims) / len(stream.claims)
    slot = SLOT_CLAIMS * max(
        mean_work / (config.workers * UTILIZATION),
        HEADROOM / (config.vendor_rate_hz * stream.vendors),
    )
    rng = random.Random(derive_seed(stream.fleet.seed, f"perfbench-arrivals:{replay}"))
    # Claims go out in stream order, so every replay lays out its ledger alike
    # and the 90 % cut loses comparable work.
    return sorted((i // SLOT_CLAIMS + rng.random()) * slot for i in range(len(stream.claims)))


@dataclass(frozen=True)
class Keys:
    """RSA-1024 keys: the operator's and the edge platforms' (vendors
    sign with edge key ``vendor % len(edges)``)."""

    operator: object
    edges: tuple

    @classmethod
    def generate(cls, seed: int, edges: int) -> "Keys":
        rng = random.Random(derive_seed(seed, "perfbench-keys"))
        operator = generate_keypair(1024, rng)
        return cls(operator, tuple(generate_keypair(1024, rng) for _ in range(edges)))


def build_stream(
    fleet: FleetConfig, config: ServiceConfig, keys: Keys, vendors: int
) -> ClaimStream:
    """One shard claim and one PoC receipt per shard, each receipt
    negotiated here with :class:`NegotiationDriver` over fresh nonces."""
    rng = random.Random(derive_seed(fleet.seed, "perfbench-client"))
    names = [f"vendor-{v}" for v in range(vendors)]
    plan = DataPlan(c=config.plan_c, cycle_duration_s=config.cycle_duration_s)
    params = PlanParams(0.0, config.cycle_duration_s, config.plan_c)
    claims: list[dict] = []
    ue_cycles: list[int] = []
    for shard in build_shards(fleet):
        v = shard.index % vendors
        claims.append(
            {
                "id": f"shard-{shard.index}",
                "vendor": names[v],
                "kind": "shard",
                "shard": shard_to_dict(shard),
            }
        )
        ue_cycles.append(len(shard.ues) * fleet.n_cycles)
        edge_claim = rng.randint(500_000, 2_000_000)
        operator_claim = int(edge_claim * rng.uniform(0.9, 1.0))
        driver = NegotiationDriver(
            plan,
            0.0,
            OptimalStrategy(PartyKnowledge(PartyRole.EDGE, edge_claim, operator_claim)),
            OptimalStrategy(PartyKnowledge(PartyRole.OPERATOR, operator_claim, edge_claim)),
            keys.edges[v % len(keys.edges)],
            keys.operator,
            random.Random(rng.getrandbits(64)),
        )
        claims.append(make_poc_claim(f"poc-{shard.index}", names[v], driver.run().poc, params))
        ue_cycles.append(0)
    vendor_keys = {
        name: (keys.edges[v % len(keys.edges)].public, keys.operator.public)
        for v, name in enumerate(names)
    }
    return ClaimStream(fleet, claims, vendors, vendor_keys, ue_cycles)


def _schedule(service: ReconciliationService, claims: list[dict], times: list[float],
              refused: set) -> None:
    """Arrivals as loop events, shifted so the first one is at t = 0."""
    if not claims:
        return
    t0 = min(times)

    def submit(claim: dict) -> None:
        if not service.submit(claim).accepted:
            refused.add(claim["id"])

    for claim, t in zip(claims, times):
        service.loop.schedule_at(t - t0, submit, claim)


def _seal(service: ReconciliationService, fleet: FleetConfig) -> dict:
    """Drain, close, append the aggregate line and seal the ledger."""
    service.drain()
    service.close()
    try:
        result = service.fleet_result(fleet).to_dict()
    except ValueError as exc:
        raise CheckFailed(f"served fleet is incomplete: {exc}") from exc
    service.ledger.write({"type": "aggregate", "fleet": result})
    service.ledger.close()
    return result


def _durable_accepted_ids(data: bytes) -> set[str]:
    """Claim ids the journal prefix holds as accepted (the client's view)."""
    ids = set()
    for line in data.decode(errors="replace").split("\n"):
        try:
            record = json.loads(line)
        except ValueError:
            continue  # the torn tail
        if record.get("type") == "accepted":
            ids.add(record["id"])
    return ids


def settle_pass(
    stream: ClaimStream,
    times: list[float],
    cache: ResultCache,
    workdir: Path,
    config: ServiceConfig,
    expected: dict,
) -> PassStats:
    """Serve ``stream`` uninterrupted, then crash, resume and finish it.

    Raises :class:`CheckFailed` unless the served aggregate equals
    ``expected`` (the batch aggregate), the resumed settlement view equals
    the uninterrupted one byte for byte, nothing was simulated and no worker
    crashed.  Claims refused, rejected or left unsettled count as failed.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "ledger.jsonl"
    refused: set[str] = set()
    first = ReconciliationService(
        loop=EventLoop(),
        config=config,
        disk_cache=cache,
        ledger=SettlementLedger(path),
        vendor_keys=stream.vendor_keys,
    )
    first.start()
    _schedule(first, stream.claims, times, refused)
    start = time.process_time()
    served = _seal(first, stream.fleet)
    ingest_cpu_s = time.process_time() - start

    data = path.read_bytes()
    cut = workdir / "ledger.cut.jsonl"
    cut.write_bytes(data[: int(len(data) * CUT_SHARE)])
    durable = _durable_accepted_ids(cut.read_bytes())
    lost = [i for i, claim in enumerate(stream.claims) if claim["id"] not in durable]

    start = time.process_time()
    resumed = ReconciliationService.resume(
        cut,
        loop=EventLoop(),
        config=config,
        disk_cache=cache,
        vendor_keys=stream.vendor_keys,
    )
    resumed.start()
    _schedule(resumed, [stream.claims[i] for i in lost], [times[i] for i in lost], refused)
    resumed_aggregate = _seal(resumed, stream.fleet)
    recovery_cpu_s = time.process_time() - start

    if served != expected or resumed_aggregate != expected:
        raise CheckFailed("served FleetResult differs from the batch aggregate")
    if resumed.ledger.text() != first.ledger.text():
        raise CheckFailed("resumed settlement view differs from the uninterrupted one")
    services = (first, resumed)
    for service in services:
        if service.report.simulated:
            raise CheckFailed(f"service simulated {service.report.simulated} shards")
        if service.crashed_workers():
            raise CheckFailed(f"service workers crashed: {service.crashed_workers()}")
    # An unsettled shard claim already failed the aggregate check above; a
    # refused, rejected or unsettled receipt is a failed operation.
    unsettled = {
        claim["id"] for claim in stream.claims if not resumed.is_settled(claim["id"])
    }
    unclaimed = {
        record["id"]
        for service in services
        for record in service.ledger.journal_records()
        if record["type"] == "unclaimed"
    }

    settled_first = [first.is_settled(claim["id"]) for claim in stream.claims]
    latency_counts = [0] * (len(LATENCY_EDGES) + 1)
    for kind in ("shard", "poc"):
        histogram = first.metrics.histogram("service.latency", LATENCY_EDGES, kind=kind)
        latency_counts = [a + b for a, b in zip(latency_counts, histogram.counts)]
    return PassStats(
        ingest_cpu_s=ingest_cpu_s,
        recovery_cpu_s=recovery_cpu_s,
        settled=sum(settled_first),
        settled_ue_cycles=sum(
            cycles for cycles, ok in zip(stream.ue_cycles, settled_first) if ok
        ),
        latency_counts=latency_counts,
        attempted=len(stream.claims),
        failed=len(refused | unclaimed | unsettled),
        resubmitted=len(lost),
        hit_memory=sum(service.cache.hits_memory for service in services),
        hit_disk=sum(service.cache.hits_disk for service in services),
        miss=sum(service.cache.misses for service in services),
        simulated=sum(service.report.simulated for service in services),
    )
