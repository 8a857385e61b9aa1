"""A finished reconciliation service frees itself.

The accumulator's sinks hold the ledger, not the service; a span shares
only its clock and the open-span count with its recorder; a replay
client closes its ingest fault injector; a lost worker's error keeps no
frames.  So once the caller drops a sealed service, live or resumed,
reference counting frees it together with its ledger lines, journal
lines and spans: the cyclic collector finds nothing left.
"""

import json
import random

import pytest

from repro.core.plan import DataPlan
from repro.core.strategies import OptimalStrategy, PartyKnowledge, PartyRole
from repro.crypto import generate_keypair
from repro.experiments.fleet import FleetConfig, build_shards, shard_to_dict
from repro.netsim.events import EventLoop
from repro.netsim.faults import FAULT_PROFILES
from repro.poc.messages import PlanParams
from repro.poc.protocol import NegotiationDriver
from repro.service import (
    ReconciliationService,
    ReplayConfig,
    ServiceConfig,
    SettlementLedger,
    make_poc_claim,
    replay_fleet,
    resume_fleet_replay,
)

from ..experiments.test_shard_teardown import _cyclic_garbage

FLEET = FleetConfig(ues=8, shard_size=2, seed=5, n_cycles=1, cycle_duration_s=10.0)
REPLAY = ReplayConfig(duration_s=10.0)
PARAMS = PlanParams(0.0, 3600.0, 0.5)


@pytest.fixture(scope="module")
def stream():
    """One shard claim and one PoC receipt per shard, with vendor keys."""
    edge, operator = (generate_keypair(512, random.Random(seed)) for seed in (7, 8))
    plan = DataPlan(c=PARAMS.c, cycle_duration_s=PARAMS.t_end)
    claims = []
    for shard in build_shards(FLEET):
        claims.append(
            {"id": f"shard-{shard.index}", "vendor": "v0", "kind": "shard",
             "shard": shard_to_dict(shard)}
        )
        edge_claim = 1_000_000 + shard.index
        driver = NegotiationDriver(
            plan,
            0.0,
            OptimalStrategy(PartyKnowledge(PartyRole.EDGE, edge_claim, 930_000)),
            OptimalStrategy(PartyKnowledge(PartyRole.OPERATOR, 930_000, edge_claim)),
            edge,
            operator,
            random.Random(shard.index),
        )
        claims.append(make_poc_claim(f"poc-{shard.index}", "v0", driver.run().poc, PARAMS))
    return claims, {"v0": (edge.public, operator.public)}


def _seal(service: ReconciliationService, claims: list[dict]) -> None:
    """Submit ``claims`` one per 0.1 virtual s, drain, close, append the
    aggregate and seal the ledger."""
    service.start()
    for i, claim in enumerate(claims):
        service.loop.schedule_at(0.1 * i, service.submit, claim)
    service.drain()
    service.close()
    result = service.fleet_result(FLEET)
    service.ledger.write({"type": "aggregate", "fleet": result.to_dict()})
    service.ledger.close()


def test_settle_pass_with_cut_and_resume_leaves_no_cyclic_garbage(stream, tmp_path):
    """Serve to a sealed ledger, cut it at 90 %, resume, resubmit, seal."""
    claims, vendor_keys = stream
    path, cut = tmp_path / "ledger.jsonl", tmp_path / "ledger.cut.jsonl"

    def run():
        first = ReconciliationService(
            loop=EventLoop(), ledger=SettlementLedger(path), vendor_keys=vendor_keys
        )
        _seal(first, claims)
        data = path.read_bytes()
        cut.write_bytes(data[: int(len(data) * 0.9)])
        durable = {
            json.loads(line)["id"]
            for line in cut.read_text().splitlines()[:-1]
            if '"type":"accepted"' in line
        }
        resumed = ReconciliationService.resume(
            cut, loop=EventLoop(), vendor_keys=vendor_keys
        )
        _seal(resumed, [claim for claim in claims if claim["id"] not in durable])
        assert resumed.ledger.text() == first.ledger.text()
        assert resumed.settled_count() == first.settled_count() == len(claims)

    assert _cyclic_garbage(run) == (0, 0)


@pytest.mark.parametrize(
    "replay",
    [REPLAY, ReplayConfig(duration_s=10.0, ingest_faults=FAULT_PROFILES["chaos"])],
    ids=["plain", "chaos-ingest"],
)
def test_replay_leaves_no_cyclic_garbage(replay):
    def run():
        result, stats, _ = replay_fleet(FLEET, replay)
        assert result is not None and stats.dropped == 0

    assert _cyclic_garbage(run) == (0, 0)


def test_resumed_replay_leaves_no_cyclic_garbage(tmp_path):
    path, cut = tmp_path / "ledger.jsonl", tmp_path / "cut.jsonl"
    replay_fleet(FLEET, REPLAY, ledger=SettlementLedger(path))
    data = path.read_bytes()
    cut.write_bytes(data[: len(data) // 2])

    def run():
        result, stats, _ = resume_fleet_replay(FLEET, cut, REPLAY)
        assert result is not None and stats.dropped == 0

    assert _cyclic_garbage(run) == (0, 0)


def test_pooled_replay_leaves_no_cyclic_garbage():
    def run():
        result, stats, _ = replay_fleet(
            FLEET, REPLAY, service_config=ServiceConfig(pool_workers=1)
        )
        assert result is not None and stats.dropped == 0

    assert _cyclic_garbage(run) == (0, 0)


class _AdmissionsOnlyLedger(SettlementLedger):
    """Journals admissions only: a settlement's outcome raises, and so
    does the ``internal-error`` record a worker writes about it."""

    def journal(self, record: dict, line: str | None = None) -> None:
        if record["type"] != "accepted":
            raise OSError("journal unavailable")
        super().journal(record, line)


def test_lost_worker_leaves_no_cyclic_garbage():
    def run():
        service = ReconciliationService(
            loop=EventLoop(), ledger=_AdmissionsOnlyLedger()
        )
        service.start()
        assert service.submit({"id": "p0", "vendor": "v0", "kind": "probe"}).accepted
        service.close()
        # The error and the one it interrupted are kept, their frames not.
        (crash,) = service.crashed_workers()
        assert isinstance(crash, OSError) and isinstance(crash.__context__, OSError)

    assert _cyclic_garbage(run) == (0, 0)
