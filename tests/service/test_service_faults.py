"""Fault paths: chaos ingestion, malformed claims, PoC rejection.

Graceful degradation contract: whatever arrives at the front door, no
worker dies — bad input becomes a ``service.rejected{reason=...}``
counter — and once the resubmit loop settles every claim, the ledger
is the same ledger a fault-free run writes.
"""

import json
import random

import pytest

from repro.crypto import generate_keypair
from repro.experiments.fleet import FleetConfig, build_shards, run_fleet
from repro.netsim.events import EventLoop
from repro.netsim.faults import (
    BLACKOUT,
    CORRUPT,
    FAULT_PROFILES,
    FaultSchedule,
    FaultSpec,
)
from repro.poc.messages import PlanParams, Poc
from repro.poc.protocol import NegotiationDriver
from repro.core.plan import DataPlan
from repro.core.strategies import OptimalStrategy, PartyKnowledge, PartyRole
from repro.service import (
    ReconciliationService,
    ReplayConfig,
    ServiceConfig,
    make_poc_claim,
    replay_fleet,
)
from repro.service.loadgen import MAX_ATTEMPTS, MAX_WAVES

FLEET = FleetConfig(ues=16, shard_size=2, seed=3, n_cycles=2, cycle_duration_s=10.0)

#: The canned chaos profile (uplink duplicates, *link* loss, blackouts)
#: stacked with in-flight corruption aimed straight at the ingestion
#: point — the profile the issue calls the "canned chaos fault profile".
CHAOS_INGEST = FAULT_PROFILES["chaos"].compose(
    FaultSchedule(
        name="ingest-corrupt",
        specs=(FaultSpec(CORRUPT, start=0.0, target="uplink", magnitude=0.3),),
    )
)


class TestChaosIngestion:
    @pytest.fixture(scope="class")
    def chaos_run(self):
        return replay_fleet(
            FLEET, ReplayConfig(duration_s=120.0, ingest_faults=CHAOS_INGEST)
        )

    @pytest.fixture(scope="class")
    def clean_run(self):
        return replay_fleet(FLEET, ReplayConfig(duration_s=120.0))

    def test_no_worker_crashes(self, chaos_run):
        _, _, service = chaos_run
        assert service.crashed_workers() == []

    def test_every_claim_eventually_settles(self, chaos_run):
        result, stats, _ = chaos_run
        assert stats.dropped == 0
        assert result is not None

    def test_faults_actually_fired(self, chaos_run):
        _, stats, _ = chaos_run
        # The corrupt spec at p=0.3 over 8+ submissions makes a fully
        # quiet run astronomically unlikely — and it is deterministic,
        # so this is a fixed fact about (FLEET.seed, CHAOS_INGEST).
        assert stats.corrupted > 0
        assert stats.waves > 0

    def test_rejection_counters_populated(self, chaos_run):
        _, _, service = chaos_run
        assert service.rejections.get("malformed-shard", 0) > 0
        counter = service.metrics.counter("service.rejected", reason="malformed-shard")
        assert counter.value == service.rejections["malformed-shard"]

    def test_settlement_gap_is_zero_under_chaos(self, chaos_run, clean_run):
        # Stronger than Theorem 2's bracket: since every logical claim
        # settled exactly once from its pristine payload, the chaotic
        # ledger is byte-for-byte the clean ledger.
        _, _, chaotic = chaos_run
        _, _, clean = clean_run
        assert chaotic.ledger.text() == clean.ledger.text()


class TestRetryAccounting:
    """Every submission is counted once, every resubmission once more."""

    def test_lost_claims_count_only_real_resubmissions(self):
        fleet = FleetConfig(
            ues=2, shard_size=2, seed=3, n_cycles=1, cycle_duration_s=5.0
        )
        dead_link = FaultSchedule(
            name="dead-link",
            specs=(FaultSpec(BLACKOUT, start=0.0, target="uplink"),),
        )
        replay = ReplayConfig(duration_s=1.0, ingest_faults=dead_link)
        result, stats, service = replay_fleet(fleet, replay)
        assert result is None
        assert stats.dropped == 1  # the single shard never settles
        # Pass 0 and each of MAX_WAVES passes make one submission plus
        # MAX_ATTEMPTS resubmissions, all swallowed by the dead link.
        assert stats.submitted == stats.lost == (1 + MAX_ATTEMPTS) * (1 + MAX_WAVES)
        assert stats.waves == MAX_WAVES
        assert stats.retries == stats.submitted - 1
        assert service.crashed_workers() == []


def _uplink_blackout(duration: float) -> FaultSchedule:
    return FaultSchedule(
        name="uplink-blackout",
        specs=(FaultSpec(BLACKOUT, start=0.0, duration=duration, target="uplink"),),
    )


class TestUplinkBlackout:
    """A finite blackout at the front door is waited out, not dropped."""

    FLEET = FleetConfig(ues=2, shard_size=2, seed=3, n_cycles=1, cycle_duration_s=5.0)

    def test_blackout_is_waited_out_within_the_pass(self):
        replay = ReplayConfig(duration_s=1.0, ingest_faults=_uplink_blackout(1.5))
        result, stats, _ = replay_fleet(self.FLEET, replay)
        # Lost at 0, 0.25 and 0.75 virtual s; admitted at 1.5 s.
        assert stats.lost == 3 and stats.waves == 0 and stats.dropped == 0
        assert result.to_dict() == run_fleet(self.FLEET).to_dict()

    def test_blackout_longer_than_a_pass_is_waited_out_by_the_next(self):
        replay = ReplayConfig(duration_s=1.0, ingest_faults=_uplink_blackout(25.0))
        result, stats, _ = replay_fleet(self.FLEET, replay)
        assert stats.lost > 1 + MAX_ATTEMPTS  # pass 0 ran out of attempts
        assert stats.waves == 1 and stats.dropped == 0
        assert result.to_dict() == run_fleet(self.FLEET).to_dict()

    def test_lost_claim_settles_before_later_claims_arrive(self):
        # Shards arrive 15 s apart; shard 0 is lost at t=0.  Resubmitted
        # within the pass, it is admitted before shard 1 arrives, so the
        # in-order fold never buffers the fleet behind it.
        fleet = FleetConfig(ues=8, shard_size=2, seed=3, n_cycles=1, cycle_duration_s=5.0)
        replay = ReplayConfig(duration_s=60.0, ingest_faults=_uplink_blackout(1.5))
        result, stats, service = replay_fleet(fleet, replay)
        assert result is not None and stats.lost == 3
        admitted = {
            record["claim"]["ref"]: record["t"]
            for record in map(json.loads, service.ledger.journal_lines)
            if record["type"] == "accepted"
        }
        assert admitted["shard-0"] == 1.5 < admitted["shard-1"]


class TestOverloadedFrontDoor:
    """Claims the front door turns away are resubmitted until they settle."""

    FLEET = FleetConfig(ues=32, shard_size=1, seed=9, n_cycles=1, cycle_duration_s=2.0)

    @pytest.mark.parametrize(
        "vendors, reason",
        [
            (4, "backpressure"),  # 32 claims in 0.25 s overrun a 16-deep queue
            (1, "rate-limited"),  # ...and one vendor's 16-token bucket
        ],
    )
    def test_rejected_claims_settle_on_resubmission(self, vendors, reason):
        hurried = ReplayConfig(duration_s=0.25, vendors=vendors)
        result, stats, service = replay_fleet(self.FLEET, hurried)
        assert stats.rejected.get(reason, 0) > 0
        assert result is not None and stats.dropped == 0
        assert stats.retries > 0
        assert stats.retries == stats.submitted - len(build_shards(self.FLEET))
        assert service.crashed_workers() == []
        calm = ReplayConfig(duration_s=120.0, vendors=vendors)
        _, calm_stats, calm_service = replay_fleet(self.FLEET, calm)
        assert calm_stats.retries == calm_stats.waves == 0
        assert service.ledger.text() == calm_service.ledger.text()


class TestMalformedClaims:
    @pytest.fixture()
    def service(self):
        service = ReconciliationService(loop=EventLoop())
        service.start()
        return service

    def test_shape_violations_reject_synchronously(self, service):
        assert service.submit("not a dict").reason == "malformed"
        assert service.submit({"vendor": "v0", "kind": "probe"}).reason == "malformed"
        assert service.submit({"id": "a", "kind": "probe"}).reason == "malformed"
        assert (
            service.submit({"id": "a", "vendor": "v0", "kind": "pizza"}).reason
            == "unknown-kind"
        )

    def test_duplicate_id_rejected(self, service):
        claim = {"id": "c1", "vendor": "v0", "kind": "probe"}
        assert service.submit(claim).accepted
        assert service.submit(dict(claim)).reason == "duplicate"

    def test_claim_without_canonical_json_is_malformed_and_leaves_no_state(self):
        # json.dumps accepts mixed int/str keys; the journal's sorted-key
        # encoding does not, so such a claim cannot be made crash-safe.
        service = ReconciliationService(
            loop=EventLoop(), config=ServiceConfig(vendor_burst=1.0)
        )
        service.start()
        bad = {"id": "c1", "vendor": "v", "kind": "probe", "extra": {1: "a", "b": 2}}
        assert service.submit(bad).reason == "malformed"
        assert service.ledger.journal_lines == []
        assert service.queue.qsize() == 0
        # No id was taken and no token spent: the one-token bucket still
        # admits a clean resubmission under the same id.
        clean = {"id": "c1", "vendor": "v", "kind": "probe"}
        assert service.submit(clean).accepted
        service.loop.run()
        assert service.is_settled("c1")

    def test_poisoned_shard_payload_does_not_kill_worker(self, service):
        admission = service.submit(
            {"id": "bad", "vendor": "v0", "kind": "shard", "shard": {"index": "x"}}
        )
        assert admission.accepted  # admission is shallow; the worker decides
        service.loop.run()
        assert service.rejections.get("malformed-shard") == 1
        assert service.crashed_workers() == []

    def test_submit_after_close_rejected(self, service):
        service.loop.run()
        service.close()
        assert (
            service.submit({"id": "late", "vendor": "v0", "kind": "probe"}).reason
            == "closed"
        )


class TestPocClaims:
    X_E, X_O = 1_000_000, 930_000
    PLAN = DataPlan(c=0.5, cycle_duration_s=3600.0)
    PARAMS = PlanParams(0.0, 3600.0, 0.5)

    @pytest.fixture(scope="class")
    def keys(self):
        return (
            generate_keypair(512, random.Random(101)),
            generate_keypair(512, random.Random(102)),
        )

    def negotiate(self, keys, seed=11, plan=PLAN, cycle_start=0.0):
        edge_key, operator_key = keys
        driver = NegotiationDriver(
            plan, cycle_start,
            OptimalStrategy(PartyKnowledge(PartyRole.EDGE, self.X_E, self.X_O)),
            OptimalStrategy(PartyKnowledge(PartyRole.OPERATOR, self.X_O, self.X_E)),
            edge_key, operator_key, random.Random(seed),
        )
        return driver.run().poc

    def fresh_service(self, keys):
        edge_key, operator_key = keys
        service = ReconciliationService(
            loop=EventLoop(),
            vendor_keys={"v0": (edge_key.public, operator_key.public)},
        )
        service.start()
        return service

    def test_valid_receipt_settles_within_theorem2_bracket(self, keys):
        service = self.fresh_service(keys)
        poc = self.negotiate(keys)
        admission = service.submit(make_poc_claim("poc-1", "v0", poc, self.PARAMS))
        assert admission.accepted
        service.loop.run()
        service.close()
        assert service.is_settled("poc-1")
        receipt = json.loads(service.ledger.lines[-1])
        assert receipt["type"] == "poc"
        # Theorem 2: the negotiated volume lies between the claims.
        assert self.X_O <= receipt["volume"] <= self.X_E

    def test_replayed_receipt_rejected(self, keys):
        service = self.fresh_service(keys)
        poc = self.negotiate(keys)
        service.submit(make_poc_claim("poc-1", "v0", poc, self.PARAMS))
        service.submit(make_poc_claim("poc-2", "v0", poc, self.PARAMS))
        service.loop.run()
        service.close()
        assert service.rejections.get("poc-replayed-poc") == 1
        assert service.settled_count() == 1

    def test_tampered_volume_rejected(self, keys):
        service = self.fresh_service(keys)
        poc = self.negotiate(keys)
        forged = Poc(
            poc.role, poc.plan, poc.volume + 1, poc.peer_cda,
            poc.signature, poc.nonce_edge, poc.nonce_operator,
        )
        service.submit(make_poc_claim("forged", "v0", forged, self.PARAMS))
        service.loop.run()
        service.close()
        assert service.rejections.get("poc-poc-signature") == 1
        assert not service.is_settled("forged")

    def test_unknown_vendor_rejected(self, keys):
        service = self.fresh_service(keys)
        poc = self.negotiate(keys)
        service.submit(make_poc_claim("poc-1", "nobody", poc, self.PARAMS))
        service.loop.run()
        service.close()
        assert service.rejections.get("unknown-vendor") == 1

    @pytest.mark.parametrize(
        "plan",
        [
            DataPlan(c=0.5, cycle_duration_s=1800.0),  # another cycle length
            DataPlan(c=0.3, cycle_duration_s=3600.0),  # another lost-data weight
        ],
    )
    def test_receipt_under_another_plan_rejected(self, keys, plan):
        # The claim's plan matches the receipt's own chain, but not the
        # (T, c) the service verifies and charges with.
        service = self.fresh_service(keys)
        poc = self.negotiate(keys, plan=plan)
        params = PlanParams(0.0, plan.cycle_duration_s, plan.c)
        service.submit(make_poc_claim("poc-1", "v0", poc, params))
        service.loop.run()
        service.close()
        assert service.rejections == {"poc-inconsistent-data-plan": 1}
        assert service.settled_count() == 0

    def test_receipt_for_an_off_grid_cycle_rejected(self, keys):
        # A one-cycle-long window that straddles two agreed 3600-s cycles:
        # the receipt's chain carries it consistently, the grid does not.
        service = self.fresh_service(keys)
        poc = self.negotiate(keys, cycle_start=1800.0)
        params = PlanParams(1800.0, 5400.0, 0.5)
        assert poc.plan == params
        service.submit(make_poc_claim("poc-1", "v0", poc, params))
        service.loop.run()
        service.close()
        assert service.rejections == {"poc-inconsistent-data-plan": 1}
        assert service.settled_count() == 0

    @pytest.mark.parametrize("t_start", [-3600.0, float("nan"), float("-inf")])
    def test_claimed_cycle_off_the_grid_rejected(self, keys, t_start):
        service = self.fresh_service(keys)
        claim = make_poc_claim("poc-1", "v0", self.negotiate(keys), self.PARAMS)
        claim["plan"]["t_start"] = t_start
        service.submit(claim)
        service.loop.run()
        service.close()
        assert service.rejections == {"poc-inconsistent-data-plan": 1}

    def test_receipt_for_a_later_grid_cycle_settles(self, keys):
        service = self.fresh_service(keys)
        poc = self.negotiate(keys, cycle_start=7200.0)
        service.submit(make_poc_claim("poc-1", "v0", poc, PlanParams(7200.0, 10800.0, 0.5)))
        service.loop.run()
        service.close()
        assert service.is_settled("poc-1")

    def test_undecodable_poc_rejected(self, keys):
        service = self.fresh_service(keys)
        claim = make_poc_claim("poc-1", "v0", self.negotiate(keys), self.PARAMS)
        claim["poc"] = "deadbeef"
        service.submit(claim)
        service.loop.run()
        service.close()
        assert service.rejections.get("malformed-poc") == 1
