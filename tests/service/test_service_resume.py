"""Crash-resume: the ledger journal rebuilds a killed service exactly.

The differential contract extends across process death: a service
killed at ANY byte offset of its ledger stream and rebuilt through
:meth:`ReconciliationService.resume` finishes with a settlement view,
on-disk settlement prefix and ``FleetResult`` aggregate byte-identical
to an uninterrupted run — across worker counts and disk-cache
temperatures.  ``hypothesis`` drives randomized kill points; fixed
parametrized cuts pin the interesting structural offsets.
"""

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.plan import DataPlan
from repro.core.strategies import OptimalStrategy, PartyKnowledge, PartyRole
from repro.crypto import generate_keypair
from repro.experiments.fleet import FleetConfig
from repro.experiments.parallel import ResultCache
from repro.netsim.events import EventLoop
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

FLEET = FleetConfig(ues=16, shard_size=2, seed=5, n_cycles=1, cycle_duration_s=10.0)
REPLAY = ReplayConfig(duration_s=30.0)


def settlement_view(path: Path) -> str:
    """The byte-comparable settlement prefix of an on-disk ledger file."""
    lines = [
        line
        for line in path.read_text().splitlines()
        if "seq" in json.loads(line)
    ]
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One uninterrupted run: the reference bytes every resume must hit."""
    path = tmp_path_factory.mktemp("full") / "ledger.jsonl"
    result, stats, service = replay_fleet(FLEET, REPLAY, ledger=SettlementLedger(path))
    assert stats.dropped == 0 and result is not None
    return {
        "bytes": path.read_bytes(),
        "text": service.ledger.text(),
        "aggregate": json.dumps(result.to_dict(), sort_keys=True),
    }


def kill_and_resume(baseline, directory, cut, service_config=None, disk_cache=None):
    """Truncate the reference ledger at byte ``cut``, resume, and check
    every byte-identity the contract promises."""
    wounded = Path(directory) / "wounded.jsonl"
    wounded.write_bytes(baseline["bytes"][:cut])
    result, stats, service = resume_fleet_replay(
        FLEET,
        wounded,
        replay=REPLAY,
        service_config=service_config,
        disk_cache=disk_cache,
    )
    assert stats.dropped == 0 and result is not None
    assert service.crashed_workers() == []
    assert service.ledger.text() == baseline["text"]
    assert json.dumps(result.to_dict(), sort_keys=True) == baseline["aggregate"]
    assert settlement_view(wounded) == baseline["text"]
    return service


class TestKillResumeDifferential:
    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_any_kill_point_resumes_byte_identical(self, baseline, fraction):
        cut = int(fraction * len(baseline["bytes"]))
        with tempfile.TemporaryDirectory() as tmp:
            kill_and_resume(baseline, tmp, cut)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("quarter", [1, 2, 3])
    def test_across_worker_counts(self, baseline, tmp_path, workers, quarter):
        cut = len(baseline["bytes"]) * quarter // 4
        kill_and_resume(
            baseline, tmp_path, cut, service_config=ServiceConfig(workers=workers)
        )

    def test_empty_ledger_resumes_into_full_run(self, baseline, tmp_path):
        kill_and_resume(baseline, tmp_path, 0)

    def test_warm_disk_cache_resume_never_simulates(self, baseline, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        replay_fleet(FLEET, REPLAY, disk_cache=cache)  # warm the disk tier
        service = kill_and_resume(
            baseline, tmp_path, len(baseline["bytes"]) // 2, disk_cache=cache
        )
        assert service.report.simulated == 0

    def test_double_resume_of_completed_ledger_is_a_no_op(self, baseline, tmp_path):
        wounded = tmp_path / "wounded.jsonl"
        wounded.write_bytes(baseline["bytes"][: len(baseline["bytes"]) // 3])
        first, stats1, _ = resume_fleet_replay(FLEET, wounded, replay=REPLAY)
        assert stats1.dropped == 0
        # Resume the now-complete file: the journal already covers every
        # claim, so the client has nothing to submit and the bytes hold.
        second, stats2, service = resume_fleet_replay(FLEET, wounded, replay=REPLAY)
        assert stats2.dropped == 0
        assert stats2.submitted == 0
        assert service.ledger.text() == baseline["text"]
        assert json.dumps(second.to_dict(), sort_keys=True) == baseline["aggregate"]

    def test_resume_of_a_killed_resume(self, baseline, tmp_path):
        raw = baseline["bytes"]
        wounded = tmp_path / "wounded.jsonl"
        wounded.write_bytes(raw[: len(raw) // 4])
        _, stats, _ = resume_fleet_replay(FLEET, wounded, replay=REPLAY)
        assert stats.dropped == 0
        healed = wounded.read_bytes()
        # Kill the *resumed* incarnation mid-flight and resume again.
        again = {"bytes": healed, "text": baseline["text"],
                 "aggregate": baseline["aggregate"]}
        kill_and_resume(again, tmp_path, len(healed) * 2 // 3)


class TestLedgerResumeParsing:
    def test_torn_final_line_is_trimmed(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = SettlementLedger(path)
        ledger.write({"type": "shard", "index": 0})
        ledger.journal({"type": "accepted", "id": "a"})
        ledger.close()
        # A crash mid-write leaves a torn, unparseable tail.
        with path.open("a") as fh:
            fh.write('{"jseq": 1, "type": "acc')
        resumed = SettlementLedger.resume(path)
        assert len(resumed.lines) == 1
        assert [r["type"] for r in resumed.journal_records()] == ["accepted"]
        # The torn tail is gone from disk and appends continue cleanly.
        assert path.read_text().count("\n") == 2
        resumed.journal({"type": "accepted", "id": "b"})
        resumed.close()
        assert len(path.read_text().splitlines()) == 3

    def test_parseable_final_line_is_kept(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = SettlementLedger(path)
        ledger.write({"type": "shard", "index": 0})
        ledger.close()
        resumed = SettlementLedger.resume(path)
        assert len(resumed.lines) == 1

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"seq": 0, "type": "shard"}\ngarbage\n{"seq": 1}\n')
        with pytest.raises(ValueError, match="line 2"):
            SettlementLedger.resume(path)

    def test_non_utf8_middle_line_reported_by_line_number(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"seq": 0}\n{"jseq": 0, "id": "\xff"}\n{"seq": 1}\n')
        with pytest.raises(ValueError, match="corrupt at line 2"):
            SettlementLedger.resume(path)

    def test_non_utf8_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"seq": 0}\n{"jseq": 0, "id": "\xff')
        resumed = SettlementLedger.resume(path)
        assert resumed.lines == ['{"seq": 0}']
        assert resumed.journal_lines == []
        assert path.read_bytes() == b'{"seq": 0}\n'

    def test_torn_tail_leaves_the_intact_prefix_on_disk(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        prefix = b'{"seq": 0}\n{"jseq": 0, "type": "accepted"}\n'
        path.write_bytes(prefix + b'{"jseq": 1, "ty')
        SettlementLedger.resume(path)
        assert path.read_bytes() == prefix

    def test_complete_tail_without_newline_gets_one(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"seq": 0}\n{"jseq": 0, "type": "accepted"}')
        resumed = SettlementLedger.resume(path)
        assert resumed.journal_lines == ['{"jseq": 0, "type": "accepted"}']
        assert path.read_bytes() == b'{"seq": 0}\n{"jseq": 0, "type": "accepted"}\n'

    def test_clean_file_is_unchanged(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = SettlementLedger(path)
        ledger.write({"type": "shard", "index": 0})
        ledger.journal({"type": "accepted", "id": "a"})
        ledger.close()
        before = path.read_bytes()
        resumed = SettlementLedger.resume(path)
        assert path.read_bytes() == before
        assert resumed.resumed_records == [{"jseq": 0, "type": "accepted", "id": "a"}]

    def test_missing_file_resumes_empty(self, tmp_path):
        resumed = SettlementLedger.resume(tmp_path / "never-written.jsonl")
        assert resumed.lines == []
        assert resumed.journal_records() == []

    def test_replay_divergence_is_detected(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = SettlementLedger(path)
        ledger.write({"type": "shard", "index": 0})
        ledger.close()
        resumed = SettlementLedger.resume(path)
        # Replaying a *different* record over the durable prefix must
        # fail loudly instead of silently forking history.
        with pytest.raises(ValueError, match="diverged"):
            resumed.write({"type": "shard", "index": 99})


class TestJournalReplay:
    def _crash_copy(self, live_path: Path) -> Path:
        # Simulate process death: the crashed file is what's on disk,
        # independent of the still-open handle we abandon.
        crashed = live_path.with_name("crashed.jsonl")
        crashed.write_bytes(live_path.read_bytes())
        return crashed

    def test_accepted_but_unsettled_claim_requeues(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        service = ReconciliationService(
            loop=EventLoop(), ledger=SettlementLedger(path)
        )
        service.start()
        assert service.submit({"id": "p1", "vendor": "v0", "kind": "probe"}).accepted
        # Killed before the loop ever ran: the claim is journaled as
        # accepted with no outcome, so resume must requeue it.
        resumed = ReconciliationService.resume(self._crash_copy(path))
        assert resumed.queue.qsize() == 1
        resumed.start()
        resumed.drain()
        resumed.close()
        assert resumed.is_settled("p1")
        assert resumed.settled_count() == 1

    def test_duplicate_ids_still_rejected_after_resume(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        service = ReconciliationService(
            loop=EventLoop(), ledger=SettlementLedger(path)
        )
        service.start()
        service.submit({"id": "p1", "vendor": "v0", "kind": "probe"})
        service.loop.run()
        resumed = ReconciliationService.resume(self._crash_copy(path))
        resumed.start()
        assert resumed.submit(
            {"id": "p1", "vendor": "v0", "kind": "probe"}
        ).reason == "duplicate"

    def test_settled_claims_do_not_resettle(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        service = ReconciliationService(
            loop=EventLoop(), ledger=SettlementLedger(path)
        )
        service.start()
        service.submit({"id": "p1", "vendor": "v0", "kind": "probe"})
        service.loop.run()
        resumed = ReconciliationService.resume(self._crash_copy(path))
        journal_before = len(resumed.ledger.journal_records())
        assert resumed.queue.qsize() == 0
        resumed.start()
        resumed.drain()
        resumed.close()
        assert resumed.settled_count() == 1
        assert len(resumed.ledger.journal_records()) == journal_before

    def test_poc_receipts_survive_a_crash_before_flush(self, tmp_path):
        x_e, x_o = 1_000_000, 930_000
        plan = DataPlan(c=0.5, cycle_duration_s=3600.0)
        params = PlanParams(0.0, 3600.0, 0.5)
        edge_key = generate_keypair(512, random.Random(101))
        operator_key = generate_keypair(512, random.Random(102))
        vendor_keys = {"v0": (edge_key.public, operator_key.public)}
        driver = NegotiationDriver(
            plan, 0.0,
            OptimalStrategy(PartyKnowledge(PartyRole.EDGE, x_e, x_o)),
            OptimalStrategy(PartyKnowledge(PartyRole.OPERATOR, x_o, x_e)),
            edge_key, operator_key, random.Random(11),
        )
        poc = driver.run().poc
        claim = make_poc_claim("poc-1", "v0", poc, params)

        def run(service):
            service.start()
            assert service.submit(dict(claim)).accepted
            service.loop.run()

        reference = ReconciliationService(
            loop=EventLoop(),
            ledger=SettlementLedger(tmp_path / "full.jsonl"),
            vendor_keys=vendor_keys,
        )
        run(reference)
        reference.close()  # receipts flush into the settlement view

        crashing = ReconciliationService(
            loop=EventLoop(),
            ledger=SettlementLedger(tmp_path / "live.jsonl"),
            vendor_keys=vendor_keys,
        )
        run(crashing)  # settled, but killed before close() flushed
        resumed = ReconciliationService.resume(
            self._crash_copy(tmp_path / "live.jsonl"), vendor_keys=vendor_keys
        )
        resumed.start()
        resumed.drain()
        resumed.close()
        assert resumed.ledger.text() == reference.ledger.text()
        assert resumed.is_settled("poc-1")
