"""Service lifecycle hardening: drain-aware close, sealed ledger,
eager config validation, and how workers take the backlog.

Each class here pins a bug that used to be latent:

* ``close()`` pushed shutdown sentinels with ``put_nowait`` and blew up
  with ``QueueFull`` whenever the queue was backlogged at shutdown;
* ``SettlementLedger.write()`` after ``close()`` kept appending to the
  in-memory view while the file handle silently dropped the line, so
  memory and disk diverged;
* ``ServiceConfig`` accepted zero/negative (and, later, NaN or
  infinite) vendor rates, bursts and service times, deferring the
  blow-up to deep inside a worker; ``ReplayConfig`` must reject a
  non-positive or non-finite duration or no vendors before a replay
  starts;
* ``submit()`` handed a claim to an idle worker before journalling its
  admission, so a synchronous rejection wrote ``unclaimed`` ahead of
  ``accepted`` and left a stale ingest timestamp behind.

``TestWorkers`` pins the scheduling the settlements rely on: a backlog
of claims that settle without waiting drains in a loop, not by
recursion; one worker settles in admission order; and a worker lost to
a failing rejection path does not stop the others.

``TestFailedSettlement`` pins what a settlement that ends unsettled
gives back: an ``internal-error`` used to keep its ref claimed, so every
retry was rejected ``duplicate`` while a service resumed from the same
journal settled it.
"""

import math

import pytest

from repro.experiments.fleet import FleetConfig, build_shards, shard_to_dict
from repro.netsim.events import EventLoop
from repro.service import (
    ReconciliationService,
    ReplayConfig,
    ServiceConfig,
    SettlementLedger,
)
from repro.service import service as service_module


class TestDrainAwareClose:
    def test_close_with_backlogged_queue_drains_and_settles(self):
        service = ReconciliationService(
            loop=EventLoop(), config=ServiceConfig(workers=2, queue_depth=4)
        )
        service.start()
        for i in range(6):
            assert service.submit(
                {"id": f"c{i}", "vendor": "v0", "kind": "probe"}
            ).accepted
        # Two claims are parked with the workers; four fill the queue to
        # capacity.  close() used to raise QueueFull right here.
        assert service.queue.qsize() == service.config.queue_depth
        service.close()
        assert service.settled_count() == 6
        assert service.crashed_workers() == []

    def test_close_on_drained_service(self):
        service = ReconciliationService(loop=EventLoop())
        service.start()
        assert service.submit({"id": "x", "vendor": "v0", "kind": "probe"}).accepted
        service.loop.run()
        service.close()
        assert service.settled_count() == 1

    def test_close_is_idempotent(self):
        service = ReconciliationService(loop=EventLoop())
        service.start()
        service.close()
        service.close()
        assert service.crashed_workers() == []


class TestSealedLedger:
    def test_write_after_close_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = SettlementLedger(path)
        ledger.write({"type": "probe"})
        ledger.close()
        with pytest.raises(RuntimeError):
            ledger.write({"type": "late"})
        with pytest.raises(RuntimeError):
            ledger.journal({"type": "late"})
        # Memory and disk agree exactly — no silently dropped lines.
        assert path.read_text() == ledger.text()

    def test_pathless_ledger_also_seals(self):
        ledger = SettlementLedger()
        ledger.close()
        with pytest.raises(RuntimeError):
            ledger.write({"type": "late"})

    def test_close_is_idempotent(self, tmp_path):
        ledger = SettlementLedger(tmp_path / "ledger.jsonl")
        ledger.close()
        ledger.close()

    def test_lines_are_durable_before_close(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = SettlementLedger(path)
        ledger.write({"type": "shard", "index": 0})
        # Visible on disk immediately: the crash-durability contract.
        assert path.read_text() == ledger.text()
        ledger.close()


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"queue_depth": 0},
            {"pool_workers": -1},
            {"vendor_rate_hz": 0.0},
            {"vendor_rate_hz": -8.0},
            {"vendor_burst": 0.0},
            {"vendor_burst": -1.0},
            {"shard_service_time_s": -0.05},
            {"poc_service_time_s": -1e-9},
            {"probe_service_time_s": -2.0},
            *(
                {name: value}
                for name in (
                    "vendor_rate_hz", "vendor_burst", "shard_service_time_s",
                    "poc_service_time_s", "probe_service_time_s",
                )
                for value in (math.nan, math.inf)
            ),
        ],
    )
    def test_invalid_config_rejected_up_front(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_zero_service_times_are_legal(self):
        ServiceConfig(
            shard_service_time_s=0.0,
            poc_service_time_s=0.0,
            probe_service_time_s=0.0,
        )


class TestReplayConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_s": 0.0},
            {"duration_s": -1.0},
            {"vendors": 0},
            {"duration_s": math.nan},
            {"duration_s": math.inf},
        ],
    )
    def test_invalid_config_rejected_up_front(self, kwargs):
        with pytest.raises(ValueError):
            ReplayConfig(**kwargs)


class TestAdmissionJournalOrder:
    def test_outcome_follows_admission_with_idle_worker(self):
        """An idle worker settles a claim inside ``submit``; claims it
        rejects synchronously must still journal ``accepted`` first."""
        service = ReconciliationService(
            loop=EventLoop(), config=ServiceConfig(workers=1)
        )
        service.start()
        claims = [
            {
                "id": "c1",
                "vendor": "v0",
                "kind": "shard",
                "shard": {"index": 0, "seed": "corrupt"},
            },
            {"id": "c2", "vendor": "v0", "kind": "probe", "ref": ""},
        ]
        for claim in claims:
            assert service.submit(claim).accepted
        # Both claims were rejected inside submit(), each outcome after
        # its own admission record.
        records = service.ledger.journal_records()
        assert [(r["type"], r["id"]) for r in records] == [
            ("accepted", "c1"),
            ("unclaimed", "c1"),
            ("accepted", "c2"),
            ("unclaimed", "c2"),
        ]
        service.drain()
        assert service._ingest_t == {}
        service.close()
        assert service.crashed_workers() == []


#: Claims in a backlog that must drain without deepening the stack.
BACKLOG = 20_000


def _instant_claims() -> list[dict]:
    """Probes that settle without waiting: the first settles after a
    zero-length service time, every later one is malformed (empty ref)
    or that first claim's duplicate."""
    return [
        {"id": f"c{i}", "vendor": "v0", "kind": "probe", "ref": "" if i % 2 else "dup"}
        for i in range(BACKLOG)
    ]


class TestWorkers:
    CONFIG = ServiceConfig(
        workers=2, queue_depth=BACKLOG, vendor_burst=BACKLOG, probe_service_time_s=0
    )

    @pytest.mark.parametrize("via", ["start", "resume"])
    def test_backlog_drains_without_recursion(self, tmp_path, via):
        path = tmp_path / "ledger.jsonl"
        service = ReconciliationService(
            loop=EventLoop(), config=self.CONFIG, ledger=SettlementLedger(path)
        )
        for claim in _instant_claims():
            assert service.submit(claim).accepted
        if via == "resume":
            # The process dies before any worker started.
            service.ledger.close()
            service = ReconciliationService.resume(
                path, loop=EventLoop(), config=self.CONFIG
            )
        assert service.queue.qsize() == BACKLOG
        service.start()
        service.close()
        assert service.queue.qsize() == 0
        assert service.settled_count() == 1
        assert service.rejections == {
            "malformed": BACKLOG // 2,
            "duplicate": BACKLOG // 2 - 1,
        }
        assert service.crashed_workers() == []

    def test_one_worker_settles_in_admission_order(self):
        service = ReconciliationService(
            loop=EventLoop(),
            config=ServiceConfig(workers=1, probe_service_time_s=0.01),
        )
        service.start()
        # Arrivals 2 ms apart queue behind 10-ms settlements, and the
        # admission order is not the id order.
        ids = [f"c{9 - i}" for i in range(10)]
        for i, claim_id in enumerate(ids):
            service.loop.schedule(
                0.002 * i,
                service.submit,
                {"id": claim_id, "vendor": "v0", "kind": "probe"},
            )
        service.drain()
        assert service.settled_count() == len(ids)
        settled = [
            record["id"]
            for record in service.ledger.journal_records()
            if record["type"] == "settled"
        ]
        assert settled == ids

    def test_lost_worker_leaves_the_others(self, monkeypatch):
        """A worker whose ``internal-error`` path itself raises is lost."""
        service = ReconciliationService(
            loop=EventLoop(), config=ServiceConfig(workers=2)
        )
        reject = service._reject

        def failing_reject(reason):
            if reason == "internal-error":
                raise RuntimeError("rejection path down")
            return reject(reason)

        def poisoned(claim, ref):
            raise ValueError("poisoned claim")

        monkeypatch.setattr(service, "_reject", failing_reject)
        monkeypatch.setattr(service, "_settle_poc", poisoned)
        service.start()
        # An idle worker takes the claim inside submit() and dies there.
        assert service.submit(
            {"id": "bad", "vendor": "v0", "kind": "poc", "poc": "", "plan": {}}
        ).accepted
        assert len(service.crashed_workers()) == 1
        for i in range(5):
            assert service.submit({"id": f"p{i}", "vendor": "v0", "kind": "probe"}).accepted
        service.close()
        assert service.settled_count() == 5
        assert len(service.crashed_workers()) == 1


(SHARD,) = build_shards(
    FleetConfig(ues=2, shard_size=2, seed=3, n_cycles=1, cycle_duration_s=10.0)
)


def _shard_claim(claim_id: str) -> dict:
    return {
        "id": claim_id,
        "vendor": "v0",
        "kind": "shard",
        "ref": "shard-0",
        "shard": shard_to_dict(SHARD),
    }


@pytest.fixture
def flaky_simulation(monkeypatch):
    """The next shard simulation raises once (e.g. a worker hiccup);
    calling the fixture's value re-arms it."""
    simulate = service_module._simulate_shard_to_dict
    armed = [True]

    def flaky(data):
        if armed[0]:
            armed[0] = False
            raise RuntimeError("transient simulation failure")
        return simulate(data)

    monkeypatch.setattr(service_module, "_simulate_shard_to_dict", flaky)
    return lambda: armed.__setitem__(0, True)


def _fail_then_retry(service: ReconciliationService) -> None:
    """The first claim fails at t=0; its retry arrives at t=1."""
    assert service.submit(_shard_claim("c0")).accepted
    service.drain()
    service.loop.schedule_at(1.0, service.submit, _shard_claim("c1"))
    service.drain()


class TestFailedSettlement:
    def test_retry_after_internal_error_settles_live(self, flaky_simulation):
        service = ReconciliationService(loop=EventLoop())
        service.start()
        _fail_then_retry(service)
        service.close()
        assert service.rejections == {"internal-error": 1}
        assert service.is_settled("shard-0")
        assert service.crashed_workers() == []

    def test_failed_outcome_journal_still_releases_the_claim(
        self, flaky_simulation, monkeypatch
    ):
        service = ReconciliationService(loop=EventLoop())
        journal_outcome = service._journal_outcome
        failures = []

        def failing_once(claim, ref, reason):
            if not failures:
                failures.append(reason)
                raise OSError("journal unavailable")
            return journal_outcome(claim, ref, reason)

        monkeypatch.setattr(service, "_journal_outcome", failing_once)
        service.start()
        assert service.submit(_shard_claim("c0")).accepted
        service.drain()
        assert failures == ["internal-error"]
        assert len(service.crashed_workers()) == 1
        assert service._ingest_t == {}
        # The surviving worker settles the retry.
        assert service.submit(_shard_claim("c1")).accepted
        service.close()
        assert service.is_settled("shard-0")

    def test_live_ledger_equals_the_resumed_one_byte_for_byte(
        self, tmp_path, flaky_simulation
    ):
        live_path = tmp_path / "live.jsonl"
        live = ReconciliationService(loop=EventLoop(), ledger=SettlementLedger(live_path))
        live.start()
        _fail_then_retry(live)
        live.close()
        live.ledger.close()

        flaky_simulation()
        killed_path = tmp_path / "killed.jsonl"
        killed = ReconciliationService(
            loop=EventLoop(), ledger=SettlementLedger(killed_path)
        )
        killed.start()
        assert killed.submit(_shard_claim("c0")).accepted
        killed.drain()
        # The process dies right after journalling the unclaimed outcome.
        assert killed.ledger.journal_records()[-1]["type"] == "unclaimed"
        killed.ledger.close()
        resumed = ReconciliationService.resume(killed_path, loop=EventLoop())
        resumed.start()
        resumed.loop.schedule_at(1.0, resumed.submit, _shard_claim("c1"))
        resumed.drain()
        resumed.close()
        resumed.ledger.close()

        assert resumed.is_settled("shard-0")
        assert killed_path.read_bytes() == live_path.read_bytes()

    def test_duplicate_of_an_in_flight_claim_keeps_its_ref(self):
        service = ReconciliationService(
            loop=EventLoop(), config=ServiceConfig(workers=2, probe_service_time_s=0.01)
        )
        service.start()

        def probe(claim_id: str) -> dict:
            return {"id": claim_id, "vendor": "v0", "kind": "probe", "ref": "r"}

        assert service.submit(probe("p0")).accepted
        # The second worker rejects the twin at once; p0 is still settling.
        assert service.submit(probe("p1")).accepted
        assert service.rejections == {"duplicate": 1}
        assert "r" in service._claimed_refs
        assert service.submit(probe("p2")).accepted
        service.close()
        assert service.rejections == {"duplicate": 2}
        assert service.is_settled("r")
        assert service.settled_count() == 1
