"""Pooled settlement: CPU-parallel shard simulation, same bytes out.

``SimProcessPool`` runs shard simulations in worker processes and hands
each result to its callback in submission order, so a settlement can
wait on the pool like it waits on a service time; the index-ordered
fold keeps the ledger and aggregate bit-identical to the inline path
whatever the pool size — including across a kill-and-resume.
"""

import json
import time
from concurrent.futures import wait

import pytest

from repro.experiments.fleet import FleetConfig
from repro.service import (
    ReconciliationService,
    ReplayConfig,
    ServiceConfig,
    SettlementLedger,
    SimProcessPool,
    replay_fleet,
    resume_fleet_replay,
)

FLEET = FleetConfig(ues=16, shard_size=2, seed=5, n_cycles=1, cycle_duration_s=10.0)
REPLAY = ReplayConfig(duration_s=30.0)


def _slow_square(x, delay):
    # Must live at module level: it crosses the process boundary.
    time.sleep(delay)
    return x * x


def _explode(message):
    raise ValueError(message)


class TestSimProcessPool:
    def test_callbacks_run_in_submission_order(self):
        pool = SimProcessPool(2)
        seen = []
        # Later calls finish first; their callbacks still run in order.
        handles = [pool.submit(_slow_square, n, 0.04 * (4 - n)) for n in range(5)]
        for n, handle in enumerate(handles):
            pool.when_done(
                handle, lambda n, result, error: seen.append((n, result, error)), n
            )
        assert pool.pending() == 5
        wait(handles)
        pool.wait_next()
        assert seen == [(n, n * n, None) for n in range(5)]
        assert pool.pending() == 0
        pool.shutdown()

    def test_raising_call_reaches_its_callback(self):
        pool = SimProcessPool(1)
        seen = []
        pool.when_done(
            pool.submit(_explode, "boom"),
            lambda result, error: seen.append((result, error)),
        )
        while pool.pending():
            pool.wait_next()
        [(result, error)] = seen
        assert result is None
        assert isinstance(error, ValueError) and "boom" in str(error)
        pool.shutdown()

    def test_executor_is_lazy_and_shutdown_idempotent(self):
        pool = SimProcessPool(2)
        assert pool._executor is None  # no processes forked until needed
        pool.shutdown()
        pool.shutdown()
        # A pooled service fed no shard claims never forks either.
        service = ReconciliationService(config=ServiceConfig(pool_workers=2))
        service.start()
        assert service.submit({"id": "p", "vendor": "v0", "kind": "probe"}).accepted
        service.close()
        assert service.settled_count() == 1
        assert service.pool._executor is None

    def test_rejects_non_positive_worker_count(self):
        with pytest.raises(ValueError):
            SimProcessPool(0)


class TestPooledParity:
    @pytest.fixture(scope="class")
    def inline_run(self):
        result, stats, service = replay_fleet(FLEET, REPLAY)
        assert stats.dropped == 0 and result is not None
        return result, service

    @pytest.mark.parametrize("pool_workers", [1, 2])
    def test_ledger_bit_identical_across_pool_sizes(self, inline_run, pool_workers):
        inline_result, inline_service = inline_run
        result, stats, service = replay_fleet(
            FLEET,
            REPLAY,
            service_config=ServiceConfig(workers=2, pool_workers=pool_workers),
        )
        assert stats.dropped == 0 and result is not None
        assert service.crashed_workers() == []
        assert service.ledger.text() == inline_service.ledger.text()
        assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
            inline_result.to_dict(), sort_keys=True
        )
        # Cold caches: every shard really went through the pool.
        assert service.report.simulated == 8

    def test_kill_and_resume_with_pool(self, inline_run, tmp_path):
        _, inline_service = inline_run
        pooled = ServiceConfig(pool_workers=2)
        path = tmp_path / "full.jsonl"
        _, stats, _ = replay_fleet(
            FLEET, REPLAY, service_config=pooled, ledger=SettlementLedger(path)
        )
        assert stats.dropped == 0
        raw = path.read_bytes()
        wounded = tmp_path / "wounded.jsonl"
        wounded.write_bytes(raw[: len(raw) // 2])
        result, stats2, service = resume_fleet_replay(
            FLEET, wounded, replay=REPLAY, service_config=pooled
        )
        assert stats2.dropped == 0 and result is not None
        assert service.ledger.text() == inline_service.ledger.text()
