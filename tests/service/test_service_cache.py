"""The service's result cache: what counts as a hit, and what resume writes.

The service looks shard results up in the batch engine's
content-addressed ``ResultCache``.  An entry whose bytes do not match its
digest is dropped and read as a miss (the re-simulated result is
published in its place), and resuming a killed service rebuilds its fold
from the journal alone, writing nothing to the cache.
"""

import json

from repro.experiments.fleet import (
    FleetConfig,
    _simulate_shard_to_dict,
    build_shards,
    fleet_shard_key,
    shard_to_dict,
)
from repro.experiments.parallel import ResultCache
from repro.service import (
    ReconciliationService,
    ReplayConfig,
    SettlementLedger,
    replay_fleet,
    resume_fleet_replay,
)

from ..experiments.test_parallel import flip_digit, rewrite_payload

FLEET = FleetConfig(ues=16, shard_size=2, seed=5, n_cycles=1, cycle_duration_s=10.0)
REPLAY = ReplayConfig(duration_s=30.0)


class CountingStore(ResultCache):
    """A ``ResultCache`` that counts its writes."""

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self.puts = 0

    def put_data(self, key: str, data: dict):
        self.puts += 1
        return super().put_data(key, data)


def settlement_view(path) -> str:
    lines = [line for line in path.read_text().splitlines() if "seq" in json.loads(line)]
    return "".join(line + "\n" for line in lines)


class TestUnusableEntries:
    def test_unusable_entry_is_a_miss_and_is_overwritten(self, tmp_path):
        fleet = FleetConfig(ues=2, shard_size=2, seed=3, n_cycles=1, cycle_duration_s=10.0)
        (shard,) = build_shards(fleet)
        key = fleet_shard_key(shard)
        store = ResultCache(tmp_path)
        store.put_data(key, {"version": 1})
        rewrite_payload(store, key, {"version": 0})  # parses, but is no shard result

        service = ReconciliationService(disk_cache=store)
        service.start()
        claim = {"id": "s0", "vendor": "v", "kind": "shard", "shard": shard_to_dict(shard)}
        assert service.submit(claim).accepted
        service.drain()
        service.close()

        assert service.report.simulated == 1
        assert (service.cache.hits_disk, service.cache.misses) == (0, 1)
        counters = service.metrics.snapshot().counters
        assert "service.cache.hit{tier=disk}" not in counters
        assert counters["service.cache.miss"] == 1
        assert store.get_data(key) is not None

        # The rewritten entry now serves a second service as a hit.
        again = ReconciliationService(disk_cache=store)
        again.start()
        assert again.submit(claim).accepted
        again.drain()
        assert again.report.cached == 1
        assert (again.cache.hits_disk, again.cache.misses) == (1, 0)

    def test_entry_with_damaged_rows_is_a_miss_and_is_overwritten(self, tmp_path):
        fleet = FleetConfig(ues=2, shard_size=2, seed=3, n_cycles=1, cycle_duration_s=10.0)
        (shard,) = build_shards(fleet)
        key = fleet_shard_key(shard)
        store = ResultCache(tmp_path)
        good = _simulate_shard_to_dict(shard_to_dict(shard))
        store.put_data(key, good)
        rewrite_payload(store, key, {**good, "ues": [{}]})  # passes the top-level shape

        service = ReconciliationService(disk_cache=store)
        service.start()
        claim = {"id": "s0", "vendor": "v", "kind": "shard", "shard": shard_to_dict(shard)}
        assert service.submit(claim).accepted
        service.close()

        assert service.is_settled("s0")
        assert service.rejections == {}
        assert service.report.simulated == 1
        assert (service.cache.hits_disk, service.cache.misses) == (0, 1)
        assert store.get_data(key) == good

    def test_flipped_digit_is_a_miss_and_the_ledger_is_clean(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        clean = tmp_path / "clean.jsonl"
        replay_fleet(FLEET, REPLAY, disk_cache=store, ledger=SettlementLedger(clean))
        key = fleet_shard_key(build_shards(FLEET)[3])
        good = store.get_data(key)
        flip_digit(store.path_for_key(key), "mean_gap_mb_hr")

        again = tmp_path / "again.jsonl"
        _, stats, service = replay_fleet(
            FLEET, REPLAY, disk_cache=store, ledger=SettlementLedger(again)
        )
        assert stats.dropped == 0
        assert (service.report.simulated, service.report.cached) == (1, 7)
        assert service.metrics.snapshot().counters["service.cache.miss"] == 1
        assert store.get_data(key) == good  # re-published whole
        assert settlement_view(again) == settlement_view(clean)


class TestResumeWritesNoCache:
    def test_resume_onto_warm_cache_writes_nothing(self, tmp_path):
        store = CountingStore(tmp_path / "cache")
        replay_fleet(FLEET, REPLAY, disk_cache=store)  # warm every shard
        full = tmp_path / "full.jsonl"
        _, stats, service = replay_fleet(
            FLEET, REPLAY, disk_cache=store, ledger=SettlementLedger(full)
        )
        assert stats.dropped == 0
        assert service.report.simulated == 0
        raw = full.read_bytes()
        wounded = tmp_path / "wounded.jsonl"
        wounded.write_bytes(raw[: len(raw) * 3 // 4])
        # The journal prefix holds settled shards for the replay to fold.
        durable = wounded.read_text().splitlines()[:-1]  # minus the torn tail
        assert any(
            '"kind":"shard"' in line and '"type":"settled"' in line for line in durable
        )

        store.puts = 0
        result, stats, resumed = resume_fleet_replay(
            FLEET, wounded, replay=REPLAY, disk_cache=store
        )
        assert stats.dropped == 0 and result is not None
        assert store.puts == 0
        assert resumed.report.simulated == 0
        assert resumed.ledger.text() == service.ledger.text()
        assert settlement_view(wounded) == settlement_view(full)
