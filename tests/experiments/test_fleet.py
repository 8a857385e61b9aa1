"""Fleet engine: assignment, sharding, streaming aggregation, determinism."""

import dataclasses
import json
import math

import pytest

from repro.experiments.fleet import (
    ARCHETYPES,
    FLEET_CODEC_VERSION,
    FleetAccumulator,
    FleetConfig,
    _simulate_shard_to_dict,
    assign_ues,
    build_shards,
    fleet_shard_key,
    run_fleet,
    shard_from_dict,
    shard_result_to_dict,
    shard_to_dict,
    zipf_weights,
)
from repro.experiments.fleet_runner import simulate_shard
from repro.experiments.parallel import ResultCache, RunReport

from .test_parallel import flip_digit, rewrite_payload

# Small and cheap: 8 UEs, two 10 s cycles.  Archetype draws at this seed
# cover several workloads; everything downstream is deterministic.
FAST = FleetConfig(ues=8, shard_size=2, seed=3, n_cycles=2, cycle_duration_s=10.0)


def aggregate_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestConfig:
    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            FleetConfig(ues=0)

    def test_rejects_bad_shard_size(self):
        with pytest.raises(ValueError):
            FleetConfig(ues=4, shard_size=0)

    def test_rejects_unknown_archetype(self):
        with pytest.raises(ValueError):
            FleetConfig(ues=4, mix=("no-such-app",))

    def test_to_dict_json_safe(self):
        json.dumps(FAST.to_dict())

    def test_rejects_unknown_fault_profile(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            FleetConfig(ues=4, fault_profile="gremlins")

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("n_cycles", 0, "at least one cycle"),
            ("cycle_duration_s", 0.0, "cycle duration must be positive"),
            ("cycle_duration_s", -30.0, "cycle duration must be positive"),
            ("cycle_duration_s", math.nan, "cycle duration must be positive and finite"),
            ("cycle_duration_s", math.inf, "cycle duration must be positive and finite"),
            ("outage_eta", 0.0, r"eta must be in \(0, 1\)"),
            ("outage_eta", 1.5, r"eta must be in \(0, 1\)"),
            ("handover_interval_s", 0.0, "handover interval"),
            ("handover_interval_s", math.nan, "positive and finite"),
            ("handover_interval_s", math.inf, "positive and finite"),
            ("zipf_s", math.nan, "zipf exponent must be finite"),
            ("zipf_s", math.inf, "zipf exponent must be finite"),
            ("zipf_s", -math.inf, "zipf exponent must be finite"),
            ("quota_bytes", 0, "quota must be positive"),
            ("quota_bytes", -5, "quota must be positive"),
        ],
    )
    def test_rejects_out_of_range_override(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            FleetConfig(ues=4, **{name: value})


class TestAssignment:
    def test_zipf_weights_normalized_and_rank_ordered(self):
        weights = zipf_weights(5, 1.1)
        assert abs(sum(weights) - 1.0) < 1e-12
        assert weights == sorted(weights, reverse=True)

    def test_assignment_deterministic(self):
        assert assign_ues(FAST) == assign_ues(FAST)

    def test_assignment_independent_of_population_size(self):
        """UE #i is the same subscriber in a fleet of 8 or of 32."""
        small = assign_ues(FAST)
        large = assign_ues(FleetConfig(
            ues=32, shard_size=2, seed=3, n_cycles=2, cycle_duration_s=10.0
        ))
        assert large[: len(small)] == small

    def test_assignment_independent_of_shard_size(self):
        wide = FleetConfig(ues=8, shard_size=8, seed=3, n_cycles=2,
                           cycle_duration_s=10.0)
        assert assign_ues(FAST) == assign_ues(wide)

    def test_seed_changes_assignment(self):
        other = FleetConfig(ues=8, shard_size=2, seed=4, n_cycles=2,
                            cycle_duration_s=10.0)
        assert [u.seed for u in assign_ues(FAST)] != [u.seed for u in assign_ues(other)]

    def test_per_ue_config_resolved(self):
        for ue in assign_ues(FAST):
            assert ue.config.seed == ue.seed
            assert ue.config.n_cycles == FAST.n_cycles
            assert ue.config.cycle_duration_s == FAST.cycle_duration_s
            assert ue.config.workload == ARCHETYPES[ue.archetype].workload

    def test_fault_profile_resolves_per_ue_and_changes_shard_key(self):
        from repro.netsim.faults import FAULT_PROFILES

        chaotic = FleetConfig(
            ues=8, shard_size=2, seed=3, n_cycles=2, cycle_duration_s=10.0,
            fault_profile="chaos",
        )
        for ue in assign_ues(chaotic):
            assert ue.config.faults == FAULT_PROFILES["chaos"]
        # The profile rides inside each UE's ScenarioConfig, so the
        # content-addressed shard cache can never serve a faultless
        # result for a chaotic sweep.
        assert fleet_shard_key(build_shards(chaotic)[0]) != fleet_shard_key(
            build_shards(FAST)[0]
        )

    def test_none_profile_reuses_the_profileless_shards(self):
        """The empty ``none`` profile stamps nothing on the UEs, so its
        shards hit the cache entries of the same fleet run without one."""
        quiet = FleetConfig(
            ues=4, shard_size=2, seed=3, n_cycles=1, cycle_duration_s=5.0,
        )
        none = dataclasses.replace(quiet, fault_profile="none")
        shards, none_shards = build_shards(quiet), build_shards(none)
        assert [fleet_shard_key(s) for s in shards] == [
            fleet_shard_key(s) for s in none_shards
        ]
        assert [_simulate_shard_to_dict(shard_to_dict(s)) for s in shards] == [
            _simulate_shard_to_dict(shard_to_dict(s)) for s in none_shards
        ]
        plain = run_fleet(quiet, workers=0, cache=False).to_dict()
        declared = run_fleet(none, workers=0, cache=False).to_dict()
        assert declared["config"].pop("fault_profile") == "none"
        assert plain["config"].pop("fault_profile") is None
        assert declared == plain


class TestShards:
    def test_shard_cut_covers_population_in_order(self):
        shards = build_shards(FAST)
        flattened = [ue for shard in shards for ue in shard.ues]
        assert flattened == assign_ues(FAST)
        assert [s.index for s in shards] == list(range(len(shards)))

    def test_shard_codec_round_trip(self):
        shard = build_shards(FAST)[0]
        assert shard_from_dict(json.loads(json.dumps(shard_to_dict(shard)))) == shard

    def test_shard_key_stable_and_sensitive(self):
        shards = build_shards(FAST)
        assert fleet_shard_key(shards[0]) == fleet_shard_key(shards[0])
        assert fleet_shard_key(shards[0]) != fleet_shard_key(shards[1])
        reseeded = build_shards(FleetConfig(
            ues=8, shard_size=2, seed=4, n_cycles=2, cycle_duration_s=10.0
        ))
        assert fleet_shard_key(shards[0]) != fleet_shard_key(reseeded[0])


class TestShardRunner:
    def test_shard_result_deterministic(self):
        shard = build_shards(FAST)[0]
        a = shard_result_to_dict(simulate_shard(shard))
        b = shard_result_to_dict(simulate_shard(shard))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_every_ue_summarized(self):
        shard = build_shards(FAST)[1]
        result = simulate_shard(shard)
        assert [ue.ue_index for ue in result.ues] == [ue.index for ue in shard.ues]
        for ue in result.ues:
            assert ue.cycles == FAST.n_cycles
            assert set(ue.mean_gap_mb_hr) == {
                "legacy", "tlc-optimal", "tlc-random", "tlc-honest"
            }

    def test_standard_mix_all_batched_no_fallback_counters(self):
        """Every archetype in the standard mix rides the batched kernel.

        The ``kernel.fallback{reason=...}`` counter is the observable
        contract: absent entirely means no session fell back — outage,
        quota, RSS and handover shapes included.
        """
        from repro.experiments.fleet_runner import FleetShardRunner

        runner = FleetShardRunner(build_shards(FAST)[0], kernel="auto")
        result = runner.run()
        assert set(runner.kernel_used.values()) == {"batched"}
        assert runner.kernel_fallback_reasons == {}
        assert not any(
            key.startswith("kernel.fallback") for key in result.metrics.counters
        )

    def test_chaos_overrides_all_batched(self):
        from repro.experiments.fleet_runner import FleetShardRunner

        chaos = FleetConfig(
            ues=4,
            shard_size=4,
            seed=3,
            n_cycles=2,
            cycle_duration_s=10.0,
            outage_eta=0.1,
            handover_interval_s=5.0,
            handover_x2=True,
            quota_bytes=100_000,
        )
        runner = FleetShardRunner(build_shards(chaos)[0], kernel="auto")
        result = runner.run()
        assert set(runner.kernel_used.values()) == {"batched"}
        assert not any(
            key.startswith("kernel.fallback") for key in result.metrics.counters
        )

    def test_metric_cardinality_population_free(self):
        """Merged fleet metrics must not grow with the population."""
        import re

        small = simulate_shard(build_shards(FAST)[0]).metrics
        wide_config = FleetConfig(ues=8, shard_size=8, seed=3, n_cycles=2,
                                  cycle_duration_s=10.0)
        wide = simulate_shard(build_shards(wide_config)[0]).metrics
        for snapshot in (small, wide):
            keys = {**snapshot.counters, **snapshot.gauges, **snapshot.histograms}
            # No key names an individual subscriber (ue<index>, IMSI).
            assert not any(re.search(r"ue\d|imsi", key) for key in keys)
        # A 4x-larger shard adds at most the bounded archetype labels,
        # never per-UE keys: cardinality is O(metric names), not O(UEs).
        assert len(wide.gauges) <= len(small.gauges) + len(ARCHETYPES)
        assert len(wide.counters) <= len(small.counters) + 2 * len(ARCHETYPES)


class TestAccumulator:
    def _shard_dicts(self):
        return [
            _simulate_shard_to_dict(shard_to_dict(shard))
            for shard in build_shards(FAST)
        ]

    def test_permuted_arrival_is_bit_identical(self):
        datas = self._shard_dicts()
        in_order = FleetAccumulator()
        for data in datas:
            in_order.add(data)
        reference = aggregate_json(in_order.finalize(FAST, RunReport()))
        for permutation in ([3, 0, 2, 1], [1, 0, 3, 2], [3, 2, 1, 0]):
            accumulator = FleetAccumulator()
            for index in permutation:
                accumulator.add(datas[index])
            assert aggregate_json(
                accumulator.finalize(FAST, RunReport())
            ) == reference

    def test_duplicate_shard_rejected(self):
        datas = self._shard_dicts()
        accumulator = FleetAccumulator()
        accumulator.add(datas[0])
        with pytest.raises(ValueError, match="folded twice"):
            accumulator.add(datas[0])

    def test_missing_shard_detected_at_finalize(self):
        datas = self._shard_dicts()
        accumulator = FleetAccumulator()
        accumulator.add(datas[0])
        accumulator.add(datas[2])  # shard 1 never arrives
        with pytest.raises(ValueError, match="incomplete"):
            accumulator.finalize(FAST, RunReport())

    def test_ue_sink_streams_rows_in_index_order(self):
        rows = []
        run_fleet(FAST, workers=0, cache=False, ue_sink=rows.append)
        assert [row["index"] for row in rows] == list(range(FAST.ues))
        assert all("mean_gap_mb_hr" in row for row in rows)


class TestRunFleet:
    def test_parallel_bit_identical_to_serial(self):
        serial = run_fleet(FAST, workers=0, cache=False)
        fanned = run_fleet(FAST, workers=2, cache=False)
        assert aggregate_json(serial) == aggregate_json(fanned)

    def test_aggregate_shape(self):
        result = run_fleet(FAST, workers=0, cache=False)
        assert result.population == FAST.ues
        assert result.n_shards == 4
        assert sum(result.archetype_counts.values()) == FAST.ues
        assert result.gap_stats["legacy"].n == FAST.ues
        assert result.metrics.gauges["fleet.shard.ues"] == FAST.ues
        assert 0.0 <= result.convergence_ratio("tlc-optimal") <= 1.0
        assert result.render()  # renders without raising

    def test_second_run_is_all_cache_hits_and_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold_report = RunReport()
        cold = run_fleet(FAST, workers=0, cache=cache, report=cold_report)
        assert (cold_report.simulated, cold_report.cached) == (4, 0)
        warm_report = RunReport()
        warm = run_fleet(FAST, workers=0, cache=cache, report=warm_report)
        assert (warm_report.simulated, warm_report.cached) == (0, 4)
        assert aggregate_json(cold) == aggregate_json(warm)

    def test_corrupt_cache_entry_resimulated(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        reference = run_fleet(FAST, workers=0, cache=cache)
        key = fleet_shard_key(build_shards(FAST)[2])
        cache.path_for_key(key).write_text("{ not json")
        report = RunReport()
        result = run_fleet(FAST, workers=0, cache=cache, report=report)
        assert (report.simulated, report.cached) == (1, 3)
        assert aggregate_json(result) == aggregate_json(reference)

    def test_entry_that_parses_but_is_damaged_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        reference = run_fleet(FAST, workers=0, cache=cache)
        key = fleet_shard_key(build_shards(FAST)[2])
        rewrite_payload(cache, key, {"version": FLEET_CODEC_VERSION, "shard_index": 2})
        report = RunReport()
        result = run_fleet(FAST, workers=2, cache=cache, report=report)
        assert (report.simulated, report.cached) == (1, 3)
        assert aggregate_json(result) == aggregate_json(reference)
        assert cache.get_data(key)["ues"]  # re-published whole

    @pytest.mark.parametrize(
        "damage",
        [
            lambda row: {},
            lambda row: {k: v for k, v in row.items() if k != "converged_cycles"},
            lambda row: {**row, "mean_gap_mb_hr": []},
            lambda row: {**row, "archetype": None},
        ],
        ids=["empty", "missing-field", "list-for-dict", "no-archetype"],
    )
    def test_entry_with_damaged_rows_is_dropped(self, tmp_path, damage):
        cache = ResultCache(tmp_path / "cache")
        reference = run_fleet(FAST, workers=0, cache=cache)
        key = fleet_shard_key(build_shards(FAST)[2])
        entry = cache.get_data(key)
        rewrite_payload(cache, key, {**entry, "ues": [damage(row) for row in entry["ues"]]})
        report = RunReport()
        result = run_fleet(FAST, workers=0, cache=cache, report=report)
        assert (report.simulated, report.cached) == (1, 3)
        assert aggregate_json(result) == aggregate_json(reference)
        assert cache.get_data(key) == entry  # re-published whole

    @pytest.mark.parametrize(
        "damage",
        [
            lambda cache, key: flip_digit(cache.path_for_key(key), "mean_gap_mb_hr"),
            lambda cache, key: rewrite_payload(
                cache, key, {**cache.get_data(key), "metrics": {"counters": ["x"]}}
            ),
        ],
        ids=["flipped-gap-digit", "damaged-metrics"],
    )
    def test_entry_damaged_under_its_digest_is_dropped(self, tmp_path, damage):
        fleet = FleetConfig(ues=2, shard_size=2, seed=3, n_cycles=1, cycle_duration_s=5.0)
        cache = ResultCache(tmp_path / "cache")
        reference = run_fleet(fleet, workers=0, cache=cache)
        key = fleet_shard_key(build_shards(fleet)[0])
        entry = cache.get_data(key)
        damage(cache, key)
        report = RunReport()
        result = run_fleet(fleet, workers=0, cache=cache, report=report)
        assert (report.simulated, report.cached) == (1, 0)
        assert aggregate_json(result) == aggregate_json(reference)
        assert cache.get_data(key) == entry  # re-published whole

    def test_shard_size_one_and_uneven_tail(self):
        """Populations that don't divide evenly still cover every UE."""
        uneven = FleetConfig(ues=5, shard_size=2, seed=3, n_cycles=2,
                             cycle_duration_s=10.0)
        result = run_fleet(uneven, workers=0, cache=False)
        assert result.population == 5
        assert result.n_shards == 3
