"""Parallel scenario engine: codec, cache, and serial/parallel identity."""

import hashlib
import json
import re
import threading

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    CODEC_VERSION,
    ResultCache,
    RunReport,
    config_from_dict,
    config_to_dict,
    derive_seed,
    result_from_dict,
    result_to_dict,
    run_scenarios,
    scenario_key,
)
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import GAMING_DL, VRIDGE_DL, WEBCAM_RTSP_UL, WEBCAM_UDP_UL

# Short, cheap scenarios: the gaming workload is ~20 kbps, so even four
# of these simulate in a couple of seconds.
FAST = [
    GAMING_DL.with_(n_cycles=2, cycle_duration_s=15.0, seed=7),
    GAMING_DL.with_(n_cycles=2, cycle_duration_s=15.0, seed=8, background_mbps=120.0),
    GAMING_DL.with_(n_cycles=2, cycle_duration_s=15.0, seed=9, outage_eta=0.1),
    GAMING_DL.with_(n_cycles=2, cycle_duration_s=15.0, seed=10, base_loss=0.08),
]


#: Cache entries that parse but are damaged, made from a good entry.
DAMAGED = {
    "no-fields": lambda entry: {"version": CODEC_VERSION},
    "stale-version": lambda entry: {**entry, "version": CODEC_VERSION - 1},
    "empty": lambda entry: {},
    "damaged-row": lambda entry: {**entry, "usages": [{}]},
    "wrong-type": lambda entry: {**entry, "metrics": 5},
}


def rewrite_payload(cache: ResultCache, key: str, payload: dict) -> None:
    """Damage an entry in place: a new payload under the published digest."""
    path = cache.path_for_key(key)
    digest = json.loads(path.read_bytes())["sha256"]
    path.write_text(json.dumps({"sha256": digest, **payload}, separators=(",", ":")))


def flip_digit(path, field: str) -> None:
    """Change the first digit after ``field``'s name in a cache file (never
    to a leading 0, so the file still parses)."""
    raw = path.read_bytes()
    at = re.compile(rb'"%s":\D*(\d)' % field.encode()).search(raw).start(1)
    flipped = b"2" if raw[at : at + 1] == b"1" else b"1"
    path.write_bytes(raw[:at] + flipped + raw[at + 1 :])


def outcome_volumes(result):
    return {
        scheme: [o.charged for o in outcomes]
        for scheme, outcomes in result.outcomes.items()
    }


class TestCodec:
    def test_config_round_trip(self):
        for config in (GAMING_DL, WEBCAM_RTSP_UL.with_(outage_eta=0.12, c=0.75)):
            assert config_from_dict(config_to_dict(config)) == config

    def test_config_dict_is_json_safe(self):
        json.dumps(config_to_dict(WEBCAM_RTSP_UL))

    def test_result_round_trip(self):
        result = run_scenario(FAST[0])
        decoded = result_from_dict(result_to_dict(result))
        assert decoded.config == result.config
        assert decoded.usages == result.usages
        assert decoded.outcomes == result.outcomes
        assert decoded.measured_bitrate_bps == result.measured_bitrate_bps

    def test_result_round_trip_through_json(self):
        result = run_scenario(FAST[0])
        decoded = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert decoded.usages == result.usages
        assert decoded.outcomes == result.outcomes

    def test_version_mismatch_rejected(self):
        data = result_to_dict(run_scenario(FAST[0]))
        data["version"] = -1
        with pytest.raises(ValueError, match="codec version"):
            result_from_dict(data)

    def test_forward_version_config_keys_ignored(self):
        """A v(N+1)-shaped config dict (new fields) must still decode.

        An older binary pointed at a newer cache directory reads entries
        whose configs carry fields it doesn't know; those must round-trip
        on the shared fields instead of crashing the sweep.
        """
        data = config_to_dict(GAMING_DL)
        data["future_knob"] = 42
        data["another_subsystem"] = {"nested": True}
        data["workload"]["future_codec"] = "av2"
        assert config_from_dict(data) == GAMING_DL


class TestKeys:
    def test_key_stable_and_sensitive(self):
        a = scenario_key(GAMING_DL)
        assert a == scenario_key(GAMING_DL)
        assert a != scenario_key(GAMING_DL.with_(seed=2))
        assert a != scenario_key(GAMING_DL.with_(base_loss=0.02))
        assert a != scenario_key(WEBCAM_RTSP_UL)

    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "webcam:0") == derive_seed(1, "webcam:0")
        assert derive_seed(1, "webcam:0") != derive_seed(1, "webcam:1")
        assert derive_seed(1, "webcam:0") != derive_seed(2, "webcam:0")


class TestParallelIdentity:
    def test_parallel_bit_identical_to_serial(self):
        serial = run_scenarios(FAST, workers=0, cache=None)
        fanned = run_scenarios(FAST, workers=4, cache=None)
        for s, p in zip(serial, fanned):
            assert outcome_volumes(s) == outcome_volumes(p)
            assert s.usages == p.usages
            assert s.measured_bitrate_bps == p.measured_bitrate_bps

    def test_order_preserved(self):
        results = run_scenarios(FAST, workers=2, cache=None)
        assert [r.config for r in results] == FAST


class TestResultCache:
    def test_second_run_simulates_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = RunReport()
        cold = run_scenarios(FAST[:2], workers=0, cache=cache, report=first)
        assert (first.simulated, first.cached) == (2, 0)

        second = RunReport()
        warm = run_scenarios(FAST[:2], workers=0, cache=cache, report=second)
        assert (second.simulated, second.cached) == (0, 2)
        for a, b in zip(cold, warm):
            assert outcome_volumes(a) == outcome_volumes(b)
            assert a.usages == b.usages

    def test_changed_config_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_scenarios(FAST[:1], workers=0, cache=cache)
        report = RunReport()
        run_scenarios(
            [FAST[0].with_(seed=99)], workers=0, cache=cache, report=report
        )
        assert report.simulated == 1

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_scenarios(FAST[:1], workers=0, cache=cache)
        key = scenario_key(FAST[0])
        cache.path_for_key(key).write_text("{ truncated garbage")
        report = RunReport()
        run_scenarios(FAST[:1], workers=0, cache=cache, report=report)
        assert report.simulated == 1  # re-simulated, file replaced
        assert result_from_dict(cache.get_data(key)).config == FAST[0]

    @pytest.mark.parametrize("damage", DAMAGED.values(), ids=list(DAMAGED))
    def test_entry_that_parses_but_is_damaged_is_dropped(self, tmp_path, damage):
        cache = ResultCache(tmp_path / "cache")
        run_scenarios(FAST[:1], workers=0, cache=cache)
        key = scenario_key(FAST[0])
        entry = cache.get_data(key)
        rewrite_payload(cache, key, damage(entry))
        report = RunReport()
        (result,) = run_scenarios(FAST[:1], workers=2, cache=cache, report=report)
        assert (report.simulated, report.cached) == (1, 0)
        assert result_to_dict(result) == entry
        assert cache.get_data(key) == entry  # re-published whole

    def test_concurrent_publish_same_key_never_corrupts(self, tmp_path):
        """Racing writers stage through unique temp files.

        With a shared ``.tmp`` staging name, two publishers of the same
        key could interleave write/rename and publish garbage; with
        pid+uuid temp names every published file is one writer's complete
        payload.  Threads share a pid, so this exercises the uuid half of
        the uniqueness too.
        """
        cache = ResultCache(tmp_path / "cache")
        payloads = [{"version": 1, "writer": i, "blob": "x" * 4096} for i in range(8)]
        barrier = threading.Barrier(len(payloads))

        def publish(payload):
            barrier.wait()
            for _ in range(20):
                cache.put_data("contended-key", payload)

        threads = [threading.Thread(target=publish, args=(p,)) for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = cache.get_data("contended-key")
        assert final in payloads  # some complete payload, never a splice
        leftovers = list((tmp_path / "cache").glob("*.tmp"))
        assert leftovers == []

    def test_entry_with_one_byte_changed_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        raw = cache.put_data("k", {"ok": 1, "rows": [0.5]}).read_bytes()
        for at in range(len(raw)):
            cache.path_for_key("k").write_bytes(
                raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1 :]
            )
            assert cache.get_data("k") is None, at
            assert not cache.has("k")
        cache.path_for_key("k").write_bytes(raw)
        assert cache.get_data("k") == {"ok": 1, "rows": [0.5]}

    def test_entry_bytes_are_pinned(self, tmp_path):
        # The digest covers the key, then every byte after the digest member.
        cache = ResultCache(tmp_path)
        digest = hashlib.sha256(b'k,"ok":1}').hexdigest().encode()
        assert cache.put_data("k", {"ok": 1}).read_bytes() == (
            b'{"sha256":"' + digest + b'","ok":1}'
        )
        digest = hashlib.sha256(b"e}").hexdigest().encode()
        assert cache.put_data("e", {}).read_bytes() == b'{"sha256":"' + digest + b'"}'
        assert cache.get_data("e") == {}
        with pytest.raises(ValueError, match="'sha256' member"):
            cache.put_data("s", {"sha256": "x"})

    def test_entry_written_without_a_digest_is_resimulated_once(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_scenarios(FAST[:1], workers=0, cache=cache)
        key = scenario_key(FAST[0])
        entry = cache.get_data(key)
        # The layout of an entry published before entries carried a digest.
        cache.path_for_key(key).write_text(json.dumps(entry, separators=(",", ":")))
        report = RunReport()
        for _ in range(2):
            run_scenarios(FAST[:1], workers=0, cache=cache, report=report)
        assert (report.simulated, report.cached) == (1, 1)
        assert cache.get_data(key) == entry

    def test_flipped_result_digit_is_resimulated(self, tmp_path):
        config = WEBCAM_UDP_UL.with_(n_cycles=1, cycle_duration_s=5.0)
        cache = ResultCache(tmp_path / "cache")
        (clean,) = run_scenarios([config], workers=0, cache=cache)
        key = scenario_key(config)
        entry = cache.get_data(key)
        flip_digit(cache.path_for_key(key), "true_sent")
        report = RunReport()
        (result,) = run_scenarios([config], workers=0, cache=cache, report=report)
        assert (report.simulated, report.cached) == (1, 0)
        assert result.usages == clean.usages
        assert cache.get_data(key) == entry  # re-published whole

    def test_entry_filed_under_another_key_is_resimulated(self, tmp_path):
        webcam, vridge = (
            c.with_(n_cycles=1, cycle_duration_s=5.0) for c in (WEBCAM_UDP_UL, VRIDGE_DL)
        )
        cache = ResultCache(tmp_path / "cache")
        clean = run_scenarios([webcam, vridge], workers=0, cache=cache)
        moved = cache.path_for_key(scenario_key(webcam)).read_bytes()
        cache.path_for_key(scenario_key(vridge)).write_bytes(moved)
        report = RunReport()
        results = run_scenarios([webcam, vridge], workers=0, cache=cache, report=report)
        assert (report.simulated, report.cached) == (1, 1)
        assert [r.config for r in results] == [webcam, vridge]
        assert [r.usages for r in results] == [r.usages for r in clean]

    def test_get_data_drops_non_dict_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put_data("k", {"ok": 1})
        cache.path_for_key("k").write_text("[1, 2, 3]")  # parses, wrong shape
        assert cache.get_data("k") is None
        assert not cache.has("k")

    def test_cache_false_disables(self, tmp_path):
        parallel.configure(workers=0, cache_dir=tmp_path / "default-cache")
        try:
            run_scenarios(FAST[:1], cache=True)
            report = RunReport()
            run_scenarios(FAST[:1], cache=False, report=report)
            assert report.simulated == 1
            report = RunReport()
            run_scenarios(FAST[:1], cache=True, report=report)
            assert report.cached == 1
        finally:
            parallel.configure(workers=0, cache_dir=None)
