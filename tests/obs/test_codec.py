"""Metrics snapshots through the result codec and the on-disk cache.

A ``ScenarioResult`` carries its metrics snapshot through the parallel
codec (``result_to_dict``/``result_from_dict``) and the content-addressed
``ResultCache``.  Both paths must preserve the snapshot bit-for-bit:
``repro obs`` renders accounting straight from cached JSON, so any loss
or reordering here silently corrupts the observability story.
"""

import json

import pytest

from repro.experiments.parallel import (
    CODEC_VERSION,
    ResultCache,
    RunReport,
    result_from_dict,
    result_to_dict,
    run_scenarios,
    scenario_key,
)
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import WEBCAM_RTSP_UL
from repro.obs import MetricsSnapshot

pytestmark = pytest.mark.slow

CONFIG = WEBCAM_RTSP_UL.with_(n_cycles=1, cycle_duration_s=5.0, seed=7)


@pytest.fixture(scope="module")
def result():
    return run_scenario(CONFIG)


def canon(snapshot: MetricsSnapshot) -> str:
    return json.dumps(snapshot.to_dict(), sort_keys=True)


def test_run_produces_a_populated_snapshot(result):
    assert not result.metrics.is_empty
    assert any(k.startswith("netsim.link.") for k in result.metrics.counters)
    assert any(k.startswith("cellular.gateway.") for k in result.metrics.counters)
    assert any(s["name"] == "simulate" for s in result.metrics.spans)


def test_codec_round_trip_is_bit_identical(result):
    decoded = result_from_dict(result_to_dict(result))
    assert decoded.metrics == result.metrics
    assert canon(decoded.metrics) == canon(result.metrics)


def test_cache_round_trip_is_bit_identical(result, tmp_path):
    cache = ResultCache(tmp_path)
    key = scenario_key(CONFIG)
    cache.put_data(key, result_to_dict(result))
    cached = result_from_dict(cache.get_data(key))
    assert cached.metrics == result.metrics
    assert canon(cached.metrics) == canon(result.metrics)


def test_pre_metrics_cache_entry_is_a_miss(result, tmp_path):
    """A cache file from before the codec carried metrics (version bump)
    must read as a miss and be evicted, never as a metrics-less hit."""
    cache = ResultCache(tmp_path)
    path = cache.put_data(scenario_key(CONFIG), result_to_dict(result))
    stale = json.loads(path.read_text())
    stale["version"] = 2
    stale.pop("metrics", None)
    path.write_text(json.dumps(stale, separators=(",", ":")))
    report = RunReport()
    (fresh,) = run_scenarios([CONFIG], workers=0, cache=cache, report=report)
    assert (report.simulated, report.cached) == (1, 0)
    assert canon(fresh.metrics) == canon(result.metrics)
    assert json.loads(path.read_text())["version"] == CODEC_VERSION
