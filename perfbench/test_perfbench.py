"""Tests of the benchmark's own machinery: self time and layer attribution.

    python3 -m pytest perfbench

The attribution tests slow one wrapped layer by a fixed CPU busy-wait from
the test side and require the trace to put that CPU in that layer's self
time and nowhere else.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
from repro.experiments.fleet import DEFAULT_MIX  # noqa: E402
from workloads import WORKLOADS, Bench, _apportion  # noqa: E402


def burn(seconds: float) -> None:
    """Spend ``seconds`` of process CPU time."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def traced_pass(workload: str, workdir: Path, budget_s: float):
    """Compose ``workload`` and run its measured phases once, traced."""
    bench = Bench(seed=5, budget_s=budget_s, workdir=workdir / "setup")
    WORKLOADS[workload](bench)
    recorder = tracer.Recorder()
    bench.recorder = recorder
    with tracer.installed(recorder):
        measured = bench.measure(workdir / "pass")
    return measured, tracer.layer_metrics(recorder, measured, 1.0)


def self_times(layers: dict) -> dict:
    return {name: value for name, value in layers.items() if name.endswith(".self_s")}


def assert_attributed(base: dict, slowed: dict, layer: str, injected: float) -> None:
    grown = slowed[layer] - base[layer]
    assert grown == pytest.approx(injected, rel=0.25), (layer, grown, injected)
    for name in self_times(base):
        if name != layer and not name.endswith("fsync_wall_s"):
            moved = abs(slowed[name] - base[name])
            assert moved < 0.1 * injected, (name, base[name], slowed[name])


def test_self_time_excludes_wrapped_children(tmp_path):
    recorder = tracer.Recorder()

    def inner():
        burn(0.02)

    wrapped_inner = recorder.wrap("inner", inner, span=True)

    def outer():
        burn(0.03)
        wrapped_inner()
        wrapped_inner()

    recorder.wrap("outer", outer, span=True)()
    assert recorder.calls == {"inner": 2, "outer": 1}
    assert recorder.self_s["inner"] == pytest.approx(0.04, abs=0.01)
    assert recorder.self_s["outer"] == pytest.approx(0.03, abs=0.01)

    recorder.dump(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines[:-1]]
    outer_span = next(span for span in spans if span["name"] == "outer")
    assert [span["parent"] for span in spans if span["name"] == "inner"] == [outer_span["id"]] * 2
    by_id = tracer.span_self_times(spans)
    assert by_id[outer_span["id"]] == pytest.approx(recorder.self_s["outer"], abs=1e-6)


def test_population_matches_zipf_shares():
    from repro.experiments.fleet import assign_ues, zipf_weights

    assert _apportion(24, [0.5, 0.25, 0.25]) == [12, 6, 6]
    assert _apportion(7, [0.5, 0.3, 0.2]) == [4, 2, 1]
    bench = Bench(seed=1, budget_s=2.0, workdir=Path("unused"))
    fleets = bench.population(ues_per_cpu_s=20.0, unit_ues=10)
    assert len(fleets) == 4 and len({fleet.seed for fleet in fleets}) == 4
    target = _apportion(10, zipf_weights(len(DEFAULT_MIX), fleets[0].zipf_s))
    for fleet in fleets:
        assert fleet.ues == 10 and fleet.mix == DEFAULT_MIX
        drawn = [ue.archetype for ue in assign_ues(fleet)]
        assert [drawn.count(name) for name in fleet.mix] == target
    assert bench.population(ues_per_cpu_s=20.0, unit_ues=10) == fleets


def test_slowed_run_lane_shows_in_kernel_fold(tmp_path, monkeypatch):
    from repro.experiments import fleet_runner

    base_pass, base = traced_pass("fleet-steady", tmp_path / "base", budget_s=0.25)
    assert base["kernel.fold.lanes"] > 0 and base["kernel.general.lanes"] == 0

    original = fleet_runner.run_lane
    per_call = 0.04

    def slowed(*args, **kwargs):
        burn(per_call)
        return original(*args, **kwargs)

    monkeypatch.setattr(fleet_runner, "run_lane", slowed)
    slowed_pass, layers = traced_pass("fleet-steady", tmp_path / "slowed", budget_s=0.25)
    assert slowed_pass.digest() == base_pass.digest()
    assert_attributed(base, layers, "kernel.fold.self_s", per_call * base["kernel.fold.lanes"])


def test_slowed_verify_shows_in_poc_verify(tmp_path, monkeypatch):
    from repro.poc.verifier import PublicVerifier

    base_pass, base = traced_pass("serve-warm", tmp_path / "base", budget_s=0.05)
    assert base["poc.verify.calls"] > 0 and base["service.simulated"] == 0

    original = PublicVerifier.verify
    per_call = 0.005

    def slowed(self, *args, **kwargs):
        burn(per_call)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PublicVerifier, "verify", slowed)
    slowed_pass, layers = traced_pass("serve-warm", tmp_path / "slowed", budget_s=0.05)
    assert slowed_pass.digest() == base_pass.digest()
    assert_attributed(base, layers, "poc.verify.self_s", per_call * base["poc.verify.calls"])


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
