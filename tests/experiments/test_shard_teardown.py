"""A finished fleet shard or scenario frees itself.

``simulate_shard`` and ``run_scenario`` close what the simulation built
(the loop's queued events, the network's wiring, the sessions' fault
pipes; the metrics spans hold no cycle), so once the caller drops the result,
reference counting frees the whole simulation: the cyclic collector
finds nothing left.
"""

import gc

import pytest

from repro.experiments.fleet import FleetConfig, build_shards, shard_result_to_dict
from repro.experiments.fleet_runner import simulate_shard
from repro.experiments.parallel import result_to_dict
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import VRIDGE_DL, WEBCAM_UDP_UL
from repro.netsim.faults import FAULT_PROFILES

STEADY = FleetConfig(ues=10, seed=3)
CHAOS = FleetConfig(
    ues=10,
    seed=3,
    outage_eta=0.1,
    fault_profile="chaos",
    handover_interval_s=20.0,
    handover_x2=True,
)
CHAOS_SCENARIO = VRIDGE_DL.with_(
    n_cycles=2, cycle_duration_s=30.0, outage_eta=0.1, faults=FAULT_PROFILES["chaos"]
)
X2_SCENARIO = WEBCAM_UDP_UL.with_(
    n_cycles=2, cycle_duration_s=30.0, handover_interval_s=10.0, handover_x2=True
)


def _cyclic_garbage(run) -> tuple[int, int]:
    """Objects the cyclic collector finds once ``run()``'s result is dropped."""
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        unreachable = gc.collect()
        leaked = len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    return unreachable, leaked


@pytest.mark.parametrize("kernel", ["batched", "reference"])
@pytest.mark.parametrize("fleet", [STEADY, CHAOS], ids=["steady", "chaos"])
def test_finished_shard_leaves_no_cyclic_garbage(monkeypatch, fleet, kernel):
    monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
    shard = build_shards(fleet)[0]

    def run():
        data = shard_result_to_dict(simulate_shard(shard))
        assert len(data["ues"]) == len(shard.ues)

    assert _cyclic_garbage(run) == (0, 0)


@pytest.mark.parametrize("kernel", ["batched", "reference"])
@pytest.mark.parametrize("config", [CHAOS_SCENARIO, X2_SCENARIO], ids=["chaos", "x2"])
def test_finished_scenario_leaves_no_cyclic_garbage(config, kernel):
    def run():
        data = result_to_dict(run_scenario(config, kernel=kernel))
        assert len(data["usages"]) == config.n_cycles

    assert _cyclic_garbage(run) == (0, 0)
