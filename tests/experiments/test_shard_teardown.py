"""A finished fleet shard frees itself.

``simulate_shard`` closes what the shard built (the loop's queued
events, the network's wiring, the sessions' fault pipes, the metrics
spans), so once the caller drops the result, reference counting frees
the whole simulation: the cyclic collector finds nothing left.
"""

import gc

import pytest

from repro.experiments.fleet import FleetConfig, build_shards, shard_result_to_dict
from repro.experiments.fleet_runner import simulate_shard

STEADY = FleetConfig(ues=10, seed=3)
CHAOS = FleetConfig(
    ues=10,
    seed=3,
    outage_eta=0.1,
    fault_profile="chaos",
    handover_interval_s=20.0,
    handover_x2=True,
)


@pytest.mark.parametrize("kernel", ["batched", "reference"])
@pytest.mark.parametrize("fleet", [STEADY, CHAOS], ids=["steady", "chaos"])
def test_finished_shard_leaves_no_cyclic_garbage(monkeypatch, fleet, kernel):
    monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
    shard = build_shards(fleet)[0]
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        data = shard_result_to_dict(simulate_shard(shard))
        assert len(data["ues"]) == len(shard.ues)
        del data
        unreachable = gc.collect()
        leaked = len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert (unreachable, leaked) == (0, 0)
