"""The scenario and fleet codecs: pinned keys, the direct encoder, shared schedules.

Cache keys hash the encoded configs, so an encoder that changes a byte
orphans every cached result and every journaled shard key.  The pins
below were computed with the ``dataclasses.asdict``-based encoder that
:func:`config_to_dict` replaced, which the tests keep as the reference.
"""

import dataclasses
import json

import pytest

from repro.experiments import parallel
from repro.experiments.fleet import (
    ARCHETYPES,
    FleetConfig,
    build_shards,
    fleet_shard_key,
    shard_from_dict,
    shard_to_dict,
)
from repro.experiments.parallel import config_to_dict, scenario_key
from repro.experiments.scenarios import VRIDGE_DL, WEBCAM_UDP_UL
from repro.netsim.faults import FAULT_PROFILES

#: fleet-chaos's FleetConfig overrides.
CHAOS = dict(
    outage_eta=0.1, fault_profile="chaos", handover_interval_s=20.0, handover_x2=True
)

#: (fleet, fleet_shard_key of its first shard).
SHARD_KEYS = [
    (
        FleetConfig(ues=10),
        "09fef02eb58902dd78128fdfd0fbf56b1711bb3978023ced0608c8c7d0e94386",
    ),
    (
        FleetConfig(ues=10, **CHAOS),
        "65ba2a013f5437232c06c17ae6f69128c203b6042659752c1250af66b5b289ed",
    ),
    (
        FleetConfig(ues=128, shard_size=4, cycle_duration_s=2.0),
        "ff0c9e5a86d4e2b26139227af0789d0194898eabc7d11bd0ce1e5229076de16b",
    ),
]

#: (config, scenario_key).
SCENARIO_KEYS = [
    (
        WEBCAM_UDP_UL,
        "98025677d4e135954d9620cc3c6d82007e83c3d7c763c286b0d652ba2411a82a",
    ),
    (
        VRIDGE_DL.with_(
            faults=FAULT_PROFILES["chaos"], n_cycles=2, cycle_duration_s=240.0
        ),
        "b17a79a7f67858e04dc439dc51b2231c6fb206f94a84ab76bbe75d2262576d02",
    ),
]


def asdict_config_to_dict(config):
    """The encoder as it was before it read the fields directly."""
    encoded = dataclasses.asdict(config)
    encoded["direction"] = config.direction.value
    encoded["workload"] = dict(encoded["workload"])
    encoded["workload"]["transport"] = config.workload.transport.value
    encoded["faults"] = None if config.faults is None else config.faults.to_dict()
    return encoded


def chaos_shard():
    return build_shards(FleetConfig(ues=10, **CHAOS))[0]


class TestPinnedKeys:
    @pytest.mark.parametrize("fleet,key", SHARD_KEYS)
    def test_fleet_shard_key(self, fleet, key):
        assert fleet_shard_key(build_shards(fleet)[0]) == key

    @pytest.mark.parametrize("fleet,key", SHARD_KEYS)
    def test_default_fault_profile_leaves_fleet_keys_alone(self, monkeypatch, fleet, key):
        # A fleet's faults come from its FleetConfig alone, never from the
        # process-wide default that scenario sweeps stamp on.
        for name in ("_default_workers", "_default_cache", "_default_faults"):
            monkeypatch.setattr(parallel, name, getattr(parallel, name))
        parallel.configure(fault_profile="chaos")
        assert fleet_shard_key(build_shards(fleet)[0]) == key

    @pytest.mark.parametrize("config,key", SCENARIO_KEYS)
    def test_scenario_key(self, config, key):
        assert scenario_key(config) == key


class TestDirectEncoder:
    CONFIGS = [
        *ARCHETYPES.values(),
        *(WEBCAM_UDP_UL.with_(faults=profile) for profile in FAULT_PROFILES.values()),
        *(ue.config for ue in chaos_shard().ues),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
    def test_matches_the_asdict_encoder_byte_for_byte(self, config):
        # Unsorted dumps: a cache entry's bytes follow the dict's key order.
        assert json.dumps(config_to_dict(config)) == json.dumps(
            asdict_config_to_dict(config)
        )


class TestSharedSchedules:
    def test_chaos_shard_round_trips(self):
        shard = chaos_shard()
        assert shard_from_dict(shard_to_dict(shard)) == shard
        assert shard_from_dict(json.loads(json.dumps(shard_to_dict(shard)))) == shard

    def test_decoded_ues_share_one_schedule(self):
        shard = chaos_shard()
        assert len(shard.ues) == 8
        decoded = shard_from_dict(json.loads(json.dumps(shard_to_dict(shard))))
        schedules = {id(ue.config.faults) for ue in decoded.ues}
        assert len(schedules) == 1
        assert decoded.ues[0].config.faults == FAULT_PROFILES["chaos"]

    def test_distinct_schedules_stay_distinct(self):
        data = shard_to_dict(chaos_shard())
        data["ues"][1]["config"]["faults"] = FAULT_PROFILES["bursty"].to_dict()
        decoded = shard_from_dict(data)
        assert decoded.ues[1].config.faults == FAULT_PROFILES["bursty"]
        assert all(
            ue.config.faults == FAULT_PROFILES["chaos"]
            for i, ue in enumerate(decoded.ues)
            if i != 1
        )

    def test_equal_but_differently_typed_input_is_not_shared(self):
        # 1 == 1.0, yet a target of 1 decodes to the pattern "1", not
        # "1.0": sharing must follow what the input decodes to.
        data = shard_to_dict(chaos_shard())
        first = data["ues"][0]["config"]["faults"]["specs"][0]
        second = data["ues"][1]["config"]["faults"]["specs"][0]
        first["target"], second["target"] = 1.0, 1
        decoded = shard_from_dict(data)
        assert decoded.ues[0].config.faults.specs[0].target == "1.0"
        assert decoded.ues[1].config.faults.specs[0].target == "1"
        assert fleet_shard_key(decoded) != fleet_shard_key(chaos_shard())
