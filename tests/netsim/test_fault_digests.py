"""Golden digests of the reference engine under the canned fault profiles.

Every pipe on the reference engine takes its fates from
``FaultInjector.decider``, the same closures the batched kernel's lanes
use.  These digests pin the whole result — fault trace included — of
one single-UE run per archetype and profile, so a change to how a
decision is made, cached or wrapped shows up as a changed digest even
where no lane runs.
"""

import hashlib
import json

import pytest

from repro.experiments.fleet import ARCHETYPES
from repro.experiments.parallel import result_to_dict
from repro.experiments.runner import ScenarioRunner
from repro.netsim.faults import FAULT_PROFILES

#: sha256 of ``json.dumps(result_to_dict(...), sort_keys=True)`` for
#: 2 x 60 s cycles at seed 11, keyed by (profile, archetype).
DIGESTS = {
    ("chaos", "gaming-qci7-dl"): "6b0356ebdb88a154b29b4b3c1e26e80bd1576466d6292a21e036870ce4196729",
    ("chaos", "background-iperf-dl"): "c11690b43dee696935b9fcf5aa8589a08c7f0f5de03e9c217df16bb316288600",
    ("chaos", "webcam-rtsp-ul"): "f6a0e028d253b8295098a99d4b6f63edfeea48e4306a0694aaae30043c8a9199",
    ("chaos", "webcam-udp-ul"): "b49f135f1039a3f119f3af3f174a53b37a015eb887f61871f000e328d0db3cbc",
    ("chaos", "vridge-gvsp-dl"): "969e89cce1339b5e520fca24af6ff815b532af0670a52bc21ce09d7f3dec17c7",
    ("flaky-link", "gaming-qci7-dl"): "be03f3e8402c9913ee9cd266c071227462d9d3ffeba0ab206812a2733b2b3d06",
    ("flaky-link", "background-iperf-dl"): "3a538df74f30eb027ead0363c2bfe1bc880df46c7897fe1b13e203a4c00070b5",
    ("flaky-link", "webcam-rtsp-ul"): "3ce3419270becc3877f335eedff73bebdfc1b74b3fd1917f25f5a6b2c4e82850",
    ("flaky-link", "webcam-udp-ul"): "fccb0c67fc45decee6be02741c4d7693b0fefbb0ad8a556f8610c2905df198d3",
    ("flaky-link", "vridge-gvsp-dl"): "e2b778b45a1a0ad374f6b33425194794509f77a5085285c1a10b3eec42bbc0c5",
    ("bursty", "gaming-qci7-dl"): "ee4bc7413bef45a52ba349c2fa31c59239453a6da4c2aca5f50703586ff778d2",
    ("bursty", "background-iperf-dl"): "2da11d3c3cd38ab8ec55f014e6f8265243e4158f30bf09f0d779a835a9d78cf1",
    ("bursty", "webcam-rtsp-ul"): "f4f6ae06f330047c76e441c010790f4984f56562c693e6fb5b8cbcde880dac77",
    ("bursty", "webcam-udp-ul"): "21722bd6bb890fb7a38e1d7846462aa3df3fc38447177b67bd2eb59d8b9e1039",
    ("bursty", "vridge-gvsp-dl"): "4bc459a9c67789426b4db83edd6d1db303f08b1ab7138aa6af166fad8f218a74",
}

#: The iperf and VRidge rows take 1-3 s each; they run with the slow tier.
SLOW = {"background-iperf-dl", "vridge-gvsp-dl"}


@pytest.mark.parametrize(
    "profile, archetype",
    [
        pytest.param(*key, marks=[pytest.mark.slow] if key[1] in SLOW else [])
        for key in DIGESTS
    ],
)
def test_reference_fault_run_matches_golden_digest(profile, archetype):
    config = ARCHETYPES[archetype].with_(
        n_cycles=2, cycle_duration_s=60.0, faults=FAULT_PROFILES[profile], seed=11
    )
    result = ScenarioRunner(config, kernel="reference").run()
    assert len(result.fault_trace) > 0
    text = json.dumps(result_to_dict(result), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[profile, archetype]
