"""Process-pool scenario execution with a content-addressed result cache.

The paper's evaluation is an embarrassingly parallel sweep: every figure
and table runs many independent (workload × network-condition) scenarios,
each already deterministic given its :class:`ScenarioConfig` — the runner
builds a fresh :class:`~repro.netsim.events.EventLoop` and derives every
random stream from ``StreamRegistry(config.seed)``, so a scenario's result
depends on nothing outside its config.  This module exploits both facts:

* :func:`cached_results` fans specs out over a process pool behind the
  cache, for :func:`run_scenarios` and the fleet engine alike; results
  are shipped across the process boundary through an explicit
  dataclass↔dict codec (live results reference simulator objects, so we
  serialize the record content, not the object graph).  Per-scenario
  determinism makes parallel results bit-identical to serial ones.
* :class:`ResultCache` stores the same codec output on disk under a
  content-addressed key — a stable hash of the full ``ScenarioConfig``
  plus a codec version.  Re-running a figure benchmark only simulates
  scenarios whose config (or the codec) changed; everything else is a
  cache hit.  Invalidation is by key: any config field change, or a bump
  of :data:`CODEC_VERSION`, produces a new key and the stale entry is
  simply never read again; an entry whose bytes fail its sha256 digest
  is dropped and re-simulated.

Module-level defaults (set by :func:`configure`, or read from
:func:`env_settings` on a sweep's first use) let the CLI and the
benchmark harness opt whole sweeps in without threading options through
every figure function.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import uuid
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from ..cellular.radio import RssSample
from ..core.gap import SchemeOutcome
from ..core.plan import ChargingCycle
from ..core.records import CycleUsage
from ..netsim.faults import FAULT_PROFILES, FaultEvent, FaultSchedule, FaultTrace
from ..netsim.packet import Direction, Transport
from ..netsim.rng import StreamRegistry
from ..obs import MetricsSnapshot
from ..workloads.base import WorkloadProfile
from .runner import ScenarioResult, run_scenario
from .scenarios import ScenarioConfig

#: Bump when the codec or anything influencing simulation output changes;
#: every cache key embeds it, so old entries stop matching.
#: v2: ScenarioConfig.faults + ScenarioResult.fault_trace.
#: v3: ScenarioResult.metrics (observability snapshot).
#: v4: handover interruptions go through the radio's outage bookkeeping
#:     (outage gauges change for handover scenarios).
#: v5: ScenarioConfig.quota_bytes/quota_throttle_bps (PCRF throttling)
#:     and kernel.fallback counters in metrics snapshots.
CODEC_VERSION = 5


# ------------------------------------------------------------------ codec


#: Dataclass field names in declaration order: the encoder's key order (a
#: cache entry's bytes) and the decoder's filter.  Unknown keys are dropped
#: on decode: an older binary reading a newer cache directory (a
#: forward-version entry with extra config fields) must treat the entry as
#: decodable-or-miss, never crash the sweep with a ``TypeError`` from
#: ``ScenarioConfig(**...)``.
_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(ScenarioConfig))
_WORKLOAD_FIELDS = tuple(f.name for f in dataclasses.fields(WorkloadProfile))


def config_to_dict(config: ScenarioConfig) -> dict:
    """JSON-safe dict for a :class:`ScenarioConfig` (enums → values).

    Built from the fields directly: ``dataclasses.asdict`` would deep-copy
    the fault schedule only for it to be replaced by its own encoding.
    Every field but ``workload``, ``direction`` and ``faults`` is a scalar.
    """
    encoded = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    workload = {name: getattr(config.workload, name) for name in _WORKLOAD_FIELDS}
    workload["transport"] = config.workload.transport.value
    encoded["workload"] = workload
    encoded["direction"] = config.direction.value
    encoded["faults"] = None if config.faults is None else config.faults.to_dict()
    return encoded


def config_from_dict(
    data: dict,
    decode_faults: Callable[[dict], FaultSchedule] = FaultSchedule.from_dict,
) -> ScenarioConfig:
    """Inverse of :func:`config_to_dict`; unknown keys are ignored.

    ``decode_faults`` decodes a non-null ``faults`` entry (the fleet codec
    passes one that shares a schedule among a shard's UEs).
    """
    decoded = {k: data[k] for k in _CONFIG_FIELDS if k in data}
    encoded_workload = data["workload"]
    workload = {k: encoded_workload[k] for k in _WORKLOAD_FIELDS if k in encoded_workload}
    workload["transport"] = Transport(workload["transport"])
    decoded["workload"] = WorkloadProfile(**workload)
    decoded["direction"] = Direction(decoded["direction"])
    faults = decoded.get("faults")
    decoded["faults"] = None if faults is None else decode_faults(faults)
    return ScenarioConfig(**decoded)


def result_to_dict(result: ScenarioResult) -> dict:
    """Serialize a :class:`ScenarioResult` for IPC or the on-disk cache."""
    return {
        "version": CODEC_VERSION,
        "config": config_to_dict(result.config),
        "usages": [
            {
                "cycle": [u.cycle.t_start, u.cycle.t_end],
                "direction": u.direction.value,
                "flow_id": u.flow_id,
                "true_sent": u.true_sent,
                "true_received": u.true_received,
                "gateway_count": u.gateway_count,
                "edge_sent_record": u.edge_sent_record,
                "edge_received_estimate": u.edge_received_estimate,
                "operator_received_record": u.operator_received_record,
                "operator_sent_estimate": u.operator_sent_estimate,
            }
            for u in result.usages
        ],
        "outcomes": {
            scheme: [
                {"scheme": o.scheme, "charged": o.charged,
                 "expected": o.expected, "rounds": o.rounds}
                for o in outcomes
            ]
            for scheme, outcomes in result.outcomes.items()
        },
        "measured_bitrate_bps": result.measured_bitrate_bps,
        "rss_history": [
            [s.t, s.rss_dbm, s.connected] for s in result.rss_history
        ],
        "fault_trace": [
            [e.t, e.kind, e.point, e.detail] for e in result.fault_trace.events
        ],
        "metrics": result.metrics.to_dict(),
    }


def result_from_dict(data: dict) -> ScenarioResult:
    """Inverse of :func:`result_to_dict`."""
    if data.get("version") != CODEC_VERSION:
        raise ValueError(
            f"result codec version {data.get('version')!r} != {CODEC_VERSION}"
        )
    usages = [
        CycleUsage(
            cycle=ChargingCycle(u["cycle"][0], u["cycle"][1]),
            direction=Direction(u["direction"]),
            flow_id=u["flow_id"],
            true_sent=u["true_sent"],
            true_received=u["true_received"],
            gateway_count=u["gateway_count"],
            edge_sent_record=u["edge_sent_record"],
            edge_received_estimate=u["edge_received_estimate"],
            operator_received_record=u["operator_received_record"],
            operator_sent_estimate=u["operator_sent_estimate"],
        )
        for u in data["usages"]
    ]
    outcomes = {
        scheme: [
            SchemeOutcome(o["scheme"], o["charged"], o["expected"], o["rounds"])
            for o in rows
        ]
        for scheme, rows in data["outcomes"].items()
    }
    return ScenarioResult(
        config=config_from_dict(data["config"]),
        usages=usages,
        outcomes=outcomes,
        measured_bitrate_bps=data["measured_bitrate_bps"],
        rss_history=[RssSample(t, rss, conn) for t, rss, conn in data["rss_history"]],
        fault_trace=FaultTrace(
            FaultEvent(t, kind, point, detail)
            for t, kind, point, detail in data.get("fault_trace", ())
        ),
        metrics=MetricsSnapshot.from_dict(data.get("metrics", {})),
    )


# ------------------------------------------------------------ seeding/keys


def derive_seed(base_seed: int, salt: str) -> int:
    """A per-scenario seed from a sweep's base seed and a stable salt.

    Uses the same SHA-256 derivation as :meth:`StreamRegistry.fork`, so a
    sweep can hand every scenario an independent, reproducible seed that
    is identical however the sweep is partitioned across processes.
    """
    return StreamRegistry(base_seed).fork(salt).seed


def scenario_key(config: ScenarioConfig) -> str:
    """Content-addressed cache key: stable hash of the full config."""
    canonical = json.dumps(
        {"codec": CODEC_VERSION, "config": config_to_dict(config)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


# ------------------------------------------------------------------- cache


#: A cache entry is one JSON object: ``{"sha256":"<hex>"`` and then the
#: payload's members (``,"a":1}``, or ``}`` for an empty payload).  The
#: digest is the sha256 of the entry's key followed by those bytes.
_DIGEST_HEAD = b'{"sha256":"'
_PAYLOAD_AT = len(_DIGEST_HEAD) + 64 + 1  # past the hex digest and its quote


def _entry_head(key: str, payload: bytes | memoryview) -> bytes:
    digest = hashlib.sha256(key.encode())
    digest.update(payload)
    return _DIGEST_HEAD + digest.hexdigest().encode() + b'"'


class ResultCache:
    """On-disk run results, content-addressed by a caller-supplied key.

    One JSON file per entry under ``directory``; scenario sweeps key
    entries with :func:`scenario_key`, the fleet engine and the service
    with the shard key.  :meth:`get_data` serves an entry only when its
    sha256 digest matches its key and bytes; any other entry (damaged,
    another key's, or written without a digest) is dropped and read as a
    miss, so a damaged cache can never poison a sweep.  Keys embed the
    codec versions, so an entry that passes is what the codec wrote.

    Publishing is concurrency-safe: each writer stages through its own
    unique temp file (pid + uuid) in the cache directory and atomically
    renames it over the final path.  A shared temp name would let two
    processes caching the same key interleave writes before ``replace()``
    and publish garbage.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def path_for_key(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def has(self, key: str) -> bool:
        """Cheap existence probe (no parse; the entry may still be corrupt)."""
        return self.path_for_key(key).is_file()

    def get_data(self, key: str) -> dict | None:
        """Load one entry's payload, or None (and drop the entry) unless its
        digest matches its key and the bytes read."""
        path = self.path_for_key(key)
        try:
            raw = path.read_bytes()
        except OSError:  # missing or unreadable
            raw = b""
        # A view, not a copy: extra copies of each read raise peak RSS.
        if raw[:_PAYLOAD_AT] == _entry_head(key, memoryview(raw)[_PAYLOAD_AT:]):
            data = json.loads(raw)
            del data["sha256"]
            return data
        path.unlink(missing_ok=True)
        return None

    def put_data(self, key: str, data: dict) -> Path:
        """Atomically publish one entry via a writer-unique temp file."""
        if "sha256" in data:
            raise ValueError("a cached payload cannot have a 'sha256' member")
        path = self.path_for_key(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        members = json.dumps(data, separators=(",", ":")).encode()
        payload = b"," + members[1:] if data else b"}"
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        try:
            tmp.write_bytes(_entry_head(key, payload) + payload)
            tmp.replace(path)  # atomic publish: readers never see partial JSON
        finally:
            tmp.unlink(missing_ok=True)
        return path


# ------------------------------------------------------------------ engine


@dataclass
class RunReport:
    """Where each result of a sweep came from: simulated or cached."""

    simulated: int = 0
    cached: int = 0


_default_workers = 0
_default_cache: ResultCache | None = None
_default_faults: FaultSchedule | None = None
#: True until :func:`configure` runs: a sweep then reads the defaults from
#: the environment on first use, not at import, so a bad value raises
#: where the caller can report it.
_from_env = True


def env_settings(cache_dir: str | Path | None = None) -> dict:
    """:func:`configure` keywords from ``REPRO_WORKERS``, ``REPRO_FAULT_PROFILE``
    and ``REPRO_CACHE_DIR`` (unset: ``cache_dir``; ``off``/``0``/``none``/empty:
    no cache).  Raises ``ValueError`` naming a variable with a bad value."""
    env_cache = os.environ.get("REPRO_CACHE_DIR")
    if env_cache is not None:
        off = env_cache.strip().lower() in ("", "0", "off", "none")
        cache_dir = None if off else env_cache
    workers = os.environ.get("REPRO_WORKERS") or "0"
    profile = os.environ.get("REPRO_FAULT_PROFILE") or None
    try:
        workers = int(workers)
    except ValueError:
        raise ValueError(f"REPRO_WORKERS={workers!r} is not a whole number") from None
    if profile is not None and profile not in FAULT_PROFILES:
        raise ValueError(
            f"REPRO_FAULT_PROFILE={profile!r} is not a fault profile "
            f"(know {', '.join(FAULT_PROFILES)})"
        )
    return {"workers": workers, "cache_dir": cache_dir, "fault_profile": profile}


def resolve_fault_profile(profile: FaultSchedule | str | None) -> FaultSchedule | None:
    """Accept a schedule, a named profile, or None; reject unknown names."""
    if profile is None or isinstance(profile, FaultSchedule):
        return profile
    try:
        schedule = FAULT_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {profile!r} (know {', '.join(FAULT_PROFILES)})"
        ) from None
    return None if schedule.is_empty else schedule


def configure(
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    fault_profile: FaultSchedule | str | None = None,
) -> None:
    """Set process-count, cache and chaos defaults for subsequent sweeps.

    ``workers=0``/``1`` means serial; ``cache_dir=None`` disables the
    cache.  ``fault_profile`` (a :class:`FaultSchedule` or a name from
    :data:`~repro.netsim.faults.FAULT_PROFILES`) is stamped onto every
    scenario config without a schedule of its own, *before* cache lookup,
    so chaos runs occupy distinct cache entries; a fleet's faults come
    from ``FleetConfig.fault_profile`` alone.  Called by the CLI
    (``--workers``/``--cache-dir``/``--fault-profile``) and the benchmark
    harness; until it is, a sweep's first use calls it with
    :func:`env_settings`.
    """
    global _default_workers, _default_cache, _default_faults, _from_env
    _from_env = False
    _default_workers = int(workers) if workers is not None else 0
    _default_cache = ResultCache(cache_dir) if cache_dir else None
    _default_faults = resolve_fault_profile(fault_profile)


def _env_defaults() -> None:
    """Read the defaults from the environment unless :func:`configure` ran."""
    if _from_env:
        configure(**env_settings())


def apply_default_faults(config: ScenarioConfig) -> ScenarioConfig:
    """Stamp the configured default fault schedule onto a plain config."""
    _env_defaults()
    if _default_faults is None or config.faults is not None:
        return config
    return config.with_(faults=_default_faults)


def cached_results(
    simulate: Callable[[dict], dict],
    encode: Callable[[object], dict],
    specs: Sequence,
    keys: Sequence[str],
    workers: int | None,
    cache: ResultCache | None | bool,
    report: RunReport | None,
) -> Iterator[dict]:
    """Yield every spec's result dict, in input order, counted into ``report``.

    Intact cache entries are served as they are; misses run
    ``simulate(encode(spec))`` on one process pool, or inline when
    ``workers`` ≤ 1, on a single miss or for an entry found damaged, and
    each is published before it is yielded.  ``cache=True`` uses the
    configured default cache (possibly none), ``None``/``False`` none.
    """
    _env_defaults()
    cache = _default_cache if cache is True else cache or None
    n_workers = _default_workers if workers is None else int(workers)
    report = report if report is not None else RunReport()
    # A cheap existence probe decides what goes to the pool.
    probed = [cache is not None and cache.has(key) for key in keys]
    misses = [i for i, hit in enumerate(probed) if not hit]
    pool = pooled = None
    if n_workers > 1 and len(misses) > 1:
        pool = ProcessPoolExecutor(max_workers=min(n_workers, len(misses)))
        pooled = pool.map(simulate, [encode(specs[i]) for i in misses])
    try:
        for i, key in enumerate(keys):
            data = cache.get_data(key) if probed[i] else None
            if data is not None:
                report.cached += 1
            else:
                fresh = pooled is not None and not probed[i]
                data = next(pooled) if fresh else simulate(encode(specs[i]))
                if cache is not None:
                    cache.put_data(key, data)
                report.simulated += 1
            yield data
    finally:
        if pool is not None:
            pool.shutdown()


def _simulate_to_dict(config_data: dict) -> dict:
    """Pool worker: decode the config, simulate, encode the result."""
    return result_to_dict(run_scenario(config_from_dict(config_data)))


def run_scenarios(
    configs: list[ScenarioConfig] | tuple[ScenarioConfig, ...],
    workers: int | None = None,
    cache: ResultCache | None | bool = True,
    report: RunReport | None = None,
) -> list[ScenarioResult]:
    """Run a batch of scenarios, in input order, as fast as allowed.

    :func:`cached_results` serves or simulates each scenario, and each
    result is decoded once.  Parallel and serial execution produce
    bit-identical results: every scenario is seeded solely from its own
    config.  ``workers``, ``cache`` and ``report`` are passed through.
    """
    configs = [apply_default_faults(config) for config in configs]
    keys = [scenario_key(config) for config in configs]
    results = cached_results(
        _simulate_to_dict, config_to_dict, configs, keys, workers, cache, report
    )
    return [result_from_dict(data) for data in results]
