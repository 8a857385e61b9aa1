"""Traced runs: CPU self time and counts at each layer's public entry points.

:func:`installed` wraps the entry points listed in :func:`entry_points` for
the duration of a ``with`` block.  Each name is patched where its caller looks
it up: a class attribute, or the module global a caller imported (for example
``run_lane`` as imported into ``repro.experiments.fleet_runner``).  The
program's modules are not edited, and nothing recorded here enters a
``MetricsSnapshot``, the codec or a cache key.

Shard- and claim-level calls record a span: name, start, end, parent and the
shard or claim it serves.  Per-packet calls only add to count and time
aggregates.  All times are process CPU seconds.  A layer's self time is the
CPU time of its calls minus the CPU time of the wrapped calls they made, so
the self times of all layers plus the unwrapped remainder add up to the
traced CPU time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    """Spans, per-layer aggregates and probe counts of one traced pass."""

    def __init__(self) -> None:
        #: Frames of the wrapped calls in progress: [child_s, id of the
        #: innermost span, key, layer].
        self.stack: list[list] = [[0.0, None, None, None]]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[tuple | None] = []
        #: Labels the spans of the current phase (set by the harness).
        self.scope = ""

    def set_key(self, key: str | None) -> None:
        """Key inherited by spans that cannot name their shard or claim."""
        self.stack[0][2] = key

    def wrap(self, layer, fn, *, span=False, key=None, before=None, after=None,
             skip_under=None):
        """Return ``fn`` instrumented as ``layer``.

        ``layer`` is a name or a function of the call's arguments.
        ``key(args, result)`` names the shard or claim of a span (None
        inherits the parent's).  ``before(args)`` runs ahead of the call and
        ``after(recorder, layer, args, result, state, duration)`` after it;
        both run outside the call's own timing.  A call made directly under
        a ``skip_under`` layer is not instrumented and counts as that
        layer's own time.
        """
        stack, clock = self.stack, time.process_time
        self_s, calls, spans = self.self_s, self.calls, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if skip_under is not None and parent[3] == skip_under:
                return fn(*args, **kwargs)
            name = layer(args) if callable(layer) else layer
            state = before(args) if before is not None else None
            frame = [0.0, parent[1], parent[2], name]
            if span:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[0] += t1 - t0
                self_s[name] += t1 - t0 - frame[0]
                calls[name] += 1
                if span:
                    span_key = key(args, result) if key is not None else None
                    spans[frame[1]] = (
                        frame[1], parent[1], name,
                        span_key if span_key is not None else frame[2],
                        self.scope, t0, t1,
                    )
            if after is not None:
                after(self, name, args, result, state, t1 - t0)
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, then one line of aggregates."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                if span is None:
                    continue
                sid, parent, name, key, scope, start, end = span
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "key": key,
                    "scope": scope, "start": start, "end": end,
                }) + "\n")
            fh.write(json.dumps({
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }) + "\n")


def span_self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each dumped span: its duration minus its children's."""
    child = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


# ------------------------------------------------------------------ probes


def _add(name: str):
    def after(rec, layer, args, result, state, duration):
        rec.counts[name] += 1
    return after


def _lane_layer(args) -> str:
    return "kernel.general" if args[0].general else "kernel.fold"


def _lane_packets_before(args) -> int:
    return args[0].air.offered.packets


def _lane_packets_after(rec, layer, args, result, state, duration):
    rec.counts[f"{layer}.packets"] += args[0].air.offered.packets - state


def _fallback_after(rec, layer, args, result, state, duration):
    lane, _reason = result
    if lane is None:
        rec.counts["kernel.fallback.sessions"] += 1


def _negotiation_after(rec, layer, args, result, state, duration):
    from repro.experiments.fleet_runner import NEGOTIATED_SCHEMES

    max_rounds = args[4]
    for scheme in NEGOTIATED_SCHEMES:
        for outcome in result.get(scheme, ()):
            rec.counts["core.negotiation.cycles"] += 1
            rec.counts["core.negotiation.rounds"] += outcome.rounds
            rec.counts["core.negotiation.converged"] += outcome.rounds < max_rounds


def _events_after(rec, layer, args, result, state, duration):
    rec.counts["netsim.loop.events"] += result


def _shard_build_after(rec, layer, args, result, state, duration):
    rec.set_key(f"shard:{args[1].index}")


def _cache_write_after(rec, layer, args, result, state, duration):
    rec.counts["experiments.cache.write.bytes"] += result.stat().st_size


def _cache_read_after(rec, layer, args, result, state, duration):
    if result is not None:
        rec.counts["experiments.cache.read.bytes"] += (
            args[0].path_for_key(args[1]).stat().st_size
        )


def _admission_after(rec, layer, args, result, state, duration):
    if not result.accepted:
        rec.counts["service.admission.rejected"] += 1
    rec.samples["service.admission"].append(duration)
    depth = args[0].queue.qsize()
    if depth > rec.counts["service.queue.depth_max"]:
        rec.counts["service.queue.depth_max"] = depth


def _verify_after(rec, layer, args, result, state, duration):
    rec.counts["poc.verify.ok"] += bool(result.ok)


def _journal_after(rec, layer, args, result, state, duration):
    rec.counts["service.journal.bytes"] += len(args[0].journal_lines[-1]) + 1


def _wall_before(args) -> float:
    return time.perf_counter()


def _seal_after(rec, layer, args, result, state, duration):
    rec.counts["service.ledger.fsync_wall_s"] += time.perf_counter() - state


def _resume_load_after(rec, layer, args, result, state, duration):
    rec.counts["service.resume.records"] += len(result.journal_lines)


def _shard_key(args, result):
    return f"shard:{args[0].index}"


def _dict_shard_key(args, result):
    data = args[-1] if isinstance(args[-1], dict) else result
    if isinstance(data, dict):
        index = data.get("shard_index", data.get("index"))
        if index is not None:
            return f"shard:{index}"
    return None


def _claim_key(args, result):
    claim = args[1]
    return f"claim:{claim.get('id')}" if isinstance(claim, dict) else None


def _record_key(args, result):
    record = args[1]
    if "id" in record:
        return f"claim:{record['id']}"
    if "index" in record:
        return f"shard:{record['index']}"
    return None


def _poc_key(args, result):
    poc = result if args and isinstance(args[-1], (bytes, bytearray)) else args[1]
    nonce = getattr(poc, "nonce_edge", None)
    return f"poc:{nonce.hex()[:16]}" if nonce is not None else None


def entry_points() -> list[tuple]:
    """``(owner, attribute, layer, options)`` for every wrapped name."""
    from repro.cellular.air import AirInterface
    from repro.cellular.enodeb import ENodeB
    from repro.cellular.gateway import Spgw
    from repro.cellular.radio import RadioChannel
    from repro.cellular.rrc import HardwareModem, RrcConnectionManager
    from repro.edge.device import EdgeDevice
    from repro.edge.monitors import CounterCheckMonitor, TrafficMonitor
    from repro.edge.server import EdgeServer
    from repro.experiments import fleet as fleet_module
    from repro.experiments import fleet_runner
    from repro.experiments.fleet import FleetAccumulator
    from repro.experiments.parallel import ResultCache
    from repro.netsim.counters import CumulativeCounter
    from repro.netsim.events import EventLoop
    from repro.netsim.faults import FaultInjector
    from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
    from repro.poc import messages as poc_messages
    from repro.poc.messages import Poc
    from repro.poc.verifier import PublicVerifier
    from repro.service import service as service_module
    from repro.service.service import ReconciliationService, SettlementLedger

    spans = [
        (fleet_runner, "run_lane", _lane_layer,
         dict(before=_lane_packets_before, after=_lane_packets_after)),
        (fleet_runner, "build_session_lane", "kernel.adapter", dict(after=_fallback_after)),
        (fleet_runner, "evaluate_schemes", "core.negotiation", dict(after=_negotiation_after)),
        (fleet_runner.FleetShardRunner, "__init__", "experiments.shard_build",
         dict(key=lambda args, result: f"shard:{args[1].index}", after=_shard_build_after)),
        (fleet_module, "shard_to_dict", "experiments.codec", dict(key=_shard_key)),
        (fleet_module, "shard_from_dict", "experiments.codec", dict(key=_dict_shard_key)),
        (fleet_module, "shard_result_to_dict", "experiments.codec",
         dict(key=lambda args, result: f"shard:{args[0].shard_index}")),
        (fleet_module, "fleet_shard_key", "experiments.codec", dict(key=_shard_key)),
        (service_module, "shard_to_dict", "experiments.codec", dict(key=_shard_key)),
        (service_module, "shard_from_dict", "experiments.codec", dict(key=_dict_shard_key)),
        (service_module, "fleet_shard_key", "experiments.codec", dict(key=_shard_key)),
        (ResultCache, "put_data", "experiments.cache.write",
         dict(key=_dict_shard_key, after=_cache_write_after)),
        (ResultCache, "get_data", "experiments.cache.read",
         dict(key=_dict_shard_key, after=_cache_read_after)),
        (MetricsRegistry, "snapshot", "obs.snapshot", {}),
        (MetricsSnapshot, "merge_in_place", "obs.snapshot", {}),
        (FleetAccumulator, "add", "experiments.fold", dict(key=_dict_shard_key)),
        (ReconciliationService, "submit", "service.admission",
         dict(key=_claim_key, after=_admission_after)),
        (ReconciliationService, "drain", "service.runtime", {}),
        (ReconciliationService, "resume", "service.resume.replay", {}),
        (SettlementLedger, "resume", "service.resume.load", dict(after=_resume_load_after)),
        (SettlementLedger, "journal", "service.journal",
         dict(key=_record_key, after=_journal_after)),
        (SettlementLedger, "write", "service.ledger",
         dict(key=_record_key, after=_add("service.ledger.lines"))),
        (SettlementLedger, "close", "service.ledger",
         dict(before=_wall_before, after=_seal_after)),
        (Poc, "decode", "poc.decode", dict(key=_poc_key)),
        (PublicVerifier, "verify", "poc.verify", dict(key=_poc_key, after=_verify_after)),
        (poc_messages, "rsa_verify", "crypto.verify", {}),
        # The service's own loop runs inside drain(): that is the coroutine
        # runtime's work, so it stays in service.runtime.
        (EventLoop, "run_until", "netsim.loop",
         dict(after=_events_after, skip_under="service.runtime")),
        (EventLoop, "run", "netsim.loop",
         dict(after=_events_after, skip_under="service.runtime")),
    ]
    aggregates = [
        (CumulativeCounter, "add", "netsim.counters"),
        (RadioChannel, "survives_air", "cellular.radio_air"),
        (AirInterface, "submit", "cellular.radio_air"),
        (ENodeB, "receive_downlink", "cellular.enodeb"),
        (ENodeB, "receive_uplink", "cellular.enodeb"),
        (Spgw, "receive_uplink", "cellular.gateway"),
        (Spgw, "send_downlink", "cellular.gateway"),
        (RrcConnectionManager, "on_data_activity", "cellular.rrc"),
        (RrcConnectionManager, "release", "cellular.rrc"),
        (RrcConnectionManager, "abort", "cellular.rrc"),
        (RrcConnectionManager, "perform_counter_check", "cellular.rrc"),
        (HardwareModem, "count_uplink", "cellular.rrc"),
        (HardwareModem, "count_downlink", "cellular.rrc"),
        (HardwareModem, "counter_check", "cellular.rrc"),
        (EdgeDevice, "send", "edge.endpoints"),
        (EdgeDevice, "deliver", "edge.endpoints"),
        (EdgeServer, "send", "edge.endpoints"),
        (TrafficMonitor, "observe", "edge.monitors"),
        (TrafficMonitor, "observe_bytes", "edge.monitors"),
        (CounterCheckMonitor, "on_report", "edge.monitors"),
        (FaultInjector, "decide_at", "netsim.faults"),
    ]
    return [(o, a, layer, dict(opts, span=True)) for o, a, layer, opts in spans] + [
        (o, a, layer, {}) for o, a, layer in aggregates
    ]


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap every entry point for the duration of the block."""
    undo = []
    try:
        for owner, attr, layer, options in entry_points():
            raw = vars(owner).get(attr)
            if isinstance(raw, classmethod):
                patched = classmethod(recorder.wrap(layer, raw.__func__, **options))
            else:
                patched = recorder.wrap(layer, getattr(owner, attr), **options)
            undo.append((owner, attr, raw))
            setattr(owner, attr, patched)
        yield recorder
    finally:
        for owner, attr, raw in reversed(undo):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


# ---------------------------------------------------------------- metrics


def _p99(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100)[98]


def layer_metrics(rec: Recorder, tally, overhead_share: float) -> dict[str, float]:
    """Every per-layer metric of the benchmark from one traced pass."""
    s, n, c = rec.self_s, rec.calls, rec.counts
    cycles = c["core.negotiation.cycles"]
    verify_calls = n["poc.verify"]
    return {
        "kernel.fold.lanes": n["kernel.fold"],
        "kernel.fold.packets": c["kernel.fold.packets"],
        "kernel.fold.self_s": s["kernel.fold"],
        "kernel.general.lanes": n["kernel.general"],
        "kernel.general.packets": c["kernel.general.packets"],
        "kernel.general.self_s": s["kernel.general"],
        "kernel.adapter.self_s": s["kernel.adapter"],
        "kernel.fallback.sessions": c["kernel.fallback.sessions"],
        "netsim.loop.events": c["netsim.loop.events"],
        "netsim.loop.self_s": s["netsim.loop"],
        "netsim.counters.adds": n["netsim.counters"],
        "netsim.counters.self_s": s["netsim.counters"],
        "cellular.radio_air.self_s": s["cellular.radio_air"],
        "cellular.enodeb.self_s": s["cellular.enodeb"],
        "cellular.gateway.self_s": s["cellular.gateway"],
        "cellular.rrc.self_s": s["cellular.rrc"],
        "edge.endpoints.self_s": s["edge.endpoints"],
        "edge.monitors.self_s": s["edge.monitors"],
        "netsim.faults.decisions": n["netsim.faults"],
        "netsim.faults.self_s": s["netsim.faults"],
        "experiments.shard_build.self_s": s["experiments.shard_build"],
        "core.negotiation.self_s": s["core.negotiation"],
        "core.negotiation.rounds_mean": c["core.negotiation.rounds"] / cycles if cycles else 0.0,
        "core.negotiation.converged_share": (
            c["core.negotiation.converged"] / cycles if cycles else 0.0
        ),
        "experiments.codec.self_s": s["experiments.codec"],
        "experiments.cache.write.calls": n["experiments.cache.write"],
        "experiments.cache.write.bytes": c["experiments.cache.write.bytes"],
        "experiments.cache.write.self_s": s["experiments.cache.write"],
        "obs.snapshot.self_s": s["obs.snapshot"],
        "service.admission.calls": n["service.admission"],
        "service.admission.rejected": c["service.admission.rejected"],
        "service.admission.self_s": s["service.admission"],
        "service.admission.p99_us": 1e6 * _p99(rec.samples["service.admission"]),
        "service.runtime.self_s": s["service.runtime"],
        "experiments.cache.read.calls": n["experiments.cache.read"],
        "experiments.cache.read.bytes": c["experiments.cache.read.bytes"],
        "experiments.cache.read.self_s": s["experiments.cache.read"],
        "service.cache.hit_memory": tally.hit_memory,
        "service.cache.hit_disk": tally.hit_disk,
        "service.cache.miss": tally.miss,
        "service.simulated": tally.simulated,
        "poc.decode.self_s": s["poc.decode"],
        "poc.verify.calls": verify_calls,
        "poc.verify.ok_share": c["poc.verify.ok"] / verify_calls if verify_calls else 0.0,
        "poc.verify.self_s": s["poc.verify"],
        "crypto.verify.calls": n["crypto.verify"],
        "crypto.verify.self_s": s["crypto.verify"],
        "experiments.fold.self_s": s["experiments.fold"],
        "service.journal.records": n["service.journal"],
        "service.journal.bytes": c["service.journal.bytes"],
        "service.journal.self_s": s["service.journal"],
        "service.ledger.lines": c["service.ledger.lines"],
        "service.ledger.self_s": s["service.ledger"],
        "service.ledger.fsync_wall_s": c["service.ledger.fsync_wall_s"],
        "service.queue.depth_max": c["service.queue.depth_max"],
        "service.resume.load_self_s": s["service.resume.load"],
        "service.resume.replay_self_s": s["service.resume.replay"],
        "service.resume.records": c["service.resume.records"],
        "service.resume.resubmitted": tally.resubmitted,
        "trace.overhead_share": overhead_share,
    }
