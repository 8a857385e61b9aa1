"""Kernel selection: eligibility checks and lane construction.

The batched kernel (:mod:`repro.kernel.engine`) reproduces the reference
engine bit for bit *only* for the traffic shapes it mirrors.  This module
is the gatekeeper: :func:`build_session_lane` inspects a fully-built UE
session (:func:`build_scenario_lane` adds the single-UE loop check) and
either returns a ready :class:`~repro.kernel.engine.LaneSpec` or a
human-readable reason why the UE must run on the reference engine.
``kernel="auto"`` falls back silently (the session records the reason);
``kernel="batched"`` raises so tests and benchmarks can assert the fast
path was actually taken.

Selection is resolved per call from an explicit argument or the
``REPRO_SIM_KERNEL`` environment variable (``auto`` | ``batched`` |
``reference``), defaulting to ``auto``.
"""

from __future__ import annotations

import os

from ..cellular.mobility import HandoverProcess
from ..cellular.radio import RadioChannel
from ..edge.monitors import CounterCheckMonitor
from ..netsim import Direction
from ..netsim.faults import FaultInjector
from .engine import _K_HO_BEGIN, _K_OUT_BEGIN, _K_RESET, _K_RSS, LaneSpec

__all__ = [
    "KERNELS",
    "resolve_kernel",
    "build_scenario_lane",
    "build_session_lane",
]

KERNELS = ("auto", "batched", "reference")

#: Above this frame rate the inter-frame gap (1/fps) drops below the
#: 2.5 ms downlink LAN+backhaul fold window and the kernel's event-order
#: proof no longer holds.  Every shipped workload profile is ≤ 100 fps.
MAX_BATCHED_FPS = 200.0


def resolve_kernel(explicit: str | None = None) -> str:
    """Resolve the kernel selection (explicit arg > env var > auto)."""
    kernel = explicit if explicit is not None else os.environ.get("REPRO_SIM_KERNEL", "auto")
    if kernel not in KERNELS:
        source = "" if explicit is not None else "REPRO_SIM_KERNEL="
        raise ValueError(
            f"unknown simulation kernel {source}{kernel!r}; expected one of {KERNELS}"
        )
    return kernel


def _absorb_events(loop, radio, handover, injector=None) -> tuple[tuple | None, str | None]:
    """Collect this UE's construction-time loop events for wheel replay.

    A freshly-built session legitimately holds pending events: the
    radio's first ``_begin_outage`` and ``_sample_rss``, the handover
    process's first ``_begin_handover`` (their RNG draws already
    happened at ``start()``), and the fault injector's armed
    ``_reset_modem`` counter resets.  The lane replays them on its
    wheel and cancels the originals at flush.  Anything *else* owned by
    this session's radio/handover/injector means the session is
    mid-flight — the lane refuses.  Other sessions' events (fleet
    shards share one loop) are ignored.
    """
    absorbed = []
    for event in loop._queue:
        if event.cancelled:
            continue
        owner = getattr(event.callback, "__self__", None)
        if owner is radio:
            func = getattr(event.callback, "__func__", None)
            if func is RadioChannel._begin_outage:
                absorbed.append((_K_OUT_BEGIN, event))
            elif func is RadioChannel._sample_rss:
                absorbed.append((_K_RSS, event))
            else:
                return None, "unrecognized radio event pending on the loop"
        elif handover is not None and owner is handover:
            if getattr(event.callback, "__func__", None) is HandoverProcess._begin_handover:
                absorbed.append((_K_HO_BEGIN, event))
            else:
                return None, "unrecognized handover event pending on the loop"
        elif injector is not None and owner is injector:
            if getattr(event.callback, "__func__", None) is FaultInjector._reset_modem:
                absorbed.append((_K_RESET, event))
            else:
                return None, "unrecognized fault-injector event pending on the loop"
    absorbed.sort(key=lambda pair: pair[1].seq)
    return tuple(absorbed), None


def build_session_lane(session) -> tuple[LaneSpec | None, str | None]:
    """Lane for one :class:`~repro.experiments.fleet_runner.UeSession`.

    Returns ``(lane, None)`` or ``(None, reason)``.  Eligibility is
    per-session: a fleet UE owns its cell, so its air interfaces, RRC,
    modem, bearer and monitors are lane-private; the shared
    SPGW/link/middlebox totals the lane flushes are plain sums,
    insensitive to which engine produced each term.  The shard loop may
    legitimately hold pending events for *ineligible* sessions (their
    radio outage processes), so there is no global pending check here.
    """
    config = session.config
    network = session.network
    access = session.access
    device = session.device
    server = session.server
    workload = session.workload
    flow_id = session.flow_id
    fault_injector = session.fault_injector
    handover = session.handover
    if config.workload.fps > MAX_BATCHED_FPS:
        return None, f"workload fps {config.workload.fps} above the kernel bound ({MAX_BATCHED_FPS})"
    if device.on_receive is not None or server.on_receive is not None:
        return None, "application on_receive hook installed"

    radio = access.radio
    if not radio.connected:
        return None, "radio disconnected at simulate start"
    if len(access._ul_buffer) != 0:
        return None, "uplink modem buffer is not empty"
    if radio.record_rss and len(radio.rss_history) != 1:
        return None, "RSS history not fresh"

    if flow_id in network.spgw._policers:
        return None, "token-bucket policer already installed"

    imsi = access.imsi
    enodeb = network.serving_enodeb(imsi)
    ue = enodeb.ue(imsi)
    if not ue.attached:
        return None, "UE detached at simulate start"
    if len(ue.dl_buffer) != 0:
        return None, "downlink buffer is not empty"

    bearer = network.bearers.by_flow(flow_id)
    if bearer is None:
        return None, "no bearer for this flow"
    if not bearer.active:
        return None, "bearer inactive at simulate start"

    is_uplink = config.direction is Direction.UPLINK
    air = enodeb.uplink_air if is_uplink else enodeb.downlink_air
    # The air sees the workload QCI on uplink (the SPGW stamps the bearer
    # QCI after the air hop) and the bearer QCI on downlink (stamped
    # before the eNodeB).
    air_qci = config.workload.qci if is_uplink else bearer.qci
    if air._foreground:
        return None, "air interface already carries foreground traffic"

    # Fresh-state contract: the kernel bulk-installs counter series, so
    # every flush target must be untouched.
    if workload.frames_sent != 0:
        return None, "workload already started"
    modem = access.modem
    if modem.ul_sent.total != 0 or modem.dl_received.total != 0:
        return None, "modem counters not fresh"
    if bearer.uplink.total != 0 or bearer.downlink.total != 0:
        return None, "bearer counters not fresh"
    if ue.rrc.state.name != "IDLE" or ue.rrc.setups != 0:
        return None, "RRC not idle at simulate start"
    # The lane batches every COUNTER CHECK report into one
    # CounterCheckMonitor.ingest at flush, so the sink must be a monitor's
    # own on_report.
    sink = ue.rrc.report_sink
    report_monitor = getattr(sink, "__self__", None)
    if sink is not None and not (
        isinstance(report_monitor, CounterCheckMonitor) and sink == report_monitor.on_report
    ):
        return None, "counter-check report sink is not a CounterCheckMonitor"
    for monitor in (device.ul_monitor, device.dl_monitor, server.ul_monitor, server.dl_monitor):
        if monitor.counter._times:
            return None, f"monitor {monitor.name!r} not fresh"

    absorbed, reason = _absorb_events(session.loop, radio, handover, fault_injector)
    if reason is not None:
        return None, reason

    # Path-kind fault schedules replay at a dynamic lane's injection
    # points; clock-only schedules (skew/drift apply in the shared
    # collect() phase) and schedules matching neither point keep the lane
    # static — the reference draws no fault RNG for them either.  Armed
    # counter resets ride in via ``absorbed``.
    has_path_faults = fault_injector is not None and (
        fault_injector.decider("uplink") is not None
        or fault_injector.decider("downlink") is not None
    )

    # Outage, RSS, quota, handover and path-fault sessions are dynamic
    # lanes: their path state can change between two hops, so the lane
    # runs every hop at its own wheel event.  Every other lane is static
    # and folds its wired hops, the faster path.
    has_quota = flow_id in network.pcrf._quotas
    needs_general = (
        radio.profile.outages_enabled
        or radio.record_rss
        or has_quota
        or handover is not None
        or bool(absorbed)
        or has_path_faults
    )

    lane = LaneSpec(
        is_uplink=is_uplink,
        t0=session.loop.now(),
        workload=workload,
        radio=radio,
        air=air,
        air_qci=air_qci,
        rrc=ue.rrc,
        report_monitor=report_monitor,
        modem=modem,
        bearer=bearer,
        lan_s=network.config.lan_latency_s,
        backhaul_s=network.config.backhaul_latency_s,
        device=device,
        server=server,
        sla_budget=network.middlebox._budgets.get(flow_id),
        middlebox=network.middlebox,
        lan_link=network._lan_dl,
        backhaul_link=network._backhaul_ul,
        gateway_metrics=network.spgw.metrics,
        general=needs_general,
        ue=ue,
        access=access,
        spgw=network.spgw,
        mme=network.mme,
        flow_id=flow_id,
        has_quota=has_quota,
        handover=handover,
        rlf_timeout_s=enodeb.config.rlf_timeout_s,
        attach_delay_s=enodeb.config.attach_delay_s,
        span_recorder=session.span_recorder,
        absorbed=absorbed,
        fault_injector=fault_injector,
    )
    return lane, None


def build_scenario_lane(runner) -> tuple[LaneSpec | None, str | None]:
    """Lane for a single-UE :class:`~repro.experiments.runner.ScenarioRunner`."""
    lane, reason = build_session_lane(runner)
    if lane is not None and runner.loop.pending() != len(lane.absorbed):
        # Catch-all, checked last so specific reasons surface first: a
        # single-UE scenario loop must hold nothing beyond the absorbed
        # construction-time events or the lane would race whatever else
        # is scheduled on it.
        return None, "event loop already has pending events"
    return lane, reason
