"""Batched per-UE simulation kernel: the flat-state lane engine.

The reference engine simulates one Python object per packet: every chunk
of every frame becomes a :class:`~repro.netsim.packet.Packet` that hops
through device → modem → air → backhaul → SPGW → server as a chain of
event-loop callbacks, each allocating closures and touching a dozen
objects.  At fleet scale that per-packet object hop dominates run time
(ROADMAP open item 1) without changing any number the charging study
reads.

This module replaces that hop with a **lane**: one UE's whole simulate()
phase run over flat per-UE state — plain ints, floats and lists — driven
by a private event wheel (a heap of ``(time, seq, kind, a, b)`` tuples)
instead of the shared event loop.  One executor (:class:`_Lane`) runs
every lane: a single wheel loop (:meth:`_Lane.run`) with every
per-packet value cached in locals.  ``LaneSpec.is_uplink`` picks only
what a surviving air delivery counts (UL: backhaul, bearer, server
monitor, latency; DL: modem, device monitor).  Per-packet work shrinks
to a few dozen interpreter operations while reproducing the reference
engine **bit for bit**:

* every RNG draw is issued on the *same stream object* in the *same
  order* (workload sizes/jitter, air drop draws, radio RSS walk + loss
  draws, fault decisions);
* every float expression is copied operation-for-operation from the
  reference code (air drop probability, queue delay, RSS walk, frame
  sizing), never algebraically simplified — see the inline citations;
  ``min``/``max`` calls are unrolled into branches, which return the
  identical float;
* every counter write lands at the exact same simulated timestamp, so
  cycle-boundary queries (skewed or not) cannot tell the engines apart;
* event-wheel sequence numbers mirror the event loop's global schedule
  order, so same-time events fire in the same relative order (the
  tie-ordering contract below).

Static and dynamic lanes
------------------------

A lane whose ``LaneSpec.general`` is False — a *static* lane: no radio
outages, RSS recording, PCRF quota, handover schedule, absorbed loop
events or path faults — folds two wired hops into the events around
them, which is only sound while the UE's path state cannot change
mid-frame:

* the downlink LAN hop (+0.5 ms), SPGW charge and SLA verdict are
  folded into the frame event, with one batched eNodeB arrival event:
  nothing in the path schedules events with a delay inside
  (2 ms, 2.5 ms), so no push can land between the fold point and the
  reference's scheduling instant with a colliding timestamp (frame gaps
  are ≥ 5 ms — eligibility caps fps at 200 — air delays are ≥ 4 ms,
  counter checks ≥ 50 ms apart, the LAN hop is 0.5 ms);
* the uplink backhaul delivery (+2 ms) is folded into the air-delivery
  event: the reference's delivery event schedules nothing, and nothing
  that can fire inside the folded window reads the counters it writes
  (RRC counter checks read only the modem counters, which tick at send
  time).

A *dynamic* lane (``general`` True) runs the same hop code at the hop's
own wheel event, because an outage window, an RLF detach, a policer
refill or a handover break can land between any two hops.  The checks
only a dynamic lane needs — UE attached, radio connected, bearer active,
PCRF quota, the fault deciders — are tests on locals that never change
on a static lane, one branch per packet hop.  ``general`` decides
nothing else.

Tie-ordering contract
---------------------

The reference loop breaks time ties by schedule order (a global seq).
The wheel assigns its own per-lane seq at push time; pushes happen at
the same simulated instants as the reference's ``schedule`` calls,
except for the folded hops above.  One frame's downlink chunks ride one
batched event: their reference events hold *consecutive* seqs at the
same time, so nothing can interleave between them.

RRC release timers are *lazy*: a deadline ``release_at`` plus
``release_seq``, the wheel's seq counter when the timer was last armed,
checked before every pop.  ``rrc.on_data_activity`` re-arms the timer on
every chunk, so in the reference it sorts after everything scheduled
before that activity and before everything scheduled after it — in
particular after the first periodic COUNTER CHECK, which ``_setup`` arms
*before* the release timer.  On a time tie the popped event fires first
iff its seq is at most ``release_seq``.  Pending periodic-check events
are invalidated by a generation counter instead of heap surgery,
mirroring timer ``cancel``.

Rare events
-----------

Outage begin/end, RLF, re-attach, handover begin/complete, RSS samples,
counter resets and fault-delayed downlink deliveries run as methods on
the lane's attributes: the loop writes its locals back before the call
and reloads what a handler can change after it.  A buffer drain (outage
end, re-attach) comes back to the loop as a batch of chunks and goes
through the loop's own submit block, as does a fault-delayed uplink
send, so per-chunk RRC activity and air submission exist once.

Fault schedules replay path-kind decisions (burst-loss / reorder /
duplicate / corrupt / blackout) at the lane's uplink/downlink injection
points through the injector's own cached
:meth:`~repro.netsim.faults.FaultInjector.decider` closures — the ones
the session's reference pipes hold, so the same "faults" RNG stream,
draw order and trace records; counter resets are absorbed loop events
replayed on the wheel; clock skew/drift never touches the lane (both
engines apply ``skew_at`` in the shared ``collect()`` phase), so
clock-only schedules keep a lane static.

What NO lane supports — app-level ``on_receive`` hooks, frame rates
above the tie-safety bound — is refused by the eligibility check in
:mod:`repro.kernel.adapter`, which falls back to the reference engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count as _count
from math import cos as _cos, exp as _exp, log as _log, sin as _sin, sqrt as _sqrt, tau as _TWOPI

# random.NV_MAGICCONST, same expression so the same float.
_NV_MAGIC = 4 * _exp(-0.5) / _sqrt(2.0)

from ..cellular.air import AirInterface, RateWindow
from ..cellular.bearer import Bearer
from ..cellular.gateway import TokenBucket
from ..cellular.qos import scheduler_priority
from ..cellular.radio import GOOD_RSS_DBM, OUTAGE_FLOOR_DBM, RadioChannel, RssSample
from ..cellular.rrc import HardwareModem, RrcConnectionManager, RrcState
from ..netsim.packet import Direction, Packet

__all__ = ["LaneSpec", "run_lane", "SETTLE_S"]

#: Settle window after the charging horizon, matching the reference
#: ``loop.run_until(horizon + 2.0)`` in both runners.
SETTLE_S = 2.0

# Wheel event kinds (the tuple field after (time, seq)), most frequent
# first: the loop dispatches on ranges of them.
_K_DELIVER = 0  # air transmission completes (post propagation + queue + serialization)
_K_GW = 1  # UL: one packet arrives at the SPGW over the backhaul link (dynamic lanes)
_K_FRAME = 2  # workload emits one frame
_K_LAN = 3  # DL: one frame's chunks delivered by the LAN link (dynamic lanes)
_K_ARRIVAL = 4  # DL: one frame's surviving chunks reach the eNodeB over the backhaul
_K_CHECK = 5  # periodic RRC COUNTER CHECK
_K_UL_SEND = 6  # fault-delayed/duplicated uplink send (UeAccess.send_uplink)
# Rare events, run as methods (see the module docstring).
_K_RLF = 7  # radio-link-failure timer (ENodeB._check_rlf)
_K_OUT_BEGIN = 8  # natural outage begins (RadioChannel._begin_outage)
_K_OUT_END = 9  # natural outage ends (RadioChannel._end_outage)
_K_REATTACH = 10  # post-RLF re-attach (ENodeB._reattach)
_K_HO_BEGIN = 11  # handover starts (HandoverProcess._begin_handover)
_K_HO_COMPLETE = 12  # handover interruption ends (HandoverProcess._complete_handover)
_K_RSS = 13  # periodic RSS sample (RadioChannel._sample_rss)
_K_RESET = 14  # armed counter reset (FaultInjector._reset_modem)
_K_DL_DELIVER = 15  # fault-delayed/duplicated downlink delivery (ue.deliver)
_K_END = 16  # the settle horizon: ends the wheel loop (never pushed)

_INF = float("inf")


class _Cum:
    """Bulk-built mirror of :class:`~repro.netsim.counters.CumulativeCounter`.

    The hot loop appends (time, cumulative) points straight onto
    ``times``/``cums`` — same coalescing rule as ``CumulativeCounter.add``
    — and installs them into the real counter in one shot at flush time.
    """

    __slots__ = ("times", "cums", "total")

    def __init__(self) -> None:
        self.times: list[float] = []
        self.cums: list[int] = []
        self.total = 0

    def add(self, t: float, nbytes: int) -> None:
        """``CumulativeCounter.add`` for the rare sites; the hot loop inlines it.

        No validation: wheel times never go backwards and sizes are
        positive.
        """
        total = self.total + nbytes
        self.total = total
        times = self.times
        if times and times[-1] == t:
            self.cums[-1] = total
        else:
            times.append(t)
            self.cums.append(total)

    def flush_into(self, counter) -> None:
        """Install the accumulated points into a fresh CumulativeCounter."""
        if counter._times:
            raise RuntimeError("kernel flush target counter is not empty")
        counter._times = self.times
        counter._cums = self.cums
        counter._total = self.total


@dataclass
class LaneSpec:
    """Everything one lane needs, resolved by the adapter from live objects."""

    is_uplink: bool
    t0: float  # loop.now() at simulate start
    # Workload (the live FrameWorkload; its RNG stream is drawn in place).
    workload: object
    # Radio channel (live; RSS walk state and RNG stream used in place).
    radio: RadioChannel
    # The direction-relevant AirInterface of the serving cell.
    air: AirInterface
    #: QCI the air interface sees: the workload QCI on uplink (the SPGW
    #: stamps the bearer QCI *after* the air), the bearer QCI on downlink
    #: (stamped *before* the eNodeB).
    air_qci: int
    # RRC / modem.
    rrc: RrcConnectionManager
    #: The CounterCheckMonitor behind ``rrc.report_sink`` (None = no
    #: sink); the lane hands it every check's report at flush.
    report_monitor: object
    modem: HardwareModem
    bearer: Bearer
    # Path latencies (NetworkConfig).
    lan_s: float
    backhaul_s: float
    # Endpoints.
    device: object
    server: object
    #: SLA age budget for this flow at the middlebox (None = none).
    sla_budget: float | None
    # Shared components receiving flushed totals.
    middlebox: object
    lan_link: object  # netsim.link.Link ("lan-dl"); DL lanes only
    backhaul_link: object  # netsim.link.Link ("backhaul-ul"); UL lanes only
    gateway_metrics: object  # spgw.metrics (MetricsRegistry or None)

    # ---- dynamic lanes (outage / quota / RSS / handover / fault sessions) ----
    #: A dynamic lane: run every hop at its own wheel event instead of
    #: folding the wired hops (see the module docstring).
    general: bool = False
    ue: object = None  # cellular.enodeb.UeContext
    access: object = None  # cellular.network.UeAccess
    spgw: object = None  # cellular.gateway.Spgw
    mme: object = None  # cellular.mme.Mme
    flow_id: str = ""
    #: Whether the PCRF holds a quota for ``flow_id``; without one the
    #: SPGW's policer check can never throttle, so the lane skips it.
    has_quota: bool = False
    handover: object = None  # cellular.mobility.HandoverProcess | None
    rlf_timeout_s: float = 5.0
    attach_delay_s: float = 0.5
    #: SpanRecorder receiving replayed ``radio.outage`` spans (single-UE
    #: scenario runs only; fleet sessions record no outage spans).
    span_recorder: object = None
    #: Pre-existing loop events absorbed into the lane as ``(kind,
    #: Event)`` pairs sorted by loop seq — the construction-time outage /
    #: RSS / handover / counter-reset chain heads.  Replayed on the wheel
    #: with negative seqs (they were scheduled before anything the lane
    #: pushes) and cancelled on flush so the caller's settle run cannot
    #: double-fire them.
    absorbed: tuple = ()
    #: The session's :class:`~repro.netsim.faults.FaultInjector`, or None.
    #: Path-kind decisions replay through its uplink/downlink deciders,
    #: counter resets through
    #: :meth:`~repro.netsim.faults.FaultInjector.apply_reset`.
    fault_injector: object = None


def _cut(size: int, packet_bytes: int, created: float, first_seq: int) -> list:
    """A frame's chunks as ``(size, created_at, sender seq)`` items.

    Full ``packet_bytes`` fragments first, then the remainder, as
    ``FrameWorkload._emit_frame`` cuts them; one sender seq per chunk.
    """
    full, rest = divmod(size, packet_bytes)
    items = [(packet_bytes, created, first_seq + k) for k in range(full)]
    if rest:
        items.append((rest, created, first_seq + full))
    return items


class _Lane:
    """One UE's lane: its flat mirrors, its wheel loop and their flush.

    *Mirrored and flushed*: the air interface's foreground rate window,
    demand split and FlowStats; the radio's RSS walk with the
    air-survival draws inlined; the RRC machine and its counter-check
    reports (handed to ``CounterCheckMonitor.ingest`` in one batch); the
    four direction-resolved cumulative counters (modem, bearer, device
    and server monitors, with the bearer's first/last-usage stamps taken
    from the mirror times); the wired-hop, middlebox and gateway sums;
    the workload's frame totals and the sender's packet seq.  Dynamic
    lanes add the two drop-tail queues (contents, bytes, and the
    handover-inflated capacity/drop-layer), the token-bucket policer,
    the RLF timer generation, the handover save/restore pair and the
    ``radio.outage`` span walk.  An absorbed counter reset first installs
    the modem mirror into the live counter, then lets the injector swap
    in fresh counters, then counts into a fresh mirror.

    *Live*: the RNG streams (drawn in place; the ``_K_RSS`` samples call
    ``RadioChannel._walk_rss`` on the synced RSS state), the radio's
    connectivity and outage bookkeeping, MME/bearer activation, the fault
    injector, and the rarer per-packet FlowStats (detached and policed
    drops, buffered, recovered and handover-forwarded packets).  The real
    event-loop clock is *stale* during the lane (it never advances), so
    nothing that reads ``loop.now()`` — ``TrafficMonitor.observe``,
    ``HardwareModem.count_*``, ``Link.send``, ``TokenBucket`` — is called.
    """

    __slots__ = (
        "spec", "until", "end", "heap", "seq",
        "radio", "ue", "mme", "spgw", "handover",
        # air
        "air_random", "capacity", "cap_usable", "prop", "max_qd",
        "bg", "my_priority", "split_general", "bg_higher", "bg_same",
        "win_samples", "win_bits",
        "off_p", "off_b", "drop_p", "drop_b", "trans_p", "trans_b",
        # radio
        "radio_rng", "rss", "rss_base", "rss_noise", "rss_floor",
        "rss_ceiling", "base_loss", "loss_at_floor",
        "mean_outage", "mean_uptime", "rss_dt",
        # rrc
        "connected", "release_at", "timeout", "check_dt",
        "gen", "setups", "releases", "reports",
        # counters
        "mod_cum", "bearer_cum", "dev_cum", "srv_cum", "received", "latencies",
        # workload and sender
        "frames_sent", "bytes_offered", "send_seq",
        # path
        "lan_s", "bk_s", "sla",
        "link_sent_p", "link_sent_b", "link_del_p", "link_del_b",
        "mb_pass_p", "mb_pass_b", "mb_drop_p", "mb_drop_b",
        # dynamic lanes: queues, policer, gateway drops, RLF, handover, spans
        "dlq", "dlq_bytes", "dlq_cap", "dlq_layer", "ulq", "ulq_bytes", "ulq_cap",
        "p_rate", "p_burst", "p_tokens", "p_last", "gw_drops",
        "rlf_gen", "ho_saved_layer", "ho_saved_cap", "fault_ul", "fault_dl",
        "span_open_t", "spans",
    )

    def __init__(self, spec: LaneSpec, horizon: float, settle: float) -> None:
        self.spec = spec
        self.until = horizon
        self.end = horizon + settle
        self.heap: list[tuple] = []
        self.radio = spec.radio
        self.ue = spec.ue
        self.mme = spec.mme
        self.spgw = spec.spgw
        self.handover = spec.handover

        air = spec.air
        self.air_random = air._rng.random
        self.capacity = air.capacity_bps
        # AirInterface.drop_probability recomputes capacity * usable_fraction
        # per call; the product is the same float every time.
        self.cap_usable = air.capacity_bps * air.usable_fraction
        self.prop = air.propagation_delay_s
        self.max_qd = air.max_queue_delay_s
        self.bg = air._background
        self.my_priority = scheduler_priority(spec.air_qci)
        # Background demand-split specialization: with at most one
        # background class the reference's set-union loop collapses to one
        # or two single-term bucket sums, which IEEE addition reproduces
        # exactly (x + 0.0 == x, 0.0 + x == x and a + b == b + a for the
        # non-negative rates here).  The hot loop then computes
        # ``higher = bg_higher; same = bg_same + rate``.  The adapter
        # refuses an air that already carries foreground traffic, so the
        # lane's own window is the only foreground term.
        self.split_general = False
        self.bg_higher = 0.0
        self.bg_same = 0.0
        if len(self.bg) == 1:
            ((bg_qci, bg_rate),) = self.bg.items()
            bg_priority = scheduler_priority(bg_qci)
            if bg_qci == spec.air_qci or bg_priority == self.my_priority:
                self.bg_same = bg_rate
            elif bg_priority < self.my_priority:
                self.bg_higher = bg_rate
            # else lower priority: invisible to this QCI's buckets
        elif len(self.bg) > 1:
            self.split_general = True  # general set-union mirror (_split)
        # RateWindow mirror (window_s = 1.0, the reference default).
        self.win_samples: deque[tuple[float, int]] = deque()

        # RadioChannel.survives_air mirror: the RSS walk state; the gauss
        # carry-over stays on the radio's own RNG stream object.
        radio = spec.radio
        rp = radio.profile
        self.radio_rng = radio._rng
        self.rss = radio._current_rss
        self.rss_base = rp.base_rss_dbm
        self.rss_noise = rp.rss_noise_std
        self.rss_floor = rp.rss_floor_dbm
        self.rss_ceiling = rp.rss_ceiling_dbm
        self.base_loss = rp.base_loss
        self.loss_at_floor = rp.loss_at_floor
        self.mean_outage = rp.mean_outage_s
        self.mean_uptime = rp.mean_uptime_s
        self.rss_dt = rp.rss_sample_interval_s

        rrc = spec.rrc
        self.timeout = rrc.inactivity_timeout_s
        self.check_dt = rrc.counter_check_interval_s
        self.setups = 0
        self.releases = 0
        # One (t, modem total) per COUNTER CHECK: rrc.counter_checks_sent
        # == modem.counter_checks_served == len(reports).
        self.reports: list[tuple[float, int]] = []

        self.mod_cum = _Cum()  # modem.ul_sent (UL) / dl_received (DL)
        self.bearer_cum = _Cum()  # bearer.uplink (UL) / downlink (DL)
        self.dev_cum = _Cum()  # device ul (UL) / dl (DL) monitor
        self.srv_cum = _Cum()  # server ul (UL) / dl (DL) monitor
        self.latencies: list[float] = []
        # The wheel's counters, workload totals and RRC state start as
        # locals in run() and are written back for the flush (the RRC
        # state also around every rare-event handler).

        self.lan_s = spec.lan_s
        self.bk_s = spec.backhaul_s
        self.sla = spec.sla_budget

        # Drop-tail queue mirrors: [(size, created_at, seq), ...] + bytes.
        # A lane only ever buffers its own direction's packets.
        ue = spec.ue
        self.dlq: list[tuple[int, float, int]] = []
        self.dlq_bytes = 0
        self.dlq_cap = ue.dl_buffer.capacity_bytes
        self.dlq_layer = ue.dl_buffer.drop_layer
        self.ulq: list[tuple[int, float, int]] = []
        self.ulq_bytes = 0
        self.ulq_cap = spec.access._ul_buffer.capacity_bytes

        # Token-bucket policer mirror (Spgw._policers[flow_id]).
        self.p_rate: float | None = None
        self.p_burst = 0.0
        self.p_tokens = 0.0
        self.p_last = 0.0
        # Gateway drop-metric sums by reason, flushed once (the registry's
        # per-call key formatting dominates the hot path; counters are
        # plain sums so one inc at flush is observably identical).
        self.gw_drops = {"detached": 0, "policed": 0}

        self.rlf_gen = 0
        # Handover break save/restore mirror (HandoverProcess._saved_*).
        self.ho_saved_layer: str | None = None
        self.ho_saved_cap: int | None = None

        # Fault-schedule deciders: ``decide(t) -> (action, delay)`` per
        # injection point, or None when the schedule can never touch that
        # point (the reference draws no RNG there either).
        injector = spec.fault_injector
        self.fault_ul = injector.decider("uplink") if injector is not None else None
        self.fault_dl = injector.decider("downlink") if injector is not None else None

        # radio.outage span mirror: closed (open_t, close_t) pairs plus
        # the currently-open outage, if any (scenario runs only).
        self.span_open_t: float | None = None
        self.spans: list[tuple[float, float]] = []

    # ------------------------------------------------------------ the wheel

    def run(self) -> None:
        """Run the wheel from the first frame through the settle window, then flush."""
        spec = self.spec
        ul = spec.is_uplink
        dynamic = spec.general
        heap = self.heap
        pop, push = heappop, heappush
        until = self.until
        # Absorbed construction-time events predate every lane push, so
        # they keep their relative loop order via negative wheel seqs.
        # The Event rides along so _K_RESET can read its args.
        for idx, (kind, event) in enumerate(spec.absorbed, -len(spec.absorbed)):
            push(heap, (event.time, idx, kind, event, 0))
        end = self.end
        workload = spec.workload
        profile = workload.profile
        fps = profile.fps
        frame_dt = 1.0 / fps
        packet_bytes = profile.packet_bytes
        mean_bitrate = profile.mean_bitrate_bps
        iframe_n = profile.iframe_interval
        iframe_scale = profile.iframe_scale
        size_sigma = profile.size_sigma
        wl_random = workload._rng.random
        # FrameWorkload.start: first frame at t0 + uniform phase jitter.
        seq = 1
        push(heap, (spec.t0 + workload._rng.uniform(0.0, 1.0 / fps), seq, _K_FRAME, 0, 0))
        # EdgeDevice.send (UL) / EdgeServer.send (DL) stamp
        # ``seq=next(self._seq)`` on every chunk; buffered packets carry it.
        frames_sent = bytes_offered = send_seq = 0

        air_random = self.air_random
        capacity = self.capacity
        cap_usable = self.cap_usable
        prop = self.prop
        max_qd = self.max_qd
        split_general = self.split_general
        bg_higher = self.bg_higher
        bg_same = self.bg_same
        # drop_probability's usable capacity, the same float on every
        # chunk when the higher-priority load is a constant.
        bg_usable = cap_usable - bg_higher
        if bg_usable < 0.0:
            bg_usable = 0.0
        win_samples = self.win_samples
        win_bits = 0
        off_p = off_b = drop_p = drop_b = trans_p = trans_b = 0

        radio = self.radio
        radio_rng = self.radio_rng
        radio_random = radio_rng.random
        # random.gauss is inlined in the deliver branch (same algorithm,
        # same draws); its carry-over cache rides along as a local.
        gauss_next = radio_rng.gauss_next
        rss = self.rss
        rss_base = self.rss_base
        rss_noise = self.rss_noise
        rss_floor = self.rss_floor
        rss_ceiling = self.rss_ceiling
        base_loss = self.base_loss
        loss_at_floor = self.loss_at_floor

        connected = False  # eligibility requires IDLE at start
        release_at = _INF
        release_seq = 0
        timeout = self.timeout
        check_dt = self.check_dt
        gen = 0
        # rrc.perform_counter_check + modem.counter_check: one (t, modem
        # total) per check; the lane's one modem counter is its
        # direction's.
        reports = self.reports

        dev = self.dev_cum  # device.ul_monitor (UL) / dl_monitor (DL)
        dev_times, dev_cums, dev_total = dev.times, dev.cums, 0
        mod = self.mod_cum  # modem.ul_sent (UL) / dl_received (DL)
        mod_times, mod_cums, mod_total = mod.times, mod.cums, 0
        bearer_cum = self.bearer_cum
        b_times, b_cums, b_total = bearer_cum.times, bearer_cum.cums, 0
        srv = self.srv_cum  # server.ul_monitor (UL) / dl_monitor (DL)
        s_times, s_cums, s_total = srv.times, srv.cums, 0
        latencies = self.latencies
        received = 0
        lan_s = self.lan_s
        bk_s = self.bk_s
        sla = self.sla
        link_sent_p = link_sent_b = link_del_p = link_del_b = 0
        mb_pass_p = mb_pass_b = mb_drop_p = mb_drop_b = 0

        # Path state only a dynamic lane's rare events change.
        ue = self.ue
        bearer = spec.bearer
        attached = ue.attached
        radio_up = radio.connected
        up = attached and radio_up
        # loss_probability's good-signal threshold; current_rss() reads
        # the outage floor while the radio is down, which never clears it.
        good = GOOD_RSS_DBM if radio_up else _INF
        bearer_active = bearer.active
        has_quota = spec.has_quota
        fault_ul = self.fault_ul
        fault_dl = self.fault_dl
        rare = {
            _K_RLF: self._on_rlf,
            _K_OUT_BEGIN: self._on_out_begin,
            _K_OUT_END: self._on_out_end,
            _K_REATTACH: self._on_reattach,
            _K_HO_BEGIN: self._on_ho_begin,
            _K_HO_COMPLETE: self._on_ho_complete,
            _K_RSS: self._on_rss,
            _K_RESET: self._on_reset,
            _K_DL_DELIVER: self._on_dl_deliver,
        }

        # The submit block's input, set by whichever event feeds it: a
        # static lane's chunk bytes (``remaining``, all created at
        # ``payload``), or a dynamic lane's (size, created_at, sender seq)
        # ``items``; whether the chunks count as RRC activity, whether they
        # are uplink sends (fault decision, attach check, modem count,
        # radio check) and the event to push after them.
        remaining = 0
        payload = 0
        items = ()
        i = n_items = 0
        activity = True
        sending = False
        fault = None
        counted = 0
        tail_t = None
        tail_kind = 0
        dup_t = None

        while True:
            try:
                te, ev_seq, kind, a, b = pop(heap)
            except IndexError:  # drained before the horizon
                te = _INF
            if te > end:
                # run_until(end) leaves later events undispatched: the run
                # ends at the horizon, after everything due there (an
                # armed release included).
                te, ev_seq, kind = end, _INF, _K_END
            # Lazy RRC release at (release_at, release_seq), see the tie
            # contract: rrc._release_on_inactivity at the armed deadline
            # (release_at is infinite while the connection is idle).
            if release_at <= te and (release_at < te or release_seq < ev_seq):
                reports.append((release_at, mod_total))  # its COUNTER CHECK
                self.releases += 1
                connected = False
                gen += 1
                release_at = _INF

            if kind == _K_DELIVER:
                # AirInterface._transmit -> ENodeB._air_deliver_ul/_dl.
                trans_p += 1
                trans_b += a
                if not up and not ul:
                    # A detached UE drops the packet; one in an outage
                    # buffers it for the drain.
                    if attached:
                        self._dlq_push(b)
                    else:
                        ue.dropped_detached.packets += 1
                        ue.dropped_detached.bytes += a
                    continue
                # RadioChannel.survives_air: _walk_rss (gauss) then
                # random() >= loss_probability(current rss).  Uplink
                # delivery draws it even while the radio is down, when
                # current_rss() reads the outage floor.
                z = gauss_next
                gauss_next = None
                if z is None:
                    x2pi = radio_random() * _TWOPI
                    g2rad = _sqrt(-2.0 * _log(1.0 - radio_random()))
                    z = _cos(x2pi) * g2rad
                    gauss_next = _sin(x2pi) * g2rad
                step = 0.0 + z * rss_noise  # gauss: mu + z * sigma, mu = 0.0
                drift = 0.25 * (rss_base - rss)
                rss = rss + drift + step
                if rss < rss_floor:
                    rss = rss_floor
                elif rss > rss_ceiling:
                    rss = rss_ceiling
                if rss >= good:
                    loss = base_loss
                else:
                    frac = (GOOD_RSS_DBM - (rss if radio_up else OUTAGE_FLOOR_DBM)) / (
                        GOOD_RSS_DBM - rss_floor
                    )
                    if frac > 1.0:
                        frac = 1.0
                    loss = base_loss + frac * loss_at_floor
                    if loss > 1.0:
                        loss = 1.0
                if radio_random() < loss:
                    continue  # phy-rss loss, counted nowhere
                if not ul:
                    mod_total += a  # modem.count_downlink
                    if mod_times and mod_times[-1] == te:
                        mod_cums[-1] = mod_total
                    else:
                        mod_times.append(te)
                        mod_cums.append(mod_total)
                    if fault_dl:
                        # The injector pipe wraps ue.deliver, so the fate
                        # decision runs after the modem count, before the
                        # device monitor.
                        action, delay = fault_dl(te)
                        if action is not None:
                            if action == "delay" or action == "dup":
                                seq += 1
                                push(heap, (te + delay, seq, _K_DL_DELIVER, a, 0))
                            if action != "dup":
                                # Delayed: the device counts it when it
                                # fires.  Dropped: counted at the modem,
                                # never at the device.
                                continue
                    dev_total += a  # device.deliver -> dl_monitor.observe
                    if dev_times and dev_times[-1] == te:
                        dev_cums[-1] = dev_total
                    else:
                        dev_times.append(te)
                        dev_cums.append(dev_total)
                    continue
                link_sent_p += 1  # backhaul link send
                link_sent_b += a
                if dynamic:
                    seq += 1
                    push(heap, (te + bk_s, seq, _K_GW, a, b))
                    continue
                # Static lane: the backhaul delivery folds in here; the
                # charge below lands at its instant.
                te += bk_s

            elif kind == _K_GW:
                # Backhaul Link._deliver -> Spgw.receive_uplink at te.
                link_del_p += 1
                link_del_b += a
                if not bearer_active:
                    self._gateway_drop(a, "detached")
                    continue
                if has_quota and self._policed(te, a, b_total):
                    self._gateway_drop(a, "policed")
                    continue

            else:
                if kind == _K_FRAME:
                    # FrameWorkload._emit_frame with sender = EdgeDevice.send
                    # (UL) or EdgeServer.send (DL).
                    if te > until:
                        continue  # workload stopped; no reschedule
                    # _frame_size, op for op (incl. the property recompute
                    # and the inlined lognormvariate = exp(normalvariate)).
                    mean = mean_bitrate / 8.0 / fps
                    if iframe_n > 0:
                        p_frame = mean * iframe_n / (iframe_n - 1 + iframe_scale)
                        mean = p_frame * (iframe_scale if frames_sent % iframe_n == 0 else 1.0)
                    while True:
                        u1 = wl_random()
                        u2 = 1.0 - wl_random()
                        z = _NV_MAGIC * (u1 - 0.5) / u2
                        if z * z / 4.0 <= -_log(u2):
                            break
                    size = _exp(0.0 + z * size_sigma) * mean
                    remaining = int(size)
                    if remaining < 64:
                        remaining = 64
                    frames_sent += 1
                    bytes_offered += remaining
                    if ul:
                        # Every chunk's device.ul_monitor.observe lands at
                        # te inside this handler, so they coalesce into one
                        # point; the chunks then go through the submit
                        # block below, and the next frame is scheduled
                        # after them.
                        dev_total += remaining
                        if dev_times and dev_times[-1] == te:
                            dev_cums[-1] = dev_total
                        else:
                            dev_times.append(te)
                            dev_cums.append(dev_total)
                        if dynamic:
                            items = _cut(remaining, packet_bytes, te, send_seq)
                            i = 0
                            n_items = len(items)
                            send_seq += n_items
                            sending = True
                            fault = fault_ul
                        else:
                            counted = remaining  # access.send_uplink -> modem.count_uplink
                            payload = te
                        tail_t = te + frame_dt
                        tail_kind = _K_FRAME
                    else:
                        # The server monitor counts every chunk at te and
                        # the LAN link accepts it (deliver at te + lan_s).
                        s_total += remaining
                        if s_times and s_times[-1] == te:
                            s_cums[-1] = s_total
                        else:
                            s_times.append(te)
                            s_cums.append(s_total)
                        link_sent_b += remaining
                        # One frame's LAN deliveries hold consecutive
                        # reference seqs and are scheduled before the next
                        # frame; the backhaul arrivals they schedule come
                        # after it.
                        if dynamic:
                            items = _cut(remaining, packet_bytes, te, send_seq)
                            send_seq += len(items)
                            link_sent_p += len(items)
                            seq += 1
                            push(heap, (te + lan_s, seq, _K_LAN, items, te))
                            seq += 1
                            push(heap, (te + frame_dt, seq, _K_FRAME, 0, 0))
                            continue
                        n_chunks = (remaining + packet_bytes - 1) // packet_bytes
                        link_sent_p += n_chunks
                        seq += 1
                        push(heap, (te + frame_dt, seq, _K_FRAME, 0, 0))
                        # Static lane: the LAN hop folds in here; charge
                        # and SLA verdict land at its instant.
                        a = remaining
                        b = te
                        te += lan_s
                        kind = _K_LAN
                elif kind == _K_ARRIVAL:
                    # One DL frame's chunks: each is ENodeB.receive_downlink.
                    if dynamic:
                        if not attached:
                            for item in a:
                                ue.dropped_detached.packets += 1
                                ue.dropped_detached.bytes += item[0]
                            continue
                        items = a
                        i = 0
                        n_items = len(a)
                        sending = False
                    else:
                        remaining = a
                elif kind == _K_CHECK:
                    # rrc._periodic_check: stale generations are cancelled
                    # timers; a live timer firing while IDLE does not re-arm.
                    if a == gen and connected:
                        reports.append((te, mod_total))
                        seq += 1
                        push(heap, (te + check_dt, seq, _K_CHECK, gen, 0))
                    continue
                elif kind == _K_UL_SEND:
                    # The pipe's deferred UeAccess.send_uplink: attach and
                    # radio state are read at fire time.
                    items = (b,)
                    i = 0
                    n_items = 1
                    sending = True
                    fault = None
                elif kind != _K_LAN:
                    # A rare event: its handler runs on the attributes.
                    self.seq = seq
                    self.rss = rss
                    radio_rng.gauss_next = gauss_next
                    self.connected = connected
                    self.release_at = release_at
                    self.gen = gen
                    mod.total = mod_total
                    dev.total = dev_total
                    if kind == _K_END:
                        break
                    drain = rare[kind](te, a)
                    seq = self.seq
                    rss = self.rss
                    gauss_next = radio_rng.gauss_next
                    connected = self.connected
                    release_at = self.release_at
                    gen = self.gen
                    attached = ue.attached
                    radio_up = radio.connected
                    up = attached and radio_up
                    good = GOOD_RSS_DBM if radio_up else _INF
                    bearer_active = bearer.active
                    mod = self.mod_cum
                    mod_times, mod_cums, mod_total = mod.times, mod.cums, mod.total
                    dev_total = dev.total
                    if drain is None:
                        continue
                    # Buffered packets resubmitted at te: uplink ones
                    # replay receive_uplink (RRC activity), downlink ones
                    # ENodeB._drain_buffer (none).
                    items, tail_t, tail_kind = drain
                    i = 0
                    n_items = len(items)
                    sending = False
                    activity = ul

                if kind == _K_LAN:
                    # Link._deliver -> Spgw.send_downlink per chunk at te:
                    # charge (or drop), then the middlebox's SLA verdict on
                    # the charged packet; b is the frame's created_at.
                    if dynamic:
                        link_del_p += len(a)
                        passed = []
                        charged = 0
                        for item in a:
                            chunk = item[0]
                            link_del_b += chunk
                            if not bearer_active:
                                self._gateway_drop(chunk, "detached")
                                continue
                            if has_quota and self._policed(te, chunk, b_total):
                                self._gateway_drop(chunk, "policed")
                                continue
                            b_total += chunk  # bearer.count_downlink
                            charged += chunk
                            passed.append(item)
                        a = passed
                        n_chunks = len(passed)
                        if not n_chunks:
                            continue
                    else:
                        b_total += a  # bearer.count_downlink
                        charged = a
                    if b_times and b_times[-1] == te:
                        b_cums[-1] = b_total
                    else:
                        b_times.append(te)
                        b_cums.append(b_total)
                    # SlaMiddlebox.process: loop.now() - created_at > budget
                    # (charged, *then* dropped — that asymmetry is the point).
                    if sla is not None and te - b > sla:
                        mb_drop_p += n_chunks
                        mb_drop_b += charged
                    else:
                        mb_pass_p += n_chunks
                        mb_pass_b += charged
                        # _forward_backhaul_dl: the survivors reach the
                        # eNodeB back to back, one batched arrival.
                        seq += 1
                        push(heap, (te + bk_s, seq, _K_ARRIVAL, a, b))
                    continue

                # ---- submit: the chunks reach the eNodeB (or the modem) at te.
                while True:
                    if dynamic:
                        if dup_t is not None:
                            # The duplicate follows its original's send.
                            seq += 1
                            push(heap, (dup_t, seq, _K_UL_SEND, item[0], item))
                            dup_t = None
                        if i == n_items:
                            break
                        item = items[i]
                        i += 1
                        chunk = item[0]
                        if sending:
                            if fault is not None:
                                # The injector pipe wraps access.send_uplink,
                                # so the fate decision precedes the attach
                                # check.
                                action, delay = fault(te)
                                if action is not None:
                                    if action == "delay":
                                        seq += 1
                                        push(heap, (te + delay, seq, _K_UL_SEND, chunk, item))
                                        continue
                                    if action != "dup":
                                        continue  # dropped after the app-level count
                                    dup_t = te + delay
                            if not attached:
                                continue  # dies after the app-level count
                            counted += chunk  # modem.count_uplink, before the radio check
                            if not radio_up:
                                self._ulq_push(item)
                                continue
                        # Uplink deliveries carry created_at, downlink ones
                        # the whole item (an outage may buffer it).
                        payload = item[1] if ul else item
                    else:
                        if remaining <= 0:
                            break
                        chunk = remaining if remaining < packet_bytes else packet_bytes
                        remaining -= chunk
                    if activity:
                        # rrc.on_data_activity: _setup (arming the periodic
                        # check) then the release timer re-armed.
                        if not connected:
                            connected = True
                            self.setups += 1
                            if check_dt is not None:
                                seq += 1
                                push(heap, (te + check_dt, seq, _K_CHECK, gen, 0))
                        release_at = te + timeout
                        release_seq = seq
                    # air.submit — RateWindow.observe(te, chunk):
                    bits = chunk * 8
                    win_samples.append((te, bits))
                    win_bits += bits
                    cutoff = te - 1.0  # window_s = 1.0 (reference default)
                    while win_samples and win_samples[0][0] <= cutoff:
                        win_bits -= win_samples.popleft()[1]
                    off_p += 1
                    off_b += chunk
                    # submit draws rng.random() before drop_probability.
                    u = air_random()
                    if split_general:
                        higher, same = self._split(win_bits / 1.0)
                        usable = cap_usable - higher
                        if usable < 0.0:
                            usable = 0.0
                    else:
                        higher = bg_higher
                        same = bg_same + win_bits / 1.0  # RateWindow.rate_bps
                        usable = bg_usable
                    # drop_probability:
                    if same <= usable or same <= 0:
                        p = 0.0
                    elif usable <= 0:
                        p = 1.0
                    else:
                        p = 1.0 - usable / same
                    if u < p:
                        drop_p += 1
                        drop_b += chunk
                        continue
                    # queue_delay recomputes _demand_split at the same
                    # instant with unchanged state — reuse (higher, same).
                    rho = (higher + same) / capacity
                    if rho > 0.99:
                        rho = 0.99
                    if rho < 0.5:
                        qd = 0.0
                    else:
                        qd = 0.002 * rho / (1.0 - rho)
                        if qd > max_qd:
                            qd = max_qd
                    delay = prop + qd + chunk * 8.0 / capacity
                    seq += 1
                    push(heap, (te + delay, seq, _K_DELIVER, chunk, payload))
                if counted:
                    # The sends' modem counts, coalesced into one point at te.
                    mod_total += counted
                    if mod_times and mod_times[-1] == te:
                        mod_cums[-1] = mod_total
                    else:
                        mod_times.append(te)
                        mod_cums.append(mod_total)
                    counted = 0
                if tail_t is not None:
                    seq += 1
                    push(heap, (tail_t, seq, tail_kind, 0, 0))
                    tail_t = None
                activity = True
                continue

            # Spgw.receive_uplink's charge at te: bearer.count_uplink, then
            # EdgeServer._receive_uplink via the registered SPGW sink —
            # server.ul_monitor and its stats; b is the packet's created_at.
            b_total += a
            if b_times and b_times[-1] == te:
                b_cums[-1] = b_total
            else:
                b_times.append(te)
                b_cums.append(b_total)
            s_total += a
            if s_times and s_times[-1] == te:
                s_cums[-1] = s_total
            else:
                s_times.append(te)
                s_cums.append(s_total)
            received += 1
            latencies.append(te - b)

        if not dynamic:
            # A folded wired hop is pure delay, no loss: all sent arrive.
            link_del_p, link_del_b = link_sent_p, link_sent_b
            # Every chunk a static lane's sender cut went to the air (UL)
            # or onto the LAN link (DL) exactly once.
            send_seq = off_p if ul else link_sent_p

        self.frames_sent = frames_sent
        self.bytes_offered = bytes_offered
        self.send_seq = send_seq
        self.win_bits = win_bits
        self.off_p, self.off_b = off_p, off_b
        self.drop_p, self.drop_b = drop_p, drop_b
        self.trans_p, self.trans_b = trans_p, trans_b
        bearer_cum.total = b_total
        srv.total = s_total
        self.received = received
        self.link_sent_p, self.link_sent_b = link_sent_p, link_sent_b
        self.link_del_p, self.link_del_b = link_del_p, link_del_b
        self.mb_pass_p, self.mb_pass_b = mb_pass_p, mb_pass_b
        self.mb_drop_p, self.mb_drop_b = mb_drop_p, mb_drop_b
        self._flush()

    # ------------------------------------------------------- hot-path helpers

    def _split(self, rate: float) -> tuple[float, float]:
        """General mirror of AirInterface._demand_split (≥ 2 bg classes).

        ``rate`` is the foreground window's already-expired rate_bps at
        the current time.  Same set construction, iteration order and
        float accumulation order as the reference.
        """
        my_priority = self.my_priority
        air_qci = self.spec.air_qci
        higher = 0.0
        same = 0.0
        for other in set(self.bg) | {air_qci}:
            load = self.bg.get(other, 0.0) + (rate if other == air_qci else 0.0)
            priority = scheduler_priority(other)
            if priority < my_priority:
                higher += load
            elif priority == my_priority:
                same += load
        return higher, same

    def _policed(self, t: float, size: int, used: int) -> bool:
        # Spgw._policed against the mirrored token bucket (the real
        # TokenBucket reads ``loop.now()`` in both ctor and admit, which
        # is stale here — t is the wheel event time).  ``used`` is
        # bearer.uplink.total + bearer.downlink.total: the other
        # direction's counter stays at zero.
        spgw = self.spgw
        if spgw.policy is None:
            return False
        rate = spgw.policy.allowed_rate_bps(self.spec.flow_id, used)
        if rate is None:
            self.p_rate = None  # mirrors _policers.pop
            return False
        if self.p_rate is None or self.p_rate != rate:
            self.p_rate = rate
            self.p_burst = rate / 8.0
            self.p_tokens = self.p_burst
            self.p_last = t
        tokens = self.p_tokens + (t - self.p_last) * self.p_rate / 8.0
        if tokens > self.p_burst:
            tokens = self.p_burst
        self.p_last = t
        if tokens >= size:
            self.p_tokens = tokens - size
            return False
        self.p_tokens = tokens
        return True

    def _gateway_drop(self, size: int, reason: str) -> None:
        # The SPGW drops a packet before charging it: a detached bearer
        # or the PCRF policer.
        spgw = self.spgw
        stats = spgw.detached_drops if reason == "detached" else spgw.policed_drops
        stats.packets += 1
        stats.bytes += size
        self.gw_drops[reason] += size

    def _dlq_push(self, item: tuple) -> None:
        # ue.dl_buffer.push: tail drop against the (possibly handover-
        # inflated) mirrored capacity; FlowStats live on the real queue.
        size = item[0]
        q = self.ue.dl_buffer
        if self.dlq_bytes + size > self.dlq_cap:
            q.dropped.packets += 1
            q.dropped.bytes += size
            return
        self.dlq.append(item)
        self.dlq_bytes += size
        q.enqueued.packets += 1
        q.enqueued.bytes += size

    def _ulq_push(self, item: tuple) -> None:
        # access._ul_buffer.push (the modem's uplink buffer).
        size = item[0]
        q = self.spec.access._ul_buffer
        if self.ulq_bytes + size > self.ulq_cap:
            q.dropped.packets += 1
            q.dropped.bytes += size
            return
        self.ulq.append(item)
        self.ulq_bytes += size
        q.enqueued.packets += 1
        q.enqueued.bytes += size

    # ---------------------------------------------------------- rare events
    #
    # Handlers take (te, a) and return None, or a drain: ``(items,
    # tail_t, tail_kind)`` — buffered items the loop resubmits at te
    # through its submit block, then the event to push after them (None:
    # no event), preserving the reference's schedule order.

    def _push(self, t: float, kind: int, a=0, b=0) -> None:
        self.seq += 1
        heappush(self.heap, (t, self.seq, kind, a, b))

    def _take_dlq(self) -> list:
        # ENodeB._drain_buffer: recovered packets re-enter the air with
        # their original created_at; no RRC activity on this path.
        items = self.dlq
        self.dlq = []
        self.dlq_bytes = 0
        recovered = self.ue.buffered_recovered
        for size, _, _ in items:
            recovered.packets += 1
            recovered.bytes += size
        return items

    def _take_ulq(self) -> list:
        # UeAccess._drain_ul_buffer: each packet replays receive_uplink.
        items = self.ulq
        self.ulq = []
        self.ulq_bytes = 0
        return items

    def _on_rss(self, te: float, _a) -> None:
        # RadioChannel._sample_rss on the live radio, with the mirrored
        # walk state synced in and back out.
        radio = self.radio
        radio._current_rss = self.rss
        radio._walk_rss()
        self.rss = radio._current_rss
        radio.rss_history.append(RssSample(te, radio.current_rss(), radio.connected))
        self._push(te + self.rss_dt, _K_RSS)

    def _on_reset(self, te: float, event) -> None:
        # Absorbed FaultInjector._reset_modem event: install the modem
        # mirror into the live counter being replaced, replay the zeroing
        # (and its trace record) at the armed instant, then count into a
        # fresh mirror.
        modem, point = event.args
        self.mod_cum.flush_into(modem.ul_sent if self.spec.is_uplink else modem.dl_received)
        self.spec.fault_injector.apply_reset(modem, te, point)
        self.mod_cum = _Cum()

    def _on_dl_deliver(self, te: float, size: int) -> None:
        # Fault-delayed (or duplicated) downlink delivery: the pipe's
        # deferred ue.deliver -> device.dl_monitor.
        self.dev_cum.add(te, size)

    def _outage_start_callbacks(self, te: float) -> None:
        # Registration order: ENodeB._on_outage_start (arms the RLF
        # timer), then the scenario runner's span-open callback.
        self._push(te + self.spec.rlf_timeout_s, _K_RLF, self.rlf_gen)
        if self.spec.span_recorder is not None and self.span_open_t is None:
            self.span_open_t = te

    def _outage_end_callbacks(self, te: float) -> list:
        # Registration order: ENodeB._on_outage_end (re-attach later or
        # drain the downlink buffer), UeAccess._drain_ul_buffer, then the
        # runner's span close.  Returns the drained items; a lane only
        # ever buffers its own direction, so they are all one direction's.
        self.rlf_gen += 1  # cancels the armed RLF timer
        items = []
        if not self.ue.attached:
            self._push(te + self.spec.attach_delay_s, _K_REATTACH)
        else:
            items = self._take_dlq() + self._take_ulq()
        if self.spec.span_recorder is not None and self.span_open_t is not None:
            self.spans.append((self.span_open_t, te))
            self.span_open_t = None
        return items

    def _on_out_begin(self, te: float, _a) -> None:
        # RadioChannel._begin_outage.  Firing while already disconnected
        # (inside a handover break) kills the natural chain permanently —
        # the reference returns without rescheduling; preserved quirk.
        radio = self.radio
        if not radio.connected:
            return
        radio.connected = False
        radio.outage_count += 1
        radio._outage_started_at = te
        self._outage_start_callbacks(te)
        outage = radio._rng.expovariate(1.0 / self.mean_outage)
        self._push(te + outage, _K_OUT_END)

    def _on_out_end(self, te: float, _a):
        # RadioChannel._end_outage: the callbacks' drains, then the next
        # outage scheduled after them.
        radio = self.radio
        if radio.connected:
            return None
        radio.connected = True
        if radio._outage_started_at is not None:
            radio.total_outage_time += te - radio._outage_started_at
            radio._outage_started_at = None
        items = self._outage_end_callbacks(te)
        uptime = radio._rng.expovariate(1.0 / self.mean_uptime)
        return items, te + uptime, _K_OUT_BEGIN

    def _on_rlf(self, te: float, gen: int) -> None:
        # ENodeB._check_rlf: stale generations are cancelled timers.
        if gen != self.rlf_gen:
            return
        ue = self.ue
        if self.radio.connected or not ue.attached:
            return
        ue.rlf_count += 1
        # rrc.abort(): leave CONNECTED without a counter check.
        if self.connected:
            self.connected = False
            self.releases += 1
            self.gen += 1
            self.release_at = _INF
        ue.attached = False
        # Buffered downlink dies silently (mark_dropped only, no stats).
        self.dlq.clear()
        self.dlq_bytes = 0
        self.mme.detach(ue.imsi, cause="radio-link-failure")

    def _on_reattach(self, te: float, _a):
        # ENodeB._reattach after the attach delay, then its downlink drain.
        ue = self.ue
        if ue.attached or not self.radio.connected:
            return None
        ue.attached = True
        self.mme.attach(ue.imsi)
        return self._take_dlq(), None, 0

    def _ho_next_t(self, te: float) -> float:
        # HandoverProcess._schedule_next's instant (the jitter draw happens
        # even when the handover itself was skipped).
        config = self.handover.config
        jitter = self.handover._rng.uniform(
            1 - config.interval_jitter, 1 + config.interval_jitter
        )
        return te + config.interval_s * jitter

    def _on_ho_begin(self, te: float, _a) -> None:
        # HandoverProcess._begin_handover.
        ho = self.handover
        ue = self.ue
        if not ue.attached or not self.radio.connected:
            self._push(self._ho_next_t(te), _K_HO_BEGIN)
            return
        ho.handovers += 1
        buffered = self.dlq
        self.dlq = []
        self.dlq_bytes = 0
        if ho.config.x2_forwarding:
            # Capacity is raised before re-queueing (preserved packets
            # must never tail-drop); restored at completion.
            self.ho_saved_cap = self.dlq_cap
            self.dlq_cap *= 4
            for item in buffered:
                ho.forwarded.packets += 1
                ho.forwarded.bytes += item[0]
                self._dlq_push(item)
        else:
            for item in buffered:
                ho.dropped.packets += 1
                ho.dropped.bytes += item[0]
        self.ho_saved_layer = self.dlq_layer
        self.dlq_layer = "link-mobility"
        # radio.force_outage_start(): bookkeeping + callbacks, no draws,
        # no end event — the completion forces the end.
        radio = self.radio
        radio.connected = False
        radio.outage_count += 1
        radio._outage_started_at = te
        self._outage_start_callbacks(te)
        self._push(te + ho.config.interruption_s, _K_HO_COMPLETE)

    def _on_ho_complete(self, te: float, _a):
        # HandoverProcess._complete_handover: end the forced break (its
        # drains), restore drop layer and capacity, then schedule the
        # next one after the drains.
        radio = self.radio
        items = []
        if not radio.connected:  # force_outage_end (no-op when connected)
            radio.connected = True
            if radio._outage_started_at is not None:
                radio.total_outage_time += te - radio._outage_started_at
                radio._outage_started_at = None
            items = self._outage_end_callbacks(te)
        if self.ho_saved_layer is not None:
            self.dlq_layer = self.ho_saved_layer
            self.ho_saved_layer = None
        if self.ho_saved_cap is not None:
            self.dlq_cap = self.ho_saved_cap
            self.ho_saved_cap = None
        return items, self._ho_next_t(te), _K_HO_BEGIN

    # ---------------------------------------------------------------- flush

    def _flush(self) -> None:
        """Install the lane's flat state into the live component objects."""
        spec = self.spec
        ul = spec.is_uplink
        wl = spec.workload
        wl._until = self.until
        wl.frames_sent += self.frames_sent
        wl.bytes_offered += self.bytes_offered
        # Sender packet-sequence iterator: device.send / server.send
        # consumed one per chunk; park the real iterator at the mirror.
        (spec.device if ul else spec.server)._seq = _count(self.send_seq)
        spec.radio._current_rss = self.rss

        air = spec.air
        if self.off_p:
            window = RateWindow()
            window._samples.extend(self.win_samples)
            window._bits = self.win_bits
            air._foreground[spec.air_qci] = window
        air.offered.packets += self.off_p
        air.offered.bytes += self.off_b
        air.dropped.packets += self.drop_p
        air.dropped.bytes += self.drop_b
        air.transmitted.packets += self.trans_p
        air.transmitted.bytes += self.trans_b

        rrc = spec.rrc
        rrc.state = RrcState.CONNECTED if self.connected else RrcState.IDLE
        rrc.setups += self.setups
        rrc.releases += self.releases
        rrc.counter_checks_sent += len(self.reports)
        modem = spec.modem
        modem.counter_checks_served += len(self.reports)
        self.mod_cum.flush_into(modem.ul_sent if ul else modem.dl_received)
        if spec.report_monitor is not None:
            # The other direction's modem counter stays at zero.
            spec.report_monitor.ingest(
                [(t, n, 0) for t, n in self.reports] if ul
                else [(t, 0, n) for t, n in self.reports]
            )

        bearer = spec.bearer
        self.bearer_cum.flush_into(bearer.uplink if ul else bearer.downlink)
        if self.bearer_cum.times:  # Bearer._touch stamps
            if bearer.first_usage is None:
                bearer.first_usage = self.bearer_cum.times[0]
            bearer.last_usage = self.bearer_cum.times[-1]

        device = spec.device
        server = spec.server
        if ul:
            self.dev_cum.flush_into(device.ul_monitor.counter)
            self.srv_cum.flush_into(server.ul_monitor.counter)
            server.stats.received += self.received
            server.stats.latencies.extend(self.latencies)
            link = spec.backhaul_link
        else:
            self.srv_cum.flush_into(server.dl_monitor.counter)
            self.dev_cum.flush_into(device.dl_monitor.counter)
            link = spec.lan_link
        link.sent.packets += self.link_sent_p
        link.sent.bytes += self.link_sent_b
        link.delivered.packets += self.link_del_p
        link.delivered.bytes += self.link_del_b
        if link._m_sent is not None:
            link._m_sent.inc(self.link_sent_b)
            link._m_delivered.inc(self.link_del_b)

        middlebox = spec.middlebox
        middlebox.passed.packets += self.mb_pass_p
        middlebox.passed.bytes += self.mb_pass_b
        middlebox.dropped.packets += self.mb_drop_p
        middlebox.dropped.bytes += self.mb_drop_b

        # Every bearer charge is a gateway charge.  The gateway creates its
        # charged and drop counters lazily on the first hit; mirror that
        # so empty runs snapshot identically.
        metrics = spec.gateway_metrics
        if metrics is not None:
            charged = self.bearer_cum.total
            if charged:
                metrics.counter(
                    "cellular.gateway.charged_bytes", direction="UL" if ul else "DL"
                ).inc(charged)
            for reason, nbytes in self.gw_drops.items():
                if nbytes:
                    metrics.counter("cellular.gateway.drop_bytes", reason=reason).inc(nbytes)

        # Rebuild the drop-tail queue contents as real packets (sizes and
        # created_at are what the drain path observes; the qci mirrors
        # where each direction's packets are stamped: SPGW stamps the
        # bearer QCI before the eNodeB buffers downlink, uplink buffers
        # hold pre-SPGW packets with the workload QCI).
        profile = spec.workload.profile
        dl_buffer = spec.ue.dl_buffer
        dl_buffer.capacity_bytes = self.dlq_cap
        dl_buffer.drop_layer = self.dlq_layer
        for size, created, pkt_seq in self.dlq:
            dl_buffer._queue.append(Packet(
                size=size,
                flow_id=spec.flow_id,
                direction=Direction.DOWNLINK,
                qci=spec.bearer.qci,
                transport=profile.transport,
                created_at=created,
                seq=pkt_seq,
            ))
        dl_buffer._bytes = self.dlq_bytes
        ul_buffer = spec.access._ul_buffer
        for size, created, pkt_seq in self.ulq:
            ul_buffer._queue.append(Packet(
                size=size,
                flow_id=spec.flow_id,
                direction=Direction.UPLINK,
                qci=profile.qci,
                transport=profile.transport,
                created_at=created,
                seq=pkt_seq,
            ))
        ul_buffer._bytes = self.ulq_bytes

        if self.handover is not None:
            self.handover._saved_drop_layer = self.ho_saved_layer
            self.handover._saved_capacity = self.ho_saved_cap

        # Token-bucket policer: a rate currently enforced means a bucket
        # is installed; rebuild it with the mirrored fill state.
        if self.p_rate is not None:
            policer = TokenBucket(self.spgw.loop, self.p_rate)
            policer._tokens = self.p_tokens
            policer._last = self.p_last
            self.spgw._policers[spec.flow_id] = policer

        # Replay radio.outage spans into the runner's recorder with their
        # mirrored times (closing one would read the stale loop clock); a
        # still-open outage stays open with the recorder's open count
        # raised, exactly as live recording would leave it mid-outage.
        rec = spec.span_recorder
        if rec is not None:
            for open_t, close_t in self.spans:
                rec.record("radio.outage", open_t, close_t)
            if self.span_open_t is not None:
                rec.record("radio.outage", self.span_open_t)

        # The absorbed construction-time events were replayed on the
        # wheel; cancel the loop originals so the caller's settle
        # run_until cannot double-fire them.
        for _, event in spec.absorbed:
            event.cancel()


def run_lane(spec: LaneSpec, horizon: float, settle: float = SETTLE_S) -> None:
    """Run one eligible UE's simulate() phase on the batched kernel.

    Replays the exact draw order, timestamps and same-time event order of
    the reference engine (see the module docstring), writing results back
    into the live component objects.  The caller advances the shared loop
    clock afterwards (``loop.run_until(horizon + settle)``), exactly as
    the reference path does.  ``spec.general`` marks a dynamic lane, which
    runs every hop at its own wheel event instead of folding wired hops.
    """
    _Lane(spec, horizon, settle).run()
