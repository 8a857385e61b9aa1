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
by a private event wheel (a heap of tuples) instead of the shared event
loop.  The hot path is one fold loop for both directions
(:meth:`_LaneRun._fold`) with every per-packet value cached in locals.
``LaneSpec.is_uplink`` picks only what a surviving air delivery counts
(UL: folded backhaul, bearer, server monitor, latency; DL: modem, device
monitor) and which hop a frame folds (UL: device monitor and modem at
send time; DL: server monitor, LAN link, SPGW charge, SLA verdict and
one batched eNodeB arrival event).  Per-packet work shrinks to a few
dozen interpreter operations while reproducing the reference engine
**bit for bit**:

* every RNG draw is issued on the *same stream object* in the *same
  order* (workload sizes/jitter, air drop draws, radio RSS walk + loss
  draws);
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

Tie-ordering contract
---------------------

The reference loop breaks time ties by schedule order (a global seq).
The wheel assigns its own per-lane seq at push time; pushes happen at
the same simulated instants as the reference's ``schedule`` calls with
two deliberate exceptions, both proven safe:

* the downlink LAN hop (+0.5 ms) and SPGW charge are *folded* into frame
  processing: nothing in the path schedules events with a delay inside
  (2 ms, 2.5 ms), so no push can land between the fold point and the
  reference's scheduling instant with a colliding timestamp (frame gaps
  are ≥ 5 ms — eligibility caps fps at 200 — air delays are ≥ 4 ms,
  counter checks ≥ 50 ms apart, the LAN hop is 0.5 ms);
* the uplink backhaul delivery (+2 ms) is folded into the air-delivery
  event: the reference's delivery event schedules nothing, and nothing
  that can fire inside the folded window reads the counters it writes
  (RRC counter checks read only the modem counters, which tick at send
  time).

RRC release timers are *lazy*: a scalar ``release_at`` checked before
every pop.  On a time tie the release fires first, matching the
reference, where the release timer is always armed earlier (at the last
data activity) than any event scheduled afterwards and so carries the
smaller seq.  Pending periodic-check events are invalidated by a
generation counter instead of heap surgery, mirroring timer ``cancel``.

Two executors share the wheel
----------------------------

Sessions whose path state cannot change mid-frame (no outages, no RSS
recording, no quota, no handover) run the **fold loop** above — the
fastest path, because whole frames collapse into straight-line
arithmetic.  Sessions with a radio outage process, RSS recording, a PCRF
quota or an X2 handover schedule run the **general-mode executor**
(:class:`_GeneralRun`): same private wheel, same flat mirrored state,
but per-packet-hop events like the reference engine, because an outage
window, an RLF detach, a policer refill or a handover break can land
between any two chunks.  General mode trades the fold speedup for
coverage — chaos-profile sessions still skip the shared event loop's
closure allocation and object hops.

Fault schedules run in general mode too: path-kind decisions
(burst-loss / reorder / duplicate / corrupt / blackout) are replayed at
the lane's uplink/downlink injection points through the injector's own
``decide_at`` — same "faults" RNG stream, same draw order, same trace
records — via a precomputed :class:`~repro.netsim.faults.LaneFaultView`;
counter resets are absorbed loop events replayed on the wheel; clock
skew/drift never touches the lane (both engines apply ``skew_at`` in the
shared ``collect()`` phase), so clock-only schedules keep the fold
loops.

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
from ..obs.spans import Span

__all__ = ["LaneSpec", "run_lane", "SETTLE_S"]

#: Settle window after the charging horizon, matching the reference
#: ``loop.run_until(horizon + 2.0)`` in both runners.
SETTLE_S = 2.0

# Wheel event kinds (first tuple field after (time, seq)).
_K_FRAME = 0  # workload emits one frame
_K_ARRIVAL = 1  # DL frame's chunks reach the eNodeB (post LAN + SPGW + backhaul)
_K_DELIVER = 2  # air transmission completes (post propagation + queue + serialization)
_K_CHECK = 3  # periodic RRC COUNTER CHECK

# General-mode wheel event kinds (outage / quota / RSS / handover lanes).
_K_LAN = 4  # DL: one frame's chunks delivered by the LAN link (Link._deliver)
_K_BH = 5  # DL: one frame's surviving chunks arrive at the eNodeB over the backhaul
_K_GW = 6  # UL: one packet arrives at the SPGW over the backhaul link
_K_RLF = 7  # radio-link-failure timer (ENodeB._check_rlf)
_K_OUT_BEGIN = 8  # natural outage begins (RadioChannel._begin_outage)
_K_OUT_END = 9  # natural outage ends (RadioChannel._end_outage)
_K_REATTACH = 10  # post-RLF re-attach (ENodeB._reattach)
_K_HO_BEGIN = 11  # handover starts (HandoverProcess._begin_handover)
_K_HO_COMPLETE = 12  # handover interruption ends (HandoverProcess._complete_handover)
_K_RSS = 13  # periodic RSS sample (RadioChannel._sample_rss)
_K_RESET = 14  # armed counter reset (FaultInjector._reset_modem)
_K_UL_SEND = 15  # fault-delayed/duplicated uplink send (UeAccess.send_uplink)
_K_DL_DELIVER = 16  # fault-delayed/duplicated downlink delivery (ue.deliver)

_INF = float("inf")


class _Cum:
    """Bulk-built mirror of :class:`~repro.netsim.counters.CumulativeCounter`.

    The hot loops append (time, cumulative) points straight onto
    ``times``/``cums`` — same coalescing rule as ``CumulativeCounter.add``
    — and install them into the real counter in one shot at flush time.
    """

    __slots__ = ("times", "cums", "total")

    def __init__(self) -> None:
        self.times: list[float] = []
        self.cums: list[int] = []
        self.total = 0

    def add(self, t: float, nbytes: int) -> None:
        """``CumulativeCounter.add`` for the rare sites; hot loops inline it.

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

    # ---- general mode (outage / quota / RSS / handover sessions) ----
    #: Run the general-mode executor (:class:`_GeneralRun`) instead of
    #: the fold loop.
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
    #: :class:`~repro.netsim.faults.LaneFaultView` when the session has an
    #: active fault injector; None otherwise.  Path-kind decisions replay
    #: through it at the uplink/downlink injection points, counter resets
    #: through :meth:`~repro.netsim.faults.LaneFaultView.apply_reset`.
    fault_view: object = None


class _Lane:
    """State both executors mirror the same way, and its flush.

    The air interface (its foreground rate window, demand split and
    FlowStats), the radio's RSS walk, the RRC totals, the four
    direction-resolved cumulative counters, the counter-check reports
    and the wired-hop and middlebox FlowStats all live here as flat
    state.  Each executor advances it inline; :meth:`_flush` installs it
    into the live objects once.
    """

    __slots__ = (
        "spec", "until", "end", "heap", "seq",
        # air
        "air_random", "capacity", "cap_usable", "prop", "max_qd",
        "bg", "my_priority", "split_general", "bg_higher", "bg_same",
        "win_samples", "win_bits",
        "off_p", "off_b", "drop_p", "drop_b", "trans_p", "trans_b",
        # radio
        "radio_rng", "rss", "rss_base", "rss_noise", "rss_floor",
        "rss_ceiling", "base_loss", "loss_at_floor",
        # rrc
        "connected", "release_at", "timeout", "check_dt", "gen",
        "setups", "releases", "checks", "reports",
        # counters
        "mod_cum", "bearer_cum", "dev_cum", "srv_cum", "received", "latencies",
        # path
        "lan_s", "bk_s", "sla",
        "link_sent_p", "link_sent_b", "link_del_p", "link_del_b",
        "mb_pass_p", "mb_pass_b", "mb_drop_p", "mb_drop_b",
    )

    def __init__(self, spec: LaneSpec, horizon: float, settle: float) -> None:
        self.spec = spec
        self.until = horizon
        self.end = horizon + settle
        self.heap: list[tuple] = []
        self.seq = 0

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
        # non-negative rates here).  The hot loops then compute
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
        self.win_bits = 0
        self.off_p = self.off_b = 0
        self.drop_p = self.drop_b = 0
        self.trans_p = self.trans_b = 0

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

        rrc = spec.rrc
        self.connected = False  # eligibility requires IDLE at start
        self.release_at = _INF
        self.timeout = rrc.inactivity_timeout_s
        self.check_dt = rrc.counter_check_interval_s
        self.gen = 0
        self.setups = 0
        self.releases = 0
        self.checks = 0  # rrc.counter_checks_sent == modem.counter_checks_served
        self.reports: list[tuple[float, int, int]] = []

        self.mod_cum = _Cum()  # modem.ul_sent (UL) / dl_received (DL)
        self.bearer_cum = _Cum()  # bearer.uplink (UL) / downlink (DL)
        self.dev_cum = _Cum()  # device ul (UL) / dl (DL) monitor
        self.srv_cum = _Cum()  # server ul (UL) / dl (DL) monitor
        self.received = 0
        self.latencies: list[float] = []

        self.lan_s = spec.lan_s
        self.bk_s = spec.backhaul_s
        self.sla = spec.sla_budget
        self.link_sent_p = self.link_sent_b = 0
        self.link_del_p = self.link_del_b = 0
        self.mb_pass_p = self.mb_pass_b = 0
        self.mb_drop_p = self.mb_drop_b = 0

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

    def _counter_check(self, t: float, total: int) -> None:
        # rrc.perform_counter_check + modem.counter_check at time t.  The
        # lane's one modem counter is its direction's (``total``); the
        # other direction's stays at zero.  The report reaches the
        # monitor at flush.
        self.checks += 1
        self.reports.append((t, total, 0) if self.spec.is_uplink else (t, 0, total))

    def _flush(self) -> None:
        """Install the shared mirrors into the live component objects."""
        spec = self.spec
        ul = spec.is_uplink
        spec.workload._until = self.until
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
        rrc.counter_checks_sent += self.checks
        modem = spec.modem
        modem.counter_checks_served += self.checks
        self.mod_cum.flush_into(modem.ul_sent if ul else modem.dl_received)
        if spec.report_monitor is not None:
            spec.report_monitor.ingest(self.reports)

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
        # charged counter lazily on the first charged packet; mirror that
        # so empty runs snapshot identically.
        charged = self.bearer_cum.total
        if charged and spec.gateway_metrics is not None:
            spec.gateway_metrics.counter(
                "cellular.gateway.charged_bytes", direction="UL" if ul else "DL"
            ).inc(charged)


class _LaneRun(_Lane):
    """One lane's execution state.  See the module docstring for the contract."""

    __slots__ = (
        # workload
        "wl_rng", "fps", "frame_dt", "packet_bytes", "mean_bitrate",
        "iframe_interval", "iframe_scale", "size_sigma",
        "frames_sent", "bytes_offered",
    )

    def __init__(self, spec: LaneSpec, horizon: float, settle: float) -> None:
        super().__init__(spec, horizon, settle)
        profile = spec.workload.profile
        self.wl_rng = spec.workload._rng
        self.fps = profile.fps
        self.frame_dt = 1.0 / profile.fps
        self.packet_bytes = profile.packet_bytes
        self.mean_bitrate = profile.mean_bitrate_bps
        self.iframe_interval = profile.iframe_interval
        self.iframe_scale = profile.iframe_scale
        self.size_sigma = profile.size_sigma
        self.frames_sent = 0
        self.bytes_offered = 0

    # ------------------------------------------------------------------ run

    def run(self) -> None:
        # FrameWorkload.start: jitter = rng.uniform(0.0, 1.0 / fps),
        # first frame at loop.now() + jitter.
        jitter = self.wl_rng.uniform(0.0, 1.0 / self.fps)
        self.seq += 1
        heappush(self.heap, (self.spec.t0 + jitter, self.seq, _K_FRAME, 0, 0))
        self._fold()
        self._flush()

    # ------------------------------------------------------------ fold loop

    def _fold(self) -> None:
        # Hot state cached in locals; synced back to attributes at the end.
        ul = self.spec.is_uplink
        heap = self.heap
        pop, push = heappop, heappush
        end = self.end
        until = self.until
        seq = self.seq

        frame_dt = self.frame_dt
        packet_bytes = self.packet_bytes
        fps = self.fps
        mean_bitrate = self.mean_bitrate
        iframe_n = self.iframe_interval
        iframe_scale = self.iframe_scale
        size_sigma = self.size_sigma
        wl_random = self.wl_rng.random
        frames_sent = self.frames_sent
        bytes_offered = self.bytes_offered

        air_random = self.air_random
        capacity = self.capacity
        cap_usable = self.cap_usable
        prop = self.prop
        max_qd = self.max_qd
        split_general = self.split_general
        bg_higher = self.bg_higher
        bg_same = self.bg_same
        win_samples = self.win_samples
        win_bits = self.win_bits
        off_p = off_b = drop_p = drop_b = trans_p = trans_b = 0

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

        connected = self.connected
        release_at = self.release_at
        timeout = self.timeout
        check_dt = self.check_dt
        gen = self.gen

        dev = self.dev_cum  # device.ul_monitor (UL) / dl_monitor (DL)
        dev_times, dev_cums, dev_total = dev.times, dev.cums, dev.total
        mod = self.mod_cum  # modem.ul_sent (UL) / dl_received (DL)
        mod_times, mod_cums, mod_total = mod.times, mod.cums, mod.total
        bearer = self.bearer_cum
        b_times, b_cums, b_total = bearer.times, bearer.cums, bearer.total
        srv = self.srv_cum  # server.ul_monitor (UL) / dl_monitor (DL)
        s_times, s_cums, s_total = srv.times, srv.cums, srv.total
        latencies = self.latencies
        received = 0
        lan_s = self.lan_s
        bk_s = self.bk_s
        sla = self.sla
        # The folded wired hop — backhaul (UL) or LAN (DL) — is pure delay,
        # no loss: sent == delivered.
        link_p = link_b = 0
        mb_pass_p = mb_pass_b = mb_drop_p = mb_drop_b = 0

        while heap:
            te, _, kind, a, b = pop(heap)
            if te > end:
                break  # reference run_until(end) leaves later events undispatched
            # Lazy RRC release: the release timer was armed at the last
            # data activity, so on a time tie it holds the smaller loop
            # seq and fires before this event — process it first.
            if connected and release_at <= te:
                self._counter_check(release_at, mod_total)
                self.releases += 1
                connected = False
                gen += 1
                release_at = _INF

            if kind == _K_DELIVER:
                # AirInterface._transmit -> ENodeB._air_deliver_ul/_dl (the
                # UE stays attached and connected: no outages, no handovers).
                trans_p += 1
                trans_b += a
                # RadioChannel.survives_air: _walk_rss (gauss) then
                # random() >= loss_probability(current rss).
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
                if rss >= GOOD_RSS_DBM:
                    loss = base_loss
                else:
                    span = GOOD_RSS_DBM - rss_floor
                    frac = (GOOD_RSS_DBM - rss) / span
                    if frac > 1.0:
                        frac = 1.0
                    loss = base_loss + frac * loss_at_floor
                    if loss > 1.0:
                        loss = 1.0
                if radio_random() >= loss:
                    if ul:
                        # Backhaul link (pure delay) folded: its delivery
                        # event schedules nothing and nothing fired in
                        # (te, te + bk_s] reads the counters written here.
                        link_p += 1
                        link_b += a
                        tg = te + bk_s
                        # Spgw.receive_uplink: bearer charge + server sink.
                        b_total += a
                        if b_times and b_times[-1] == tg:
                            b_cums[-1] = b_total
                        else:
                            b_times.append(tg)
                            b_cums.append(b_total)
                        s_total += a  # server.ul_monitor.observe
                        if s_times and s_times[-1] == tg:
                            s_cums[-1] = s_total
                        else:
                            s_times.append(tg)
                            s_cums.append(s_total)
                        received += 1
                        latencies.append(tg - b)  # b = packet created_at
                    else:
                        mod_total += a  # modem.count_downlink
                        if mod_times and mod_times[-1] == te:
                            mod_cums[-1] = mod_total
                        else:
                            mod_times.append(te)
                            mod_cums.append(mod_total)
                        dev_total += a  # device.deliver -> dl_monitor.observe
                        if dev_times and dev_times[-1] == te:
                            dev_cums[-1] = dev_total
                        else:
                            dev_times.append(te)
                            dev_cums.append(dev_total)
                # else: phy-rss loss
                continue

            if kind == _K_FRAME:
                # FrameWorkload._emit_frame with sender = EdgeDevice.send
                # (UL) or EdgeServer.send (DL).
                if te > until:
                    continue
                # _frame_size, op for op (incl. the property recompute and
                # the inlined lognormvariate = exp(normalvariate)).
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
                    # All chunks of one frame land at the same te inside one
                    # handler, so the per-chunk monitor/modem adds coalesce
                    # into a single cumulative point — nothing reads the
                    # counters between chunks.  The chunks go to the air
                    # in the shared submit loop below, at the same te.
                    dev_total += remaining  # device.ul_monitor.observe
                    if dev_times and dev_times[-1] == te:
                        dev_cums[-1] = dev_total
                    else:
                        dev_times.append(te)
                        dev_cums.append(dev_total)
                    mod_total += remaining  # access.send_uplink -> modem.count_uplink
                    if mod_times and mod_times[-1] == te:
                        mod_cums[-1] = mod_total
                    else:
                        mod_times.append(te)
                        mod_cums.append(mod_total)
                else:
                    # Fold the LAN hop (te + lan_s), SPGW charge and
                    # middlebox SLA check.  The eNodeB arrival stays a real
                    # wheel event: a counter check or release may fire
                    # between the charge and the arrival.
                    tg = te + lan_s  # the LAN link's schedule_at(depart + latency)
                    # The reference fragments full packet_bytes chunks
                    # first, then the remainder; every chunk of the frame
                    # takes the same per-chunk writes at the same
                    # timestamps (server monitor at te, LAN + charge at tg,
                    # SLA verdict tg - te), so the whole frame folds into
                    # per-frame arithmetic.
                    n_chunks = (remaining + packet_bytes - 1) // packet_bytes
                    s_total += remaining  # server.dl_monitor.observe
                    if s_times and s_times[-1] == te:
                        s_cums[-1] = s_total
                    else:
                        s_times.append(te)
                        s_cums.append(s_total)
                    link_p += n_chunks  # lan link send() + _deliver() at tg
                    link_b += remaining
                    b_total += remaining  # spgw.send_downlink charge at tg
                    if b_times and b_times[-1] == tg:
                        b_cums[-1] = b_total
                    else:
                        b_times.append(tg)
                        b_cums.append(b_total)
                    # The reference schedules the next frame before the
                    # backhaul arrivals exist (the LAN delivery at tg
                    # schedules them), so the frame must carry the smaller
                    # seq.
                    seq += 1
                    push(heap, (te + frame_dt, seq, _K_FRAME, 0, 0))
                    # SlaMiddlebox.process: loop.now() - created_at > budget
                    # (charged, *then* dropped — that asymmetry is the point).
                    if sla is not None and tg - te > sla:
                        mb_drop_p += n_chunks
                        mb_drop_b += remaining
                    else:
                        mb_pass_p += n_chunks
                        mb_pass_b += remaining
                        # One frame's arrivals all land at the same t_arr
                        # with consecutive seqs in the reference, so nothing
                        # can interleave between them — batch them into one
                        # event carrying the frame's byte count.
                        t_arr = tg + bk_s  # _forward_backhaul_dl: schedule(+bk) at tg
                        seq += 1
                        push(heap, (t_arr, seq, _K_ARRIVAL, remaining, 0))
                    continue
            elif kind == _K_ARRIVAL:
                # One DL frame's chunks, delivered back to back as in the
                # reference.  Each is _forward_backhaul_dl's deliver ->
                # ENodeB.receive_downlink.
                remaining = a
            else:  # _K_CHECK (stale generations are cancelled timers)
                if a == gen and connected:
                    self._counter_check(te, mod_total)
                    seq += 1
                    push(heap, (te + check_dt, seq, _K_CHECK, gen, 0))
                continue

            # The frame's chunks reach the eNodeB at te: an UL frame as it
            # is sent, a DL frame on its arrival event.  Full packet_bytes
            # fragments first, then the remainder, as the reference cuts them.
            while remaining > 0:
                chunk = remaining if remaining < packet_bytes else packet_bytes
                # enodeb.receive_uplink/_downlink -> rrc.on_data_activity:
                # _setup (arming the periodic check) then release rearm.
                if not connected:
                    connected = True
                    self.setups += 1
                    if check_dt is not None:
                        seq += 1
                        push(heap, (te + check_dt, seq, _K_CHECK, gen, 0))
                release_at = te + timeout
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
                else:
                    higher = bg_higher
                    same = bg_same + win_bits / 1.0  # RateWindow.rate_bps
                # drop_probability:
                usable = cap_usable - higher
                if usable < 0.0:
                    usable = 0.0
                if same <= usable or same <= 0:
                    p = 0.0
                elif usable <= 0:
                    p = 1.0
                else:
                    p = 1.0 - usable / same
                if u < p:
                    drop_p += 1
                    drop_b += chunk
                else:
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
                    # b = te: the UL packet's created_at (DL ignores it).
                    push(heap, (te + delay, seq, _K_DELIVER, chunk, te))
                remaining -= chunk
            if ul:
                # The reference's UL frame handler schedules the next frame
                # after its chunks' air-delivery events.
                seq += 1
                push(heap, (te + frame_dt, seq, _K_FRAME, 0, 0))

        # A release armed before the horizon's edge still fires inside the
        # settle window even with no later event to trigger the lazy check.
        if connected and release_at <= end:
            self._counter_check(release_at, mod_total)
            self.releases += 1
            connected = False
            gen += 1
            release_at = _INF

        self.seq = seq
        self.frames_sent = frames_sent
        self.bytes_offered = bytes_offered
        self.win_bits = win_bits
        self.off_p, self.off_b = off_p, off_b
        self.drop_p, self.drop_b = drop_p, drop_b
        self.trans_p, self.trans_b = trans_p, trans_b
        self.rss = rss
        radio_rng.gauss_next = gauss_next
        self.connected = connected
        self.release_at = release_at
        self.gen = gen
        dev.total = dev_total
        mod.total = mod_total
        bearer.total = b_total
        srv.total = s_total
        self.received = received
        self.link_sent_p = self.link_del_p = link_p
        self.link_sent_b = self.link_del_b = link_b
        self.mb_pass_p, self.mb_pass_b = mb_pass_p, mb_pass_b
        self.mb_drop_p, self.mb_drop_b = mb_drop_p, mb_drop_b

    # ---------------------------------------------------------------- flush

    def _flush(self) -> None:
        """Install the lane's flat state into the live component objects."""
        spec = self.spec
        wl = spec.workload
        wl.frames_sent += self.frames_sent
        wl.bytes_offered += self.bytes_offered
        # Sender packet-sequence iterator: one next() per chunk sent.
        # Uplink submits every chunk to the air (off_p); downlink sends
        # every chunk onto the LAN link (link_sent_p).
        if spec.is_uplink:
            spec.device._seq = _count(self.off_p)
        else:
            spec.server._seq = _count(self.link_sent_p)
        super()._flush()


class _GeneralRun(_Lane):
    """General-mode lane: outage, RSS, quota and handover sessions.

    The fold loop wins its speedup by collapsing whole frames into
    straight-line arithmetic, which is only sound while the UE's path
    state cannot change mid-frame.  Outage windows, RLF detaches, PCRF
    policer refills and handover breaks all violate that invariant, so
    this executor keeps the reference engine's per-hop granularity —
    every packet hop is one wheel event — while still running on the
    private tuple wheel with flat mirrored state instead of the shared
    event loop with its closure allocations and object hops.

    State split
    -----------

    *Mirrored and flushed* (the fold loop's mirrors, from :class:`_Lane`):
    the four direction-resolved cumulative counters (modem, bearer,
    device and server monitors, with the bearer's first/last-usage stamps
    taken from the mirror times), the counter-check reports handed to
    ``CounterCheckMonitor.ingest``, the air interface's rate window,
    demand split and FlowStats, the radio's RSS walk with the
    air-survival draws inlined, and the wired-hop, middlebox and gateway
    sums.  On top of those: RRC connection state (lazy release deadline
    plus a reserved seq for exact same-time ordering; generation-cancelled
    periodic checks), the two drop-tail queues (contents, bytes, and the
    handover-inflated capacity/drop-layer), the token bucket policer, the
    RLF timer generation, the handover save/restore pair, and the
    ``radio.outage`` span walk.  An absorbed counter reset first installs
    the modem mirror into the live counter, then lets the injector swap
    in fresh counters, then counts into a fresh mirror.

    *Live*: workload frame sizing (its RNG and iframe counter), the
    radio's connectivity and outage bookkeeping and its RNG stream (the
    ``_K_RSS`` samples still call ``RadioChannel._walk_rss`` on the synced
    RSS state), MME/bearer activation, the fault injector, and the rarer
    per-packet FlowStats (detached and policed drops, buffered, recovered
    and handover-forwarded packets).  The real event-loop clock is
    *stale* during the lane (it never advances), so nothing that reads
    ``loop.now()`` — ``TrafficMonitor.observe``, ``HardwareModem.count_*``,
    ``Link.send``, ``TokenBucket`` — is called.

    Same-time event ordering follows the same tie contract as the fold
    loops; the only batched events are the downlink LAN and backhaul
    deliveries of one frame, whose reference events hold *consecutive*
    global seqs (nothing else schedules between them), so collapsing
    them into one wheel event preserves relative order exactly.
    """

    def __init__(self, spec: LaneSpec, horizon: float, settle: float) -> None:
        super().__init__(spec, horizon, settle)
        self.wl = spec.workload
        self.radio = spec.radio
        self.bearer = spec.bearer
        self.ue = spec.ue
        self.mme = spec.mme
        self.spgw = spec.spgw
        self.handover = spec.handover

        profile = spec.workload.profile
        self.frame_dt = 1.0 / profile.fps
        self.packet_bytes = profile.packet_bytes

        rp = spec.radio.profile
        self.mean_outage = rp.mean_outage_s
        self.mean_uptime = rp.mean_uptime_s
        self.rss_dt = rp.rss_sample_interval_s

        self.release_seq = 0

        # Sender-side packet sequence mirror: EdgeDevice.send (UL) /
        # EdgeServer.send (DL) stamp ``seq=next(self._seq)`` on every
        # chunk; buffered packets carry it and the iterator position is
        # flushed back so a rebuilt queue is field-identical.
        self.send_seq = 0

        # Drop-tail queue mirrors: [(size, created_at, seq), ...] + bytes.
        self.dlq: list[tuple[int, float, int]] = []
        self.dlq_bytes = 0
        self.dlq_cap = spec.ue.dl_buffer.capacity_bytes
        self.dlq_layer = spec.ue.dl_buffer.drop_layer
        self.ulq: list[tuple[int, float, int]] = []
        self.ulq_bytes = 0
        self.ulq_cap = spec.access._ul_buffer.capacity_bytes

        # Token-bucket policer mirror (Spgw._policers[flow_id]); without
        # a PCRF quota the policer check can never throttle.
        self.has_quota = spec.has_quota
        self.p_rate: float | None = None
        self.p_burst = 0.0
        self.p_tokens = 0.0
        self.p_last = 0.0

        # Gateway drop-metric sums, flushed once (the registry's per-call
        # key formatting dominates the hot path; counters are plain sums
        # so one inc at flush is observably identical).
        self.drop_detached = 0
        self.drop_policed = 0

        self.rlf_gen = 0
        # Handover break save/restore mirror (HandoverProcess._saved_*).
        self.ho_saved_layer: str | None = None
        self.ho_saved_cap: int | None = None

        # Fault-schedule deciders: ``decide(t) -> (action, delay)`` per
        # injection point, or None when the schedule can never touch that
        # point (the reference draws no RNG there either).
        fv = spec.fault_view
        self.fault_ul = fv.decider("uplink") if fv is not None else None
        self.fault_dl = fv.decider("downlink") if fv is not None else None

        # radio.outage span mirror: closed (open_t, close_t) pairs plus
        # the currently-open outage, if any (scenario runs only).
        self.span_open_t: float | None = None
        self.spans: list[tuple[float, float]] = []

    # ----------------------------------------------------------- lifecycle

    def run(self) -> None:
        spec = self.spec
        # Absorbed construction-time events (the outage / RSS / handover
        # chain heads) predate every lane push, so they keep their
        # relative loop order via negative wheel seqs.
        n = len(spec.absorbed)
        for idx, (kind, event) in enumerate(spec.absorbed):
            # The Event rides along so _K_RESET can read its args; the
            # other absorbed kinds ignore the payload.
            heappush(self.heap, (event.time, idx - n, kind, event, 0))
        # FrameWorkload.start: first frame at t0 + uniform phase jitter.
        jitter = self.wl._rng.uniform(0.0, 1.0 / self.wl.profile.fps)
        self.seq += 1
        heappush(self.heap, (spec.t0 + jitter, self.seq, _K_FRAME, 0, 0))
        self._run()
        self._flush()

    def _push(self, t: float, kind: int, a=0, b=0) -> None:
        self.seq += 1
        heappush(self.heap, (t, self.seq, kind, a, b))

    def _run(self) -> None:
        heap = self.heap
        end = self.end
        is_ul = self.spec.is_uplink

        # The wheel never drains naturally — outage, RSS and handover
        # chains reschedule forever, exactly like the reference loop's
        # pending queue at run_until's horizon — so the loop exits via
        # the beyond-end break, leaving future events unprocessed.
        while heap:
            te, ev_seq, kind, a, b = heappop(heap)
            if te > end:
                break
            # Lazy RRC release with exact tie-breaking: the release
            # timer holds the seq reserved at the last data activity, so
            # on a time tie it fires first unless the popped event was
            # scheduled even earlier (an absorbed chain head or a
            # long-armed outage toggle carries the smaller seq).
            if self.connected:
                ra = self.release_at
                if ra < te or (ra == te and self.release_seq < ev_seq):
                    self._fire_release()

            if kind == _K_DELIVER:
                self._on_deliver(te, a, b, is_ul)
            elif kind == _K_FRAME:
                if te > self.until:
                    continue  # workload stopped; no reschedule
                if is_ul:
                    self._on_frame_ul(te)
                else:
                    self._on_frame_dl(te)
            elif kind == _K_LAN:
                self._on_lan(te, a, b)
            elif kind == _K_BH:
                self._on_bh(te, a, b)
            elif kind == _K_GW:
                self._on_gw(te, a, b)
            elif kind == _K_CHECK:
                # Stale generations are cancelled timers; a live timer
                # firing while IDLE does not re-arm (rrc._periodic_check).
                if a == self.gen and self.connected:
                    self._counter_check(te, self.mod_cum.total)
                    self._push(te + self.check_dt, _K_CHECK, self.gen)
            elif kind == _K_OUT_BEGIN:
                self._on_out_begin(te)
            elif kind == _K_OUT_END:
                self._on_out_end(te)
            elif kind == _K_RLF:
                self._on_rlf(a)
            elif kind == _K_REATTACH:
                self._on_reattach(te)
            elif kind == _K_HO_BEGIN:
                self._on_ho_begin(te)
            elif kind == _K_HO_COMPLETE:
                self._on_ho_complete(te)
            elif kind == _K_RESET:
                # Absorbed FaultInjector._reset_modem event: install the
                # modem mirror into the live counter being replaced, replay
                # the zeroing (and its trace record) at the armed instant,
                # then count into a fresh mirror.
                modem, point = a.args
                self.mod_cum.flush_into(modem.ul_sent if is_ul else modem.dl_received)
                self.spec.fault_view.apply_reset(modem, te, point)
                self.mod_cum = _Cum()
            elif kind == _K_UL_SEND:
                # Fault-delayed (or duplicated) uplink send: the pipe's
                # deferred downstream(packet) = UeAccess.send_uplink.
                created, pkt_seq = b
                self._ul_send(te, a, created, pkt_seq)
            elif kind == _K_DL_DELIVER:
                # Fault-delayed (or duplicated) downlink delivery: the
                # pipe's deferred ue.deliver -> device.dl_monitor.
                self.dev_cum.add(te, a)
            else:  # _K_RSS
                # RadioChannel._sample_rss on the live radio, with the
                # mirrored walk state synced in and back out.
                radio = self.radio
                radio._current_rss = self.rss
                radio._walk_rss()
                self.rss = radio._current_rss
                radio.rss_history.append(
                    RssSample(te, radio.current_rss(), radio.connected)
                )
                self._push(te + self.rss_dt, _K_RSS)

        # A release armed before the horizon's edge still fires inside
        # the settle window even with no later event left to trigger
        # the lazy check.
        if self.connected and self.release_at <= end:
            self._fire_release()

    # ----------------------------------------------------------------- RRC

    def _fire_release(self) -> None:
        # rrc._release_on_inactivity at the armed deadline.
        self._counter_check(self.release_at, self.mod_cum.total)
        self.releases += 1
        self.connected = False
        self.gen += 1
        self.release_at = _INF

    def _rrc_activity(self, te: float) -> None:
        # rrc.on_data_activity: _setup (periodic check armed first),
        # then the release timer re-armed — which consumes a loop seq on
        # *every* activity; reserve it so same-time ties resolve exactly
        # as the reference's.
        if not self.connected:
            self.connected = True
            self.setups += 1
            if self.check_dt is not None:
                self._push(te + self.check_dt, _K_CHECK, self.gen)
        self.seq += 1
        self.release_seq = self.seq
        self.release_at = te + self.timeout

    # ----------------------------------------------------------------- air

    def _air_submit(self, te: float, size: int, created: float, pkt_seq: int = 0) -> None:
        # AirInterface.submit with ``loop.now()`` == te, on the fold
        # loop's mirrors: RateWindow.observe(te, size) on the flat window.
        bits = size * 8
        samples = self.win_samples
        samples.append((te, bits))
        win_bits = self.win_bits + bits
        cutoff = te - 1.0  # window_s = 1.0 (reference default)
        while samples and samples[0][0] <= cutoff:
            win_bits -= samples.popleft()[1]
        self.win_bits = win_bits
        self.off_p += 1
        self.off_b += size
        # submit draws rng.random() before drop_probability.
        u = self.air_random()
        if self.split_general:
            higher, same = self._split(win_bits / 1.0)
        else:
            higher = self.bg_higher
            same = self.bg_same + win_bits / 1.0  # RateWindow.rate_bps
        # drop_probability, op for op (cap × usable_fraction is the same
        # float as the precomputed product; max/min unrolled).
        usable = self.cap_usable - higher
        if usable < 0.0:
            usable = 0.0
        if same <= usable or same <= 0:
            p = 0.0
        elif usable <= 0:
            p = 1.0
        else:
            p = 1.0 - usable / same
        if u < p:
            self.drop_p += 1
            self.drop_b += size
            return
        # queue_delay re-runs _demand_split at the same instant with
        # unchanged window state — reuse (higher, same).
        rho = (higher + same) / self.capacity
        if rho > 0.99:
            rho = 0.99
        if rho < 0.5:
            qd = 0.0
        else:
            qd = 0.002 * rho / (1.0 - rho)
            if qd > self.max_qd:
                qd = self.max_qd
        delay = self.prop + qd + size * 8.0 / self.capacity
        self._push(te + delay, _K_DELIVER, size, (created, pkt_seq))

    # --------------------------------------------------------------- quota

    def _quota_check(self, t: float, size: int) -> bool:
        # Spgw._policed against the mirrored token bucket (the real
        # TokenBucket reads ``loop.now()`` in both ctor and admit, which
        # is stale here — t is the wheel event time).
        spgw = self.spgw
        if spgw.policy is None:
            return False
        # bearer.uplink.total + bearer.downlink.total: the other
        # direction's counter stays at zero.
        used = self.bearer_cum.total
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

    # -------------------------------------------------------------- queues

    def _dlq_push(self, size: int, created: float, pkt_seq: int) -> None:
        # ue.dl_buffer.push: tail drop against the (possibly handover-
        # inflated) mirrored capacity; FlowStats live on the real queue.
        q = self.ue.dl_buffer
        if self.dlq_bytes + size > self.dlq_cap:
            q.dropped.packets += 1
            q.dropped.bytes += size
            return
        self.dlq.append((size, created, pkt_seq))
        self.dlq_bytes += size
        q.enqueued.packets += 1
        q.enqueued.bytes += size

    def _ulq_push(self, size: int, created: float, pkt_seq: int) -> None:
        # access._ul_buffer.push (the modem's uplink buffer).
        q = self.spec.access._ul_buffer
        if self.ulq_bytes + size > self.ulq_cap:
            q.dropped.packets += 1
            q.dropped.bytes += size
            return
        self.ulq.append((size, created, pkt_seq))
        self.ulq_bytes += size
        q.enqueued.packets += 1
        q.enqueued.bytes += size

    def _drain_dlq(self, te: float) -> None:
        # ENodeB._drain_buffer: recovered packets re-enter the air with
        # their original created_at; no RRC activity on this path.
        if not self.dlq:
            return
        dlq = self.dlq
        self.dlq = []
        self.dlq_bytes = 0
        recovered = self.ue.buffered_recovered
        for size, created, pkt_seq in dlq:
            recovered.packets += 1
            recovered.bytes += size
            self._air_submit(te, size, created, pkt_seq)

    # -------------------------------------------------------------- frames

    def _ul_send(self, t: float, size: int, created: float, pkt_seq: int) -> None:
        # UeAccess.send_uplink at time t.  Fault-delayed sends fire here
        # after the frame handler returned, so attach and radio state are
        # re-read at fire time, exactly as the deferred reference call.
        # A detached UE's packet dies after the app-level count — no
        # modem count, no buffer, no stats.
        if not self.ue.attached:
            return
        # modem.count_uplink, before the radio check.
        mod = self.mod_cum
        total = mod.total + size
        mod.total = total
        times = mod.times
        if times and times[-1] == t:
            mod.cums[-1] = total
        else:
            times.append(t)
            mod.cums.append(total)
        if not self.radio.connected:
            self._ulq_push(size, created, pkt_seq)
        else:
            self._rrc_activity(t)
            self._air_submit(t, size, created, pkt_seq)

    def _on_frame_ul(self, te: float) -> None:
        # FrameWorkload._emit_frame with sender = EdgeDevice.send; frame
        # sizing runs live on the workload (its RNG and iframe counter).
        # Every chunk's app-level count and device.ul_monitor.observe
        # land at te inside this handler, so they coalesce into one
        # frame total, as in the fold loop.
        wl = self.wl
        remaining = wl._frame_size()
        wl.frames_sent += 1
        wl.bytes_offered += remaining
        self.dev_cum.add(te, remaining)
        packet_bytes = self.packet_bytes
        fault = self.fault_ul
        pkt_seq = self.send_seq  # device.send: seq=next(self._seq) per chunk
        while remaining > 0:
            chunk = remaining if remaining < packet_bytes else packet_bytes
            if fault is None:
                self._ul_send(te, chunk, te, pkt_seq)
            else:
                # The injector pipe wraps access.send_uplink, so the fate
                # decision runs before the attached check, per chunk.
                action, delay = fault(te)
                if action is None:
                    self._ul_send(te, chunk, te, pkt_seq)
                elif action == "delay":
                    self._push(te + delay, _K_UL_SEND, chunk, (te, pkt_seq))
                elif action == "dup":
                    # Original now, the same packet again after the delay
                    # (the modem counts it twice, like the reference).
                    self._ul_send(te, chunk, te, pkt_seq)
                    self._push(te + delay, _K_UL_SEND, chunk, (te, pkt_seq))
                # drop: the chunk dies after the app-level count
            pkt_seq += 1
            remaining -= chunk
        self.send_seq = pkt_seq
        self._push(te + self.frame_dt, _K_FRAME)

    def _on_frame_dl(self, te: float) -> None:
        # _emit_frame with sender = EdgeServer.send: per chunk the server
        # monitor counts and the LAN link accepts (depart = now, deliver
        # at te + lan_s); the monitor adds coalesce into one frame total.
        # One frame's LAN delivers hold consecutive reference seqs, so
        # they batch into a single wheel event pushed before the
        # next-frame event, preserving relative order.
        wl = self.wl
        remaining = wl._frame_size()
        wl.frames_sent += 1
        wl.bytes_offered += remaining
        self.srv_cum.add(te, remaining)
        self.link_sent_b += remaining
        packet_bytes = self.packet_bytes
        pkt_seq = self.send_seq  # server.send: seq=next(self._seq) per chunk
        chunks = []
        while remaining > 0:
            chunk = remaining if remaining < packet_bytes else packet_bytes
            chunks.append((chunk, pkt_seq))
            pkt_seq += 1
            remaining -= chunk
        self.link_sent_p += len(chunks)
        self.send_seq = pkt_seq
        self._push(te + self.lan_s, _K_LAN, tuple(chunks), te)
        self._push(te + self.frame_dt, _K_FRAME)

    # ---------------------------------------------------------------- hops

    def _on_lan(self, te: float, chunks: tuple, created: float) -> None:
        # Link._deliver → Spgw.send_downlink per chunk: charge (or drop)
        # at te, SLA verdict at the middlebox, then one batched backhaul
        # event for the surviving chunks (consecutive reference seqs).
        bearer = self.bearer
        b = self.bearer_cum
        sla = self.sla
        passed = []
        self.link_del_p += len(chunks)
        for chunk, pkt_seq in chunks:
            self.link_del_b += chunk
            if not bearer.active:
                spgw = self.spgw
                spgw.detached_drops.packets += 1
                spgw.detached_drops.bytes += chunk
                self.drop_detached += chunk
                continue
            if self.has_quota and self._quota_check(te, chunk):
                spgw = self.spgw
                spgw.policed_drops.packets += 1
                spgw.policed_drops.bytes += chunk
                self.drop_policed += chunk
                continue
            # bearer.count_downlink.
            total = b.total + chunk
            b.total = total
            times = b.times
            if times and times[-1] == te:
                b.cums[-1] = total
            else:
                times.append(te)
                b.cums.append(total)
            # SlaMiddlebox.process: age verdict on the charged packet.
            if sla is not None and te - created > sla:
                self.mb_drop_p += 1
                self.mb_drop_b += chunk
                continue
            self.mb_pass_p += 1
            self.mb_pass_b += chunk
            passed.append((chunk, pkt_seq))
        if passed:
            self._push(te + self.bk_s, _K_BH, tuple(passed), created)

    def _on_bh(self, te: float, chunks: tuple, created: float) -> None:
        # Backhaul deliver → ENodeB.receive_downlink per chunk.
        for chunk, pkt_seq in chunks:
            if not self.ue.attached:
                self.ue.dropped_detached.packets += 1
                self.ue.dropped_detached.bytes += chunk
                continue
            self._rrc_activity(te)
            self._air_submit(te, chunk, created, pkt_seq)

    def _on_deliver(self, te: float, size: int, payload: tuple, is_ul: bool) -> None:
        # AirInterface._transmit → ENodeB._air_deliver_ul/_air_deliver_dl.
        self.trans_p += 1
        self.trans_b += size
        radio = self.radio
        if not is_ul:
            ue = self.ue
            if not ue.attached:
                ue.dropped_detached.packets += 1
                ue.dropped_detached.bytes += size
                return
            if not radio.connected:
                self._dlq_push(size, *payload)  # buffered for the outage drain
                return
        # RadioChannel.survives_air, inlined as in the fold loop: the
        # gauss step (random.gauss, same draws), the mean-reverting walk,
        # then random() >= loss_probability().  Uplink delivery draws it
        # even while the radio is disconnected, when current_rss() reads
        # the outage floor.
        rng = self.radio_rng
        z = rng.gauss_next
        rng.gauss_next = None
        if z is None:
            random = rng.random
            x2pi = random() * _TWOPI
            g2rad = _sqrt(-2.0 * _log(1.0 - random()))
            z = _cos(x2pi) * g2rad
            rng.gauss_next = _sin(x2pi) * g2rad
        step = 0.0 + z * self.rss_noise  # gauss: mu + z * sigma, mu = 0.0
        rss = self.rss
        drift = 0.25 * (self.rss_base - rss)
        rss = rss + drift + step
        if rss < self.rss_floor:
            rss = self.rss_floor
        elif rss > self.rss_ceiling:
            rss = self.rss_ceiling
        self.rss = rss
        if not radio.connected:
            rss = OUTAGE_FLOOR_DBM
        if rss >= GOOD_RSS_DBM:
            loss = self.base_loss
        else:
            span = GOOD_RSS_DBM - self.rss_floor
            frac = (GOOD_RSS_DBM - rss) / span
            if frac > 1.0:
                frac = 1.0
            loss = self.base_loss + frac * self.loss_at_floor
            if loss > 1.0:
                loss = 1.0
        if not rng.random() >= loss:
            return  # phy-rss loss, counted nowhere
        if is_ul:
            self.link_sent_p += 1
            self.link_sent_b += size
            self._push(te + self.bk_s, _K_GW, size, payload[0])
            return
        # modem.count_downlink.
        mod = self.mod_cum
        total = mod.total + size
        mod.total = total
        times = mod.times
        if times and times[-1] == te:
            mod.cums[-1] = total
        else:
            times.append(te)
            mod.cums.append(total)
        fault = self.fault_dl
        if fault is not None:
            # The injector pipe wraps ue.deliver, so the fate decision
            # runs after the modem count, before the device monitor.
            action, delay = fault(te)
            if action is not None:
                if action == "delay" or action == "dup":
                    self._push(te + delay, _K_DL_DELIVER, size)
                if action != "dup":
                    # Delayed: the device counts it when it fires.
                    # Dropped: counted at the modem, never at the device.
                    return
        # device.deliver → dl_monitor.observe.
        dev = self.dev_cum
        total = dev.total + size
        dev.total = total
        times = dev.times
        if times and times[-1] == te:
            dev.cums[-1] = total
        else:
            times.append(te)
            dev.cums.append(total)

    def _on_gw(self, te: float, size: int, created: float) -> None:
        # Backhaul Link._deliver → Spgw.receive_uplink.
        self.link_del_p += 1
        self.link_del_b += size
        if not self.bearer.active:
            spgw = self.spgw
            spgw.detached_drops.packets += 1
            spgw.detached_drops.bytes += size
            self.drop_detached += size
            return
        if self.has_quota and self._quota_check(te, size):
            spgw = self.spgw
            spgw.policed_drops.packets += 1
            spgw.policed_drops.bytes += size
            self.drop_policed += size
            return
        # bearer.count_uplink, then EdgeServer._receive_uplink via the
        # registered SPGW sink: server.ul_monitor.observe and its stats.
        b = self.bearer_cum
        total = b.total + size
        b.total = total
        times = b.times
        if times and times[-1] == te:
            b.cums[-1] = total
        else:
            times.append(te)
            b.cums.append(total)
        s = self.srv_cum
        total = s.total + size
        s.total = total
        times = s.times
        if times and times[-1] == te:
            s.cums[-1] = total
        else:
            times.append(te)
            s.cums.append(total)
        self.received += 1
        self.latencies.append(te - created)

    # -------------------------------------------------------------- outage

    def _outage_start_callbacks(self, te: float) -> None:
        # Registration order: ENodeB._on_outage_start (arms the RLF
        # timer), then the scenario runner's span-open callback.
        self._push(te + self.spec.rlf_timeout_s, _K_RLF, self.rlf_gen)
        if self.spec.span_recorder is not None and self.span_open_t is None:
            self.span_open_t = te

    def _outage_end_callbacks(self, te: float) -> None:
        # Registration order: ENodeB._on_outage_end, then
        # UeAccess._drain_ul_buffer, then the runner's span close.
        self.rlf_gen += 1  # cancels the armed RLF timer
        ue = self.ue
        if not ue.attached:
            self._push(te + self.spec.attach_delay_s, _K_REATTACH)
        else:
            self._drain_dlq(te)
        if ue.attached and self.ulq:
            ulq = self.ulq
            self.ulq = []
            self.ulq_bytes = 0
            for size, created, pkt_seq in ulq:
                # Each buffered packet replays receive_uplink.
                self._rrc_activity(te)
                self._air_submit(te, size, created, pkt_seq)
        if self.spec.span_recorder is not None and self.span_open_t is not None:
            self.spans.append((self.span_open_t, te))
            self.span_open_t = None

    def _on_out_begin(self, te: float) -> None:
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

    def _on_out_end(self, te: float) -> None:
        # RadioChannel._end_outage.
        radio = self.radio
        if radio.connected:
            return
        radio.connected = True
        if radio._outage_started_at is not None:
            radio.total_outage_time += te - radio._outage_started_at
            radio._outage_started_at = None
        self._outage_end_callbacks(te)
        uptime = radio._rng.expovariate(1.0 / self.mean_uptime)
        self._push(te + uptime, _K_OUT_BEGIN)

    def _on_rlf(self, gen: int) -> None:
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

    def _on_reattach(self, te: float) -> None:
        # ENodeB._reattach after the attach delay.
        ue = self.ue
        if ue.attached or not self.radio.connected:
            return
        ue.attached = True
        self.mme.attach(ue.imsi)
        self._drain_dlq(te)

    # ------------------------------------------------------------ handover

    def _ho_schedule_next(self, te: float) -> None:
        # HandoverProcess._schedule_next (the jitter draw happens even
        # when the handover itself was skipped).
        config = self.handover.config
        jitter = self.handover._rng.uniform(
            1 - config.interval_jitter, 1 + config.interval_jitter
        )
        self._push(te + config.interval_s * jitter, _K_HO_BEGIN)

    def _on_ho_begin(self, te: float) -> None:
        # HandoverProcess._begin_handover.
        ho = self.handover
        ue = self.ue
        if not ue.attached or not self.radio.connected:
            self._ho_schedule_next(te)
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
            for size, created, pkt_seq in buffered:
                ho.forwarded.packets += 1
                ho.forwarded.bytes += size
                self._dlq_push(size, created, pkt_seq)
        else:
            for size, created, pkt_seq in buffered:
                ho.dropped.packets += 1
                ho.dropped.bytes += size
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

    def _on_ho_complete(self, te: float) -> None:
        # HandoverProcess._complete_handover: end the forced break, then
        # restore drop layer and capacity, then schedule the next one.
        radio = self.radio
        if not radio.connected:  # force_outage_end (no-op when connected)
            radio.connected = True
            if radio._outage_started_at is not None:
                radio.total_outage_time += te - radio._outage_started_at
                radio._outage_started_at = None
            self._outage_end_callbacks(te)
        if self.ho_saved_layer is not None:
            self.dlq_layer = self.ho_saved_layer
            self.ho_saved_layer = None
        if self.ho_saved_cap is not None:
            self.dlq_cap = self.ho_saved_cap
            self.ho_saved_cap = None
        self._ho_schedule_next(te)

    # --------------------------------------------------------------- flush

    def _flush(self) -> None:
        spec = self.spec
        super()._flush()

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

        # Sender packet-sequence iterator: device.send / server.send
        # consumed one per chunk; park the real iterator at the mirror.
        sender = spec.device if spec.is_uplink else spec.server
        sender._seq = _count(self.send_seq)

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

        # Gateway drop counters, created lazily like the reference's
        # first-hit path so empty runs snapshot identically.
        metrics = spec.gateway_metrics
        if metrics is not None:
            if self.drop_detached:
                metrics.counter(
                    "cellular.gateway.drop_bytes", reason="detached"
                ).inc(self.drop_detached)
            if self.drop_policed:
                metrics.counter(
                    "cellular.gateway.drop_bytes", reason="policed"
                ).inc(self.drop_policed)

        # Replay radio.outage spans into the runner's recorder.  The
        # recorder's _close reads the (stale) clock and would reject
        # ends before "now", so closed ends are assigned directly; a
        # still-open outage stays open with the recorder's depth counter
        # elevated, exactly as live recording would leave it mid-outage.
        rec = spec.span_recorder
        if rec is not None:
            for open_t, close_t in self.spans:
                span = Span("radio.outage", open_t, rec._open, rec)
                rec._open += 1
                rec._spans.append(span)
                span.end = close_t
                rec._open -= 1
            if self.span_open_t is not None:
                span = Span("radio.outage", self.span_open_t, rec._open, rec)
                rec._open += 1
                rec._spans.append(span)

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
    the reference path does.  ``spec.general`` selects the general-mode
    executor (outage / quota / RSS / handover sessions) over the fold
    loops.
    """
    if spec.general:
        _GeneralRun(spec, horizon, settle).run()
    else:
        _LaneRun(spec, horizon, settle).run()
