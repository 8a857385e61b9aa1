"""Deterministic, seed-driven fault injection for the charging simulator.

TLC's guarantees (Theorems 1–4) are claims about behaviour *under
adversity*: multi-layer loss, clock skew, counter resets and crashing
endpoints.  This module turns those adversities into first-class,
composable objects so any experiment can run under chaos and any failure
reproduces exactly from ``(config, seed)``:

* :class:`FaultSpec` — one fault: a kind (burst loss, reorder, duplicate,
  corrupt, blackout/link flap, clock skew, clock drift, counter reset,
  endpoint crash), a time window, a target pattern and a magnitude;
* :class:`FaultSchedule` — a named, composable set of specs that rides
  inside :class:`~repro.experiments.scenarios.ScenarioConfig` (it
  round-trips through the parallel engine's JSON codec, so fault runs
  cache and parallelize like any other scenario);
* :class:`FaultInjector` — attaches a schedule to live components through
  one uniform hook family (``pipe`` for packet paths, ``pipe_frames`` for
  the PoC netdriver's byte frames, ``pipe_call`` for transport-segment
  callables, ``attach_link`` / ``attach_modem`` for in-place wrapping).
  Every fate comes from one per-point ``decider``, shared by those hooks,
  the batched kernel's lanes and the service's replay client, drawing
  every probabilistic decision from a single named
  :class:`~repro.netsim.rng.StreamRegistry` stream;
* :class:`FaultTrace` — a replayable JSON-lines log of every fault the
  injector actually fired, so two runs can be compared bit-for-bit
  (kept by scenarios; a fleet shard's injector keeps none and only
  counts ``netsim.faults.fired``).

Fault kinds map onto the paper's loss taxonomy and error models — see
``docs/FAULTS.md`` for the full table.
"""

from __future__ import annotations

import fnmatch
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from .events import EventLoop
from .packet import Packet
from .rng import StreamRegistry

#: Every fault kind the injector understands.
BURST_LOSS = "burst-loss"      # drop packets/frames with probability `magnitude`
REORDER = "reorder"            # hold a packet up to `jitter_s`, letting later ones pass
DUPLICATE = "duplicate"        # deliver an extra copy after up to `jitter_s`
CORRUPT = "corrupt"            # CRC-failed on the wire: dropped, counted as corruption
BLACKOUT = "blackout"          # link flap: nothing crosses during the window
CLOCK_SKEW = "clock-skew"      # constant offset of `magnitude` seconds on a party clock
CLOCK_DRIFT = "clock-drift"    # rate error of `magnitude` ppm accumulating from `start`
COUNTER_RESET = "counter-reset"  # modem counters restart from zero at `start`
CRASH = "crash"                # endpoint down for the window; ARQ must recover

FAULT_KINDS = (
    BURST_LOSS, REORDER, DUPLICATE, CORRUPT, BLACKOUT,
    CLOCK_SKEW, CLOCK_DRIFT, COUNTER_RESET, CRASH,
)

#: Kinds that act on traffic in flight (the others act on clocks/counters).
_PATH_KINDS = frozenset({BURST_LOSS, REORDER, DUPLICATE, CORRUPT, BLACKOUT, CRASH})
_CLOCK_KINDS = frozenset({CLOCK_SKEW, CLOCK_DRIFT})


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what happens, when, to which injection point.

    ``target`` is an ``fnmatch`` pattern against injection-point names
    (``"*"`` hits everything, ``"uplink"`` only the device's send path,
    ``"poc-*"`` both negotiation endpoints).  ``magnitude`` is
    kind-specific: a probability for ``burst-loss`` / ``reorder`` /
    ``duplicate`` / ``corrupt``, seconds for ``clock-skew``, ppm for
    ``clock-drift``, unused for window-only kinds.  ``duration=None``
    means "until the end of the run".
    """

    kind: str
    start: float = 0.0
    duration: float | None = None
    target: str = "*"
    magnitude: float = 1.0
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (know {FAULT_KINDS})")
        # NaN slips past every sign and range comparison below (a NaN
        # start makes active() true forever), and an infinite magnitude
        # turns skew_at into inf * 0 = NaN.  Specs are decoded per UE on
        # every shard claim, so one sum screens all four fields first:
        # any NaN or infinity among them makes it non-finite.
        if not math.isfinite(
            self.start + self.magnitude + self.jitter_s + (self.duration or 0.0)
        ):
            for name in ("start", "duration", "magnitude", "jitter_s"):
                value = getattr(self, name)
                if value is not None and not math.isfinite(value):
                    raise ValueError(f"fault {name} must be finite, got {value}")
        if self.start < 0:
            raise ValueError(f"fault start must be non-negative, got {self.start}")
        if self.duration is not None and self.duration < 0:
            raise ValueError(f"fault duration must be non-negative, got {self.duration}")
        if self.jitter_s < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter_s}")
        if self.kind in (BURST_LOSS, REORDER, DUPLICATE, CORRUPT):
            if not 0.0 <= self.magnitude <= 1.0:
                raise ValueError(
                    f"{self.kind} magnitude is a probability, got {self.magnitude}"
                )

    def active(self, t: float) -> bool:
        """Whether the fault window covers virtual time ``t``."""
        if t < self.start:
            return False
        return self.duration is None or t < self.start + self.duration

    def matches(self, point: str) -> bool:
        """Whether this spec targets the named injection point."""
        return fnmatch.fnmatchcase(point, self.target)

    def to_dict(self) -> dict:
        """JSON-safe encoding (used by the scenario codec)."""
        return {
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "target": self.target,
            "magnitude": self.magnitude,
            "jitter_s": self.jitter_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=str(data["kind"]),
            start=float(data["start"]),
            duration=None if data.get("duration") is None else float(data["duration"]),
            target=str(data.get("target", "*")),
            magnitude=float(data.get("magnitude", 1.0)),
            jitter_s=float(data.get("jitter_s", 0.0)),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A named, composable collection of :class:`FaultSpec`.

    Immutable so it can live inside the (frozen, hashable-by-codec)
    :class:`~repro.experiments.scenarios.ScenarioConfig`.
    """

    name: str = "faults"
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def is_empty(self) -> bool:
        """True when the schedule injects nothing."""
        return not self.specs

    def compose(self, *others: "FaultSchedule") -> "FaultSchedule":
        """Concatenate schedules (later specs stack, they don't replace)."""
        specs = list(self.specs)
        names = [self.name]
        for other in others:
            specs.extend(other.specs)
            names.append(other.name)
        return FaultSchedule(name="+".join(names), specs=tuple(specs))

    def shifted(self, dt: float) -> "FaultSchedule":
        """The same schedule with every window moved ``dt`` seconds later."""
        return FaultSchedule(
            name=self.name,
            specs=tuple(replace(s, start=s.start + dt) for s in self.specs),
        )

    def active_specs(self, kinds: Iterable[str], point: str, t: float) -> list[FaultSpec]:
        """Specs of the given kinds targeting ``point`` and covering ``t``."""
        wanted = set(kinds)
        return [
            s for s in self.specs
            if s.kind in wanted and s.matches(point) and s.active(t)
        ]

    def skew_at(self, point: str, t: float) -> float:
        """Total clock error (seconds) for a party clock at time ``t``.

        Constant-offset specs contribute ``magnitude`` while active;
        drift specs contribute ``magnitude·1e-6`` seconds per second
        elapsed since their start (capped at their window end).
        """
        skew = 0.0
        for spec in self.specs:
            if not spec.matches(point) or t < spec.start:
                continue
            if spec.kind == CLOCK_SKEW:
                if spec.active(t):
                    skew += spec.magnitude
            elif spec.kind == CLOCK_DRIFT:
                end = t if spec.duration is None else min(t, spec.start + spec.duration)
                skew += spec.magnitude * 1e-6 * max(0.0, end - spec.start)
        return skew

    def to_dict(self) -> dict:
        """JSON-safe encoding (used by the scenario codec)."""
        return {"name": self.name, "specs": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(data.get("name", "faults")),
            specs=tuple(FaultSpec.from_dict(s) for s in data.get("specs", ())),
        )


# ------------------------------------------------------------------- trace


@dataclass(frozen=True)
class FaultEvent:
    """One fault the injector actually fired, at one injection point."""

    t: float
    kind: str
    point: str
    detail: str = ""

    def to_json(self) -> str:
        """Serialize to one JSON line."""
        return json.dumps(
            {"t": self.t, "kind": self.kind, "point": self.point, "detail": self.detail},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "FaultEvent":
        """Parse one JSON line back into an event."""
        raw = json.loads(line)
        return cls(
            t=float(raw["t"]),
            kind=str(raw["kind"]),
            point=str(raw["point"]),
            detail=str(raw.get("detail", "")),
        )


class FaultTrace:
    """Replayable log of injected faults; two equal traces ⇒ same chaos."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: list[FaultEvent] = list(events)

    def record(self, t: float, kind: str, point: str, detail: str = "") -> None:
        """Append one fired fault."""
        self.events.append(FaultEvent(t, kind, point, detail))

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultTrace):
            return NotImplemented
        return self.events == other.events

    def counts(self) -> dict[str, int]:
        """Events per fault kind (quick summary for reports/tests)."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON lines."""
        text = "\n".join(event.to_json() for event in self.events)
        Path(path).write_text(text + ("\n" if text else ""))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultTrace(events={len(self.events)}, counts={self.counts()})"


def load_fault_trace(path: str | Path) -> FaultTrace:
    """Load a JSON-lines fault trace from disk."""
    events = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            events.append(FaultEvent.from_json(line))
    return FaultTrace(events)


# ---------------------------------------------------------------- injector


class FaultInjector:
    """Binds a :class:`FaultSchedule` to live simulator components.

    All probabilistic decisions come from one named stream of the
    experiment's :class:`StreamRegistry` (``"faults"``), so a given
    ``(schedule, seed)`` produces the identical chaos on every run —
    including across serial vs process-pool execution, where each
    scenario rebuilds its own registry from its config seed.
    """

    def __init__(
        self,
        loop: EventLoop,
        rng: StreamRegistry | None,
        schedule: FaultSchedule,
        trace: FaultTrace | None = None,
        metrics=None,
    ) -> None:
        self.loop = loop
        self.schedule = schedule
        #: Where fired faults are logged; None records no events (fleet
        #: shards, whose results carry only the ``netsim.faults.fired``
        #: counters).
        self.trace = trace
        registry = rng if rng is not None else StreamRegistry(0)
        self._rng = registry.stream("faults")
        self._metrics = metrics
        #: kind -> its ``netsim.faults.fired`` counter, looked up on the
        #: kind's first fire (the registry's key order stays first-fire order).
        self._fired: dict = {}
        #: Loop events armed by :meth:`attach_modem`; the batched-kernel
        #: adapter absorbs these into lane-owned wheel events by identity.
        self._reset_events: list = []
        #: point -> its :meth:`decider` (None: no path spec reaches it).
        self._deciders: dict[str, Callable[[float], tuple[str | None, float]] | None] = {}

    def close(self) -> None:
        """Drop the deciders and armed events, which refer back to the
        injector, so a finished run frees without the cyclic collector."""
        self._deciders.clear()
        self._reset_events.clear()

    # ------------------------------------------------------------ internals

    def _record(self, t: float, kind: str, point: str, detail: str, *args) -> None:
        """Count one fired fault, and log it to the trace if there is one.

        ``detail`` is a :meth:`str.format` template over ``args``, filled
        only when a trace records it.
        """
        if self.trace is not None:
            self.trace.record(t, kind, point, detail.format(*args))
        fired = self._fired.get(kind)
        if fired is None:
            if self._metrics is None:
                return
            fired = self._fired[kind] = self._metrics.counter(
                "netsim.faults.fired", kind=kind
            )
        fired.inc()

    def decide_at(
        self,
        point: str,
        t: float,
        specs: list[FaultSpec] | None = None,
    ) -> tuple[str | None, float]:
        """One fate decision for a unit of traffic at ``point`` at time ``t``.

        Returns ``(action, delay)`` where action is ``None`` (pass),
        ``"drop"`` (with the kind recorded), ``"delay"`` or ``"dup"``.
        Window kinds (blackout, crash) dominate; probabilistic kinds are
        then consulted in a fixed order so the RNG draw sequence is
        stable.  ``specs`` may carry a pre-filtered active-spec list
        (:meth:`decider` precomputes the fnmatch walk); it must equal
        ``schedule.active_specs(_PATH_KINDS, point, t)`` or the RNG
        consumption order changes.
        """
        if specs is None:
            specs = self.schedule.active_specs(_PATH_KINDS, point, t)
        if not specs:
            return None, 0.0
        for spec in specs:
            if spec.kind in (BLACKOUT, CRASH):
                self._record(t, spec.kind, point, "dropped")
                return "drop:" + spec.kind, 0.0
        for spec in specs:  # fixed order: the schedule's spec order
            if spec.kind in (BURST_LOSS, CORRUPT):
                if self._rng.random() < spec.magnitude:
                    self._record(t, spec.kind, point, "dropped")
                    return "drop:" + spec.kind, 0.0
            elif spec.kind == REORDER:
                if self._rng.random() < spec.magnitude:
                    delay = self._rng.uniform(0.0, spec.jitter_s)
                    self._record(t, spec.kind, point, "held {:.6f}s", delay)
                    return "delay", delay
            elif spec.kind == DUPLICATE:
                if self._rng.random() < spec.magnitude:
                    delay = self._rng.uniform(0.0, spec.jitter_s)
                    self._record(t, spec.kind, point, "copy +{:.6f}s", delay)
                    return "dup", delay
        return None, 0.0

    def decider(self, point: str) -> Callable[[float], tuple[str | None, float]] | None:
        """``decide(t) -> (action, delay)`` for ``point``, or None.

        The one interpreter of the schedule's path specs: the pipes, the
        batched kernel's lanes and the service's replay client all take
        their fates from it.  None means the schedule can never touch
        traffic at this point, so the caller may skip the hook entirely
        (a decision there would draw no RNG and record nothing).

        Windows are static, so the active-spec set is piecewise
        constant in time: precompute it per boundary segment and bisect
        per decision rather than filtering every spec per unit of
        traffic (a canned profile carries dozens of periodic windows).
        Segment lists keep schedule order, so the RNG consumption order
        is exactly :meth:`FaultSchedule.active_specs`'s.  Built once per
        point and cached, so a session's pipe and its lane share one
        closure.
        """
        if point in self._deciders:
            return self._deciders[point]
        matched = tuple(
            s for s in self.schedule.specs
            if s.kind in _PATH_KINDS and s.matches(point)
        )
        decide = None
        if matched:
            bounds = {0.0}
            for s in matched:
                bounds.add(s.start)
                if s.duration is not None:
                    bounds.add(s.start + s.duration)
            starts = sorted(bounds)
            # active(t) is constant on [starts[i], starts[i+1]) — windows
            # are start-inclusive/end-exclusive, so sampling the segment's
            # left edge classifies the whole segment.
            segments = [[s for s in matched if s.active(t0)] for t0 in starts]
            decide_at = self.decide_at
            empty = (None, 0.0)

            def decide(t: float) -> tuple[str | None, float]:
                active = segments[bisect_right(starts, t) - 1]
                if not active:
                    return empty  # no RNG draw, no record
                return decide_at(point, t, specs=active)

        self._deciders[point] = decide
        return decide

    # ----------------------------------------------------- uniform hooks

    def _wrap(
        self,
        point: str,
        downstream: Callable[..., None],
        on_drop: Callable[..., None] | None = None,
    ) -> Callable[..., None]:
        """``downstream`` behind ``point``'s decider; ``on_drop(kind, *args)``
        sees each dropped unit.  Unwrapped when no path spec reaches it."""
        decide = self.decider(point)
        if decide is None:
            return downstream
        loop = self.loop

        def receive(*args) -> None:
            action, delay = decide(loop.now())
            if action is None:
                downstream(*args)
            elif action.startswith("drop:"):
                if on_drop is not None:
                    on_drop(action.split(":", 1)[1], *args)
            elif action == "delay":
                loop.schedule(delay, downstream, *args)
            else:  # dup: the original goes now, the copy after `delay`
                downstream(*args)
                loop.schedule(delay, downstream, *args)

        return receive

    def pipe(self, point: str, downstream: Callable[[Packet], None]) -> Callable[[Packet], None]:
        """Wrap a packet receiver: the uniform packet-path injection hook.

        Dropped packets are marked with a ``fault-<kind>`` layer so the
        §3.1 loss-taxonomy accounting attributes them correctly.
        """
        return self._wrap(
            point, downstream, lambda kind, packet: packet.mark_dropped("fault-" + kind)
        )

    def pipe_frames(self, point: str, downstream: Callable[[bytes], None]) -> Callable[[bytes], None]:
        """Wrap a byte-frame receiver (the PoC netdriver's ARQ endpoints).

        ``crash`` windows model an endpoint being down: every frame that
        arrives meanwhile is lost and the peer's retransmission timer has
        to recover after the restart.  ``corrupt`` frames are dropped
        here too — a frame whose signature cannot verify is equivalent to
        a lost frame for the protocol, minus wasted crypto time.
        """
        return self._wrap(point, downstream)

    def pipe_call(self, point: str, fn: Callable[..., None]) -> Callable[..., None]:
        """Wrap an arbitrary positional-args callable (transport segments).

        Used to splice faults between :class:`TcpLikeSender.transmit` and
        the wire, or any other ``(size, seq, ...)``-style hop.
        """
        return self._wrap(point, fn)

    # ------------------------------------------------- component adapters

    def attach_link(self, link, point: str | None = None) -> None:
        """Wrap a :class:`~repro.netsim.link.Link` delivery path in place."""
        name = point if point is not None else link.name
        link.receiver = self.pipe(name, link.receiver)

    def attach_modem(self, modem, point: str = "modem") -> None:
        """Arm every matching ``counter-reset`` spec against a modem.

        At each reset the modem's cumulative counters restart from zero —
        the legitimate detach/reboot behaviour the operator's
        :class:`~repro.edge.monitors.CounterCheckMonitor` re-baselines
        around (its ``resets_observed`` counts these).  Resets are armed
        as bound-method events so the batched-kernel adapter can absorb
        them by callback identity, like outage and handover timers.
        """
        for spec in self.schedule.specs:
            if spec.kind == COUNTER_RESET and spec.matches(point):
                if spec.start >= self.loop.now():
                    event = self.loop.schedule_at(
                        spec.start, self._reset_modem, modem, point
                    )
                    self._reset_events.append(event)

    def _reset_modem(self, modem, point: str) -> None:
        """Fire one armed counter reset: zero the modem's counters now."""
        self.apply_reset(modem, self.loop.now(), point)

    def apply_reset(self, modem, t: float, point: str = "modem") -> None:
        """Replay one counter reset at lane time ``t`` (batched kernel).

        Identical effect and trace record to :meth:`_reset_modem`, with
        the timestamp supplied by the lane wheel instead of the loop.
        """
        from .counters import CumulativeCounter

        self._record(t, COUNTER_RESET, point, "counters zeroed")
        modem.ul_sent = CumulativeCounter()
        modem.dl_received = CumulativeCounter()

    def attach_negotiation(
        self,
        negotiation,
        edge_point: str = "poc-edge",
        operator_point: str = "poc-operator",
    ) -> None:
        """Wrap both PoC netdriver endpoints' receive paths in place."""
        edge = negotiation.edge_endpoint
        operator = negotiation.operator_endpoint
        edge.receive = self.pipe_frames(edge_point, edge.receive)
        operator.receive = self.pipe_frames(operator_point, operator.receive)

    def extra_skew(self, point: str, t: float) -> float:
        """Accumulated clock error at ``t`` for a party clock (seconds).

        A nonzero application is logged to the trace (kind of the first
        matching clock spec), so clock chaos is replayable/comparable
        like packet chaos.
        """
        skew = self.schedule.skew_at(point, t)
        if skew != 0.0:
            kinds = [
                s.kind for s in self.schedule.specs
                if s.kind in _CLOCK_KINDS and s.matches(point)
            ]
            self._record(t, kinds[0], point, "skew {:+.6f}s", skew)
        return skew


# ---------------------------------------------------------------- profiles


def _windows(kind: str, target: str, period: float, width: float, n: int,
             magnitude: float = 1.0, jitter_s: float = 0.0, phase: float = 0.0) -> list[FaultSpec]:
    """``n`` periodic fault windows (a flapping link, periodic crashes...)."""
    return [
        FaultSpec(kind, start=phase + i * period, duration=width,
                  target=target, magnitude=magnitude, jitter_s=jitter_s)
        for i in range(n)
    ]


#: Named chaos profiles for ``--fault-profile`` and the benchmark sweeps.
#: Windows repeat over the first hour, covering default figure scenarios
#: (10 × 60 s cycles) and longer custom runs alike.
FAULT_PROFILES: dict[str, FaultSchedule] = {
    "none": FaultSchedule(name="none"),
    # §3.1 loss classes 1-3 stacked: steady random loss plus short deep
    # fades on the whole data path.
    "bursty": FaultSchedule(
        name="bursty",
        specs=tuple(
            [FaultSpec(BURST_LOSS, start=0.0, target="*link*", magnitude=0.05)]
            + _windows(BURST_LOSS, "downlink", period=45.0, width=3.0, n=80,
                       magnitude=0.5, phase=7.0)
        ),
    ),
    # Figure 4-style intermittent connectivity: the device path flaps.
    "flaky-link": FaultSchedule(
        name="flaky-link",
        specs=tuple(
            _windows(BLACKOUT, "uplink", period=60.0, width=2.0, n=60, phase=11.0)
            + _windows(BLACKOUT, "downlink", period=90.0, width=3.0, n=40, phase=31.0)
        ),
    ),
    # Figure 18's record-error mechanism, exaggerated: both party clocks
    # drift apart and the edge carries a constant offset.
    "clock-drift": FaultSchedule(
        name="clock-drift",
        specs=(
            FaultSpec(CLOCK_DRIFT, start=0.0, target="edge-clock", magnitude=400.0),
            FaultSpec(CLOCK_DRIFT, start=0.0, target="operator-clock", magnitude=-250.0),
            FaultSpec(CLOCK_SKEW, start=0.0, target="edge-clock", magnitude=0.05),
        ),
    ),
    # The kitchen sink: loss, reordering, duplication, modem reboots and
    # drifting clocks, all at once.
    "chaos": FaultSchedule(
        name="chaos",
        specs=tuple(
            [
                FaultSpec(BURST_LOSS, start=0.0, target="*link*", magnitude=0.03),
                FaultSpec(REORDER, start=0.0, target="downlink",
                          magnitude=0.05, jitter_s=0.02),
                FaultSpec(DUPLICATE, start=0.0, target="uplink",
                          magnitude=0.03, jitter_s=0.01),
                FaultSpec(CLOCK_DRIFT, start=0.0, target="edge-clock", magnitude=300.0),
                FaultSpec(COUNTER_RESET, start=95.0, target="modem"),
                FaultSpec(COUNTER_RESET, start=305.0, target="modem"),
            ]
            + _windows(BLACKOUT, "downlink", period=120.0, width=2.5, n=30, phase=50.0)
        ),
    ),
}
