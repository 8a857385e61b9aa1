"""A minimal discrete-event simulation (DES) engine.

The engine keeps a priority queue of ``(time, sequence, callback)`` entries
and dispatches them in time order, advancing the shared :class:`Clock` as it
goes.  Ties are broken by insertion order, which keeps runs deterministic.

This is the substrate under every experiment: packets in flight, radio
outage transitions, charging-cycle boundaries and RRC procedures are all
events on one loop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from .clock import Clock


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "loop")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        loop: "EventLoop | None" = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.loop = loop

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped at dispatch.

        Safe to call repeatedly and after the event has dispatched (the
        loop drops its backref at dispatch, so a late cancel cannot skew
        the live-event accounting).
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.loop is not None:
            self.loop._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__name__", repr(self.callback))
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, {name}{flag})"


class EventLoop:
    """Time-ordered event dispatcher around a shared :class:`Clock`.

    Cancelled events are removed lazily: cancellation just flips a flag
    and bumps a counter, and the heap is compacted once cancelled entries
    dominate it.  Heavy cancel/rearm users (ARQ retransmission timers)
    therefore keep the heap at O(live events) instead of O(timers ever
    armed), and :meth:`pending` stays O(1).
    """

    #: Compact only past this many cancelled entries (avoids churn on
    #: tiny queues, where a linear sweep per cancel would be quadratic).
    _COMPACT_MIN_CANCELLED = 64

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self._dispatched = 0
        self._cancelled = 0

    @property
    def dispatched(self) -> int:
        """Number of events executed so far (cancelled ones excluded)."""
        return self._dispatched

    def now(self) -> float:
        """Current virtual time."""
        return self.clock.now()

    def schedule_at(self, t: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``t``."""
        if t < self.clock.now():
            raise ValueError(f"cannot schedule in the past: {t} < {self.clock.now()}")
        event = Event(t, next(self._seq), callback, args, self)
        heapq.heappush(self._queue, event)
        return event

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.clock.now() + delay, callback, *args)

    def pending(self) -> int:
        """Number of not-yet-dispatched, not-cancelled events (O(1))."""
        return len(self._queue) - self._cancelled

    def heap_size(self) -> int:
        """Heap entries including not-yet-reclaimed cancelled ones."""
        return len(self._queue)

    def _note_cancel(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= self._COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify; amortized O(1) per cancel."""
        self._queue = [e for e in self._queue if not e.cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0

    def run_until(self, t_end: float) -> int:
        """Dispatch all events with ``time <= t_end``; clock ends at ``t_end``.

        Returns the number of events dispatched by this call.
        """
        dispatched_before = self._dispatched
        while self._queue and self._queue[0].time <= t_end:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                self._cancelled -= 1
                continue
            event.loop = None  # late cancel() must not touch the counter
            self.clock.advance_to(event.time)
            event.callback(*event.args)
            self._dispatched += 1
        self.clock.advance_to(max(t_end, self.clock.now()))
        return self._dispatched - dispatched_before

    def close(self) -> None:
        """Drop every queued event with its callback and arguments.

        Queued callbacks are mostly bound methods of the components that
        hold this loop, so a finished simulation's graph is cyclic until
        they go; a component that still holds one of the events can
        cancel it harmlessly.  Nothing may be scheduled afterwards.
        """
        for event in self._queue:
            event.cancelled = True
            event.callback = event.args = event.loop = None
        self._queue = []
        self._cancelled = 0

    def run(self) -> int:
        """Dispatch every remaining event; returns the number dispatched."""
        dispatched_before = self._dispatched
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                self._cancelled -= 1
                continue
            event.loop = None  # late cancel() must not touch the counter
            self.clock.advance_to(event.time)
            event.callback(*event.args)
            self._dispatched += 1
        return self._dispatched - dispatched_before
