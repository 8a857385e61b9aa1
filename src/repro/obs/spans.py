"""Lightweight spans on an injected clock (virtual time, never wall time).

A span is a named ``[start, end]`` interval with a nesting depth.  The
recorder is deliberately simple: depth is the number of spans open at
the moment a span opens, so context-manager use gives classic nesting
while event-driven use (radio outage start/end callbacks) still yields
well-defined, deterministic records even when intervals interleave.
"""

from __future__ import annotations

from typing import Callable


class _SpanState:
    """What a span shares with its recorder: the clock and the number of
    spans open.  It holds no span, so spans and recorder form no cycle."""

    __slots__ = ("clock", "open")

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.open = 0


class Span:
    """One open (or closed) interval; close at most once."""

    __slots__ = ("name", "start", "end", "depth", "_state")

    def __init__(self, name: str, start: float, depth: int, state: _SpanState) -> None:
        self.name = name
        self.start = start
        self.end: float | None = None
        self.depth = depth
        self._state = state

    @property
    def open(self) -> bool:
        """True until :meth:`close` is called."""
        return self.end is None

    @property
    def duration(self) -> float | None:
        """``end - start`` once closed, else None."""
        return None if self.end is None else self.end - self.start

    def close(self) -> None:
        """Close the span at the recorder's current clock (idempotent)."""
        if self.end is None:
            state = self._state
            end = state.clock()
            if end < self.start:
                raise ValueError(f"span {self.name!r} would close before it opened")
            self.end = end
            state.open -= 1

    def to_dict(self, close_open_at: float | None = None) -> dict:
        """JSON-safe encoding; optionally snapshot an open span as closed."""
        end = self.end
        if end is None and close_open_at is not None:
            end = close_open_at
        return {"name": self.name, "start": self.start, "end": end, "depth": self.depth}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"end={self.end}" if self.end is not None else "open"
        return f"Span({self.name!r}, start={self.start}, {state}, depth={self.depth})"


class SpanRecorder:
    """Creates and archives spans against one clock callable.

    A span holds only the clock and the open-span count it shares with
    the recorder, never the recorder, so a recorder and its spans need
    no teardown: they are freed with the last reference to them.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._state = _SpanState(clock)
        self._spans: list[Span] = []

    def open(self, name: str) -> Span:
        """Open a span now; records are kept in open order."""
        return self.record(name, self._state.clock())

    def record(self, name: str, start: float, end: float | None = None) -> Span:
        """Archive a span opened at ``start``: closed at ``end`` when given,
        else still open.  A closed one leaves the open count unchanged, so
        a replay of spans from another clock nests as live recording would."""
        state = self._state
        span = Span(name, start, state.open, state)
        if end is None:
            state.open += 1
        else:
            span.end = end
        self._spans.append(span)
        return span

    def span(self, name: str):
        """Context manager wrapper around :meth:`open`/:meth:`Span.close`."""
        return _SpanContext(self, name)

    def to_list(self, close_open_at: float | None = None) -> list[dict]:
        """All spans as dicts, in open order."""
        return [s.to_dict(close_open_at=close_open_at) for s in self._spans]


class _SpanContext:
    """``with recorder.span("name"):`` support."""

    __slots__ = ("_recorder", "_name", "_span")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._recorder.open(self._name)
        return self._span

    def __exit__(self, *exc_info) -> None:
        assert self._span is not None
        self._span.close()
