"""Span semantics on a simulated clock (repro.obs.spans)."""

import pytest

from repro.netsim import EventLoop
from repro.obs import MetricsRegistry
from repro.obs.spans import SpanRecorder


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestSpanRecorder:
    def test_span_records_virtual_interval(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        span = rec.open("work")
        clock.t = 2.5
        span.close()
        assert (span.start, span.end, span.duration) == (0.0, 2.5, 2.5)

    def test_nesting_depth_is_open_count(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        outer = rec.open("outer")
        inner = rec.open("inner")
        sibling_depth_before_close = rec.open("third").depth
        assert (outer.depth, inner.depth, sibling_depth_before_close) == (0, 1, 2)

    def test_close_idempotent(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        span = rec.open("s")
        clock.t = 1.0
        span.close()
        clock.t = 9.0
        span.close()  # no-op
        assert span.end == 1.0

    def test_context_manager_closes(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        with rec.span("cm") as span:
            clock.t = 3.0
        assert span.end == 3.0

    def test_backwards_clock_rejected(self):
        clock = FakeClock()
        clock.t = 5.0
        rec = SpanRecorder(clock)
        span = rec.open("s")
        clock.t = 1.0
        with pytest.raises(ValueError):
            span.close()

    def test_recorded_spans_nest_like_live_ones(self):
        """``record`` replays spans timed on another clock."""
        rec = SpanRecorder(FakeClock())
        rec.record("closed", 1.0, 2.0)
        still_open = rec.record("open", 3.0)
        rec.record("inside", 4.0, 5.0)
        assert rec.to_list(close_open_at=6.0) == [
            {"name": "closed", "start": 1.0, "end": 2.0, "depth": 0},
            {"name": "open", "start": 3.0, "end": 6.0, "depth": 0},
            {"name": "inside", "start": 4.0, "end": 5.0, "depth": 1},
        ]
        assert still_open.open

    def test_to_list_snapshots_open_spans(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        span = rec.open("open-one")
        clock.t = 4.0
        rows = rec.to_list(close_open_at=clock())
        assert rows[0]["end"] == 4.0
        assert span.open  # the live span is untouched


class TestRegistrySpans:
    def test_registry_spans_use_event_loop_time(self):
        loop = EventLoop()
        reg = MetricsRegistry(clock=loop.now)
        with reg.span("simulate"):
            loop.schedule(7.0, lambda: None)
            loop.run_until(7.0)
        snap = reg.snapshot()
        assert snap.spans == [
            {"name": "simulate", "start": 0.0, "end": 7.0, "depth": 0}
        ]

    def test_open_span_closed_in_snapshot_only(self):
        loop = EventLoop()
        reg = MetricsRegistry(clock=loop.now)
        handle = reg.span_open("radio.outage")
        loop.schedule(2.0, lambda: None)
        loop.run_until(2.0)
        snap = reg.snapshot()
        assert snap.spans[0]["end"] == 2.0
        assert handle.open

    def test_span_labels_canonicalized(self):
        reg = MetricsRegistry()
        with reg.span("s", b=2, a=1):
            pass
        assert reg.snapshot().spans[0]["name"] == "s{a=1,b=2}"
