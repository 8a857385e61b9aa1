"""Traffic monitors: skewed cycle boundaries and RRC-report assembly."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cellular.rrc import CounterCheckResponse
from repro.edge.monitors import CounterCheckMonitor, TrafficMonitor, record_error_ratio
from repro.netsim.counters import CumulativeCounter
from repro.netsim.events import EventLoop
from repro.netsim.packet import Direction, Packet


def packet(size=100):
    return Packet(size=size, flow_id="f", direction=Direction.UPLINK)


class TestTrafficMonitor:
    def _steady_monitor(self, rate_bytes_per_s=100, duration=100):
        loop = EventLoop()
        monitor = TrafficMonitor(loop, "m")
        for t in range(duration):
            loop.schedule_at(t + 0.5, monitor.observe, packet(rate_bytes_per_s))
        loop.run()
        return monitor

    def test_true_usage_exact(self):
        monitor = self._steady_monitor()
        assert monitor.true_usage(0, 50) == 5000
        assert monitor.true_usage(50, 100) == 5000

    def test_zero_skew_reports_truth(self):
        monitor = self._steady_monitor()
        assert monitor.reported_usage(0, 50) == monitor.true_usage(0, 50)

    def test_positive_skew_cuts_cycle_short(self):
        """A clock running ahead stops counting early: under-report."""
        monitor = self._steady_monitor()
        monitor.set_skew(10.0)
        assert monitor.reported_usage(0, 100) == 9000

    def test_negative_skew_extends_cycle(self):
        monitor = self._steady_monitor()
        monitor.set_skew(-5.0)
        # Window extends past the data; no extra bytes exist there.
        assert monitor.reported_usage(0, 50) == 5500

    def test_relative_error_tracks_skew_over_cycle(self):
        """The Figure 18 mechanism: γ ≈ |skew| / cycle length."""
        monitor = self._steady_monitor()
        monitor.set_skew(2.0)
        error = record_error_ratio(monitor.reported_usage(0, 100), monitor.true_usage(0, 100))
        assert error == pytest.approx(0.02, abs=0.005)

    def test_observe_bytes_counts_raw(self):
        loop = EventLoop()
        monitor = TrafficMonitor(loop, "m")
        monitor.observe_bytes(1234)
        assert monitor.total == 1234


class TestCounterCheckMonitor:
    def _report(self, monitor, loop, t, ul, dl):
        loop.schedule_at(t, monitor.on_report, CounterCheckResponse(t, ul, dl))

    def test_assembles_usage_from_cumulative_reports(self):
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 5.0, 100, 1000)
        self._report(monitor, loop, 10.0, 250, 2500)
        loop.run()
        assert monitor.reported_usage(0, 7) == 1000
        assert monitor.reported_usage(7, 12) == 1500
        assert monitor.reported_uplink_usage(0, 12) == 250

    def test_quantized_at_report_epochs(self):
        """Traffic after the last report is invisible until the next one."""
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 5.0, 0, 1000)
        loop.run()
        assert monitor.reported_usage(0, 4.9) == 0

    def test_counter_reset_rebaselines(self):
        """A modem reboot restarts the cumulative counters from zero; the
        monitor must re-baseline (delta = new absolute value), not crash."""
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 1.0, 100, 1000)
        self._report(monitor, loop, 2.0, 30, 400)  # detach/reattach reset
        self._report(monitor, loop, 3.0, 50, 700)
        loop.run()
        assert monitor.resets_observed == 1
        assert monitor.total == 1000 + 400 + 300
        assert monitor.reported_uplink_usage(0, 10) == 100 + 30 + 20
        assert monitor.reported_usage(1.5, 2.5) == 400

    def test_reset_on_one_counter_only(self):
        """Only the backwards counter re-baselines; the other keeps its delta."""
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 1.0, 100, 1000)
        self._report(monitor, loop, 2.0, 150, 900)
        loop.run()
        assert monitor.resets_observed == 1
        assert monitor.reported_uplink_usage(0, 10) == 150
        assert monitor.total == 1000 + 900

    def test_no_resets_observed_on_monotone_reports(self):
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 1.0, 0, 1000)
        self._report(monitor, loop, 2.0, 0, 1000)  # idle period: equal is fine
        loop.run()
        assert monitor.resets_observed == 0

    def test_skew_shifts_boundary(self):
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 5.0, 0, 1000)
        self._report(monitor, loop, 9.0, 0, 2000)
        loop.run()
        monitor.set_skew(2.0)
        assert monitor.reported_usage(0, 10) == 1000  # boundary cut at t=8

    def test_report_counter(self):
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 1.0, 0, 10)
        loop.run()
        assert monitor.reports_received == 1
        assert monitor.total == 10

    def test_ingest_equals_report_sequence(self):
        """A batch ingest leaves exactly the state one on_report per
        report leaves — including a reset re-baseline and a same-time
        pair that coalesces into one counter point."""
        reports = [
            (1.0, 100, 1000),
            (2.0, 150, 1000),
            (2.0, 180, 1200),
            (3.0, 30, 400),  # modem reset
            (4.0, 50, 700),
        ]
        one = CounterCheckMonitor(EventLoop())
        for t, ul, dl in reports:
            one.on_report(CounterCheckResponse(t, ul, dl))
        batch = CounterCheckMonitor(EventLoop())
        batch.ingest(reports)

        def state(monitor):
            return (
                monitor.reports_received,
                monitor.resets_observed,
                monitor._last_ul,
                monitor._last_dl,
                monitor._ul_reports._times,
                monitor._ul_reports._cums,
                monitor._dl_reports._times,
                monitor._dl_reports._cums,
            )

        assert state(batch) == state(one)
        assert batch.resets_observed == 1
        assert batch.total == 1200 + 400 + 300

    def test_ingest_rejects_time_going_backwards(self):
        monitor = CounterCheckMonitor(EventLoop())
        with pytest.raises(ValueError, match="backwards"):
            monitor.ingest([(2.0, 0, 10), (1.0, 0, 20)])

    def test_ingest_rejects_negative_counts(self):
        monitor = CounterCheckMonitor(EventLoop())
        with pytest.raises(ValueError, match="negative"):
            monitor.ingest([(1.0, 0, -5)])

    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 0.5, 1.25]),  # time step: ties are common
                st.booleans(),  # modem reset before this report
                st.integers(0, 5000),
                st.integers(0, 5000),
            ),
            max_size=40,
        ),
        held=st.integers(0, 40),
    )
    def test_bulk_ingest_equals_per_report_adds(self, steps, held):
        """The bulk path leaves exactly the series that re-baselining each
        report and adding its deltas with ``CumulativeCounter.add`` builds,
        also on a monitor that already holds the first ``held`` reports."""
        reports, t, ul, dl = [], 0.0, 0, 0
        for dt, reset, d_ul, d_dl in steps:
            t += dt
            ul, dl = (d_ul, d_dl) if reset else (ul + d_ul, dl + d_dl)
            reports.append((t, ul, dl))

        monitor = CounterCheckMonitor(EventLoop())
        for t, ul, dl in reports[:held]:
            monitor.on_report(CounterCheckResponse(t, ul, dl))
        monitor.ingest(reports[held:])

        ul_series, dl_series = CumulativeCounter(), CumulativeCounter()
        last_ul = last_dl = resets = 0
        for t, ul, dl in reports:
            ul_delta, dl_delta = ul - last_ul, dl - last_dl
            if ul_delta < 0 or dl_delta < 0:
                resets += 1
                ul_delta = ul if ul_delta < 0 else ul_delta
                dl_delta = dl if dl_delta < 0 else dl_delta
            ul_series.add(t, ul_delta)
            dl_series.add(t, dl_delta)
            last_ul, last_dl = ul, dl

        assert (monitor.reports_received, monitor.resets_observed) == (len(reports), resets)
        assert (monitor._last_ul, monitor._last_dl) == (last_ul, last_dl)
        for got, want in ((monitor._ul_reports, ul_series), (monitor._dl_reports, dl_series)):
            assert (got._times, got._cums, got.total) == (want._times, want._cums, want.total)


class TestErrorRatio:
    def test_zero_on_exact(self):
        assert record_error_ratio(100, 100) == 0.0

    def test_symmetric_magnitude(self):
        assert record_error_ratio(90, 100) == pytest.approx(0.1)
        assert record_error_ratio(110, 100) == pytest.approx(0.1)

    def test_idle_cycle_defined_as_zero(self):
        assert record_error_ratio(0, 0) == 0.0

    def test_phantom_bytes_on_idle_cycle_is_infinite(self):
        assert record_error_ratio(5, 0) == float("inf")
