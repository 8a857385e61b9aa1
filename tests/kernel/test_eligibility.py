"""Adapter eligibility: one test per remaining fallback reason.

The batched kernel now covers outage, quota, RSS, handover and
fault-schedule sessions, so the refusal list shrank to genuine
unsupported shapes (app hooks, extreme frame rates) and not-fresh state
that would make the lane's bulk counter installs wrong.  Each test builds a
real ScenarioRunner, perturbs the *minimal* piece of state that a given
check guards, and asserts the exact reason string — so a future
eligibility relaxation has to consciously delete a test, and an
accidental tightening shows up as a new fallback.
"""

from dataclasses import replace

import pytest

from repro.cellular.air import RateWindow
from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenarios import VRIDGE_DL, WEBCAM_UDP_UL
from repro.kernel.adapter import build_scenario_lane
from repro.netsim.faults import FaultSchedule, FaultSpec
from repro.netsim.packet import Direction, Packet

SHORT = dict(n_cycles=1, cycle_duration_s=5.0)


def make_runner(**overrides):
    return ScenarioRunner(WEBCAM_UDP_UL.with_(**overrides, **SHORT))


def reason_for(runner):
    lane, reason = build_scenario_lane(runner)
    assert lane is None
    return reason


class TestRefusals:
    def test_fps_above_bound(self):
        runner = make_runner(
            workload=replace(WEBCAM_UDP_UL.workload, fps=500.0)
        )
        assert "above the kernel bound" in reason_for(runner)

    def test_on_receive_hook(self):
        runner = make_runner()
        runner.device.on_receive = lambda packet: None
        assert reason_for(runner) == "application on_receive hook installed"

    def test_radio_disconnected(self):
        runner = make_runner()
        runner.access.radio.connected = False
        assert reason_for(runner) == "radio disconnected at simulate start"

    def test_uplink_buffer_not_empty(self):
        runner = make_runner()
        runner.access._ul_buffer.push(
            Packet(size=100, flow_id=runner.flow_id, direction=Direction.UPLINK)
        )
        assert reason_for(runner) == "uplink modem buffer is not empty"

    def test_rss_history_not_fresh(self):
        runner = make_runner(outage_eta=0.05)
        radio = runner.access.radio
        radio.rss_history.append(radio.rss_history[0])
        assert reason_for(runner) == "RSS history not fresh"

    def test_policer_already_installed(self):
        from repro.cellular.gateway import TokenBucket

        runner = make_runner()
        runner.network.spgw._policers[runner.flow_id] = TokenBucket(
            runner.loop, 64_000.0
        )
        assert reason_for(runner) == "token-bucket policer already installed"

    def test_ue_detached(self):
        runner = make_runner()
        runner.network.enodeb.ue(str(runner.device.imsi)).attached = False
        assert reason_for(runner) == "UE detached at simulate start"

    def test_downlink_buffer_not_empty(self):
        runner = make_runner()
        ue = runner.network.enodeb.ue(str(runner.device.imsi))
        ue.dl_buffer.push(
            Packet(size=100, flow_id=runner.flow_id, direction=Direction.DOWNLINK)
        )
        assert reason_for(runner) == "downlink buffer is not empty"

    def test_no_bearer(self):
        runner = make_runner()
        runner.flow_id = "missing-flow"
        assert reason_for(runner) == "no bearer for this flow"

    def test_bearer_inactive(self):
        runner = make_runner()
        runner.network.bearers.by_flow(runner.flow_id).active = False
        assert reason_for(runner) == "bearer inactive at simulate start"

    def test_air_foreground_busy(self):
        runner = make_runner()
        runner.network.enodeb.uplink_air._foreground[9] = RateWindow()
        assert (
            reason_for(runner) == "air interface already carries foreground traffic"
        )

    def test_workload_already_started(self):
        runner = make_runner()
        runner.workload.frames_sent = 1
        assert reason_for(runner) == "workload already started"

    def test_modem_counters_not_fresh(self):
        runner = make_runner()
        runner.access.modem.ul_sent.add(0.0, 10)
        assert reason_for(runner) == "modem counters not fresh"

    def test_bearer_counters_not_fresh(self):
        runner = make_runner()
        runner.network.bearers.by_flow(runner.flow_id).uplink.add(0.0, 10)
        assert reason_for(runner) == "bearer counters not fresh"

    def test_rrc_not_idle(self):
        runner = make_runner()
        runner.network.enodeb.ue(str(runner.device.imsi)).rrc.setups = 1
        assert reason_for(runner) == "RRC not idle at simulate start"

    def test_monitor_not_fresh(self):
        runner = make_runner()
        counter = runner.device.ul_monitor.counter
        counter._times.append(0.0)
        counter._cums.append(10)
        assert "not fresh" in reason_for(runner)
        assert "monitor" in reason_for(runner)

    def test_unrecognized_radio_event(self):
        runner = make_runner(outage_eta=0.05)
        runner.loop.schedule_at(1.0, runner.access.radio._end_outage)
        assert reason_for(runner) == "unrecognized radio event pending on the loop"

    def test_unrecognized_handover_event(self):
        runner = make_runner(handover_interval_s=5.0)
        runner.loop.schedule_at(1.0, runner.handover._complete_handover)
        assert (
            reason_for(runner) == "unrecognized handover event pending on the loop"
        )

    def test_foreign_pending_events(self):
        runner = make_runner()
        runner.loop.schedule_at(1.0, lambda: None)
        assert reason_for(runner) == "event loop already has pending events"

    def test_unrecognized_fault_injector_event(self):
        runner = make_runner(
            faults=FaultSchedule(specs=(FaultSpec("burst-loss", magnitude=0.1),))
        )
        runner.loop.schedule_at(1.0, runner.fault_injector._reset_modem,
                                runner.access.modem, "modem")
        # A _reset_modem scheduled by anything but attach_modem (no
        # COUNTER_RESET spec backs it) still absorbs fine; a genuinely
        # foreign injector method does not.
        runner.loop.schedule_at(2.0, runner.fault_injector._record,
                                2.0, "crash", "modem", "boom")
        assert (
            reason_for(runner)
            == "unrecognized fault-injector event pending on the loop"
        )


class TestReportSink:
    """The lane hands COUNTER CHECK reports to CounterCheckMonitor.ingest in
    one batch at flush, so any other sink keeps the reference engine."""

    REASON = "counter-check report sink is not a CounterCheckMonitor"

    def foreign_sink(self, runner):
        reports = []
        ue = runner.network.enodeb.ue(str(runner.device.imsi))
        ue.rrc.report_sink = reports.append
        return reports

    def test_refused_with_named_reason(self):
        runner = make_runner()
        self.foreign_sink(runner)
        assert reason_for(runner) == self.REASON

    def test_monitor_sink_resolves_the_monitor(self):
        runner = make_runner(outage_eta=0.05)
        lane, reason = build_scenario_lane(runner)
        assert reason is None
        assert lane.report_monitor is runner.counter_monitor

    def test_auto_falls_back(self):
        runner = ScenarioRunner(WEBCAM_UDP_UL.with_(**SHORT), kernel="auto")
        reports = self.foreign_sink(runner)
        runner.simulate()
        assert runner.kernel_used == "reference"
        assert runner.kernel_fallback_reason == self.REASON
        assert reports  # the reference engine fed the foreign sink live

    def test_strict_batched_raises(self):
        runner = ScenarioRunner(WEBCAM_UDP_UL.with_(**SHORT), kernel="batched")
        self.foreign_sink(runner)
        with pytest.raises(RuntimeError, match=self.REASON):
            runner.simulate()


class TestChaosEligibility:
    """Outage, quota, handover and fault sessions must build dynamic lanes."""

    def assert_general(self, runner, n_absorbed):
        lane, reason = build_scenario_lane(runner)
        assert reason is None
        assert lane.general is True
        assert len(lane.absorbed) == n_absorbed

    def test_plain_session_takes_fold_lane(self):
        lane, reason = build_scenario_lane(make_runner())
        assert reason is None
        assert lane.general is False
        assert lane.absorbed == ()

    def test_outage_session(self):
        # Absorbs the pending _begin_outage and _sample_rss chain heads.
        self.assert_general(make_runner(outage_eta=0.05), n_absorbed=2)

    def test_quota_session(self):
        self.assert_general(make_runner(quota_bytes=50_000), n_absorbed=0)

    def test_handover_session(self):
        # Absorbs the pending _begin_handover chain head.
        self.assert_general(make_runner(handover_interval_s=5.0), n_absorbed=1)

    def test_downlink_chaos_session(self):
        runner = ScenarioRunner(
            VRIDGE_DL.with_(
                outage_eta=0.05,
                quota_bytes=50_000,
                handover_interval_s=5.0,
                **SHORT,
            )
        )
        self.assert_general(runner, n_absorbed=3)

    def test_path_fault_session(self):
        runner = make_runner(
            faults=FaultSchedule(specs=(FaultSpec("burst-loss", magnitude=0.1),))
        )
        self.assert_general(runner, n_absorbed=0)

    def test_counter_reset_session(self):
        # The armed _reset_modem event is absorbed like outage/handover
        # chain heads; a reset-only schedule touches no path point, so
        # ``absorbed`` alone forces a dynamic lane.
        runner = make_runner(
            faults=FaultSchedule(
                specs=(FaultSpec("counter-reset", target="modem", start=2.0),)
            )
        )
        self.assert_general(runner, n_absorbed=1)

    def test_clock_only_faults_keep_fold_lane(self):
        # Skew/drift apply in the shared collect() phase; the lane never
        # sees them, so a clock-only schedule keeps the lane static.
        runner = make_runner(
            faults=FaultSchedule(
                specs=(
                    FaultSpec("clock-drift", target="edge-clock", magnitude=400e-6),
                    FaultSpec("clock-skew", target="operator-clock", magnitude=0.05),
                )
            )
        )
        lane, reason = build_scenario_lane(runner)
        assert reason is None
        assert lane.general is False

    def test_unmatched_path_faults_keep_fold_lane(self):
        # A path-kind spec whose glob matches neither lane point draws no
        # fault RNG in the reference either — the fold proof still holds.
        runner = make_runner(
            faults=FaultSchedule(
                specs=(FaultSpec("burst-loss", target="no-such-point", magnitude=0.5),)
            )
        )
        lane, reason = build_scenario_lane(runner)
        assert reason is None
        assert lane.general is False
