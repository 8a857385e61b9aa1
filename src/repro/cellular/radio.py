"""Per-UE radio channel: signal strength, outages and air loss.

Reproduces the physical-layer mechanics behind the paper's Figure 4 and
Figure 14:

* an **outage process** alternates connected / disconnected periods.  The
  paper measured a mean wireless disconnectivity of 1.93 s; sweeping the
  mean uptime sets the intermittent-disconnectivity ratio
  ``η = t_disconn / t_total`` of Figure 14.
* a **received signal strength (RSS)** random walk around a base level;
  during outages the RSS collapses to the outage floor (the gray areas of
  Figure 4 where RSS ≈ −125 dBm).
* a **loss-vs-RSS curve**: no signal-induced loss at or above −95 dBm (the
  paper's "good radio" threshold), ramping linearly below it, plus a small
  constant PHY floor capturing residual air losses.

Outage transitions notify listeners (the eNodeB buffers downlink traffic
and arms the radio-link-failure timer; the modem pauses uplink).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..netsim.events import EventLoop
from ..netsim.rng import StreamRegistry

GOOD_RSS_DBM = -95.0
OUTAGE_FLOOR_DBM = -125.0


@dataclass
class RadioProfile:
    """Configuration of one UE's radio environment."""

    base_rss_dbm: float = -85.0
    rss_noise_std: float = 3.0
    rss_floor_dbm: float = -124.0
    rss_ceiling_dbm: float = -70.0
    # Outage process; mean_outage_s matches the paper's measured 1.93 s.
    outages_enabled: bool = False
    mean_outage_s: float = 1.93
    mean_uptime_s: float = 60.0
    # Loss model while connected.
    base_loss: float = 0.0
    loss_at_floor: float = 0.35
    rss_sample_interval_s: float = 1.0

    @property
    def disconnectivity_ratio(self) -> float:
        """Long-run fraction of time spent in outage, η."""
        if not self.outages_enabled:
            return 0.0
        return self.mean_outage_s / (self.mean_outage_s + self.mean_uptime_s)

    @classmethod
    def for_disconnectivity(cls, eta: float, mean_outage_s: float = 1.93, **kw) -> "RadioProfile":
        """Build a profile with outage ratio ``eta`` (0 < eta < 1)."""
        if not 0.0 < eta < 1.0:
            raise ValueError(f"eta must be in (0, 1), got {eta}")
        mean_uptime = mean_outage_s * (1.0 - eta) / eta
        return cls(
            outages_enabled=True,
            mean_outage_s=mean_outage_s,
            mean_uptime_s=mean_uptime,
            **kw,
        )


@dataclass
class RssSample:
    """One point of the recorded RSS time series (Figure 4 bottom panel)."""

    t: float
    rss_dbm: float
    connected: bool


class RadioChannel:
    """The live radio state of one UE."""

    def __init__(
        self,
        loop: EventLoop,
        rng: StreamRegistry,
        profile: RadioProfile,
        name: str = "ue",
        record_rss: bool = False,
    ) -> None:
        self.loop = loop
        self.profile = profile
        self.name = name
        self._rng = rng.stream(f"radio:{name}")
        self.connected = True
        self._current_rss = profile.base_rss_dbm
        self._outage_started_at: float | None = None
        self.total_outage_time = 0.0
        self.outage_count = 0
        self._started_at = loop.now()
        self.on_outage_start: list[Callable[[], None]] = []
        self.on_outage_end: list[Callable[[], None]] = []
        self.record_rss = record_rss
        self.rss_history: list[RssSample] = []
        self._started = False

    def close(self) -> None:
        """Drop the outage callbacks, which refer back to their owners."""
        self.on_outage_start.clear()
        self.on_outage_end.clear()

    def start(self) -> None:
        """Begin the outage process and RSS sampling."""
        if self._started:
            raise RuntimeError(f"radio {self.name!r} already started")
        self._started = True
        self._started_at = self.loop.now()
        if self.profile.outages_enabled:
            self._schedule_outage_start()
        if self.record_rss:
            self._sample_rss()

    # ------------------------------------------------------------------ RSS

    def current_rss(self) -> float:
        """Instantaneous RSS in dBm (outage floor while disconnected)."""
        if not self.connected:
            return OUTAGE_FLOOR_DBM
        return self._current_rss

    def _walk_rss(self) -> None:
        p = self.profile
        step = self._rng.gauss(0.0, p.rss_noise_std)
        # Mean-reverting walk around the base level.
        drift = 0.25 * (p.base_rss_dbm - self._current_rss)
        self._current_rss = min(
            p.rss_ceiling_dbm, max(p.rss_floor_dbm, self._current_rss + drift + step)
        )

    def _sample_rss(self) -> None:
        self._walk_rss()
        self.rss_history.append(
            RssSample(self.loop.now(), self.current_rss(), self.connected)
        )
        self.loop.schedule(self.profile.rss_sample_interval_s, self._sample_rss)

    # ------------------------------------------------------------- outages

    def _schedule_outage_start(self) -> None:
        uptime = self._rng.expovariate(1.0 / self.profile.mean_uptime_s)
        self.loop.schedule(uptime, self._begin_outage)

    def _begin_outage(self) -> None:
        if not self.connected:
            return
        self.connected = False
        self.outage_count += 1
        self._outage_started_at = self.loop.now()
        for callback in self.on_outage_start:
            callback()
        outage = self._rng.expovariate(1.0 / self.profile.mean_outage_s)
        self.loop.schedule(outage, self._end_outage)

    def _end_outage(self) -> None:
        if self.connected:
            return
        self.connected = True
        if self._outage_started_at is not None:
            self.total_outage_time += self.loop.now() - self._outage_started_at
            self._outage_started_at = None
        for callback in self.on_outage_end:
            callback()
        self._schedule_outage_start()

    def force_outage_start(self) -> bool:
        """Begin an externally-imposed outage (e.g. a handover interruption).

        Goes through the channel's own bookkeeping — ``outage_count``,
        the outage timer and the start callbacks — but draws nothing and
        schedules nothing, so the natural outage process's RNG stream is
        untouched.  Returns False (no-op) if already disconnected.
        """
        if not self.connected:
            return False
        self.connected = False
        self.outage_count += 1
        self._outage_started_at = self.loop.now()
        for callback in self.on_outage_start:
            callback()
        return True

    def force_outage_end(self) -> bool:
        """End a forced outage; counterpart of :meth:`force_outage_start`.

        Accumulates ``total_outage_time`` and fires the end callbacks,
        without rescheduling the natural outage process.  Returns False
        (no-op) if already connected.
        """
        if self.connected:
            return False
        self.connected = True
        if self._outage_started_at is not None:
            self.total_outage_time += self.loop.now() - self._outage_started_at
            self._outage_started_at = None
        for callback in self.on_outage_end:
            callback()
        return True

    def outage_elapsed(self) -> float:
        """Seconds the current outage has lasted (0 when connected)."""
        if self.connected or self._outage_started_at is None:
            return 0.0
        return self.loop.now() - self._outage_started_at

    def measured_disconnectivity(self) -> float:
        """Observed η over the run so far (includes any ongoing outage)."""
        elapsed = self.loop.now() - self._started_at
        if elapsed <= 0:
            return 0.0
        down = self.total_outage_time + self.outage_elapsed()
        return down / elapsed

    # ----------------------------------------------------------------- loss

    def loss_probability(self) -> float:
        """Air-loss probability for one packet at the current RSS."""
        p = self.profile
        rss = self.current_rss()
        if rss >= GOOD_RSS_DBM:
            return p.base_loss
        span = GOOD_RSS_DBM - p.rss_floor_dbm
        frac = min(1.0, (GOOD_RSS_DBM - rss) / span)
        return min(1.0, p.base_loss + frac * p.loss_at_floor)

    def survives_air(self) -> bool:
        """Sample one air transmission; False means the packet is lost."""
        self._walk_rss()
        return self._rng.random() >= self.loss_probability()
