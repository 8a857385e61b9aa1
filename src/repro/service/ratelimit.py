"""Per-vendor token-bucket rate limiting on the simulated clock.

The reconciliation service admits claims per *vendor* (an edge operator
peering with the charging operator); each vendor owns one bucket.  The
bucket is a pure function of the sequence of ``(now, tokens)`` calls it
sees — no wall clock, no background refill task — so admission decisions
are bit-deterministic and replayable.
"""

from __future__ import annotations

import math


class TokenBucket:
    """Classic token bucket: ``rate_hz`` tokens/s, capped at ``capacity``.

    ``try_acquire(now)`` refills lazily from the elapsed simulated time
    and either spends the tokens or refuses, spending nothing.  ``now``
    must be non-decreasing across calls (the simulation clock guarantees
    it).
    """

    __slots__ = ("rate_hz", "capacity", "tokens", "t_last")

    def __init__(self, rate_hz: float, capacity: float) -> None:
        if not 0 < rate_hz < math.inf:
            raise ValueError(f"refill rate must be positive and finite, got {rate_hz}")
        if not 0 < capacity < math.inf:
            raise ValueError(f"burst capacity must be positive and finite, got {capacity}")
        self.rate_hz = float(rate_hz)
        self.capacity = float(capacity)
        self.tokens = float(capacity)  # buckets start full: first claims pass
        self.t_last = 0.0

    def _refill(self, now: float) -> None:
        if now < self.t_last:
            raise ValueError(f"clock ran backwards: {now} < {self.t_last}")
        self.tokens = min(self.capacity, self.tokens + (now - self.t_last) * self.rate_hz)
        self.t_last = now

    def try_acquire(self, now: float, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if available at simulated time ``now``."""
        self._refill(now)
        if self.tokens + 1e-12 >= tokens:  # forgive float refill dust
            self.tokens -= tokens
            return True
        return False
