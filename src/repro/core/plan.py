"""Data plans and the charging formula (Equation 1 of the paper).

A plan fixes the lost-data charging weight ``c ∈ [0, 1]`` and the charging
cycle: ``c = 0`` charges only what the edge node received, ``c = 1``
charges everything sent.  The paper is neutral on ``c`` — it is whatever
the data plan says — and so are we; every experiment sweeps it.

The negotiated charging volume (Algorithm 1, line 8) is

    x = x_o + c·(x_e − x_o)   if x_o ≤ x_e
    x = x_e + c·(x_o − x_e)   otherwise

symmetric in the claims, so the rational claim flip (edge claims the
received volume, operator claims the sent volume) lands on the same value
as honest claims do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ChargingCycle:
    """One charging cycle ``T = (T_start, T_end]`` in virtual seconds."""

    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        if self.t_end <= self.t_start:
            raise ValueError(f"empty charging cycle: ({self.t_start}, {self.t_end}]")

    @property
    def duration(self) -> float:
        """Cycle length in seconds."""
        return self.t_end - self.t_start

    def contains(self, t: float) -> bool:
        """Membership in the half-open interval ``(t_start, t_end]``."""
        return self.t_start < t <= self.t_end


@dataclass(frozen=True)
class DataPlan:
    """The agreement between the edge app vendor and the operator.

    Only ``c`` and the cycle length enter TLC's protocol; price, quota and
    throttle speed ride along for the PCRF policy layer.
    """

    c: float = 0.5
    cycle_duration_s: float = 3600.0
    price_per_gb: float = 10.0
    quota_bytes: int | None = None
    throttle_bps: float = 128_000.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"charging weight c must be in [0, 1], got {self.c}")
        if not 0 < self.cycle_duration_s < math.inf:
            raise ValueError(
                f"cycle duration must be positive and finite, got {self.cycle_duration_s}"
            )

    def charge(self, x_e: float, x_o: float) -> float:
        """Negotiated charging volume for a claim pair (Algorithm 1 line 8)."""
        if x_e < 0 or x_o < 0:
            raise ValueError(f"claims must be non-negative, got ({x_e}, {x_o})")
        if x_o <= x_e:
            return x_o + self.c * (x_e - x_o)
        return x_e + self.c * (x_o - x_e)

    def expected_charge(self, x_hat_e: float, x_hat_o: float) -> float:
        """Ground-truth charging volume ``x̂ = x̂_o + c·(x̂_e − x̂_o)`` (Eq. 1)."""
        if x_hat_o > x_hat_e:
            raise ValueError(
                f"ground truth requires x̂_o ≤ x̂_e, got ({x_hat_e}, {x_hat_o})"
            )
        return x_hat_o + self.c * (x_hat_e - x_hat_o)

    def cycles(self, n: int, t_start: float = 0.0) -> list[ChargingCycle]:
        """The first ``n`` consecutive charging cycles starting at ``t_start``."""
        if n < 0:
            raise ValueError(f"cycle count must be non-negative, got {n}")
        return [
            ChargingCycle(
                t_start + i * self.cycle_duration_s,
                t_start + (i + 1) * self.cycle_duration_s,
            )
            for i in range(n)
        ]
