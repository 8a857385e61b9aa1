"""TLC's core: the loss-selfishness cancellation and its analysis.

Implements the paper's primary contribution — the charging model (Eq. 1),
Algorithm 1's negotiation, the negotiation strategies, the zero-sum game
analysis behind Theorems 2–4, the gap metrics of the evaluation, and the
Appendix-D generalization to non-edge charging.
"""

from .bargaining import RubinsteinStrategy, rubinstein_split
from .economics import Market, MarketConfig, MarketState, OperatorModel
from .game import GameInstance
from .gap import (
    SchemeOutcome,
    absolute_gap,
    expected_charge,
    gap_ratio,
    legacy_charge,
    reduction_ratio,
)
from .generic import GenericDownlinkInstance
from .negotiation import NegotiationEngine, NegotiationResult, RoundRecord
from .plan import ChargingCycle, DataPlan
from .quota import QuotaTrigger, QuotaWatcher
from .records import CycleUsage
from .strategies import (
    BoundViolatingStrategy,
    HonestStrategy,
    OptimalStrategy,
    PartyKnowledge,
    PartyRole,
    RandomSelfishStrategy,
    Strategy,
    StubbornStrategy,
    clamp_to_bounds,
)

__all__ = [
    "RubinsteinStrategy",
    "rubinstein_split",
    "Market",
    "MarketConfig",
    "MarketState",
    "OperatorModel",
    "GameInstance",
    "SchemeOutcome",
    "absolute_gap",
    "expected_charge",
    "gap_ratio",
    "legacy_charge",
    "reduction_ratio",
    "GenericDownlinkInstance",
    "NegotiationEngine",
    "NegotiationResult",
    "RoundRecord",
    "ChargingCycle",
    "DataPlan",
    "QuotaTrigger",
    "QuotaWatcher",
    "CycleUsage",
    "BoundViolatingStrategy",
    "HonestStrategy",
    "OptimalStrategy",
    "PartyKnowledge",
    "PartyRole",
    "RandomSelfishStrategy",
    "Strategy",
    "StubbornStrategy",
    "clamp_to_bounds",
]
