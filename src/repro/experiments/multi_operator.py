"""Multi-access edge extension (§8 of the paper).

Some edge deployments (V2X, self-driving) bond several operators' 4G/5G
networks for coverage.  TLC extends naturally: the edge classifies its
traffic per operator, installs each operator's tamper-resilient monitor,
and runs one independent negotiation per operator.  This module runs N
parallel single-operator scenarios with a traffic split and negotiates
each, verifying that per-operator charging sums to the expected total.

Beyond the scheme-level accounting, :meth:`MultiOperatorResult.settle`
runs the *real wire protocol* per operator and cycle — a full CDR/CDA/PoC
exchange signed with each operator's keypair — and returns a
:class:`MultiOperatorSettlement` whose receipts any third party can
audit with Algorithm 2 (:meth:`MultiOperatorSettlement.audit`).  The
reconciliation service (:mod:`repro.service`) accepts these receipts as
``poc`` claims.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

from ..core import (
    DataPlan,
    OptimalStrategy,
    PartyKnowledge,
    PartyRole,
)
from ..crypto.rsa import PrivateKey, PublicKey
from ..netsim import Direction, StreamRegistry
from ..poc.messages import PlanParams, Poc, Role
from ..poc.protocol import NegotiationDriver
from ..poc.verifier import PublicVerifier
from .runner import ScenarioResult, run_scenario
from .scenarios import ScenarioConfig


@dataclass(frozen=True)
class OperatorShare:
    """One operator's slice of the edge app's traffic."""

    operator: str
    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")


@dataclass
class MultiOperatorResult:
    """Per-operator scenario results plus the combined accounting."""

    per_operator: dict[str, ScenarioResult]

    def total_charged(self, scheme: str) -> int:
        """Sum of the scheme's charges across operators and cycles."""
        return sum(
            outcome.charged
            for result in self.per_operator.values()
            for outcome in result.outcomes[scheme]
        )

    def total_expected(self) -> float:
        """Sum of ground-truth charges across operators and cycles."""
        return sum(
            outcome.expected
            for result in self.per_operator.values()
            for outcome in result.outcomes["tlc-optimal"]
        )

    def combined_gap_ratio(self, scheme: str) -> float:
        """|total charged − total expected| / total expected."""
        expected = self.total_expected()
        if expected == 0:
            return 0.0
        return abs(self.total_charged(scheme) - expected) / expected

    def mean_rounds(self, scheme: str) -> float:
        """Mean negotiation rounds across all operators."""
        return statistics.mean(
            result.mean_rounds(scheme) for result in self.per_operator.values()
        )

    def settle(
        self,
        edge_key: PrivateKey,
        operator_keys: dict[str, PrivateKey],
        seed: int = 1,
    ) -> "MultiOperatorSettlement":
        """Run the signed wire protocol per (operator, cycle).

        Each operator's cycles negotiate through a real CDR/CDA/PoC
        exchange (both parties playing Algorithm 1's optimal strategy on
        their measured records), signed with that operator's keypair.
        """
        missing = set(self.per_operator) - set(operator_keys)
        if missing:
            raise ValueError(f"no keypair for operator(s): {', '.join(sorted(missing))}")
        receipts: dict[str, list[SettledCycle]] = {}
        for operator in sorted(self.per_operator):
            result = self.per_operator[operator]
            plan = DataPlan(
                c=result.config.c, cycle_duration_s=result.config.cycle_duration_s
            )
            rng = StreamRegistry(seed).stream(f"settle:{operator}")
            exchanges = settle_usages(
                plan, result.usages, edge_key, operator_keys[operator], rng
            )
            receipts[operator] = [
                SettledCycle(
                    operator=operator,
                    cycle_index=i,
                    volume=exchange.volume,
                    rounds=exchange.rounds,
                    plan_params=PlanParams(
                        usage.cycle.t_start, usage.cycle.t_end, plan.c
                    ),
                    poc=exchange.poc,
                )
                for i, (usage, exchange) in enumerate(exchanges)
            ]
        # Every operator shares one plan shape in a bonded deployment;
        # use the first (audit re-checks consistency receipt by receipt).
        any_config = next(iter(self.per_operator.values())).config
        return MultiOperatorSettlement(
            plan=DataPlan(
                c=any_config.c, cycle_duration_s=any_config.cycle_duration_s
            ),
            receipts=receipts,
            edge_public=edge_key.public,
            operator_publics={
                operator: key.public for operator, key in operator_keys.items()
            },
        )


def settle_usages(
    plan: DataPlan,
    usages: list,
    edge_key: PrivateKey,
    operator_key: PrivateKey,
    rng: random.Random,
) -> list[tuple[object, object]]:
    """Negotiate one signed PoC per usage record; returns (usage, exchange).

    Both parties play :class:`~repro.core.OptimalStrategy` on what they
    actually measured — the same knowledge split
    :func:`~repro.experiments.fleet_runner.evaluate_schemes` gives the
    ``tlc-optimal`` scheme — so the negotiated volume lands inside
    Theorem 2's bracket around the true usage.
    """
    settled = []
    for usage in usages:
        driver = NegotiationDriver(
            plan,
            usage.cycle.t_start,
            OptimalStrategy(
                PartyKnowledge(
                    PartyRole.EDGE,
                    usage.edge_sent_record,
                    usage.edge_received_estimate,
                )
            ),
            OptimalStrategy(
                PartyKnowledge(
                    PartyRole.OPERATOR,
                    usage.operator_received_record,
                    usage.operator_sent_estimate,
                )
            ),
            edge_key,
            operator_key,
            rng,
        )
        settled.append((usage, driver.run()))
    return settled


@dataclass(frozen=True)
class SettledCycle:
    """One signed, auditable settlement receipt."""

    operator: str
    cycle_index: int
    volume: int
    rounds: int
    plan_params: PlanParams
    poc: Poc


@dataclass
class MultiOperatorSettlement:
    """Signed receipts per operator, ready for third-party audit."""

    plan: DataPlan
    receipts: dict[str, list[SettledCycle]]
    edge_public: PublicKey
    operator_publics: dict[str, PublicKey]

    def total_volume(self) -> int:
        """Sum of negotiated volumes across all receipts."""
        return sum(r.volume for rs in self.receipts.values() for r in rs)

    def audit(self) -> list[tuple[str, int, str]]:
        """Run Algorithm 2 over every receipt with a fresh verifier.

        Returns the failures as ``(operator, cycle_index, reason)``
        tuples — empty means the whole settlement verifies.
        """
        verifier = PublicVerifier(self.plan)
        failures: list[tuple[str, int, str]] = []
        for operator in sorted(self.receipts):
            operator_public = self.operator_publics[operator]
            for receipt in self.receipts[operator]:
                report = verifier.verify(
                    receipt.poc,
                    receipt.plan_params,
                    self.edge_public,
                    operator_public,
                )
                if not report.ok:
                    failures.append(
                        (operator, receipt.cycle_index, report.failure.value)
                    )
                elif report.volume != receipt.volume:
                    failures.append(
                        (operator, receipt.cycle_index, "volume-mismatch")
                    )
        return failures


def run_multi_operator(
    base: ScenarioConfig,
    shares: list[OperatorShare],
    seed: int = 1,
    n_cycles: int = 6,
) -> MultiOperatorResult:
    """Split the workload across operators and negotiate each separately."""
    if abs(sum(s.fraction for s in shares) - 1.0) > 1e-9:
        raise ValueError("operator shares must sum to 1")
    per_operator: dict[str, ScenarioResult] = {}
    for i, share in enumerate(shares):
        workload = base.workload
        scaled = type(workload)(
            **{
                **workload.__dict__,
                "name": f"{workload.name}@{share.operator}",
                "mean_bitrate_bps": workload.mean_bitrate_bps * share.fraction,
            }
        )
        config = base.with_(
            name=f"{base.name}@{share.operator}",
            workload=scaled,
            seed=seed + i,
            n_cycles=n_cycles,
        )
        per_operator[share.operator] = run_scenario(config)
    return MultiOperatorResult(per_operator)
