"""Algorithm 2: public verification of a Proof-of-Charging.

An independent third party (the paper suggests the FCC, courts, or an
MVNO) receives ``(PoC, T, c, K⁺_e, K⁺_o)`` and checks, without ever
seeing the data transfer:

1. both signatures in the chain verify under the advertised public keys;
2. the expected plan is the verifier's own ``(T, c)``, and every layer
   of the chain carries it;
3. the nonce trailer matches the chain and the sequence numbers cohere
   (replay defence) — and a stateful verifier additionally refuses to
   accept the same nonce pair twice;
4. replaying Algorithm 1's line 8 on the embedded claims reproduces the
   charged volume ``x``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.plan import DataPlan
from ..crypto.rsa import PublicKey
from .messages import Cda, Cdr, PlanParams, Poc, Role

#: How far a cycle's ``t_end - t_start`` may stray from the plan's cycle
#: length (float sums of cycle starts accumulate rounding error).
CYCLE_TOLERANCE_S = 1e-6


class VerificationFailure(enum.Enum):
    """Why a PoC was rejected (Algorithm 2's false branches)."""

    BAD_POC_SIGNATURE = "poc-signature"
    BAD_CDA_SIGNATURE = "cda-signature"
    BAD_CDR_SIGNATURE = "cdr-signature"
    ROLE_MISMATCH = "role-mismatch"
    PLAN_MISMATCH = "inconsistent-data-plan"
    NONCE_MISMATCH = "nonce-mismatch"
    SEQUENCE_MISMATCH = "sequence-mismatch"
    REPLAYED = "replayed-poc"
    VOLUME_MISMATCH = "volume-mismatch"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification request."""

    ok: bool
    failure: VerificationFailure | None = None
    volume: int | None = None
    edge_claim: int | None = None
    operator_claim: int | None = None


class PublicVerifier:
    """A third-party verifier with a replay registry."""

    def __init__(self, plan: DataPlan, metrics=None) -> None:
        self.plan = plan
        self._seen_nonces: set[bytes] = set()
        self.verified = 0
        self.rejected = 0
        self.metrics = metrics

    def verify(
        self,
        poc: Poc,
        expected_plan: PlanParams,
        edge_key: PublicKey,
        operator_key: PublicKey,
    ) -> VerificationReport:
        """Run Algorithm 2 on one PoC."""
        report = self._check(poc, expected_plan, edge_key, operator_key)
        if report.ok:
            self.verified += 1
        else:
            self.rejected += 1
        if self.metrics is not None:
            outcome = "ok" if report.ok else report.failure.value
            self.metrics.counter("poc.verify", outcome=outcome).inc()
        return report

    def _check(
        self,
        poc: Poc,
        expected_plan: PlanParams,
        edge_key: PublicKey,
        operator_key: PublicKey,
    ) -> VerificationReport:
        keys = {Role.EDGE: edge_key, Role.OPERATOR: operator_key}
        cda: Cda = poc.peer_cda
        cdr: Cdr = cda.peer_cdr

        # Chain roles must alternate: finalizer signs PoC over the peer's
        # CDA, which embeds the finalizer's own CDR.
        if cda.role is poc.role or cdr.role is not poc.role:
            return VerificationReport(False, VerificationFailure.ROLE_MISMATCH)

        # (1) Signatures, outermost first.
        if not poc.verify(keys[poc.role]):
            return VerificationReport(False, VerificationFailure.BAD_POC_SIGNATURE)
        if not cda.verify(keys[cda.role]):
            return VerificationReport(False, VerificationFailure.BAD_CDA_SIGNATURE)
        if not cdr.verify(keys[cdr.role]):
            return VerificationReport(False, VerificationFailure.BAD_CDR_SIGNATURE)

        # (2) Data-plan consistency: the caller's expected plan must be
        # this verifier's (T, c) — step (4) charges with it — and every
        # layer must carry it.
        if expected_plan.c != self.plan.c or abs(
            (expected_plan.t_end - expected_plan.t_start) - self.plan.cycle_duration_s
        ) > CYCLE_TOLERANCE_S:
            return VerificationReport(False, VerificationFailure.PLAN_MISMATCH)
        for plan in (poc.plan, cda.plan, cdr.plan):
            if plan != expected_plan:
                return VerificationReport(False, VerificationFailure.PLAN_MISMATCH)

        # (3) Replay defence: trailer nonces must match the chain, the
        # sequence numbers must cohere, and this nonce pair must be fresh.
        chain_nonces = {cda.role: cda.nonce, cdr.role: cdr.nonce}
        if (
            chain_nonces[Role.EDGE] != poc.nonce_edge
            or chain_nonces[Role.OPERATOR] != poc.nonce_operator
        ):
            return VerificationReport(False, VerificationFailure.NONCE_MISMATCH)
        if cda.seq != cdr.seq:
            return VerificationReport(False, VerificationFailure.SEQUENCE_MISMATCH)
        pair = poc.nonce_edge + poc.nonce_operator
        if pair in self._seen_nonces:
            return VerificationReport(False, VerificationFailure.REPLAYED)

        # (4) Replay the charging computation (Algorithm 1 line 8).
        edge_claim, operator_claim = poc.claims
        expected_volume = int(round(self.plan.charge(edge_claim, operator_claim)))
        if poc.volume != expected_volume:
            return VerificationReport(False, VerificationFailure.VOLUME_MISMATCH)

        self._seen_nonces.add(pair)
        return VerificationReport(
            True, None, volume=poc.volume,
            edge_claim=edge_claim, operator_claim=operator_claim,
        )
