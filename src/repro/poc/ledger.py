"""A PoC ledger: multi-cycle receipts, audits, and dispute evidence.

Over months of service the parties accumulate one PoC per charging
cycle.  The ledger stores them in cycle order, audits the whole history
through the public verifier (each PoC must verify, bind consecutive
cycles, and never replay a nonce pair), and answers billing queries —
total charged volume, per-cycle breakdown — from nothing but the
receipts.  This is the artifact a court or the FCC would subpoena.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..core.plan import DataPlan
from ..crypto.rsa import PublicKey
from .messages import MessageError, PlanParams, Poc
from .verifier import (
    CYCLE_TOLERANCE_S,
    PublicVerifier,
    VerificationFailure,
    VerificationReport,
)


@dataclass(frozen=True)
class LedgerEntry:
    """One charging cycle's receipt."""

    cycle_index: int
    plan_params: PlanParams
    poc: Poc


@dataclass
class AuditReport:
    """Outcome of auditing an entire ledger."""

    ok: bool
    entries_checked: int
    total_volume: int
    failures: list[tuple[int, VerificationFailure]] = field(default_factory=list)


class PocLedger:
    """Cycle-ordered PoC storage with holistic auditing."""

    def __init__(self, plan: DataPlan) -> None:
        self.plan = plan
        self._entries: list[LedgerEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, poc: Poc) -> LedgerEntry:
        """Add the next cycle's PoC; cycles must be consecutive."""
        params = PlanParams(poc.plan.t_start, poc.plan.t_end, poc.plan.c)
        index = len(self._entries)
        if self._entries:
            previous = self._entries[-1].plan_params
            if params.t_start != previous.t_end:
                raise ValueError(
                    f"cycle {index} starts at {params.t_start}, expected "
                    f"{previous.t_end} (cycles must be consecutive)"
                )
        expected_duration = self.plan.cycle_duration_s
        if abs((params.t_end - params.t_start) - expected_duration) > CYCLE_TOLERANCE_S:
            raise ValueError(
                f"cycle {index} has duration {params.t_end - params.t_start}, "
                f"plan says {expected_duration}"
            )
        entry = LedgerEntry(index, params, poc)
        self._entries.append(entry)
        return entry

    def entry(self, cycle_index: int) -> LedgerEntry:
        """Fetch one cycle's receipt."""
        return self._entries[cycle_index]

    def total_volume(self) -> int:
        """Sum of negotiated charging volumes across all cycles."""
        return sum(entry.poc.volume for entry in self._entries)

    def volumes(self) -> list[int]:
        """Per-cycle charged volumes, in cycle order."""
        return [entry.poc.volume for entry in self._entries]

    # ----------------------------------------------------------- persistence

    def save(self, path: str | Path) -> Path:
        """Persist the ledger as JSON lines (PoCs base64-wire-encoded).

        The file is exactly what one party hands an auditor: receipts and
        nothing else — all integrity comes from re-verifying signatures.
        """
        path = Path(path)
        lines = []
        for entry in self._entries:
            lines.append(json.dumps({
                "cycle": entry.cycle_index,
                "t_start": entry.plan_params.t_start,
                "t_end": entry.plan_params.t_end,
                "c": entry.plan_params.c,
                "poc": base64.b64encode(entry.poc.encode()).decode("ascii"),
            }, separators=(",", ":")))
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    @classmethod
    def load(cls, path: str | Path, plan: DataPlan) -> "PocLedger":
        """Reload a saved ledger, re-validating structure on the way in.

        Raises :class:`ValueError` on malformed rows and
        :class:`~repro.poc.messages.MessageError` on undecodable PoCs;
        signature validity is the auditor's job (:meth:`audit`).
        """
        ledger = cls(plan)
        for line_number, line in enumerate(Path(path).read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                blob = base64.b64decode(row["poc"])
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ValueError(f"ledger line {line_number} malformed: {exc}") from exc
            poc = Poc.decode(blob)  # raises MessageError on corruption
            # Validate the row before mutating the ledger: appending first
            # would leave the bad entry behind when the index check fails.
            if row["cycle"] != len(ledger):
                raise ValueError(
                    f"ledger line {line_number}: cycle {row['cycle']} out of order"
                )
            ledger.append(poc)
        return ledger

    def audit(self, edge_key: PublicKey, operator_key: PublicKey) -> AuditReport:
        """Verify every receipt with a fresh third-party verifier.

        The shared verifier instance carries the replay registry across
        entries, so the same PoC appearing in two cycles is caught.
        """
        verifier = PublicVerifier(self.plan)
        failures: list[tuple[int, VerificationFailure]] = []
        total = 0
        for entry in self._entries:
            report: VerificationReport = verifier.verify(
                entry.poc, entry.plan_params, edge_key, operator_key
            )
            if report.ok:
                total += report.volume or 0
            else:
                assert report.failure is not None
                failures.append((entry.cycle_index, report.failure))
        return AuditReport(
            ok=not failures,
            entries_checked=len(self._entries),
            total_volume=total,
            failures=failures,
        )
