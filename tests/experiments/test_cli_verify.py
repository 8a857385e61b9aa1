"""The auditor CLI: ``python -m repro verify <ledger>``."""

import random

import pytest

from repro.core import DataPlan, OptimalStrategy, PartyKnowledge, PartyRole
from repro.crypto import generate_keypair
from repro.crypto.keyfiles import save_public_key
from repro.experiments.cli import main
from repro.poc import NegotiationDriver, PocLedger

PLAN = DataPlan(c=0.5, cycle_duration_s=60.0)


@pytest.fixture(scope="module")
def audit_setup(tmp_path_factory):
    base = tmp_path_factory.mktemp("audit")
    rng = random.Random(83)
    edge_key = generate_keypair(512, rng)
    operator_key = generate_keypair(512, rng)
    ledger = PocLedger(PLAN)
    for k in range(3):
        driver = NegotiationDriver(
            PLAN, k * 60.0,
            OptimalStrategy(PartyKnowledge(PartyRole.EDGE, 1_000_000, 900_000)),
            OptimalStrategy(PartyKnowledge(PartyRole.OPERATOR, 900_000, 1_000_000)),
            edge_key, operator_key, rng,
        )
        ledger.append(driver.run().poc)
    ledger_path = ledger.save(base / "receipts.jsonl")
    edge_pub = save_public_key(edge_key.public, base / "edge.pub")
    operator_pub = save_public_key(operator_key.public, base / "operator.pub")
    return ledger_path, edge_pub, operator_pub


class TestVerifyCommand:
    def test_clean_ledger_passes(self, audit_setup, capsys):
        ledger, edge_pub, operator_pub = audit_setup
        code = main([
            "verify", str(ledger),
            "--edge-key", str(edge_pub),
            "--operator-key", str(operator_pub),
            "--cycle-seconds", "60",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out
        assert "2,850,000" in out  # 3 × 950,000 verified bytes

    def test_swapped_keys_fail(self, audit_setup, capsys):
        ledger, edge_pub, operator_pub = audit_setup
        code = main([
            "verify", str(ledger),
            "--edge-key", str(operator_pub),
            "--operator-key", str(edge_pub),
            "--cycle-seconds", "60",
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_missing_key_file_is_usage_error(self, audit_setup, capsys):
        ledger, edge_pub, _ = audit_setup
        code = main([
            "verify", str(ledger),
            "--edge-key", str(edge_pub),
            "--operator-key", "/nonexistent.pub",
            "--cycle-seconds", "60",
        ])
        assert code == 2
        assert "cannot load keys" in capsys.readouterr().err

    @pytest.mark.parametrize("seconds", ["nan", "inf", "0"])
    def test_unusable_cycle_length_is_usage_error(self, audit_setup, capsys, seconds):
        ledger, edge_pub, operator_pub = audit_setup
        code = main([
            "verify", str(ledger),
            "--edge-key", str(edge_pub),
            "--operator-key", str(operator_pub),
            "--cycle-seconds", seconds,
        ])
        assert code == 2
        assert "cycle duration must be positive and finite" in capsys.readouterr().err

    def test_wrong_cycle_length_rejects_ledger(self, audit_setup, capsys):
        ledger, edge_pub, operator_pub = audit_setup
        code = main([
            "verify", str(ledger),
            "--edge-key", str(edge_pub),
            "--operator-key", str(operator_pub),
            "--cycle-seconds", "3600",
        ])
        assert code == 1
        assert "ledger rejected" in capsys.readouterr().err

    def test_ledger_under_another_c_fails_plan_check(self, tmp_path, capsys):
        # Receipts negotiated under c = 0.3 verify as a chain, but the
        # auditor's plan says c = 0.5: the plan check names the cause
        # before the volume replay can.
        rng = random.Random(84)
        edge_key = generate_keypair(512, rng)
        operator_key = generate_keypair(512, rng)
        plan = DataPlan(c=0.3, cycle_duration_s=60.0)
        ledger = PocLedger(plan)
        driver = NegotiationDriver(
            plan, 0.0,
            OptimalStrategy(PartyKnowledge(PartyRole.EDGE, 1_000_000, 900_000)),
            OptimalStrategy(PartyKnowledge(PartyRole.OPERATOR, 900_000, 1_000_000)),
            edge_key, operator_key, rng,
        )
        ledger.append(driver.run().poc)
        code = main([
            "verify", str(ledger.save(tmp_path / "receipts.jsonl")),
            "--edge-key", str(save_public_key(edge_key.public, tmp_path / "e.pub")),
            "--operator-key", str(save_public_key(operator_key.public, tmp_path / "o.pub")),
            "--cycle-seconds", "60",
            "--c", "0.5",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "cycle 0: inconsistent-data-plan" in out
