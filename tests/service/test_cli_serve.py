"""The ``repro serve`` subcommand and ``repro fleet --via-service``."""

import json

import pytest

from repro.experiments.cli import main


@pytest.fixture(autouse=True)
def _no_env_engine(monkeypatch):
    for var in ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_FAULT_PROFILE"):
        monkeypatch.delenv(var, raising=False)


FLEET_ARGS = ["--ues", "8", "--shard-size", "2", "--seed", "3", "--no-cache"]


class TestServe:
    def test_clean_soak_exits_zero(self, tmp_path, capsys):
        code = main(
            ["serve", *FLEET_ARGS, "--duration", "10",
             "--assert-clean", "--out-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "dropped claims   : 0" in out
        assert "crashed workers  : 0" in out

    def test_manifest_and_settlement_artifacts(self, tmp_path):
        settlement = tmp_path / "settlement.jsonl"
        code = main(
            ["serve", *FLEET_ARGS, "--duration", "10",
             "--settlement", str(settlement), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "serve.manifest.json").read_text())
        assert manifest["engine"]["claims_dropped"] == 0
        assert manifest["engine"]["crashed_workers"] == 0
        lines = [json.loads(l) for l in settlement.read_text().splitlines()]
        assert lines[-1]["type"] == "aggregate"
        assert sum(1 for l in lines if l["type"] == "ue") == 8

    def test_chaotic_ingestion_still_clean(self, tmp_path):
        code = main(
            ["serve", *FLEET_ARGS, "--duration", "60",
             "--ingest-fault-profile", "chaos",
             "--assert-clean", "--out-dir", str(tmp_path)]
        )
        assert code == 0

    def test_unknown_ingest_profile_is_usage_error(self, tmp_path):
        code = main(
            ["serve", *FLEET_ARGS, "--ingest-fault-profile", "nope",
             "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_zero_cycle_seconds_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["serve", *FLEET_ARGS, "--cycle-seconds", "0",
             "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "cycle duration must be positive" in capsys.readouterr().err


class TestFleetViaService:
    def test_aggregate_matches_batch_engine(self, tmp_path, capsys):
        args = ["fleet", *FLEET_ARGS, "--out-dir", str(tmp_path)]
        assert main(args) == 0
        batch = json.loads((tmp_path / "fleet.manifest.json").read_text())

        via = tmp_path / "via"
        assert main([*args[:-1], str(via), "--via-service"]) == 0
        service = json.loads((via / "fleet.manifest.json").read_text())

        def aggregate_sha(manifest):
            (entry,) = [
                a for a in manifest["artifacts"] if a["name"] == "fleet-aggregate"
            ]
            return entry["sha256"]

        assert aggregate_sha(service) == aggregate_sha(batch)

    def test_via_service_rejects_per_ue_csv(self, tmp_path):
        code = main(
            ["fleet", *FLEET_ARGS, "--via-service",
             "--per-ue-csv", str(tmp_path / "ue.csv"),
             "--out-dir", str(tmp_path)]
        )
        assert code == 2
