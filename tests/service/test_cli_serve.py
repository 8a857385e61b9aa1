"""The ``repro serve`` subcommand and ``repro fleet --via-service``."""

import json

import pytest

from repro.experiments import parallel
from repro.experiments.cli import main


@pytest.fixture(autouse=True)
def _no_env_engine(monkeypatch):
    for var in ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_FAULT_PROFILE"):
        monkeypatch.delenv(var, raising=False)
    # main() configures the process-wide engine; later tests get it back.
    for name in ("_default_workers", "_default_cache", "_default_faults", "_from_env"):
        monkeypatch.setattr(parallel, name, getattr(parallel, name))


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

    def test_non_finite_vendor_burst_is_usage_error(self, tmp_path, capsys):
        # A NaN burst used to turn claims away as rate-limited, and drop some.
        code = main(
            ["serve", *FLEET_ARGS, "--cycles", "1", "--cycle-seconds", "2",
             "--vendor-burst", "nan", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "burst capacity must be positive and finite, got nan" in capsys.readouterr().err


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


SMALL_ARGS = ["--ues", "4", "--shard-size", "2", "--seed", "7", "--cycles", "1",
              "--cycle-seconds", "5", "--no-cache"]


class TestFaultProfile:
    """A fleet's faults come from its FleetConfig, which the aggregate
    states: ``serve`` and ``fleet`` under one profile write the same one."""

    def aggregate(self, command, out_dir, *extra):
        args = [command, *SMALL_ARGS, *extra, "--out-dir", str(out_dir)]
        if command == "serve":
            args += ["--duration", "5"]
        assert main(args) == 0
        return json.loads((out_dir / f"{command}-aggregate.txt").read_text())

    def test_served_fleet_declares_the_profile_it_ran(self, tmp_path):
        fleet = self.aggregate("fleet", tmp_path / "fleet", "--fault-profile", "chaos")
        served = self.aggregate("serve", tmp_path / "serve", "--fault-profile", "chaos")
        assert served["config"]["fault_profile"] == "chaos"
        assert served == fleet

    def test_environment_profile_lands_in_the_fleet_config(self, tmp_path, monkeypatch):
        flag = self.aggregate("fleet", tmp_path / "flag", "--fault-profile", "chaos")
        monkeypatch.setenv("REPRO_FAULT_PROFILE", "chaos")
        env = self.aggregate("fleet", tmp_path / "env")
        assert env["config"]["fault_profile"] == "chaos"
        assert env == flag


class TestCacheOff:
    @pytest.mark.parametrize("off", ["off", "OFF", "0", "none", ""])
    def test_cache_dir_off_creates_no_directory(self, tmp_path, monkeypatch, off):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", off)
        args = ["fleet", *SMALL_ARGS[:-1], "--no-manifest"]
        assert main(args) == 0
        assert main(["obs", "--list"]) == 0
        assert list(tmp_path.iterdir()) == []
