"""Command-line interface: regenerate the paper's evaluation.

``python -m repro list`` shows the available experiments;
``python -m repro run figure3 table2 ...`` regenerates them (or ``all``),
and ``--csv DIR`` additionally exports plot-ready CSV data.  Each
``run``/``report`` invocation writes a JSON run manifest under
``benchmarks/out/`` describing the artifacts it produced.

``python -m repro obs <run>`` renders the layer-by-layer accounting of
any cached scenario (or saved manifest); ``python -m repro baseline``
checks every golden figure/table quantity against
``benchmarks/baselines.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..obs import MetricsSnapshot, RunManifest, render_accounting
from . import export, figures, parallel
from .fleet import FleetConfig

#: Default artifact/manifest directory (the benchmark harness's layout).
DEFAULT_OUT_DIR = Path("benchmarks") / "out"

#: Default golden-baselines file.
DEFAULT_BASELINES = Path("benchmarks") / "baselines.json"


@dataclass(frozen=True)
class Experiment:
    """One reproducible evaluation artifact."""

    description: str
    run: Callable[[], object]
    render: Callable[[object], str]
    to_csv: Callable[[object, Path], None] | None = None


def _table_csv(name: str):
    def write(result, directory: Path) -> None:
        export.export_table(result, directory / f"{name}.csv")

    return write


EXPERIMENTS: dict[str, Experiment] = {
    "figure3": Experiment(
        "gap vs congestion (MB/hr)", figures.figure3,
        lambda r: r.render(), _table_csv("figure3"),
    ),
    "figure4": Experiment(
        "intermittent-connectivity time series", figures.figure4,
        lambda r: r.render(),
        lambda r, d: export.export_figure4(r, d / "figure4.csv"),
    ),
    "figure12": Experiment(
        "gap CDFs per scheme", figures.figure12,
        lambda r: r.render(),
        lambda r, d: export.export_cdfs(r, d),
    ),
    "table2": Experiment(
        "average charging gap", figures.table2,
        lambda r: r.render(), _table_csv("table2"),
    ),
    "figure13": Experiment(
        "gap ratio vs congestion", figures.figure13,
        lambda r: r.render(), _table_csv("figure13"),
    ),
    "figure14": Experiment(
        "gap ratio vs disconnectivity η", figures.figure14,
        lambda r: r.render(), _table_csv("figure14"),
    ),
    "figure15": Experiment(
        "charge reduction vs plan c", figures.figure15,
        figures.render_figure15,
        lambda r, d: export.export_curves(r, d / "figure15.csv", "mu_percent"),
    ),
    "figure16a": Experiment(
        "in-cycle RTT with/without TLC", figures.figure16a,
        lambda r: r.render(), _table_csv("figure16a"),
    ),
    "figure16b": Experiment(
        "negotiation rounds", figures.figure16b,
        lambda r: r.render(), _table_csv("figure16b"),
    ),
    "figure17": Experiment(
        "PoC negotiation/verification cost", figures.figure17,
        lambda r: r.render(), _table_csv("figure17"),
    ),
    "figure18": Experiment(
        "charging-record accuracy", figures.figure18,
        lambda r: r.render(), _table_csv("figure18"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TLC (SIGCOMM'19) reproduction: regenerate evaluation figures/tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    def add_engine_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="simulate scenarios on N worker processes "
            "(default: $REPRO_WORKERS or serial)",
        )
        p.add_argument(
            "--cache-dir", metavar="DIR", default=None,
            help="content-addressed scenario result cache "
            "(default: $REPRO_CACHE_DIR or no cache)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="disable the scenario result cache for this invocation",
        )
        p.add_argument(
            "--fault-profile", metavar="NAME", default=None,
            help="run every scenario under a named deterministic fault "
            "schedule (see repro.netsim.faults.FAULT_PROFILES; "
            "default: $REPRO_FAULT_PROFILE or none)",
        )
        p.add_argument(
            "--kernel", choices=("auto", "batched", "reference"), default=None,
            help="simulation kernel: auto batches eligible UEs on the "
            "flat-state kernel (bit-identical, ~10x faster), reference "
            "forces the per-packet engine, batched raises if ineligible "
            "(default: $REPRO_SIM_KERNEL or auto)",
        )

    def add_artifact_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--out-dir", metavar="DIR", default=str(DEFAULT_OUT_DIR),
            help=f"artifact + manifest directory (default: {DEFAULT_OUT_DIR})",
        )
        p.add_argument(
            "--no-manifest", action="store_true",
            help="print only; do not write artifacts or a run manifest",
        )

    def add_population_options(p: argparse.ArgumentParser, ues: int | None) -> None:
        """The flags :func:`_fleet_config` reads; ``ues=None`` makes
        ``--ues`` required, the other defaults are ``FleetConfig``'s."""
        p.add_argument(
            "--ues", type=int, default=ues, required=ues is None, metavar="N",
            help="population size (number of simulated subscribers"
            + ("" if ues is None else f"; default: {ues}") + ")",
        )
        defaults = {f.name: f.default for f in dataclasses.fields(FleetConfig)}
        for flag, field, kind, metavar, text in (
            ("--shard-size", "shard_size", int, "K", "UEs simulated together per shard"),
            ("--seed", "seed", int, None, "fleet seed"),
            ("--cycles", "n_cycles", int, "N", "charging cycles per UE"),
            ("--cycle-seconds", "cycle_duration_s", float, "S", "charging cycle length"),
            ("--zipf", "zipf_s", float, "S",
             "Zipf popularity exponent over the archetype mix"),
        ):
            p.add_argument(
                flag, type=kind, default=defaults[field], metavar=metavar,
                help=f"{text} (default: {defaults[field]:g})",
            )
        p.add_argument(
            "--mix", metavar="A,B,...", default=None,
            help="comma-separated workload archetypes in popularity order "
            "(default: the built-in five-archetype mix)",
        )

    report = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report.add_argument(
        "--out", metavar="FILE", default="REPORT.md",
        help="report path (default: REPORT.md)",
    )
    add_engine_options(report)
    verify = sub.add_parser(
        "verify", help="audit a saved PoC ledger as an independent third party"
    )
    verify.add_argument("ledger", help="ledger file (JSON lines of PoC receipts)")
    verify.add_argument("--edge-key", required=True, help="edge vendor's public key file")
    verify.add_argument("--operator-key", required=True, help="operator's public key file")
    verify.add_argument("--c", type=float, default=0.5, help="data plan's lost-data weight")
    verify.add_argument(
        "--cycle-seconds", type=float, default=3600.0, help="charging cycle length"
    )
    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment names ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    run.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also export plot-ready CSV data into DIR",
    )
    add_artifact_options(run)
    add_engine_options(run)

    fleet = sub.add_parser(
        "fleet", help="population-scale sweep: N UEs sharded over the engine"
    )
    add_population_options(fleet, ues=None)
    fleet.add_argument(
        "--outage-eta", type=float, default=None, metavar="ETA",
        help="chaos profile: disconnectivity fraction applied to every UE "
        "(default: archetype radios stay outage-free)",
    )
    fleet.add_argument(
        "--handover-interval", type=float, default=None, metavar="S",
        help="chaos profile: mean seconds between handovers for every UE "
        "(default: no mobility)",
    )
    fleet.add_argument(
        "--handover-x2", action="store_true",
        help="forward buffered downlink over X2 during handovers",
    )
    fleet.add_argument(
        "--quota-bytes", type=int, default=None, metavar="B",
        help="chaos profile: PCRF quota after which every flow throttles "
        "(default: unthrottled plans)",
    )
    fleet.add_argument(
        "--per-ue-csv", metavar="FILE", default=None,
        help="stream one CSV row per UE to FILE while aggregating",
    )
    fleet.add_argument(
        "--accounting", action="store_true",
        help="also render the merged layer-by-layer accounting table",
    )
    add_artifact_options(fleet)
    fleet.add_argument(
        "--via-service", action="store_true",
        help="replay the fleet through the reconciliation service as "
        "claim traffic instead of the batch engine (same aggregate, "
        "bit for bit)",
    )
    add_engine_options(fleet)

    serve = sub.add_parser(
        "serve",
        help="run the charging-reconciliation service under a sustained "
        "fleet-replay load (simulated clock)",
    )
    add_population_options(serve, ues=48)
    serve.add_argument(
        "--duration", type=float, default=60.0, metavar="S",
        help="simulated seconds the claim arrivals are spread over "
        "(default: 60)",
    )
    serve.add_argument(
        "--vendors", type=int, default=4, metavar="N",
        help="distinct vendors submitting claims (default: 4)",
    )
    serve.add_argument(
        "--service-workers", type=int, default=2, metavar="N",
        help="settlements in flight at once (default: 2)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="ingestion queue capacity before backpressure (default: 16)",
    )
    serve.add_argument(
        "--pool-workers", type=int, default=0, metavar="N",
        help="offload shard simulation to an N-process pool "
        "(default: 0 = settle inline)",
    )
    serve.add_argument(
        "--vendor-rate", type=float, default=8.0, metavar="HZ",
        help="token-bucket refill rate per vendor (default: 8/s)",
    )
    serve.add_argument(
        "--vendor-burst", type=float, default=16.0, metavar="N",
        help="token-bucket capacity per vendor (default: 16)",
    )
    serve.add_argument(
        "--ingest-fault-profile", metavar="NAME", default=None,
        help="degrade the ingestion path itself with a named fault "
        "profile (see repro.netsim.faults.FAULT_PROFILES)",
    )
    serve.add_argument(
        "--settlement", metavar="FILE", default=None,
        help="also stream the settlement ledger (JSON lines) to FILE",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="resume a killed run from the --settlement ledger's "
        "write-ahead journal instead of starting fresh",
    )
    serve.add_argument(
        "--assert-clean", action="store_true",
        help="exit 1 unless every claim settled and no worker crashed "
        "(the soak gate)",
    )
    add_artifact_options(serve)
    add_engine_options(serve)

    obs = sub.add_parser(
        "obs", help="layer-by-layer byte/drop accounting of a cached run"
    )
    obs.add_argument(
        "run", nargs="?", default=None,
        help="cache-key prefix of a cached scenario, or a path to a "
        "cached-result/manifest JSON file",
    )
    obs.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="scenario cache to search (default: $REPRO_CACHE_DIR "
        "or benchmarks/.cache)",
    )
    obs.add_argument(
        "--list", action="store_true", dest="list_runs",
        help="list cached runs instead of rendering one",
    )

    baseline = sub.add_parser(
        "baseline", help="check or regenerate the golden figure baselines"
    )
    baseline.add_argument(
        "--path", metavar="FILE", default=str(DEFAULT_BASELINES),
        help=f"baselines file (default: {DEFAULT_BASELINES})",
    )
    baseline.add_argument(
        "--update", action="store_true",
        help="re-run every golden experiment and rewrite the baselines "
        "(default is to check against the recorded values)",
    )
    add_engine_options(baseline)
    return parser


def _configure_engine(args) -> None:
    """Apply --workers/--cache-dir/--no-cache/--fault-profile/--kernel on
    top of the env defaults; ``args.fault_profile`` then holds the profile
    in force, which ``fleet`` and ``serve`` write into their FleetConfig.
    Raises ``ValueError`` (a usage error) on a bad ``REPRO_*`` value."""
    import os

    from ..kernel import resolve_kernel

    if args.kernel is not None:
        # Runners (including worker processes) resolve the kernel from
        # this env var at simulate time.
        os.environ["REPRO_SIM_KERNEL"] = args.kernel
    resolve_kernel()
    env = parallel.env_settings()
    workers = env["workers"] if args.workers is None else args.workers
    cache_dir = None if args.no_cache else args.cache_dir or env["cache_dir"]
    args.fault_profile = args.fault_profile or env["fault_profile"]
    parallel.configure(workers, cache_dir, args.fault_profile)


def _manifest(args, name: str, command: str) -> RunManifest | None:
    """The run's manifest with its engine block, or None under --no-manifest."""
    if args.no_manifest:
        return None
    manifest = RunManifest(name=name, out_dir=Path(args.out_dir), command=command)
    manifest.record_engine(
        workers=parallel._default_workers,
        cache_dir=(
            str(parallel._default_cache.directory)
            if parallel._default_cache is not None else None
        ),
    )
    return manifest


def _fleet_config(args) -> FleetConfig:
    """The population that ``fleet``'s or ``serve``'s flags describe.

    Raises ``ValueError`` (a usage error) on an out-of-range value.
    """
    extra = {}
    if args.mix:
        extra["mix"] = tuple(name.strip() for name in args.mix.split(",") if name.strip())
    if args.command == "fleet":
        # Only a batch sweep stamps the chaos overrides on every UE (and
        # so into the shard cache keys).
        extra.update(
            outage_eta=args.outage_eta,
            handover_interval_s=args.handover_interval,
            handover_x2=args.handover_x2,
            quota_bytes=args.quota_bytes,
        )
    return FleetConfig(
        ues=args.ues,
        shard_size=args.shard_size,
        seed=args.seed,
        n_cycles=args.cycles,
        cycle_duration_s=args.cycle_seconds,
        zipf_s=args.zipf,
        # Resolved by _configure_engine: the flag, else REPRO_FAULT_PROFILE.
        fault_profile=args.fault_profile,
        **extra,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, experiment in EXPERIMENTS.items():
            print(f"{name:<{width}}  {experiment.description}")
        return 0

    if args.command == "verify":
        return _verify_ledger(args)

    try:
        if args.command == "obs":
            args.cache_dir = _default_cache_dir(args.cache_dir)
        else:
            _configure_engine(args)
        if args.command in ("fleet", "serve"):
            fleet_config = _fleet_config(args)
    except ValueError as exc:  # e.g. an unknown --fault-profile, --cycles 0
        print(str(exc), file=sys.stderr)
        return 2
    if args.command == "obs":
        return _show_obs(args)
    if args.command == "fleet":
        return _run_fleet(args, fleet_config)
    if args.command == "serve":
        return _run_serve(args, fleet_config)
    if args.command == "report":
        return _write_report(Path(args.out))
    if args.command == "baseline":
        return _run_baselines(args)
    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    csv_dir = Path(args.csv) if args.csv else None
    manifest = _manifest(args, "run", "repro run " + " ".join(names))
    for name in names:
        experiment = EXPERIMENTS[name]
        started = time.time()
        print(f"=== {name} ===")
        result = experiment.run()
        rendered = experiment.render(result)
        print(rendered)
        if manifest is not None:
            manifest.write_text(name, rendered)
        if csv_dir is not None and experiment.to_csv is not None:
            experiment.to_csv(result, csv_dir)
            print(f"[csv -> {csv_dir}]")
        print(f"[{time.time() - started:.1f}s]\n")
    if manifest is not None:
        print(f"[manifest -> {manifest.save()}]")
    return 0


def _verify_ledger(args) -> int:
    """The auditor's path: load keys + ledger, run Algorithm 2 over all."""
    from ..core.plan import DataPlan
    from ..crypto.keyfiles import load_public_key
    from ..crypto.signing import SignatureError
    from ..poc.ledger import PocLedger
    from ..poc.messages import MessageError

    try:
        edge_key = load_public_key(args.edge_key)
        operator_key = load_public_key(args.operator_key)
    except (SignatureError, OSError) as exc:
        print(f"cannot load keys: {exc}", file=sys.stderr)
        return 2
    try:
        plan = DataPlan(c=args.c, cycle_duration_s=args.cycle_seconds)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        ledger = PocLedger.load(args.ledger, plan)
    except (ValueError, MessageError, OSError) as exc:
        print(f"ledger rejected: {exc}", file=sys.stderr)
        return 1
    report = ledger.audit(edge_key, operator_key)
    print(f"receipts checked : {report.entries_checked}")
    print(f"verified volume  : {report.total_volume:,} bytes")
    if report.ok:
        print("audit            : OK — every receipt verifies (Algorithm 2)")
        return 0
    print("audit            : FAILED")
    for cycle_index, failure in report.failures:
        print(f"  cycle {cycle_index}: {failure.value}")
    return 1


def _run_fleet(args, fleet_config: FleetConfig) -> int:
    """The ``repro fleet`` subcommand: sharded population sweep."""
    import csv

    from .fleet import run_fleet
    from .runner import SCHEMES

    if args.via_service and args.per_ue_csv:
        # The service streams per-UE rows into its settlement ledger
        # instead; use `repro serve --settlement` for that view.
        print("--via-service does not support --per-ue-csv", file=sys.stderr)
        return 2

    csv_file = None
    writer = None
    ue_sink = None
    if args.per_ue_csv:
        csv_path = Path(args.per_ue_csv)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_file = csv_path.open("w", newline="")
        writer = csv.writer(csv_file)
        writer.writerow(
            ["ue", "archetype", "flow_id", "cycles", "bitrate_bps"]
            + [f"gap_mb_hr_{s}" for s in SCHEMES]
            + [f"epsilon_{s}" for s in SCHEMES]
            + [f"rounds_{s}" for s in SCHEMES]
        )

        def ue_sink(row: dict) -> None:
            writer.writerow(
                [row["index"], row["archetype"], row["flow_id"],
                 row["cycles"], row["bitrate_bps"]]
                + [row["mean_gap_mb_hr"].get(s, "") for s in SCHEMES]
                + [row["mean_epsilon"].get(s, "") for s in SCHEMES]
                + [row["mean_rounds"].get(s, "") for s in SCHEMES]
            )

    started = time.time()
    report = parallel.RunReport()
    if args.via_service:
        from ..service import replay_fleet

        result, stats, service = replay_fleet(
            fleet_config, disk_cache=parallel._default_cache
        )
        if result is None:
            print(
                f"service replay dropped {stats.dropped} claims",
                file=sys.stderr,
            )
            return 1
        report = service.report
    else:
        try:
            result = run_fleet(fleet_config, report=report, ue_sink=ue_sink)
        finally:
            if csv_file is not None:
                csv_file.close()
    rendered = result.render()
    print(rendered)
    if args.via_service:
        print(
            f"[service: {stats.accepted} claims accepted, "
            f"{stats.retries} retries, {report.simulated} simulated, "
            f"{report.cached} cached]"
        )
    if args.per_ue_csv:
        print(f"[per-UE csv -> {args.per_ue_csv}]")
    if args.accounting:
        print()
        print(render_accounting(result.metrics, title=f"fleet of {result.population}"))
    try:
        import resource

        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"[{time.time() - started:.1f}s, peak rss {maxrss_kb / 1024:.0f} MiB]")
    except ImportError:  # pragma: no cover - non-POSIX platform
        print(f"[{time.time() - started:.1f}s]")
    manifest = _manifest(args, "fleet", f"repro fleet --ues {args.ues}")
    if manifest is not None:
        manifest.record_engine(
            shards_simulated=report.simulated, shards_cached=report.cached
        )
        manifest.write_text("fleet", rendered)
        manifest.write_text(
            "fleet-aggregate", json.dumps(result.to_dict(), indent=2, sort_keys=True)
        )
        manifest.attach_metrics(result.metrics)
        print(f"[manifest -> {manifest.save()}]")
    return 0


def _run_serve(args, fleet_config: FleetConfig) -> int:
    """The ``repro serve`` subcommand: service soak under fleet replay."""
    from ..netsim.faults import FAULT_PROFILES
    from ..service import (
        ReplayConfig,
        ServiceConfig,
        SettlementLedger,
        replay_fleet,
        resume_fleet_replay,
    )

    ingest_faults = None
    if args.ingest_fault_profile:
        ingest_faults = FAULT_PROFILES.get(args.ingest_fault_profile)
        if ingest_faults is None:
            print(
                f"unknown fault profile {args.ingest_fault_profile!r} "
                f"(known: {', '.join(sorted(FAULT_PROFILES))})",
                file=sys.stderr,
            )
            return 2
    try:
        replay_config = ReplayConfig(
            duration_s=args.duration,
            vendors=args.vendors,
            ingest_faults=ingest_faults,
        )
        service_config = ServiceConfig(
            workers=args.service_workers,
            queue_depth=args.queue_depth,
            vendor_rate_hz=args.vendor_rate,
            vendor_burst=args.vendor_burst,
            pool_workers=args.pool_workers,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.resume and not args.settlement:
        print("--resume needs --settlement FILE (the journal to replay)",
              file=sys.stderr)
        return 2

    started = time.time()
    if args.resume:
        result, stats, service = resume_fleet_replay(
            fleet_config,
            Path(args.settlement),
            replay=replay_config,
            service_config=service_config,
            disk_cache=parallel._default_cache,
        )
    else:
        ledger = None
        if args.settlement:
            settlement_path = Path(args.settlement)
            settlement_path.parent.mkdir(parents=True, exist_ok=True)
            ledger = SettlementLedger(settlement_path)
        result, stats, service = replay_fleet(
            fleet_config,
            replay=replay_config,
            service_config=service_config,
            disk_cache=parallel._default_cache,
            ledger=ledger,
        )
    crashed = service.crashed_workers()
    rejected = ", ".join(
        f"{reason}={count}" for reason, count in sorted(service.rejections.items())
    )
    print(f"claims submitted : {stats.submitted}")
    print(f"claims accepted  : {stats.accepted}")
    print(f"client retries   : {stats.retries}")
    print(f"recovery waves   : {stats.waves}")
    print(f"ingest faults    : lost={stats.lost} corrupted={stats.corrupted} "
          f"duplicated={stats.duplicated}")
    print(f"rejections       : {rejected or 'none'}")
    print(f"shards settled   : {service.report.simulated} simulated, "
          f"{service.report.cached} cached")
    print(f"cache            : {service.cache.hits_disk} hits, "
          f"{service.cache.misses} misses")
    print(f"dropped claims   : {stats.dropped}")
    print(f"crashed workers  : {len(crashed)}")
    snapshot = service.metrics.snapshot()
    for kind in ("shard", "poc", "probe"):
        key = f"service.latency{{kind={kind}}}"
        hist = snapshot.histograms.get(key)
        if hist and hist["count"]:
            pct = snapshot.percentiles(key)
            print(f"latency ({kind})  : p50={pct['p50']:.3f}s "
                  f"p95={pct['p95']:.3f}s p99={pct['p99']:.3f}s "
                  f"over {hist['count']} settlements (simulated time)")
    if result is not None:
        print()
        print(result.render())
    if args.settlement:
        print(f"[settlement -> {args.settlement}]")
    print(f"[{time.time() - started:.1f}s wall, "
          f"{service.loop.now():.1f}s simulated]")

    manifest = _manifest(
        args, "serve", f"repro serve --ues {args.ues} --duration {args.duration}"
    )
    if manifest is not None:
        manifest.record_engine(
            service_workers=args.service_workers,
            pool_workers=args.pool_workers,
            resumed=bool(args.resume),
            claims_submitted=stats.submitted,
            claims_accepted=stats.accepted,
            claims_dropped=stats.dropped,
            crashed_workers=len(crashed),
        )
        manifest.write_text("settlement", service.ledger.text())
        if result is not None:
            manifest.write_text("serve", result.render())
            manifest.write_text(
                "serve-aggregate",
                json.dumps(result.to_dict(), indent=2, sort_keys=True),
            )
        manifest.attach_metrics(service.metrics.snapshot())
        print(f"[manifest -> {manifest.save()}]")

    if args.assert_clean and (stats.dropped or crashed):
        print(
            f"soak gate failed: {stats.dropped} dropped claims, "
            f"{len(crashed)} crashed workers",
            file=sys.stderr,
        )
        return 1
    return 0


def _write_report(path: Path) -> int:
    """Run every experiment and assemble a single markdown report."""
    sections = [
        "# TLC reproduction report",
        "",
        "Auto-generated by `python -m repro report`: every table and figure",
        "of the paper's evaluation, regenerated on this machine.  Compare",
        "against the paper-vs-measured bands in EXPERIMENTS.md.",
        "",
    ]
    manifest = RunManifest(
        name="report", out_dir=DEFAULT_OUT_DIR, command=f"repro report --out {path}"
    )
    for name, experiment in EXPERIMENTS.items():
        started = time.time()
        print(f"running {name} ...", flush=True)
        rendered = experiment.render(experiment.run())
        manifest.write_text(name, rendered)
        sections.append(f"## {name} — {experiment.description}")
        sections.append("")
        sections.append("```")
        sections.append(rendered)
        sections.append("```")
        sections.append(f"*({time.time() - started:.1f}s)*")
        sections.append("")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(sections))
    manifest.save()
    print(f"report written to {path} (manifest: {manifest.path})")
    return 0


# -------------------------------------------------------- obs / baselines


def _default_cache_dir(override: str | None) -> Path | None:
    """``--cache-dir``, else the environment's cache (None when it is
    off), else the benchmark cache."""
    if override:
        return Path(override)
    cache_dir = parallel.env_settings(Path("benchmarks") / ".cache")["cache_dir"]
    return None if cache_dir is None else Path(cache_dir)


def _snapshot_from_file(path: Path) -> tuple[MetricsSnapshot, str]:
    """Metrics + display title from a cached result or a manifest JSON.

    Both file kinds carry a ``"metrics"`` section in the same encoding;
    cached results additionally know their scenario name.
    """
    data = json.loads(path.read_text())
    snapshot = MetricsSnapshot.from_dict(data.get("metrics", {}))
    title = path.name
    config = data.get("config")
    if isinstance(config, dict) and "name" in config:
        title = f"{config['name']} ({path.stem[:12]})"
    elif "name" in data:
        title = f"{data['name']} manifest"
    return snapshot, title


def _show_obs(args) -> int:
    """The ``repro obs`` subcommand: render per-layer accounting from
    ``args.cache_dir``, as :func:`_default_cache_dir` resolved it."""
    cache_dir = args.cache_dir
    where = f"under {cache_dir}" if cache_dir else "(REPRO_CACHE_DIR turns the cache off)"

    def cached(pattern: str) -> list[Path]:
        return sorted(cache_dir.glob(pattern)) if cache_dir and cache_dir.is_dir() else []

    if args.list_runs:
        entries = cached("*.json")
        if not entries:
            print(f"no cached runs {where}")
            return 0
        for entry in entries:
            try:
                data = json.loads(entry.read_text())
            except (OSError, ValueError):
                continue
            name = (data.get("config") or {}).get("name", "?")
            has_metrics = "yes" if data.get("metrics") else "no"
            print(f"{entry.stem[:16]}  {name:<24} metrics={has_metrics}")
        return 0
    if args.run is None:
        print("repro obs: give a cache-key prefix or a JSON path "
              "(or --list)", file=sys.stderr)
        return 2

    as_path = Path(args.run)
    if as_path.is_file():
        path = as_path
    else:
        matches = cached(f"{args.run}*.json")
        if not matches:
            print(
                f"no cached run matching {args.run!r} {where} "
                "(try: repro obs --list)",
                file=sys.stderr,
            )
            return 1
        if len(matches) > 1:
            print(
                f"ambiguous prefix {args.run!r}: "
                + ", ".join(m.stem[:16] for m in matches[:8]),
                file=sys.stderr,
            )
            return 1
        path = matches[0]
    try:
        snapshot, title = _snapshot_from_file(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 1
    print(render_accounting(snapshot, title=title))
    return 0


def _run_baselines(args) -> int:
    """The ``repro baseline`` subcommand: golden-figure gate / regenerate."""
    from ..obs import load_baselines, save_baselines
    from .goldens import build_baselines, check_all

    path = Path(args.path)
    if args.update:
        baselines = build_baselines()
        save_baselines(path, baselines, generator="repro baseline --update")
        print(f"{len(baselines)} baselines written to {path}")
        return 0
    try:
        baselines = load_baselines(path)
    except (OSError, ValueError) as exc:
        print(f"cannot load baselines from {path}: {exc}", file=sys.stderr)
        return 2
    checks = check_all(baselines)
    drifted = [c for c in checks if not c.ok]
    for check in checks:
        print(check.describe())
    print(f"\n{len(checks) - len(drifted)}/{len(checks)} within tolerance")
    return 1 if drifted else 0
