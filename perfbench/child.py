"""One repeat of a benchmark run, in a fresh process: set up, measure, check.

    python3 perfbench/child.py --workload NAME --seed N --budget S --workdir DIR
        [--trace] [--cross-check] [--dump FILE]

``run.py`` starts this once per repeat.  The last line of standard output is
one JSON object with the repeat's metric samples (one per timed unit) and,
traced, its per-layer metrics; a failed check exits with code 1 before
anything is printed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def reset_peak_rss() -> None:
    """Lower VmHWM to the current RSS, so the peak is the measured phase's."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mib() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="CPU seconds the measured phase is sized to")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cross-check", action="store_true")
    parser.add_argument("--dump", type=Path)
    args = parser.parse_args(argv)

    import repro
    import tracer
    from client import CheckFailed
    from workloads import WORKLOADS, Bench

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")
    bench = Bench(args.seed, args.budget, args.workdir)
    WORKLOADS[args.workload](bench)
    setup_s = time.process_time()

    reset_peak_rss()
    try:
        start = time.process_time()
        measured = bench.measure(args.workdir / "pass")
        untraced_cpu_s = time.process_time() - start
        peak = peak_rss_mib()
        if args.cross_check:
            bench.check(measured)
        report = {
            "attempted": measured.attempted,
            "failed": measured.failed,
            "digest": measured.digest(),
            "samples": dict(measured.samples(), setup_s=[setup_s], peak_rss_mib=[peak]),
        }
        if args.trace:
            recorder = tracer.Recorder()
            bench.recorder = recorder
            with tracer.installed(recorder):
                start = time.process_time()
                traced = bench.measure(args.workdir / "traced")
                traced_cpu_s = time.process_time() - start
            if traced.digest() != measured.digest():
                raise CheckFailed("the traced pass changed the fleet aggregates")
            report["layers"] = tracer.layer_metrics(
                recorder, traced, traced_cpu_s / untraced_cpu_s
            )
            if args.dump is not None:
                recorder.dump(args.dump)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
