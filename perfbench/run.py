"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload fleet-steady --seed 1 --seconds 12 --trace 0

A run is ``REPEATS`` fresh child processes (``child.py``), started one after
another so the load always comes from one single-threaded process: the host
has two cores shared with others, and process CPU time is the clock every
metric uses.  Each child sets up the workload from the seed, measures a
phase sized to ``seconds / REPEATS`` CPU seconds, and checks its outputs.
Every timed unit of a child (one ``run_fleet`` call, one settlement pass)
gives one sample of each metric it measures, and every child one sample of
``setup_s`` and ``peak_rss_mib``; this process reports the median of each
metric's samples over the run.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` each child also repeats the measured
phase with every layer's entry points wrapped, and the metrics are the
per-layer ones.  Spans of a traced run are written to
``.perfbench/trace/``.  The last line of standard output is the JSON result;
a failed check exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet-steady", "fleet-chaos", "fleet-reference", "serve-warm")
REPEATS = 3
#: Every run must end within this many wall seconds.
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def run_child(command: list[str], deadline: float) -> dict | None:
    """Run one repeat; its parsed report, or None if it failed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print("perfbench: repeat timed out", file=sys.stderr)
        return None
    if done.returncode != 0 or not done.stdout.strip():
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program source at {ROOT / 'src' / 'repro'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in metrics}

    workdir = ROOT / ".perfbench" / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    reports = []
    try:
        for repeat in range(REPEATS):
            command = [
                sys.executable, str(HERE / "child.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--budget", str(args.seconds / REPEATS),
                "--workdir", str(workdir / str(repeat)),
            ]
            if repeat == 0:
                command.append("--cross-check")
            if args.trace:
                dump = ROOT / ".perfbench" / "trace" / (
                    f"{args.workload}-seed{args.seed}-{repeat}.jsonl"
                )
                command += ["--trace", "--dump", str(dump)]
            started = time.monotonic()
            report = run_child(command, deadline)
            if report is None:
                return fail(f"repeat {repeat} of {args.workload} failed")
            reports.append(report)
            print(
                f"perfbench: {args.workload} seed {args.seed} repeat {repeat + 1}/{REPEATS}"
                f" done in {time.monotonic() - started:.1f} s",
                file=sys.stderr,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len({report["digest"] for report in reports}) != 1:
        return fail("repeats of one seed produced different aggregate sha256")
    if args.trace:
        pooled = {
            name: [report["layers"][name] for report in reports if name in report["layers"]]
            for name in units
        }
    else:
        pooled = {
            name: [value for report in reports for value in report["samples"].get(name, ())]
            for name in units
        }
    missing = sorted(name for name, values in pooled.items() if not values)
    if missing:
        return fail(f"no samples of {missing}")
    result = {
        "correct": True,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": {
            name: {"value": statistics.median(pooled[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
