"""Paired A/B runs of the repository benchmark: a base revision against the working tree.

    python3 benchmarks/ab.py --workload fleet-chaos --base HEAD --seeds 31-40

Process CPU time on a small shared host drifts by up to 2x over tens of
seconds, so one run per side cannot resolve a few-percent move.  This
script pairs the runs instead:

* it exports ``--base`` with ``git archive`` into a temporary directory;
* for every seed it runs
  ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
  once in the base tree and once in the working tree, with ``T`` the
  ``run_seconds`` of ``BENCHMARK.json``; the base goes first on even pair
  indices and the change on odd ones (ABBA), so a slow drift hits both
  sides alike;
* a run that exits non-zero, or does not report ``correct: true``, aborts
  the comparison — a failed run is never counted as a number;
* for every end-to-end metric of ``BENCHMARK.json`` it prints each side's
  median and quartiles, the median per-pair ratio (change / base), the
  pairs the change won, a verdict against the metric's ``better`` and
  ``bound`` (see :func:`summarize`) and, beside it, a seeded 95 % bootstrap
  interval of the median pair ratio;
* it writes ``benchmarks/out/ab/<workload>.json`` with the raw results of
  every run, both revisions, ``nproc`` and the Python version.

Kernel changes move CPU by a few percent, less than the drift between
processes, so ``--in-process`` compares the batched kernel alone, in one
process::

    python3 benchmarks/ab.py --in-process --base HEAD --rounds 30

* it imports the base revision's ``repro/kernel/`` package beside the
  working tree's (as ``repro.kernel_base``; everything else in ``repro``
  is the working tree's) and swaps ``build_scenario_lane``,
  ``build_session_lane`` and ``run_lane`` where
  ``repro.experiments.runner`` and ``fleet_runner`` look them up;
* every round times ``ScenarioRunner(config, kernel="batched").simulate()``
  with process CPU for each side on each of four configs (webcam-udp-ul
  at 2 x 720 s and vridge-gvsp-dl at 2 x 240 s, plain and with
  fleet-chaos's overrides; each run costs at least about 0.2 s of CPU on
  a 2-vCPU host, and host drift between adjacent runs still spreads an
  A/A run's per-round ratio by a few percent), base first on even rounds
  and the change first on odd ones (ABBA), and aborts unless both sides'
  results are equal;
* per config it prints each side's median CPU and the median and
  quartiles of the per-round ratio (change / base) — see
  :func:`ratio_summary` — and writes ``benchmarks/out/ab/in-process.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "benchmarks" / "out" / "ab"
#: Share of pairs the change must win for a gain (9 of 10).
GAIN_WIN_SHARE = 0.9
#: Resamples and seed of the bootstrap interval of the median pair ratio.
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 1

GAIN = "gain"
NO_WORSE = "no worse"
WORSE = "worse"
UNRESOLVED = "unresolved"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def bootstrap_interval(ratios: list[float]) -> list[float] | None:
    """Seeded 95 % percentile-bootstrap interval of the median of ``ratios``.

    Resamples the pair ratios with replacement :data:`BOOTSTRAP_RESAMPLES`
    times from a fixed seed, so the same ratios always give the same
    interval; None without ratios.
    """
    if not ratios:
        return None
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(BOOTSTRAP_RESAMPLES)
    )
    tail = BOOTSTRAP_RESAMPLES // 40  # 2.5 % of the resamples on each side
    return [medians[tail], medians[-1 - tail]]


def summarize(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric's paired samples; ``base[i]`` pairs with ``change[i]``.

    The verdict, checked in this order:

    * ``gain``: the change is better on at least 90 % of the pairs, and its
      median beats the base median by more than the base's interquartile
      range;
    * ``worse``: the change median is worse than the base median by more
      than ``bound`` (a relative share);
    * ``unresolved``: either side's interquartile range exceeds ``bound``
      of its median, so the runs spread too widely to call the metric
      unchanged;
    * ``no worse``: otherwise.

    ``ratio_ci95`` is the 95 % bootstrap interval of the median pair ratio
    (see :func:`bootstrap_interval`); it is reported, not used by the
    verdict.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of base and change samples")
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    ratios = [c / b for b, c in zip(base, change) if b != 0]
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    gain = sign * (c_med - b_med)  # > 0: the change median is better

    def spread(q1: float, median: float, q3: float) -> float:
        return (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else math.inf)

    if wins >= math.ceil(GAIN_WIN_SHARE * len(base)) and gain > b_q3 - b_q1:
        verdict = GAIN
    elif -gain > bound * abs(b_med):
        verdict = WORSE
    elif max(spread(b_q1, b_med, b_q3), spread(c_q1, c_med, c_q3)) > bound:
        verdict = UNRESOLVED
    else:
        verdict = NO_WORSE
    return {
        "better": better,
        "bound": bound,
        "base": {"q1": b_q1, "median": b_med, "q3": b_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "ratio_median": statistics.median(ratios) if ratios else None,
        "ratio_ci95": bootstrap_interval(ratios),
        "wins": wins,
        "pairs": len(base),
        "verdict": verdict,
    }


def ratio_summary(base: list[float], change: list[float]) -> dict:
    """One config's paired CPU times; ``base[i]`` pairs with ``change[i]``.

    Each side's median, and the first quartile, median and third quartile
    of the per-round ratio change / base (below 1: the change is faster).
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of base and change samples")
    if min(base) <= 0:
        raise ValueError("base CPU times must be positive")
    q1, median, q3 = quartiles([c / b for b, c in zip(base, change)])
    return {
        "base_median": statistics.median(base),
        "change_median": statistics.median(change),
        "ratio": {"q1": q1, "median": median, "q3": q3},
        "rounds": len(base),
    }


def parse_seeds(items: list[str]) -> list[int]:
    """``["31-33", "40"]`` -> ``[31, 32, 33, 40]``."""
    seeds = []
    for item in items:
        first, _, last = item.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"repeated seed in {items}")
    return seeds


def rev_sha(rev: str) -> str:
    """The full sha of commit ``rev`` of this repository."""
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()


def export(rev: str, into: Path) -> str:
    """Extract ``rev`` of this repository into ``into``; its full sha."""
    sha = rev_sha(rev)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``; its JSON result.  Exits on failure."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"ab: {workload} seed {seed} failed in {tree} (exit {done.returncode})")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        sys.exit(f"ab: {workload} seed {seed} in {tree} did not report correct: true")
    return result


def load_base_kernel(sha: str, into: Path):
    """Import ``sha``'s ``repro/kernel/`` package as ``repro.kernel_base``.

    Its relative imports of the rest of ``repro`` resolve to the working
    tree, so the two sides differ in the kernel only.
    """
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha, "src/repro/kernel"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    package = into / "src" / "repro" / "kernel"
    spec = importlib.util.spec_from_file_location(
        "repro.kernel_base", package / "__init__.py",
        submodule_search_locations=[str(package)],
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def in_process(base: str, rounds: int) -> int:
    """The one-process kernel A/B (see the module docstring)."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro.kernel
    from repro.experiments import fleet_runner, runner
    from repro.experiments.scenarios import VRIDGE_DL, WEBCAM_UDP_UL
    from repro.netsim.faults import FAULT_PROFILES

    def use(kernel) -> None:
        runner.build_scenario_lane = kernel.build_scenario_lane
        fleet_runner.build_session_lane = kernel.build_session_lane
        fleet_runner.run_lane = kernel.run_lane

    def timed(config) -> tuple[float, tuple]:
        scenario = runner.ScenarioRunner(config, kernel="batched")
        gc.collect()
        start = time.process_time()
        scenario.simulate()
        cpu = time.process_time() - start
        usages = scenario.collect()
        scenario.collect_metrics()
        return cpu, (usages, scenario.metrics.snapshot())

    chaos = dict(outage_eta=0.1, faults=FAULT_PROFILES["chaos"],
                 handover_interval_s=20.0, handover_x2=True)
    configs = {}
    for app, cycle_s in ((WEBCAM_UDP_UL, 720.0), (VRIDGE_DL, 240.0)):
        plain = app.with_(n_cycles=2, cycle_duration_s=cycle_s)
        configs[app.name] = plain
        configs[f"{app.name}+chaos"] = plain.with_(**chaos)

    sha = rev_sha(base)
    cpu = {name: {"base": [], "change": []} for name in configs}
    with tempfile.TemporaryDirectory(prefix="ab-kernel-") as tmp:
        sides = {"base": load_base_kernel(sha, Path(tmp)), "change": repro.kernel}
        try:
            for index in range(rounds):
                order = ("base", "change") if index % 2 == 0 else ("change", "base")
                for name, config in configs.items():
                    results = {}
                    for side in order:
                        use(sides[side])
                        seconds, results[side] = timed(config)
                        cpu[name][side].append(seconds)
                    if results["base"] != results["change"]:
                        sys.exit(f"ab: {name} round {index}: base and change results differ")
                print(f"ab: round {index + 1}/{rounds} done", file=sys.stderr)
        finally:
            use(repro.kernel)

    summary = {}
    print(f"{'config':<24} {'base cpu s':>10} {'change cpu s':>12}   ratio q1/med/q3")
    for name in configs:
        row = ratio_summary(cpu[name]["base"], cpu[name]["change"])
        summary[name] = row
        ratio = row["ratio"]
        print(f"{name:<24} {row['base_median']:>10.4f} {row['change_median']:>12.4f}   "
              f"{ratio['q1']:.3f} {ratio['median']:.3f} {ratio['q3']:.3f}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / "in-process.json"
    out.write_text(json.dumps({
        "rounds": rounds,
        "base": {"rev": base, "sha": sha},
        "change": {"rev": "working tree", "head": rev_sha("HEAD")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "summary": summary,
        "cpu_s": cpu,
    }, indent=2) + "\n")
    print(f"ab: wrote {out.relative_to(ROOT)}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seeds", nargs="+",
                        help="seeds or inclusive ranges, e.g. 31-40")
    parser.add_argument("--in-process", action="store_true",
                        help="compare the batched kernel alone, in this process")
    parser.add_argument("--rounds", type=int, default=30,
                        help="ABBA rounds of --in-process (default 30)")
    args = parser.parse_args(argv)
    if args.in_process:
        return in_process(args.base, args.rounds)
    if args.workload is None or not args.seeds:
        parser.error("--workload and --seeds are required without --in-process")
    seeds = parse_seeds(args.seeds)
    head = rev_sha("HEAD")

    runs = []
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base_tree = Path(tmp)
        base_sha = export(args.base, base_tree)
        for index, seed in enumerate(seeds):
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            for side in order:
                tree = base_tree if side == "base" else ROOT
                result = run_once(tree, args.workload, seed, seconds)
                runs.append({"seed": seed, "side": side, "result": result})
                value = result["metrics"].get("ue_cycles_per_cpu_s", {}).get("value")
                print(f"ab: {args.workload} seed {seed} {side:>6} done"
                      + (f" ({value:.2f} ue-cycle/s)" if value is not None else ""),
                      file=sys.stderr)

    def samples(side: str, name: str) -> list[float]:
        by_seed = {run["seed"]: run["result"]["metrics"][name]["value"]
                   for run in runs if run["side"] == side}
        return [by_seed[seed] for seed in seeds]

    summary = {}
    print(f"{'metric':<22} {'base q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'ratio':>7} {'wins':>6}  verdict     ratio 95% ci")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        row = summarize(samples("base", name), samples("change", name),
                        metric["better"], metric["bound"])
        summary[name] = row
        b, c = row["base"], row["change"]
        ratio = "-" if row["ratio_median"] is None else f"{row['ratio_median']:.3f}"
        ci = "-" if row["ratio_ci95"] is None else "[{:.3f}, {:.3f}]".format(*row["ratio_ci95"])
        print(f"{name:<22} {b['q1']:>9.4g} {b['median']:>9.4g} {b['q3']:>9.4g}  "
              f"{c['q1']:>9.4g} {c['median']:>9.4g} {c['q3']:>9.4g}  "
              f"{ratio:>7} {row['wins']:>2}/{row['pairs']:<3}  {row['verdict']:<10}  {ci}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{args.workload}.json"
    out.write_text(json.dumps({
        "workload": args.workload,
        "seconds": seconds,
        "seeds": seeds,
        "base": {"rev": args.base, "sha": base_sha},
        "change": {"rev": "working tree", "head": head},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "summary": summary,
        "runs": runs,
    }, indent=2) + "\n")
    print(f"ab: wrote {out.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
