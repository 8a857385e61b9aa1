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
  pairs the change won, and a verdict against the metric's ``better`` and
  ``bound`` (see :func:`summarize`);
* it writes ``benchmarks/out/ab/<workload>.json`` with the raw results of
  every run, both revisions, ``nproc`` and the Python version.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "benchmarks" / "out" / "ab"
#: Share of pairs the change must win for a gain (9 of 10).
GAIN_WIN_SHARE = 0.9

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
        "wins": wins,
        "pairs": len(base),
        "verdict": verdict,
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


def export(rev: str, into: Path) -> str:
    """Extract ``rev`` of this repository into ``into``; its full sha."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
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


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="seeds or inclusive ranges, e.g. 31-40")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()

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
          f"{'ratio':>7} {'wins':>6}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        row = summarize(samples("base", name), samples("change", name),
                        metric["better"], metric["bound"])
        summary[name] = row
        b, c = row["base"], row["change"]
        ratio = "-" if row["ratio_median"] is None else f"{row['ratio_median']:.3f}"
        print(f"{name:<22} {b['q1']:>9.4g} {b['median']:>9.4g} {b['q3']:>9.4g}  "
              f"{c['q1']:>9.4g} {c['median']:>9.4g} {c['q3']:>9.4g}  "
              f"{ratio:>7} {row['wins']:>2}/{row['pairs']:<3}  {row['verdict']}")

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
