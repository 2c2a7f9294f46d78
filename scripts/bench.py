#!/usr/bin/env python3
"""Run the benchmark workloads over several seeds and write BENCH_<label>.json.

For each workload and seed this runs `perfbench/run.py` of the checkout it
lives in, one run at a time, and reads the JSON summary on the last line of
its output.  The file written at the repository root records the commit
(and whether tracked files differ from it), the machine, the Python, numpy
and scipy versions, and for every workload and metric the per-seed values
with their median and quartiles, plus the attempted and failed item totals.

With --pairs PARENT_DIR, a clean checkout of the parent commit, it instead
compares the two checkouts and writes no file.  For each workload and seed
it runs `perfbench/run.py` in both, alternating which runs first (the parent
on the first seed), and prints each run's end-to-end metrics.  For every
end-to-end metric of BENCHMARK.json it then prints each side's median and
quartiles and two verdicts:
  - the claim rule: the change is better on at least 90% of the pairs (9 of
    10), and its median is better than the parent's by more than the
    parent's interquartile range;
  - the bound: the change's median is not worse than the parent's by more
    than the metric's relative bound.
It also flags a larger share of failed items in the change.

Usage: python scripts/bench.py --label L --workloads repair closure
                               --seeds 61 62 63 --seconds 20 [--size tiny]
       python scripts/bench.py --pairs PARENT_DIR --workloads repair
                               --seeds 311 312 313 --seconds 20

Exits 1 if any run fails or reports "correct": false; the file is still
written.  The verdicts of --pairs are a report and do not set the exit
status.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("repair", "closure", "tomography", "cli")


def _label(text: str) -> str:
    if not re.fullmatch(r"[A-Za-z0-9._-]+", text):
        raise argparse.ArgumentTypeError("use letters, digits, '.', '_' or '-'")
    return text


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", type=_label, help="names BENCH_<label>.json")
    p.add_argument("--pairs", type=Path, metavar="PARENT_DIR",
                   help="compare with the parent checkout in alternating pairs")
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0, help="per run")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.pairs is None and args.label is None:
        p.error("--label is required unless --pairs is given")
    if args.pairs is not None and not (args.pairs / "perfbench" / "run.py").is_file():
        p.error(f"--pairs: no perfbench/run.py under {args.pairs}")
    return args


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def run_one(workload: str, seed: int, seconds: float, size: str, root: Path = ROOT) -> dict:
    """One perfbench run in checkout `root`; its summary, or a failed entry if it printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--size", size]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        summary = None
    if proc.returncode != 0 or not isinstance(summary, dict):
        return {"seed": seed, "correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {"seed": seed, "correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
            "units": {k: v["unit"] for k, v in summary["metrics"].items()}}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def workload_summary(runs: list[dict]) -> dict:
    units = {k: u for r in runs for k, u in r.pop("units", {}).items()}
    names = [k for k in units if all(k in r["metrics"] for r in runs)]
    return {
        "seeds": [r["seed"] for r in runs],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": all(r["correct"] for r in runs),
        "metrics": {k: {"unit": units[k], **summarize([r["metrics"][k] for r in runs])}
                    for k in names},
        "runs": runs,
    }


def compare(name: str, better: str, bound: float, parent: list[float],
            change: list[float]) -> str:
    """One metric's lines: both sides' medians and quartiles, the claim rule and the bound."""
    p, c = summarize(parent), summarize(change)
    sign = 1.0 if better == "higher" else -1.0  # sign * (change - parent) > 0 is a gain
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gain, iqr = sign * (c["median"] - p["median"]), p["q3"] - p["q1"]
    claim = wins >= math.ceil(0.9 * len(parent)) and gain > iqr
    worse = -gain / abs(p["median"]) if p["median"] else (0.0 if gain >= 0 else math.inf)
    if worse > bound:
        verdict = "BEYOND BOUND"
    elif iqr > bound * abs(p["median"]) and min(sign * x for x in change) <= max(
            sign * x for x in parent):
        verdict = "unresolved: the parent's IQR is wider than the bound"
    else:
        verdict = "within bound"
    return (f"  {name} ({better} is better): parent {p['median']:.4g} [{p['q1']:.4g}, "
            f"{p['q3']:.4g}], change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]\n"
            f"    claim: better in {wins} of {len(parent)} pairs, median gain {gain:.4g} "
            f"against the parent's IQR {iqr:.4g}: {'holds' if claim else 'does not hold'}\n"
            f"    bound: worse by {100 * worse:+.1f}% (bound {100 * bound:.0f}%): {verdict}")


def run_pairs(args) -> int:
    """Alternating parent/change runs per seed, then every end-to-end metric's verdicts."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.pairs.resolve(), "change": ROOT}
    correct = True
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                run = run_one(workload, seed, args.seconds, args.size, sides[side])
                runs[side].append(run)
                values = " ".join(f"{m['name']}={run['metrics'].get(m['name'], math.nan):.4g}"
                                  for m in metrics)
                print(f"{workload} seed {seed} {side}: correct={run['correct']} "
                      f"attempted={run['attempted']} failed={run['failed']} {values}",
                      flush=True)
                correct = correct and run["correct"]
        print(f"{workload}, {len(args.seeds)} pairs:")
        if not all(m["name"] in r["metrics"] for m in metrics
                   for rs in runs.values() for r in rs):
            print("  a run printed no summary; no verdicts")
            continue
        for m in metrics:
            print(compare(m["name"], m["better"], m["bound"],
                          *([r["metrics"][m["name"]] for r in runs[side]]
                            for side in ("parent", "change"))))
        share = {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
                 for side, rs in runs.items()}
        print(f"  failed share: parent {share['parent']:.3g}, change {share['change']:.3g}"
              f"{' (LARGER in the change)' if share['change'] > share['parent'] else ''}")
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.pairs is not None:
        return run_pairs(args)
    report = {"label": args.label, "seconds": args.seconds, "size": args.size,
              "environment": environment(), "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = run_one(workload, seed, args.seconds, args.size)
            p50 = run["metrics"].get("item_p50_ms")
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"attempted={run['attempted']} failed={run['failed']} "
                  f"item_p50_ms={'n/a' if p50 is None else f'{p50:.4g}'}", flush=True)
            runs.append(run)
        report["workloads"][workload] = workload_summary(runs)
    report["correct"] = all(w["correct"] for w in report["workloads"].values())
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.name}: correct={report['correct']}")
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
