#!/usr/bin/env python3
"""Run the benchmark workloads over several seeds and write BENCH_<label>.json.

For each workload and seed this runs `perfbench/run.py` of the checkout it
lives in, one run at a time, and reads the JSON summary on the last line of
its output.  The file written at the repository root records the commit
(and whether tracked files differ from it), the machine, the Python, numpy
and scipy versions, and for every workload and metric the per-seed values
with their median and quartiles, plus the attempted and failed item totals.

Usage: python scripts/bench.py --label L --workloads repair closure
                               --seeds 61 62 63 --seconds 20 [--size tiny]

Exits 1 if any run fails or reports "correct": false; the file is still
written.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
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
    p.add_argument("--label", required=True, type=_label, help="names BENCH_<label>.json")
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0, help="per run")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


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


def run_one(workload: str, seed: int, seconds: float, size: str) -> dict:
    """One perfbench run; its summary, or a failed entry if it printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
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


def main(argv=None) -> int:
    args = _parse(argv)
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
