"""nvqpt benchmark: one closed-loop caller, BLAS pinned to one thread.

Usage:
  python3 perfbench/run.py --workload {repair,closure,tomography,cli}
                           --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  With
--trace 0 the chosen workload's items run back to back for S seconds and
the end-to-end metrics are printed.  With --trace 1 a fixed number of items
runs twice, untraced and then with spans recorded around nvqpt's public
functions, and the per-layer metrics are printed.  The last line of
standard output is a JSON object {correct, attempted, failed, metrics};
the lines before it give every metric and quality number with its unit,
the input provenance and the environment.  Spans and a full report are
written under perfbench/out/.

Speed normalization.  On a shared host the speed of one core drifts by
+-25% over tens of seconds, and the drift moves every timing with it.  The
loop therefore times a fixed calibration kernel between items (at least
every CAL_INTERVAL_S) and scales each item's time by CAL_NOMINAL_S over the
mean of the calibrations bracketing it.  The end-to-end times are these
scaled times: the time the item would take on the host when the kernel runs
at its nominal speed.  The unscaled times are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("repair", "closure", "tomography", "cli")
SETUP_PROBES = 3
IMPORT_PROBES = 3
# The tomography pass is short, so the traced run repeats it to time the
# tracing overhead over a few seconds.
TRACE_PASSES = {"repair": 1, "closure": 1, "tomography": 8, "cli": 1}
# Calibration kernel time on an uncontended core of the reference host
# (Intel Xeon, 2-vCPU KVM guest): the 5th percentile of 1000 back-to-back runs.
CAL_NOMINAL_S = 0.0136
CAL_INTERVAL_S = 0.2


def _pin_environment() -> None:
    """Must run before numpy is imported.  Children inherit the thread
    settings and the single-CPU affinity, so the calibration kernel and the
    timed work always share one core."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few inputs per workload, for the self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up in this fresh interpreter and exit")
    return p.parse_args(argv)


def calibrate() -> float:
    """Seconds for a fixed kernel shaped like nvqpt's hot loops: Python
    iterations over small complex matrix products, reductions and eigh."""
    import numpy as np

    a = (np.arange(16.0).reshape(4, 4) + 1j) * 1e-2
    t0 = time.perf_counter()
    for _ in range(1000):
        b = a.conj().T @ a
        float(np.sum(np.abs(b - a) ** 2))
        np.linalg.eigvalsh(b)
    return time.perf_counter() - t0


def setup_probe(args) -> None:
    """Time import + reference load + input generation from a cold
    interpreter; print raw and scaled time and the input hash as JSON."""
    t0 = time.perf_counter()
    import inputs
    from nvqpt import reference

    reference.load()
    built = inputs.build(args.workload, args.seed, args.size)
    elapsed = time.perf_counter() - t0
    cal = (calibrate() + calibrate()) / 2
    print(json.dumps({"raw_s": elapsed, "scaled_s": elapsed * CAL_NOMINAL_S / cal,
                      "sha256": built.sha256}))


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, check=True)


def measure_setup(args) -> list[dict]:
    return [json.loads(_child([str(BENCH_DIR / "run.py"), "--setup-probe", "--workload",
                               args.workload, "--seed", str(args.seed), "--size",
                               args.size]).stdout.strip().splitlines()[-1])
            for _ in range(SETUP_PROBES)]


def measure_import_ms() -> float:
    walls = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        _child(["-c", "import nvqpt"])
        walls.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(walls)


def environment() -> dict:
    import hashlib

    import numpy
    import scipy
    from nvqpt import tolerances

    digest = hashlib.sha256()
    for path in sorted((SRC / "nvqpt").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "bytecode": "src/nvqpt and perfbench compiled before timing: warm cache on every run",
        "tolerances": dict(tolerances.table()),
    }


def hd_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a beta-weighted mean of all
    order statistics.  On a few heterogeneous items (repair, cli) it moves
    smoothly where the sample median jumps between neighbouring items."""
    import numpy as np
    from scipy.special import betainc

    n = len(values)
    a = (n + 1) / 2
    weights = np.diff(betainc(a, a, np.arange(n + 1) / n))
    return float(weights @ np.sort(values))


def tail(times_ms: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it; None when
    that percentile would not lie above the median."""
    n = len(times_ms)
    if n <= 20:
        return None
    k = n - 11
    return {"value_ms": sorted(times_ms)[k], "percentile": 100.0 * (k + 1) / n,
            "beyond": 10, "samples": n}


class Runner:
    """Runs items of one workload back to back, calibrating between them."""

    def __init__(self, workload: str, items: list[dict], work_dir: Path):
        import workloads

        self.w = workloads
        self.workload = workload
        self.items = items
        self.work_dir = work_dir

    def one(self, index: int, inner_cals: list[float], tracer=None):
        """Run item `index` (cyclic); return (seconds, Outcome, raw output).
        Calibrations taken between CLI stages are appended to `inner_cals`.
        With a tracer, the timed part is recorded as the item's root span."""
        import tracing

        item = self.items[index % len(self.items)]
        out = None
        if tracer:
            tracer.current_item = index
            sid = tracer.open(tracer.name_id(tracing.ITEM))
        t0 = time.perf_counter()
        try:
            if self.workload == "cli":
                # calibrate between stages, except where it would sit inside spans
                out = self.w.run_cli(item, self.work_dir, tracer, between=(
                    (lambda: None) if tracer else lambda: inner_cals.append(calibrate())))
                elapsed = sum(info["wall_s"] for info in out["stages"].values())
            else:
                out = self.w.RUN[self.workload](item)
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # a failing item is counted, not fatal
            return time.perf_counter() - t0, self.w.Outcome(False, detail=repr(exc)), None
        finally:
            if tracer:
                tracer.close(sid)
                tracer.current_item = tracing.SETUP
        try:
            outcome = self.w.CHECK[self.workload](item, out)
        except Exception as exc:
            outcome = self.w.Outcome(False, detail=f"check raised {exc!r}")
        return elapsed, outcome, out

    def loop(self, seconds: float | None = None, count: int | None = None, tracer=None):
        """Items back to back, for `seconds` or for `count` items.  Returns
        raw and scaled item times (s), outcomes and raw outputs."""
        raw, outcomes, outs, brackets = [], [], [], []
        cals = [calibrate()]
        last_cal = time.perf_counter()
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            while (len(raw) < count) if count is not None else (
                    not raw or time.perf_counter() - start < seconds):
                inner: list[float] = []
                dt, outcome, out = self.one(len(raw), inner, tracer)
                # keep per-item state small and bounded, so that peak RSS does
                # not grow with the number of items a run gets through: quality
                # is summarized over the first pass, outputs kept for CLI only
                if len(raw) >= len(self.items):
                    outcome.quality = {}
                raw.append(dt)
                outcomes.append(outcome)
                outs.append(out if self.workload == "cli" else None)
                brackets.append((len(cals) - 1, inner))
                if time.perf_counter() - last_cal >= CAL_INTERVAL_S:
                    cals.append(calibrate())
                    last_cal = time.perf_counter()
        finally:
            if tracer:
                tracer.uninstall()
        cals.append(calibrate())
        scaled = [dt * CAL_NOMINAL_S / statistics.fmean([cals[b], *inner, cals[b + 1]])
                  for dt, (b, inner) in zip(raw, brackets)]
        return raw, scaled, outcomes, outs


def _failed(outcomes) -> int:
    return sum(not o.ok for o in outcomes)


def _evaluation_cap() -> int | None:
    """The simplex budget, where the program still has one."""
    from nvqpt import numkit

    options = getattr(numkit, "SimplexOptions", None)
    return options().max_evaluations if options else None


def layer_metrics(workload, spans, item_name_id, outcomes_traced, scaled_untraced,
                  scaled_traced, outs_untraced, import_ms) -> dict:
    import numpy as np

    import tracing
    import workloads

    in_items = spans["item"] >= 0
    agg = tracing.aggregate(spans, in_items)
    # nvsim.run_experiment is the set-up layer: count its set-up calls too
    agg_all = tracing.aggregate(spans, np.ones(len(in_items), dtype=bool))
    zero = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for qualname in tracing.TRACED:
        entry = (agg_all if qualname.startswith("nvsim.") else agg).get(qualname, zero)
        put(f"{qualname}.calls", entry["calls"], "count")
        put(f"{qualname}.total_ms", entry["total_ms"], "ms")
        put(f"{qualname}.self_ms", entry["self_ms"], "ms")

    cap = _evaluation_cap()
    for layer, solver in (("cpfit", "cpfit.project_to_cp"), ("lindblad", "lindblad.fit_generator")):
        evals = [e for o in outcomes_traced for e in getattr(o, f"{layer}_evals")]
        total = sum(evals)
        put(f"{layer}.evaluations", total, "count")
        put(f"{layer}.us_per_eval",
            1e3 * agg.get(solver, zero)["total_ms"] / total if total else 0.0, "us")
        put(f"{layer}.budget_stops", sum(e >= cap for e in evals) if cap else 0, "count")

    put("cli.import_ms", import_ms, "ms")
    for stage in workloads.STAGES:
        walls = [o["stages"][stage]["wall_s"] * 1e3 for o in outs_untraced
                 if workload == "cli" and o is not None and stage in o["stages"]]
        put(f"cli.{stage}.wall_ms", statistics.median(walls) if walls else 0.0, "ms")

    items = spans["name"] == item_name_id
    put("trace.item_ms", float(np.sum(spans["end"][items] - spans["start"][items])) / 1e6, "ms")
    put("trace.untraced_ms", float(np.sum(tracing.self_times(spans)[items])) / 1e6, "ms")
    put("trace.overhead_ratio", sum(scaled_untraced) / sum(scaled_traced), "ratio")
    return metrics


def _same_results(a, b) -> bool:
    """Equal checks, quality and evaluation counts, item by item (untraced
    CLI runs cannot count the lindblad objective, so those may be empty)."""
    return len(a) == len(b) and all(
        x.ok == y.ok and x.quality == y.quality and x.cpfit_evals == y.cpfit_evals
        and (x.lindblad_evals == y.lindblad_evals or not x.lindblad_evals)
        for x, y in zip(a, b))


def run_traced(args, runner, n_items, tracer, report) -> tuple[dict, list]:
    import numpy as np

    import tracing
    import workloads

    _, scaled_u, outcomes_u, outs_u = runner.loop(count=n_items)
    _, scaled_t, outcomes_t, _ = runner.loop(count=n_items, tracer=tracer)
    spans = tracer.arrays()
    metrics = layer_metrics(args.workload, spans, tracer.name_id(tracing.ITEM), outcomes_t,
                            scaled_u, scaled_t, outs_u, measure_import_ms())
    np.savez_compressed(OUT_DIR / f"spans-{report['tag']}.npz", **spans)
    report.update(traced_identical=_same_results(outcomes_u, outcomes_t),
                  nesting_errors=tracing.nesting_errors(spans),
                  quality_untraced=workloads.summarize(outcomes_u),
                  quality_traced=workloads.summarize(outcomes_t))
    report["quality"] = report["quality_untraced"]
    return metrics, outcomes_u + outcomes_t


def run_timed(args, runner, probes, report) -> tuple[dict, list]:
    import resource

    import workloads

    raw, scaled, outcomes, outs = runner.loop(seconds=args.seconds)
    if args.workload == "cli":
        rss = max((info["rss_mb"] for o in outs if o for info in o["stages"].values()),
                  default=0.0)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(p["scaled_s"] for p in probes), "unit": "s"},
        "items_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
        "item_p50_ms": {"value": 1e3 * hd_median(scaled), "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    report.update(
        unscaled={"setup_s": statistics.median(p["raw_s"] for p in probes),
                  "items_per_s": len(raw) / sum(raw),
                  "item_p50_ms": 1e3 * hd_median(raw)},
        setup_probes=probes,
        item_tail=tail([1e3 * t for t in scaled]),
        quality=workloads.summarize(outcomes))
    return metrics, outcomes


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value!r} {unit}{'  ' + note if note else ''}")


def print_report(report: dict, metrics: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']} seed {report['seed']} ({report['size']}): "
          f"{report['why']}")
    print(f"inputs {report['inputs']} per pass, unphysical share "
          f"{report['unphysical_share']:.4f}, sha256 {report['inputs_sha256']}")
    print(f"environment commit={env['commit']} source_sha256={env['source_sha256'][:16]} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} blas_threads=1")
    print(f"tolerances {json.dumps(env['tolerances'], sort_keys=True)}")
    for name, m in metrics.items():
        _print_metric(name, m["value"], m["unit"])
    if "unscaled" in report:
        for name, value in report["unscaled"].items():
            _print_metric(f"unscaled.{name}", value, metrics[name]["unit"],
                          "(not speed-normalized)")
        t = report["item_tail"]
        if t:
            _print_metric("item_tail_ms", t["value_ms"], "ms",
                          f"(p{t['percentile']:.2f}, {t['beyond']} of {t['samples']} "
                          "samples beyond)")
        else:
            print(f"metric item_tail_ms = n/a  ({report['attempted']} samples; "
                  "a tail needs more than 20)")
    else:
        print(f"trace traced_identical={report['traced_identical']} "
              f"nesting_errors={report['nesting_errors']}")
    for name, value in report["quality"].items():
        _print_metric(name, value, "1")
    _print_metric("failed_ratio", report["failed_ratio"], "1",
                  f"({report['failed']} of {report['attempted']})")
    for detail in report["failures"]:
        print(f"failure {detail}")


def main(argv=None) -> int:
    args = _parse(argv)
    if "NVQPT_TOLERANCES" in os.environ:
        print("error: NVQPT_TOLERANCES is set; the benchmark runs on the default "
              "tolerance table only", file=sys.stderr)
        return 2
    if not (SRC / "nvqpt" / "__init__.py").is_file():
        print(f"error: no nvqpt package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    _pin_environment()
    if args.setup_probe:
        setup_probe(args)
        return 0

    import compileall

    for package in (SRC / "nvqpt", BENCH_DIR):
        compileall.compile_dir(str(package), quiet=1)
    probes = [] if args.trace else measure_setup(args)

    import inputs
    import nvqpt
    import tracing

    if Path(nvqpt.__file__).resolve().parent != (SRC / "nvqpt").resolve():
        print(f"error: nvqpt imported from {nvqpt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()  # records nvsim.run_experiment during set-up
    built = inputs.build(args.workload, args.seed, args.size)
    if tracer:
        tracer.uninstall()
    if any(p["sha256"] != built.sha256 for p in probes):
        print("error: set-up probes generated different inputs", file=sys.stderr)
        return 3

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    why = {w["name"]: w["why"] for w in json.loads(BENCHMARK.read_text())["workloads"]}
    report = {"workload": args.workload, "seed": args.seed, "size": args.size, "tag": tag,
              "why": why[args.workload], "inputs": len(built.items),
              "unphysical_share": built.unphysical_share, "inputs_sha256": built.sha256,
              "environment": environment()}
    runner = Runner(args.workload, built.items, OUT_DIR / f"work-{tag}-{os.getpid()}")
    try:
        if args.trace:
            passes = TRACE_PASSES[args.workload] if args.size == "full" else 1
            metrics, outcomes = run_traced(args, runner, passes * len(built.items), tracer,
                                           report)
        else:
            metrics, outcomes = run_timed(args, runner, probes, report)
    finally:
        if runner.work_dir.exists():
            for f in runner.work_dir.iterdir():
                f.unlink()
            runner.work_dir.rmdir()

    failed = _failed(outcomes)
    correct = failed == 0 and (not args.trace or (report["traced_identical"]
                                                  and not report["nesting_errors"]))
    report.update(metrics=metrics, attempted=len(outcomes), failed=failed, correct=correct,
                  failed_ratio=failed / len(outcomes),
                  failures=[o.detail for o in outcomes if not o.ok][:10],
                  evaluations={"cpfit": [e for o in outcomes for e in o.cpfit_evals],
                               "lindblad": [e for o in outcomes for e in o.lindblad_evals]})
    (OUT_DIR / f"report-{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(report, metrics)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
